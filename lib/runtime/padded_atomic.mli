(** Cache-line-padded atomics: the runtime's rule for every atomic word
    that another domain writes on a call path. *)

val make : 'a -> 'a Atomic.t
(** An [Atomic.t] alone on its cache line: an 8-field block whose field
    0 is the value.  Use it with the ordinary [Atomic] operations.  The
    OCaml 5.1 stand-in for 5.2's [Atomic.make_contended]. *)
