(** Striped (per-domain) counter: contention-free increments, gather on
    read.  Every stripe is a cache-line-padded atomic
    ({!Padded_atomic}), so two domains incrementing different stripes
    never share a line. *)

type t

val create : ?stripes:int -> unit -> t
(** [stripes] must be a power of two (default 16). *)

val incr : t -> unit
val add : t -> int -> unit

val value : t -> int
(** Weak snapshot: sums all stripes. *)
