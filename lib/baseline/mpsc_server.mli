(** The legacy cross-domain path of [Runtime.Fastcall] (benchmark
    baseline): a server domain that runs requests from an MPSC queue
    through {!Runtime.Fastcall.call}. *)

type t

val spawn : Runtime.Fastcall.t -> t
(** A domain that serves cross-domain requests from an MPSC queue. *)

val cross_call : t -> ep:int -> int array -> int
(** Enqueue on the server domain and spin, then block, until completion.
    Allocates a request record, mutex and condvar per call.  An unbound
    [ep] answers [Ipc_intf.Errc.no_entry]. *)

val shutdown : t -> unit
(** Stop and join the server domain once the queue is drained. *)

val served : t -> int
