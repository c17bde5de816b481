(** Fixed-width copy descriptor: the bulk-data analogue of the 8-register
    argument block.  Preallocated in per-client slabs that serve as the
    client's ring and are reused in FIFO order; the submit→reap warm
    path never allocates. *)

val st_free : int
val st_submitted : int
val st_completed : int

type t = {
  index : int;  (** slot in the owning client's slab *)
  mutable op : int;  (** [Wellknown.bulk_copy] or [Wellknown.bulk_grant] *)
  mutable src : int;
  mutable src_off : int;
  mutable dst : int;
  mutable dst_off : int;
  mutable len : int;
  mutable tag : int;  (** caller's completion cookie, echoed on reap *)
  mutable rc : int;  (** completion status, an {!Ipc_intf.Errc} code *)
  mutable client : int;  (** submitting client id (ownership checks) *)
  state : int Atomic.t;  (** publishes the descriptor to the other side *)
}

val make : index:int -> t

val words : int
(** Width of the wire shape (8), mirroring the register convention. *)

val pp : Format.formatter -> t -> unit
