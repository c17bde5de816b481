(** Bounded lock-free single-producer single-consumer ring. *)

val validate_capacity : string -> int -> unit
(** [validate_capacity fn n] raises [Invalid_argument] with the uniform
    message ["<fn>: capacity must be a positive power of two (got <n>)"]
    unless [n] is a positive power of two.  Shared by {!Raw.create} and
    [Shm_channel.layout] so the contract is enforced (and worded) once. *)

(** Allocation-free ring: slots hold elements directly, with a
    caller-supplied [dummy] marking empty slots, so pushes allocate
    nothing.  Never push the dummy itself. *)
module Raw : sig
  type 'a t

  val create : capacity:int -> dummy:'a -> 'a t
  (** [capacity] must be a positive power of two.
      @raise Invalid_argument otherwise (see {!validate_capacity}). *)

  val capacity : 'a t -> int
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val is_full : 'a t -> bool

  val try_push : 'a t -> 'a -> bool
  (** Producer domain only. *)

  val try_pop : 'a t -> 'a
  (** Consumer domain only.  Returns [dummy] when the ring is empty. *)
end
