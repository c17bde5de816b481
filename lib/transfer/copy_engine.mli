(** Asynchronous bulk-data engine: each client's preallocated
    descriptor slab is its own ring — a descriptor's state word says
    whether its slot holds work — drained by one mover (see {!Mover}).
    Implements the client face of {!Ipc_intf.Sigs.BULK}.

    The engine core is substrate-neutral — descriptor semantics come
    from an [exec] callback.  {!Buffers} supplies the real-substrate
    interpretation (bounded byte-region store, [Bytes.blit] copies,
    atomic ownership handoff); the simulator charges cycle costs through
    the [Copy_server] shim instead. *)

type exec = Copy_desc.t -> int
(** Executes one descriptor on the mover; returns its {!Ipc_intf.Errc}
    completion code.  A raise is contained to [Errc.copy_fault]. *)

type t
type client

val create : exec -> t
(** Room for 16 clients: a 17th {!connect} raises [Invalid_argument]. *)

val connect :
  ?capacity:int -> ?on_complete:(tag:int -> rc:int -> unit) -> t -> client
(** New client with a [capacity]-descriptor ring (positive power of
    two, default 64).  [on_complete] runs from {!reap}, once per
    descriptor.
    @raise Invalid_argument on a bad capacity, with the sentence of
    [Runtime.Shm_channel.validate_capacity]. *)

(** {1 Client side (single-owner, like an SPSC producer)} *)

val submit :
  client ->
  op:int ->
  src:int ->
  src_off:int ->
  dst:int ->
  dst_off:int ->
  len:int ->
  tag:int ->
  int
(** Stage one descriptor; does not ring the mover — batch with {!flush}.
    [Errc.retry] when [capacity] descriptors are outstanding,
    [Errc.killed] after mover death, [Errc.ok] otherwise.  Allocates
    nothing. *)

val flush : client -> int
(** One doorbell kick covering everything staged since the last flush;
    returns how many descriptors the kick covers. *)

val reap : client -> int
(** Take this client's completed descriptors in submission order,
    invoking [on_complete] per descriptor; never blocks.  After mover death, strands every
    in-flight descriptor into a completion with [Errc.handler_fault],
    exactly once each.  Returns completions delivered. *)

val outstanding : client -> int
val client_id : client -> int

type client_stats = {
  cs_submitted : int;
  cs_reaped : int;
  cs_rejected : int;  (** submit refused: ring full *)
  cs_failed_swept : int;  (** failed by the post-death sweep *)
}

val client_stats : client -> client_stats

(** {1 Mover side (single consumer — used by {!Mover})} *)

val doorbell : t -> Runtime.Doorbell.t
val pending : t -> int
(** Clients whose next descriptor awaits the mover (not descriptors):
    0 exactly when the mover has nothing to do.  Reads one atomic state
    word per client, so the mover's park recheck sees every submit
    published before it. *)

val drain : t -> budget:int -> int
(** One pass: up to [budget] descriptors per client, round-robin,
    each client's in ring order.  Returns descriptors executed.
    Single-consumer only. *)

val request_kill : t -> unit
val request_quiesce : t -> unit
val killed : t -> bool
val quiescing : t -> bool
val mark_stopped : t -> unit
val stopped : t -> bool

type stats = {
  served : int;
  bytes_copied : int;
  grants_completed : int;
  copy_faults : int;
  doorbell_rings : int;  (** every ring: one per non-empty {!flush} *)
  doorbell_wakes : int;  (** futex wakes issued to a parked mover *)
  mover_parks : int;  (** waits the mover entered *)
}

val stats : t -> stats

(** {1 The runtime substrate's bounded region store} *)

module Buffers : sig
  type store

  val page : int

  val create : unit -> store

  val add : store -> owner:int -> Bytes.t -> (int, int) result
  (** Register a region; [Error Errc.retry] once the table holds its 64
      regions (bounded-pool backpressure, never unbounded growth). *)

  val get : store -> int -> Bytes.t
  val owner : store -> int -> int
  val regions : store -> int

  val exec : store -> exec
  (** [bulk_copy]: range-checked [Bytes.blit].  [bulk_grant]: the
      submitting client must own [src]; ownership flips to the client
      named by [dst], after touching one byte per 4 KiB page (the
      stand-in for real map/remap cost).  Violations answer
      [Errc.copy_fault]. *)
end

val create_with_buffers : unit -> t * Buffers.store
