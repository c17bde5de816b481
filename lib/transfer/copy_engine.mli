(** Asynchronous bulk-data engine: each client's preallocated
    descriptor slab is its own ring — a descriptor's state word says
    whether its slot holds work.  There is no engine thread: a client's
    {!flush} drains the engine on the caller, under a one-word engine
    ticket that makes the drain single-consumer.  Implements the client
    face of {!Ipc_intf.Sigs.BULK}.

    The engine core is substrate-neutral — descriptor semantics come
    from an [exec] callback.  {!Buffers} supplies the real-substrate
    interpretation (bounded byte-region store, [Bytes.blit] copies,
    atomic ownership handoff); the simulator charges cycle costs through
    the [Copy_server] shim instead. *)

type exec = Copy_desc.t -> int
(** Executes one descriptor on the ticket holder; returns its
    {!Ipc_intf.Errc} completion code.  A raise is contained to
    [Errc.copy_fault]. *)

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
(** Stage one descriptor; executes nothing — batch with {!flush}.
    [Errc.retry] when [capacity] descriptors are outstanding,
    [Errc.killed] after {!kill}, [Errc.ok] otherwise.  Allocates
    nothing. *)

val flush : client -> int
(** Take the engine ticket (spinning while another client drains) and
    run round-robin drain passes, up to 32 descriptors per client each,
    until this client has nothing left to execute; then release the
    ticket.  Other clients' staged descriptors run on the way.  Returns
    how many descriptors were staged since the last flush.  Returns
    without draining once the engine is killed. *)

val reap : client -> int
(** Take this client's completed descriptors in submission order,
    invoking [on_complete] per descriptor; never blocks.  After {!kill},
    strands every in-flight descriptor into a completion with
    [Errc.handler_fault], exactly once each.  Returns completions
    delivered. *)

val outstanding : client -> int
val client_id : client -> int

type client_stats = {
  cs_submitted : int;
  cs_reaped : int;
  cs_rejected : int;  (** submit refused: ring full *)
  cs_failed_swept : int;  (** failed by the post-death sweep *)
}

val client_stats : client -> client_stats

(** {1 Deterministic driving and fault injection} *)

val drain : t -> budget:int -> int
(** One pass under the engine ticket: up to [budget] descriptors per
    client, round-robin, each client's in ring order.  Returns
    descriptors executed (0 once killed).  The model tests' stepper. *)

val kill : t -> unit
(** Fault injection: take the engine ticket — waiting for a drain in
    progress to end — mark the engine stopped and never release the
    ticket, stranding every unexecuted descriptor.  The victims' next
    {!reap} runs the fail sweep.  Idempotent. *)

type stats = {
  served : int;
  bytes_copied : int;
  grants_completed : int;
  copy_faults : int;
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
