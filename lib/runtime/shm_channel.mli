(** The runtime's one channel protocol, on a {!Segment}: request cells,
    SPSC rings, doorbell, pid and lifecycle words all live at
    {!Ipc_intf.Wire_abi} offsets, so the same protocol runs in-heap
    (Fastcall's channel servers, tests) and over an mmap'd file shared
    by two OS processes — genuinely cross-protection-domain PPC.

    One segment pairs one server with one client; each side holds a [t]
    with its own role.  The warm submit/await path allocates nothing.
    Crash containment extends to whole-process death — in both
    directions: every wait probes the peer's pid at most once per
    {!probe_interval_ns}, and a confirmed death fails every in-flight
    call with [Ipc_intf.Errc.handler_fault] and recycles every cell
    exactly once (CAS-arbitrated per cell).  A server that outlives its
    client {!release_session}s the segment for a successor; a client
    that outlives its server detects the supervisor's in-place
    {!regenerate} through the generation seqlock and fails closed with
    [Errc.stale_generation] until it reattaches ({!Shm_session}
    automates that).

    A parameter named [deadline] is absolute [CLOCK_MONOTONIC]
    nanoseconds ({!Doorbell.now_ns}), [max_int] meaning none; names
    ending in [_ns] ([timeout_ns], {!probe_interval_ns}) are durations. *)

type t
type role = Server | Client

exception Bad_segment of string
(** Raised on attach when the magic, ABI version, construction seqlock
    or header geometry disqualify the segment. *)

(** {1 Construction} *)

val cell_arg_words : int
(** Argument words per cell in every segment this build lays out: 8,
    the width of a Fastcall call, whose last word is the RC slot. *)

val layout : ?capacity:int -> Segment.t -> unit
(** Lay a segment out (header under the generation seqlock, empty
    rings, free cells of {!cell_arg_words} argument words).
    [capacity] (default 64) must be a power of two no larger than
    [Wire_abi.max_capacity].  Generations are monotonic across
    rebuilds: a zeroed segment opens at 2, each rebuild adds 2.
    @raise Invalid_argument otherwise, or if the segment is too small. *)

val regenerate : Segment.t -> unit
(** Rebuild an existing segment in place under the generation seqlock,
    keeping the capacity recorded in its header.  For a supervisor
    replacing a dead server.  Never truncates or remaps: survivors with
    stale mappings read the bumped generation and fail closed with
    [Errc.stale_generation] rather than fault.
    @raise Bad_segment if the magic word is missing. *)

val create_heap : ?capacity:int -> unit -> Segment.t
(** An in-process segment, laid out and ready to attach both roles. *)

val create_file : path:string -> ?capacity:int -> unit -> Segment.t
(** Create, size and lay out a segment file (the creator need not be
    either endpoint — fork after this and attach from both sides). *)

val default_spin : int
(** The cpu-relax budget a waiter spins before it starts yielding: 2048,
    or 16 on a single-CPU box, where spinning only burns the timeslice
    the peer needs. *)

val attach : ?spin:int -> ?bell:Doorbell.t -> role:role -> Segment.t -> t
(** Join a laid-out segment in [role]: validates the header (its
    geometry must fit the segment), records this pid, publishes
    readiness.  [spin] is the cpu-relax budget before a wait starts
    yielding (default {!default_spin}).  [bell] (default: the
    segment's doorbell word) is the bell this endpoint rings, wakes
    and parks on: a server draining many channels from one loop, as a
    Fastcall shard does, passes its own bell to every client endpoint
    and parks on it once for all of them.
    @raise Bad_segment also when the role's pid slot is held by another
    live-or-unreleased process — one endpoint per role per segment;
    {!attach_file} waits for the release. *)

val attach_file :
  ?timeout_ns:int -> ?after_generation:int -> role:role -> string -> t
(** Map an existing segment file once, at the file's own size (it never
    grows), and {!attach} once a build strictly past [after_generation]
    (default 0) is open with [role]'s slot free, sleeping on the
    generation word, which every rebuild wakes, for at most [timeout_ns]
    (default 5 s).  A reattaching client passes the generation it fled,
    so it cannot re-latch onto that build; a successor waits out its
    predecessor's session release.  A file that is absent or shorter
    than a header is polled every 200 us.
    @raise Bad_segment if nothing attachable appears in time, or at once
    if an open build's header is invalid (say, claims more words than
    the file holds). *)

val segment : t -> Segment.t
val capacity : t -> int
val arg_words : t -> int

val generation : t -> int
(** The segment generation this endpoint attached under. *)

val stale : t -> bool
(** The segment was rebuilt after this endpoint attached: every
    operation on [t] now fails closed with [Errc.stale_generation]. *)

(** {1 Client side} *)

val submit_raw : t -> ep:int -> int array -> int
(** Stage a call: acquire a cell, write the entry-point word and
    arguments, publish it with one tagged slot store, ring the
    doorbell.
    Returns the cell index ([>= 0]) to {!await} on, or a negative
    [Errc] code: [Errc.retry] when every cell is in flight,
    [Errc.peer_dead] once the peer is known dead,
    [Errc.stale_generation] once the segment was rebuilt under this
    mapping (the [t] is defunct — reattach).  The warm path under
    {!call} and {!call_deadline}; allocation-free. *)

val await : ?deadline:int -> t -> int -> int array -> int
(** Wait for a submitted cell, copy the reply into the array, recycle
    the cell; returns the RC slot.  [deadline] is absolute
    CLOCK_MONOTONIC ns: on expiry the cell is abandoned to the server
    (Pending->Abandoned CAS handoff; it comes back through the reclaim
    ring) and the call answers [Errc.timed_out].  Peer death answers
    [Errc.handler_fault]; a regeneration mid-wait answers
    [Errc.stale_generation] (the cell died with the old session — do
    not reuse this [t]).  Spin -> yield -> nap; allocation-free. *)

val await_until : t -> int -> deadline:int -> int array -> int
(** {!await} with the deadline as a plain argument ([max_int] for
    none): an optional one is boxed wherever it is passed, and this is
    the allocation-free form. *)

val call : t -> ep:int -> int array -> int
(** [submit_raw] + [await]: {!call_deadline} with no deadline. *)

val call_deadline : t -> ep:int -> deadline:int -> int array -> int
(** [submit_raw] + [await ~deadline] ([deadline] absolute, as there). *)

val announce_shutdown : t -> unit
(** Tell the peer this side is done; a serving loop exits once its ring
    is dry.  From a client, also wakes a server parked on the
    doorbell. *)

(** {1 Server side} *)

type dispatch = ep_word:int -> int array -> int
(** Run one decoded request; mutates the array in place and returns the
    RC.  Exceptions are contained to [Errc.handler_fault]. *)

val serve_once : t -> dispatch:dispatch -> int
(** Drain the submission ring once, at most [capacity] slots, then
    publish the server's position; returns slots consumed.  Takes a
    slot only on an exact sequence-tag match and masks the cell index
    it names, so arbitrary slot words cannot send it outside the cells.
    Recycles cells abandoned mid-flight exactly once (CAS-arbitrated).
    One consumer at a time: callers that drain a channel from several
    domains serialise them (Fastcall's shards use the shard ticket). *)

val pending : t -> bool
(** The submission ring holds requests not yet drained.  A racy
    snapshot, safe from any domain (a parked server's recheck); while a
    batch runs it may answer [true] for work already taken, never
    [false] for work still queued. *)

val queued : Segment.t -> capacity:int -> bool
(** {!pending} on a bare segment of [capacity] cells (an audit from a
    process that is neither endpoint). *)

val serve : t -> dispatch:dispatch -> int
(** The server loop: drain; when dry, spin, yield, then park on the
    doorbell for growing timeouts (a submit wakes it); exit on the
    client's shutdown announcement, its confirmed death (after
    reclaiming its cells), or a regeneration underneath this server
    (fail closed).  Returns total requests served. *)

val release_session : t -> unit
(** After a confirmed client death: sweep exactly once, then rebuild
    rings, cells and the client words under the generation seqlock so
    a successor client can attach to the same segment.  Bumps the
    sessions-released counter; the server's [t] follows the new
    generation.  Server only.
    @raise Invalid_argument from a client-role [t]. *)

val serve_sessions : ?on_release:(unit -> unit) -> t -> dispatch:dispatch -> int
(** Like {!serve}, but a dead client's session is swept, released and
    the loop keeps serving for the next client ([on_release] fires once
    per release).  Exits on a clean client shutdown or on regeneration
    underneath.  Returns total requests served.  Server only. *)

(** {1 Peer liveness} *)

val probe_interval_ns : int
(** 50 ms: each endpoint probes its peer's recorded pid with
    [kill(pid, 0)] at most this often, from its spin and await rungs
    and the serving loop's idle pass.  Only that probe declares a peer
    dead; a live process (or a zombie: reap your forks) always passes
    it, however long it stays silent. *)

val wait_peer_ready : ?timeout_ns:int -> t -> bool
(** Sleep on the peer's state word until its {!attach} makes it ready,
    for at most [timeout_ns] (default 5 s); [false] on the timeout. *)

val peer_ready : t -> bool
val peer_pid : t -> int

val peer_dead : t -> bool
(** The verdict this side has reached (sticky). *)

val sweep_dead_peer : t -> int
(** Fail/reclaim every cell a dead peer held: pending cells complete
    with [Errc.handler_fault] for their awaiter, abandoned cells return
    to the free stack.  CAS-arbitrated per cell, so repeated sweeps (or
    sweep racing await) recycle each cell exactly once.  Returns cells
    swept by this invocation. *)

(** {1 Observability} *)

val free_cells : t -> int
(** Cells on the client free stack (after draining the reclaim ring). *)

val in_flight : t -> int
val timeouts : t -> int
val submitted : t -> int
val served : t -> int
val batches : t -> int

val parks : t -> int
(** Server: timed waits entered on this endpoint's bell (the nap rung of
    an idle serving loop), {!Doorbell.parks}. *)

val wakes : t -> int
(** Client: futex wakes this endpoint's bell issued to a parked server,
    {!Doorbell.wakes}. *)

val doorbell_rings : t -> int
(** Rings of this endpoint's bell: for the segment's doorbell word, one
    per submit, cumulative across sessions. *)

val reclaimed : t -> int
val peer_faults : t -> int

val sessions_released : t -> int
(** Sessions the server has released after confirmed client deaths
    (cumulative across the segment's lifetime — the chaos harness
    reconciles this against injected client kills by double entry). *)
