(** The PPC design pattern on OCaml 5 domains: lock-free service table
    of versioned entry-point slots and the 8-word argument convention.
    A handler runs on the calling domain's own stack, so a call takes no
    call descriptor or stack page from any pool.  Local calls take no
    locks and allocate nothing (cleanup is a trap frame, not a closure:
    a warm call writes zero minor-heap words).

    Entry points carry the full {!Ipc_intf.Lifecycle} state machine:
    soft-kill (stop new calls, drain calls in flight, then free the
    slot), hard-kill (also abort calls in flight: their return code
    becomes [Ipc_intf.Errc.killed]), and on-line handler {!exchange}.
    Freed IDs are recycled; the per-slot generation counter makes stale
    {!ep} handles detectable across reuse.

    {b One call contract.}  Every call answers an [Ipc_intf.Errc] code
    in the RC slot ([args.(7)]) and returns it; no call raises.  A
    parameter named [deadline] is absolute [CLOCK_MONOTONIC]
    nanoseconds ({!Doorbell.now_ns}), [max_int] meaning none; names
    ending in [_ns] are durations.

    {b Failure containment.}  A handler that raises is trapped on every
    path — local call, inline channel call, shard drain — and its caller
    answers [Ipc_intf.Errc.handler_fault]; the exception never crosses
    the call boundary, so a faulty service cannot take down a caller
    domain or a server shard.  Consecutive faults on one entry point
    trip a circuit breaker that soft-kills it (see {!create}); the
    channel path additionally offers per-call deadlines
    ({!channel_call_deadline}) and [Errc.retry] backpressure.  Since
    every exception a dispatch raises is contained, a shard domain dies
    only when {!kill_shard} injects it, and {!revive_shard} is the
    explicit inverse that restarts it.

    Cross-domain calls take the {e channel path}: one in-heap
    {!Shm_channel} per client and shard — the same cell-and-ring
    protocol the cross-process path runs — plus a {!Doorbell} per shard
    that every client endpoint of the shard rings, and batched,
    optionally sharded servers; zero allocation after warm-up.  The
    allocating MPSC + per-request condvar comparator the benchmarks use
    is [Baseline.Mpsc_server], outside this library. *)

val max_entry_points : int
val arg_words : int

type ctx
(** What a handler is passed besides its arguments.  It carries nothing
    today: every call passes the same shared value. *)

type handler = ctx -> int array -> unit

type t

type ep
(** A versioned entry-point handle: slot ID plus the generation it was
    minted under.  Operations on a handle whose slot has since been
    freed (and possibly re-registered) fail with [Ipc_intf.Errc]
    codes — never reach the slot's next tenant. *)

val create : ?breaker_threshold:int -> unit -> t
(** O(1): every ID starts unbound (free at generation 0, all pointing at
    one shared read-only slot) and gets a slot of its own the first time
    {!register} hands it out; a freed ID keeps its slot for reuse.

    [breaker_threshold] (default 8) is the circuit breaker: after that
    many {e consecutive} handler faults on one entry point (any success
    resets the count), the entry point is automatically soft-killed —
    it drains and frees exactly as an explicit {!soft_kill} would. *)

val register : t -> handler -> int
(** Bind a free entry point (recycling killed-and-drained IDs, else
    binding the next never-used ID to a fresh slot) and return its raw
    ID.  Raises [Invalid_argument] once all {!max_entry_points} IDs are
    live.  Management path, serialised with the other
    lifecycle operations; safe while other domains are calling.  A
    recycled slot starts with a clean fault history. *)

val register_ep : t -> handler -> ep
(** [register], but returning the versioned handle. *)

val ep_id : ep -> int
(** The raw ID under a handle — what gets published to a registry. *)

val ep_to_wire : ep -> int
(** The handle as one {!Ipc_intf.Wire_abi} word (slot + generation), the
    form it crosses a shared-memory segment in.  Staleness detection
    survives the round trip. *)

val ep_of_wire : int -> ep
(** Inverse of {!ep_to_wire}.  A forged or stale word decodes to a
    handle whose operations fail with [Errc] codes, never to another
    tenant's live service. *)

val registered : t -> int
(** Live (registered and not yet freed) entry points. *)

val call : t -> ep:int -> int array -> int
(** Local synchronous call by raw ID: returns [args.(7)] (the RC slot).
    Never raises.  Error codes: [Ipc_intf.Errc.no_entry] for an
    out-of-range or free ID, [Ipc_intf.Errc.killed] for a
    killed-but-draining ID (or a hard kill landing mid-call),
    [Ipc_intf.Errc.handler_fault] when the handler raised (the exception
    is contained, never propagated). *)

val call_h : t -> ep -> int array -> int
(** Local synchronous call through a versioned handle.  Never raises —
    including when the handler itself raises.  Error codes:
    [Ipc_intf.Errc.no_entry] for a stale or freed handle,
    [Ipc_intf.Errc.killed] for a killed-but-draining entry point (or a
    hard kill landing mid-call), [Ipc_intf.Errc.handler_fault] for a
    contained handler exception. *)

(** {1 Lifecycle (paper Section 4.5.2 and 4.5.6)}

    All return an [Ipc_intf.Errc] code.  Kills never block: the slot is
    freed by the last call to drain (or immediately when idle). *)

val soft_kill : t -> ep:int -> int
(** Stop accepting calls; calls in flight complete and their results
    stand; the slot is freed once they drain. *)

val hard_kill : t -> ep:int -> int
(** Stop accepting calls and abort calls in flight: a domain cannot be
    preempted mid-handler, so the handler runs out but its caller sees
    [Ipc_intf.Errc.killed] instead of its result. *)

val exchange : t -> ep:int -> handler -> int
(** Atomically swap the handler under a live ID.  Calls already in
    flight finish with the routine they latched at acceptance. *)

val soft_kill_h : t -> ep -> int
val hard_kill_h : t -> ep -> int
val exchange_h : t -> ep -> handler -> int
(** Handle flavours: additionally fail with [Ipc_intf.Errc.no_entry]
    when the handle is stale. *)

val in_flight : t -> ep:int -> int
(** Calls currently executing on the entry point (weak snapshot). *)

val in_flight_h : t -> ep -> int

val lifecycle : t -> ep:int -> Ipc_intf.Lifecycle.status option
(** [None] when the slot is free. *)

val generation : t -> ep:int -> int
(** The generation of [ep]'s slot: bumped each time the slot is freed,
    so [0] for an ID never registered (or out of range). *)

(** {1 Fault-containment observability} *)

val handler_faults : t -> int
(** Handler exceptions contained table-wide. *)

val breaker_trips : t -> int
(** Entry points auto-soft-killed by the circuit breaker. *)

val breaker_threshold : t -> int

val ep_faults : t -> ep:int -> int
(** Handler faults on this entry point under its current tenant. *)

(** {1 Amortized batch acceptance}

    The machinery the channel path uses to pay the containment tax per
    {e batch} instead of per call, exposed so its admission invariant
    can be property-tested against the per-call model.  A {!Batch.hold}
    carries one in-flight reservation on one entry point; while it is
    held, {!Batch.call} admits a call with a single generation-stamp
    compare (the slot's state word must equal the word stamped at
    acquisition).  Any lifecycle transition moves the state word, so a
    call can {e never} be admitted after a kill was observable: the
    compare fails, the hold is retired (letting the killed slot drain),
    and acceptance re-runs from scratch.  The staleness window is the
    drain bookkeeping only — a killed slot frees at most one batch
    late — never fault visibility.  A hold has a single owner at a
    time (the channel path guards each shard's hold with the shard
    ticket); it is not itself thread-safe. *)

module Batch : sig
  type hold

  val hold : unit -> hold
  (** A fresh, empty hold. *)

  val call : t -> hold -> ep:int -> int array -> int
  (** Like {!call} (same error taxonomy, [Ipc_intf.Errc.no_entry] for
      out-of-range and free IDs included), but admitted through the hold: warm calls on the
      held entry point cost three atomic loads and no RMW.  Calling a
      different entry point retires the current hold and acquires a new
      one. *)

  val retire : t -> hold -> unit
  (** Release the hold's in-flight reservation (a no-op when empty).
      Callers must retire before abandoning a hold, or the held slot
      can never drain after a kill. *)

  val held : hold -> int
  (** The slot ID currently held, or [-1]. *)
end

(** {1 Cross-domain: the channel path} *)

type channel_server
(** One or more server shard domains draining per-client channels. *)

type client
(** A per-calling-domain handle: one channel to every shard.  Use only
    from the domain that [connect]ed (submission rings are
    single-producer). *)

val spawn_channel_server :
  ?shards:int -> ?server_spin:int -> t -> channel_server
(** Spawn [shards] server domains (default 1), one per shard and no
    other.  Each drains its channels' submission rings
    ({!Shm_channel.serve_once}) under its shard ticket, steals from idle
    siblings, spins for [server_spin] iterations when dry (default twice
    {!Shm_channel.default_spin}), then parks on its doorbell, so an idle
    server burns no CPU. *)

val connect : ?capacity:int -> ?client_spin:int -> channel_server -> client
(** Register this domain with every shard: one in-heap {!Shm_channel}
    segment per shard with [capacity] request cells (default 16, a
    positive power of two).  The pool is fixed: once every cell is in
    flight — only possible when calls abandoned on a deadline have not
    been reclaimed yet — further calls answer [Ipc_intf.Errc.retry].
    [client_spin] is the spin budget before a waiting call starts
    yielding and napping (default {!Shm_channel.default_spin}).  {!channel_call} runs inline when the shard is free;
    {!channel_call_deadline} always takes the queued path. *)

val channel_call : client -> ep:int -> int array -> int
(** Cross-domain call over the channel path: routed to shard
    [ep mod shards].  Uncontended calls run inline on the caller's
    domain under the shard ticket; contended calls queue on this
    client's SPSC channel for batched service.  Allocation-free after
    warm-up either way.  Returns [args.(7)].  Never raises: unbound
    entry points answer [Ipc_intf.Errc.no_entry], calls refused by a
    quiescing server [Ipc_intf.Errc.killed], contained handler
    exceptions [Ipc_intf.Errc.handler_fault], and a full cell pool
    [Ipc_intf.Errc.retry] (see {!Backoff}). *)

val channel_call_deadline :
  client -> ep:int -> deadline:int -> int array -> int
(** {!channel_call} with a wait bounded in wall-clock time: always
    queued (never inline), so [~deadline:max_int] is the way to ask for
    the queued path with no deadline.  [deadline] is absolute
    [CLOCK_MONOTONIC] ns ({!Doorbell.now_ns}).  The wait is
    {!Shm_channel.await_until}'s: a brief
    spin, sched_yield rounds, then nanosleeps capped at 50 µs (which
    also bounds deadline overshoot), allocating nothing.  On expiry the
    request cell is abandoned to the server via a CAS ownership handoff
    and the call returns [Ipc_intf.Errc.timed_out]; the late reply, if
    any, is discarded and the cell reclaimed exactly once.  All
    {!channel_call} error codes apply too. *)

val client_inlined : client -> int
(** Calls this client ran inline under a free shard ticket. *)

val kill_shard : channel_server -> shard:int -> unit
(** Fault injector: make the shard domain exit as if it had died,
    leaving its backlog and parked clients stranded.  Returns once the
    shard can serve nothing more: a call submitted after it is never
    answered by that domain (a sibling shard may still steal it).  Pair
    with {!channel_call_deadline} to exercise client-side timeouts, and
    with {!revive_shard} to restart the shard.  Raises
    [Invalid_argument] for a bad shard index. *)

val revive_shard : channel_server -> shard:int -> unit
(** The inverse of {!kill_shard}: join the dead shard domain, fail every
    request still queued on the shard with
    [Ipc_intf.Errc.handler_fault] (waking its waiters; see
    {!channel_fail_swept}), retire the batch hold the dead domain
    stranded, then spawn its successor, so later calls succeed and the
    shard always has exactly one domain.  Raises [Invalid_argument] for
    a bad shard index or a shard that was not killed; does nothing once
    {!shutdown_channel_server} has begun. *)

val inject_doorbell_delay : channel_server -> shard:int -> int -> unit
(** Fault injector: stall every ring of the shard's doorbell — the one
    in each queued call's submit — by [n] cpu-relax iterations,
    widening the park/ring race window ({!Doorbell.inject_delay}).  [0]
    restores normal behaviour. *)

val shutdown_channel_server : channel_server -> unit
(** Quiesce, then join: stop accepting new channel calls (refused calls
    get [Ipc_intf.Errc.killed]), wait until every call already accepted
    has completed — the shards keep serving during the wait — then stop
    and join every shard domain.  No accepted call is lost.  Finally unhooks the server
    from the table's kill wakers, so the table keeps nothing of it
    alive. *)

val channel_served : channel_server -> int
val channel_batches : channel_server -> int
(** Non-empty sweeps; [channel_served / channel_batches] is the mean
    batch size. *)

val channel_steals : channel_server -> int
(** Requests completed by a non-owner shard. *)

val channel_doorbell_stats : channel_server -> int * int * int
(** [(rings, wakes, parks)] summed over shards' doorbells: every ring
    (one per queued call), futex wakes issued to a parked shard, and
    waits the shards entered ({!Doorbell.rings}, {!Doorbell.wakes},
    {!Doorbell.parks}). *)

val channel_respawns : channel_server -> int
(** Shard domains {!revive_shard} restarted. *)

val channel_fail_swept : channel_server -> int
(** Requests queued on killed shards that {!revive_shard} failed with
    [handler_fault]. *)

val client_slab_grows : client -> int
(** Cell-pool growth on this client: always 0, since the pool is fixed
    at {!connect} (kept for readers that report it). *)

val client_timeouts : client -> int
(** Deadline calls on this client that timed out. *)

val client_rejected : client -> int
(** Calls on this client bounced with [Ipc_intf.Errc.retry]. *)

val client_slab_reclaimed : client -> int
(** Abandoned cells the server reclaimed for this client. *)
