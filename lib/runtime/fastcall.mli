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

    {b One name.}  An entry point is named by its handle, one [int]:
    the {!Ipc_intf.Wire_abi} handle word
    [(generation lsl handle_bits) lor slot], the same word a client
    gets from the Name Server and sends across a shared segment.  Freed
    slots are recycled under a bumped generation, and every operation
    admits a handle only on an exact generation match, so a name that
    outlived its service answers [Ipc_intf.Errc.no_entry] and never
    reaches the slot's next tenant.  A slot's first tenant has
    generation 0, so on a fresh table {!register} returns 0, 1, 2, ...

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
(** [1 lsl Ipc_intf.Wire_abi.handle_bits]: the slots a handle can name. *)

val arg_words : int
(** {!Shm_channel.cell_arg_words}: a call's argument words, the last of
    which is the RC slot. *)

type ctx
(** What a handler is passed besides its arguments.  It carries nothing
    today: every call passes the same shared value. *)

type handler = ctx -> int array -> unit

type t

val create : ?breaker_threshold:int -> unit -> t
(** O(1): every ID starts unbound (free at generation 0, all pointing at
    one shared read-only slot) and gets a slot of its own the first time
    {!register} hands it out; a freed ID keeps its slot for reuse.

    [breaker_threshold] (default 8) is the circuit breaker: after that
    many {e consecutive} handler faults on one entry point (any success
    resets the count), the entry point is automatically soft-killed —
    it drains and frees exactly as an explicit {!soft_kill} would. *)

val register : t -> handler -> int
(** Bind a free slot (recycling killed-and-drained slots, else binding
    the next never-used slot) and return the new entry point's handle.
    Raises [Invalid_argument] once all {!max_entry_points} slots are
    live.  Management path, serialised with the other lifecycle
    operations; safe while other domains are calling.  A recycled slot
    starts with a clean fault history. *)

val registered : t -> int
(** Live (registered and not yet freed) entry points. *)

val call : t -> ep:int -> int array -> int
(** Local synchronous call: returns [args.(7)] (the RC slot).  Never
    raises — including when the handler itself raises.  Error codes:
    [Ipc_intf.Errc.no_entry] for a dead handle (freed, never bound,
    negative, or its slot since re-registered),
    [Ipc_intf.Errc.killed] for a killed-but-draining entry point (or a
    hard kill landing mid-call), [Ipc_intf.Errc.handler_fault] for a
    contained handler exception. *)

(** {1 Lifecycle (paper Section 4.5.2 and 4.5.6)}

    All return an [Ipc_intf.Errc] code, [Ipc_intf.Errc.no_entry] for a
    dead handle.  Kills never block: the slot is freed by the last call
    to drain (or immediately when idle). *)

val soft_kill : t -> ep:int -> int
(** Stop accepting calls; calls in flight complete and their results
    stand; the slot is freed once they drain. *)

val hard_kill : t -> ep:int -> int
(** Stop accepting calls and abort calls in flight: a domain cannot be
    preempted mid-handler, so the handler runs out but its caller sees
    [Ipc_intf.Errc.killed] instead of its result. *)

val exchange : t -> ep:int -> handler -> int
(** Atomically swap the handler under a live handle.  Calls already in
    flight finish with the routine they latched at acceptance. *)

val in_flight : t -> ep:int -> int
(** Calls currently executing on the entry point (weak snapshot); 0 for
    a dead handle. *)

val lifecycle : t -> ep:int -> Ipc_intf.Lifecycle.status option
(** [None] once the handle is dead (its slot freed, whatever the slot
    holds now). *)

(** {1 Fault-containment observability} *)

val handler_faults : t -> int
(** Handler exceptions contained table-wide. *)

val breaker_trips : t -> int
(** Entry points auto-soft-killed by the circuit breaker. *)

val ep_faults : t -> ep:int -> int
(** Handler faults on this entry point; 0 for a dead handle. *)

(** {1 Amortized batch acceptance}

    The machinery the channel path uses to pay the containment tax per
    {e batch} instead of per call, exposed so its admission invariant
    can be property-tested against the per-call model.  A {!Batch.hold}
    carries one in-flight reservation on one entry point; while it is
    held, {!Batch.call} admits a call with a single generation-stamp
    compare (the slot's state word must still be the held handle's
    active word, the word admission matched at acquisition).  Any lifecycle transition moves the state word, so a
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
  (** Like {!call} (same error taxonomy), but admitted through the
      hold: warm calls on the held handle cost two atomic loads and no
      RMW.  Calling a different handle retires the current hold and
      acquires a new one.  An empty hold matches no handle. *)

  val retire : t -> hold -> unit
  (** Release the hold's in-flight reservation (a no-op when empty).
      Callers must retire before abandoning a hold, or the held slot
      can never drain after a kill. *)

  val held : hold -> int
  (** The handle currently held, or [-1]. *)
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
    [slot mod shards], by the handle's slot bits.  Uncontended calls run inline on the caller's
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
    [Ipc_intf.Errc.handler_fault] (waking its waiters), retire the batch hold the dead domain
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

val client_slab_grows : client -> int
(** Cell-pool growth on this client: always 0, since the pool is fixed
    at {!connect} (kept for readers that report it). *)

val client_timeouts : client -> int
(** Deadline calls on this client that timed out. *)

val client_rejected : client -> int
(** Calls on this client bounced with [Ipc_intf.Errc.retry]. *)

val client_slab_reclaimed : client -> int
(** Abandoned cells the server reclaimed for this client. *)
