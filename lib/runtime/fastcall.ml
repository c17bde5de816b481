(* The PPC design pattern on real OCaml 5 domains.

   The paper pools call descriptors and stack pages per processor to
   hold a call's return information and the server's stack.  On OCaml
   domains a handler runs on the calling domain's own stack and the
   OCaml frame holds the return information, so this module keeps no
   pool.  What it keeps:

   - the service table is a fixed array of *versioned entry-point
     slots*, bound lazily: every ID starts out pointing at one shared,
     read-only [unbound] slot (free at generation 0, never written), and
     gets a slot of its own the first time it is registered — so
     [create] is O(1), like Frank allocating a worker only when a call
     needs one.  Each slot packs a generation counter and a lifecycle state
     ([Ipc_intf.Lifecycle]: active / soft-killed / hard-killed, plus
     free) into one atomic word, carries its handler in a second atomic
     (so registration publishes safely under the OCaml 5 memory model),
     and counts calls in flight on a striped counter.  The warm call
     path is still lock-free and allocation-free: one state load, a
     stripe increment, a recheck, the handler, a stripe decrement.
   - the 8-word argument convention is kept: handlers mutate an 8-slot
     int array in place.

   Lifecycle (paper Section 4.5.2): [soft_kill] stops new calls and
   frees the slot once calls in progress drain; [hard_kill] also aborts
   calls in progress — a domain cannot be preempted mid-handler, so
   "abort" means the caller's return code becomes [Errc.killed] instead
   of the handler's result.  [exchange] swaps the handler under the same
   ID (Section 4.5.6); calls already in flight finish with the routine
   they latched.

   An entry point has one name, its handle: the {!Ipc_intf.Wire_abi}
   handle word [(generation lsl handle_bits) lor slot], carried as an
   [int].  Freed slots are recycled LIFO, and the generation bump at
   free time makes every handle minted before it dead — no ABA on slot
   reuse: an operation admits only on an exact generation match, so a
   name that outlived its service answers [Errc.no_entry] and never
   reaches the slot's next tenant.  A slot's first tenant has
   generation 0, so its handle equals its slot number.

   The acceptance protocol is increment-then-recheck: a caller bumps its
   in-flight stripe, then re-reads the slot state; the call is accepted
   only if the state word is unchanged.  Under sequentially-consistent
   atomics this guarantees a killer's drain check observes every
   accepted call, and the *last decrementer* (killer included) always
   sees the true zero and frees the slot — no accepted call is ever
   lost, and nothing leaks.

   Each call step exists once: [admit] (increment-then-recheck), [run]
   (handler latch, fault trap and breaker, hard-kill check) and
   [release] (decrement, then the drain check).  A per-call admission is
   released after one [run]; a {!Batch} hold keeps its admission across
   many, checking only that the state word has not moved.

   Management operations (register / exchange / kill) serialise on one
   mutex; they are rare by design (the paper routes them through Frank
   for the same reason) and the call path never touches it.

   Every atomic another domain writes on a call path — slot, hold,
   shard, channel-server and client words — is a {!Padded_atomic},
   alone on its cache line, so a slot bound late and promoted next to a
   shard's per-call words cannot falsely share with them.

   "Allocates nothing" is literal: cleanup is a trap frame rather than a
   [Fun.protect] closure, so a warm call writes zero minor-heap words
   (pinned by a test).

   Cross-domain calls take the *channel path* ({!spawn_channel_server} /
   {!connect} / {!channel_call}): one in-heap {!Shm_channel} per client
   and shard (preallocated request cells, an SPSC submission ring,
   deadline abandonment with exactly-once reclaim), a futex {!Doorbell}
   per shard that each queued call's submit rings once, server-side
   batch draining, and optional sharding with entry-point affinity and
   steal-on-idle.  Zero allocation and no locks after warm-up.
   {!shutdown_channel_server} quiesces: it refuses new calls, lets every
   accepted call complete, then joins the shard domains.

   The baselines the benchmarks measure this against live in
   [lib/baseline]: the legacy cross-domain path (an allocating MPSC
   queue and a per-request mutex/condvar, served through {!call}) and
   the mutex-guarded shared registry. *)

let handle_bits = Ipc_intf.Wire_abi.handle_bits
let max_entry_points = 1 lsl handle_bits
let slot_mask = max_entry_points - 1
let arg_words = Shm_channel.cell_arg_words
let rc_slot = arg_words - 1

let err_no_entry = Ipc_intf.Errc.no_entry
let err_killed = Ipc_intf.Errc.killed
let err_handler_fault = Ipc_intf.Errc.handler_fault

(* What a handler is passed besides its arguments: nothing yet, so
   every call passes the same [()]. *)
type ctx = unit

type handler = ctx -> int array -> unit

(* One versioned entry-point slot.  [state] packs
   [generation lsl 2 lor lifecycle]; the generation increments when a
   killed slot is freed, so a handle minted for one service can never
   reach the slot's next tenant.  The handler lives in its own atomic:
   registration writes it *before* flipping the state to active, and the
   OCaml 5 memory model makes the closure's initialising writes visible
   to any caller that saw the state flip. *)
type slot = {
  slot_id : int;
  state : int Atomic.t;
  routine : handler Atomic.t;
  inflight : Striped_counter.t;
  consec_faults : int Atomic.t;
      (** consecutive handler faults since the last success; feeds the
          circuit breaker *)
  faults : int Atomic.t;  (** total handler faults over the slot's life *)
}

(* Lifecycle codes in the low two state bits. *)
let st_free = 0
let st_active = 1
let st_soft = 2
let st_hard = 3

let lc_of st = st land 3
let gen_of st = st lsr 2
let pack gen lc = (gen lsl 2) lor lc

(* A handle's slot, and the state word of its slot while the handle's
   service is active.  Any int is a handle: the slot bits always index
   the table, and a negative handle's generation ([asr]) is negative, so
   its active word matches no state word — it answers [err_no_entry]
   like any other dead name. *)
let[@inline] slot_index ep = ep land slot_mask
let[@inline] active_word ep = pack (ep asr handle_bits) st_active

(* True when [st] is [ep]'s service, active or killed but still
   draining; false once the name is dead (freed, never bound, or the
   slot has a later tenant). *)
let holds ep st = gen_of st = ep asr handle_bits && lc_of st <> st_free

(* The refusal for a handle whose active word did not match [st]. *)
let refusal ep st = if holds ep st then err_killed else err_no_entry

type t = {
  slots : slot array;
  mutable free_ids : int list;
      (** killed-and-drained IDs, reused LIFO; under [mgmt] *)
  mutable next_ep : int;  (** high-water mark; under [mgmt] *)
  mgmt : Mutex.t;  (** serialises register / exchange / kill *)
  registered : int Atomic.t;  (** live (not freed) entry points *)
  breaker_threshold : int;
      (** consecutive faults before an entry point is auto-soft-killed *)
  handler_faults : int Atomic.t;  (** table-wide contained-fault count *)
  breaker_trips : int Atomic.t;  (** entry points auto-soft-killed *)
  wakers : (unit -> unit) array Atomic.t;
      (** rung after every successful kill (CAS-append).  A channel
          server registers one so parked shards promptly retire batch
          holds on the killed slot (see [hold_retire]); kills are rare
          management operations, so the broadcast is off the hot path. *)
}

let null_handler : handler = fun _ _ -> ()

let make_slot slot_id =
  {
    slot_id;
    state = Padded_atomic.make (pack 0 st_free);
    routine = Padded_atomic.make null_handler;
    inflight = Striped_counter.create ~stripes:8 ();
    consec_faults = Padded_atomic.make 0;
    faults = Padded_atomic.make 0;
  }

(* The slot every never-registered ID points at, shared by all tables.
   It is free at generation 0 and nothing ever writes it: every writer
   of a slot first needs the slot active (kill, exchange, admission) or
   killed (the drain CAS), and only [register] makes a slot active —
   on a slot of the ID's own. *)
let unbound = make_slot (-1)

let create ?(breaker_threshold = 8) () =
  if breaker_threshold <= 0 then
    invalid_arg "Fastcall.create: breaker_threshold must be > 0";
  {
    slots = Array.make max_entry_points unbound;
    free_ids = [];
    next_ep = 0;
    mgmt = Mutex.create ();
    registered = Atomic.make 0;
    breaker_threshold;
    handler_faults = Atomic.make 0;
    breaker_trips = Atomic.make 0;
    wakers = Atomic.make [||];
  }

let rec update_wakers t f =
  let cur = Atomic.get t.wakers in
  if not (Atomic.compare_and_set t.wakers cur (f cur)) then update_wakers t f

(* Free a killed slot once its in-flight count has drained.  Called
   after every decrement (and by the killer itself): the *last*
   decrement in the execution has no later increment, so its gathered
   sum is the true zero and exactly one caller wins the generation-
   bumping CAS.  The winner pushes the ID on [free_ids] under [mgmt],
   strictly after the CAS, and registration only ever reuses IDs popped
   from there, so it cannot race the freed slot.  Taking [mgmt] is safe:
   no caller holds it here ([do_kill] unlocks before its check), and
   only a slot's last drain pays for it. *)
let drain_check t s =
  let st = Atomic.get s.state in
  let lc = lc_of st in
  if
    (lc = st_soft || lc = st_hard)
    && Striped_counter.value s.inflight = 0
    && Atomic.compare_and_set s.state st (pack (gen_of st + 1) st_free)
  then begin
    Atomic.set s.routine null_handler;
    Atomic.decr t.registered;
    Mutex.lock t.mgmt;
    t.free_ids <- s.slot_id :: t.free_ids;
    Mutex.unlock t.mgmt
  end

(* A management operation, serialised on [mgmt]: [f] runs on the slot
   and its state word only while [ep]'s service is active; otherwise the
   refusal. *)
let on_active t ep f =
  Mutex.lock t.mgmt;
  let s = t.slots.(slot_index ep) in
  let st = Atomic.get s.state in
  let rc =
    if st = active_word ep then begin
      f s st;
      Ipc_intf.Errc.ok
    end
    else refusal ep st
  in
  Mutex.unlock t.mgmt;
  rc

(* Kill an entry point.  Management operation, but also invoked by the
   circuit breaker from a faulting call — safe there because the
   caller's in-flight hold keeps [drain_check] from freeing the slot
   under it. *)
let do_kill t ep ~target =
  let rc =
    on_active t ep (fun s st -> Atomic.set s.state (pack (gen_of st) target))
  in
  if rc = Ipc_intf.Errc.ok then begin
    (* Nothing in flight?  Then we are also the last "decrementer". *)
    drain_check t t.slots.(slot_index ep);
    (* Wake registered waiters (parked channel shards) so any batch
       hold pinning this slot is noticed and retired promptly. *)
    Array.iter (fun f -> f ()) (Atomic.get t.wakers)
  end;
  rc

(* Registration is a management operation: rare, serialised, off the
   call path (the paper routes it through Frank for the same reason).
   A fresh ID is bound to a slot of its own here, before its state goes
   active; a caller racing the binding reads either the unbound slot
   (free: [err_no_entry]) or the new one.  A freed ID keeps its slot, whose
   bumped generation keeps rejecting the old tenant's handles. *)
let register t handler =
  Mutex.lock t.mgmt;
  let id =
    match t.free_ids with
    | id :: rest ->
        t.free_ids <- rest;
        id
    | [] ->
        if t.next_ep >= max_entry_points then begin
          Mutex.unlock t.mgmt;
          invalid_arg "Fastcall.register: out of entry points"
        end
        else begin
          let id = t.next_ep in
          t.next_ep <- id + 1;
          t.slots.(id) <- make_slot id;
          id
        end
  in
  let s = t.slots.(id) in
  let gen = gen_of (Atomic.get s.state) in
  Atomic.set s.routine handler;
  (* Fault history belongs to a slot's tenant, not the slot: a reused ID
     starts with a clean breaker. *)
  Atomic.set s.consec_faults 0;
  Atomic.set s.faults 0;
  Atomic.set s.state (pack gen st_active);
  Atomic.incr t.registered;
  Mutex.unlock t.mgmt;
  Ipc_intf.Wire_abi.pack_handle ~slot:id ~gen

let registered t = Atomic.get t.registered

(* Write [rc] into the RC slot and answer it: every rejection path. *)
let reject args rc =
  args.(rc_slot) <- rc;
  rc

(* Drop one in-flight increment, then run the drain check.  The
   killed-state re-read must come *after* the decrement, or a kill
   landing between read and decrement would never be finalised. *)
let[@inline] release t s =
  Striped_counter.add s.inflight (-1);
  drain_check t s

(* The acceptance protocol, increment-then-recheck: bump the slot's
   in-flight stripe, then re-read the state word; the call is admitted
   only if it still equals [st0], the active word the caller loaded.
   Killed (or even freed and re-registered) in between: withdraw with a
   [release], since the transient increment may have held up a
   concurrent drain.  An admitted increment stands for one call
   ([call]) or for a whole batch ({!Batch}). *)
let[@inline] admit t s st0 =
  Striped_counter.incr s.inflight;
  Atomic.get s.state = st0
  || begin
       release t s;
       false
     end

(* A handler raised: contain it.  Cold path (allocation is fine here).
   The caller gets [err_handler_fault]; the consecutive-fault counter
   feeds the circuit breaker, which auto-soft-kills the entry point at
   the table's threshold — a trip is nothing more than a [soft_kill], so
   in-flight calls drain and the slot frees normally.  The caller's
   admission (per call or per batch) still pins the slot, so it cannot
   be freed (and its generation cannot move) under the kill.
   [fetch_and_add] makes exactly one faulting caller cross the threshold
   boundary; late crossers find the slot already soft-killed and
   [do_kill] answers [err_killed], so a trip is counted once.  The
   admission pinned the generation, so the kill names the caller's own
   service. *)
let fault t s args =
  Atomic.incr t.handler_faults;
  Atomic.incr s.faults;
  let consec = 1 + Atomic.fetch_and_add s.consec_faults 1 in
  if
    consec >= t.breaker_threshold
    && do_kill t
         (Ipc_intf.Wire_abi.pack_handle ~slot:s.slot_id
            ~gen:(gen_of (Atomic.get s.state)))
         ~target:st_soft
       = Ipc_intf.Errc.ok
  then Atomic.incr t.breaker_trips;
  args.(rc_slot) <- err_handler_fault

(* The admitted-call body: handler latch, handler, fault trap, hard-kill
   check.  No locks, no allocation.  The routine is latched per call, so
   [exchange] (which does not move the state word) takes effect on the
   very next admitted call, batched or not.  Handler exceptions never
   escape: they answer [err_handler_fault] (see [fault]).

   The epilogue's state read is safe to interpret: the admission pins
   the generation, so a hard state here is *our* service's hard kill and
   the caller must see [err_killed] (the runtime's "abort", since a
   running OCaml function cannot be preempted).  A soft kill leaves the
   completed call's result untouched — that is the whole point of
   draining. *)
let run t s args =
  let handler = Atomic.get s.routine in
  (match handler () args with
  | () ->
      (* One extra load on the warm path; the store only happens on the
         first success after a fault, so the line stays clean. *)
      if Atomic.get s.consec_faults <> 0 then Atomic.set s.consec_faults 0
  | exception _ -> fault t s args);
  if lc_of (Atomic.get s.state) = st_hard then args.(rc_slot) <- err_killed;
  args.(rc_slot)

(* One per-call admission: admit, run, release. *)
let[@inline] call_admitted t s st0 args =
  if admit t s st0 then begin
    let rc = run t s args in
    release t s;
    rc
  end
  else reject args err_killed

(* The fast path: state load, admission on an exact generation match,
   handler, release.  A dead name (freed, never bound, or its slot
   re-registered since) answers [err_no_entry]; a killed service still
   draining answers [err_killed]. *)
let call t ~ep args =
  let s = t.slots.(slot_index ep) in
  let st0 = Atomic.get s.state in
  if st0 = active_word ep then call_admitted t s st0 args
  else reject args (refusal ep st0)

(* --- amortized batch acceptance (the containment tax, paid per batch) --

   Per-call admission puts two striped-counter RMWs, a state recheck and
   an 8-stripe drain gather on *every* call.  A [hold] amortizes all of
   that to batch scope: the increment of one [admit] is kept at
   acquisition and stands for every call the holder runs until the hold
   is retired, so the per-call admission check collapses to a
   generation-stamp compare — the state word must still equal the held
   handle's active word, the word admission matched at acquisition.
   Any lifecycle transition (soft or hard kill, breaker trip, free)
   changes that word, so a stale hold can never admit a call: the
   compare fails, the hold is retired (releasing the in-flight
   reservation, which lets the killed slot drain), and acceptance is
   re-run from scratch.

   What *is* batched is the drain bookkeeping: a killed slot cannot be
   freed while a hold pins it, so kill-to-free latency stretches by at
   most the holder's current batch (the staleness window — see
   ARCHITECTURE §10).  What is *not* batched is fault visibility: the
   per-call stamp compare observes a kill exactly as fast as the
   per-call path did, and every admitted call runs the same [run] — the
   post-handler hard-kill check still flips the RC, and a handler fault
   still feeds the breaker immediately.

   Holds are single-holder by contract: the channel path stores one per
   shard, guarded by the shard ticket.  A hold is one atomic word, the
   held handle ([-1] when empty), only so a parked shard's doorbell
   recheck may read it without the ticket ([hold_stale]); all writes
   happen under the owner's serialisation.  The word admission matched
   is the held handle's active word, so the hold stores nothing else —
   and an empty hold's [-1] has a negative active word, which matches
   no slot, so a call on handle [-1] never runs through it.  A kill
   wakes registered doorbells ([t.wakers]) so a hold parked on a killed
   slot is retired promptly rather than at the next call. *)

type hold = int Atomic.t

let make_hold () = Padded_atomic.make (-1)

let hold_retire t hold =
  let ep = Atomic.get hold in
  if ep >= 0 then begin
    Atomic.set hold (-1);
    release t t.slots.(slot_index ep)
  end

(* True when the held slot's state word moved since acquisition — a
   kill landed and the hold must be retired so the slot can drain. *)
let hold_stale t hold =
  let ep = Atomic.get hold in
  ep >= 0 && Atomic.get t.slots.(slot_index ep).state <> active_word ep

(* The cold path: retire whatever was held, admit a hold on [ep], and
   fall back to the per-call [call] when admission fails — which
   reproduces the per-call error taxonomy exactly.  Out of line so the
   warm path below stays small. *)
let[@inline never] hold_cold t hold ~ep args =
  hold_retire t hold;
  let s = t.slots.(slot_index ep) in
  let st0 = Atomic.get s.state in
  if st0 = active_word ep && admit t s st0 then begin
    Atomic.set hold ep;
    run t s args
  end
  else call t ~ep args

(* The amortized fast path.  Warm case (hold matches, state unmoved):
   two atomic loads to admit, then the handler. *)
let hold_call t hold ~ep args =
  let s = t.slots.(slot_index ep) in
  if Atomic.get hold = ep && Atomic.get s.state = active_word ep then
    run t s args
  else hold_cold t hold ~ep args

module Batch = struct
  type nonrec hold = hold

  let hold = make_hold
  let call = hold_call
  let retire = hold_retire
  let held = Atomic.get
end

(* --- lifecycle management ---------------------------------------------- *)

let soft_kill t ~ep = do_kill t ep ~target:st_soft
let hard_kill t ~ep = do_kill t ep ~target:st_hard

(* Same handle, new routine.  Calls in flight latched the old handler
   at acceptance and finish with it. *)
let exchange t ~ep handler =
  on_active t ep (fun s _ -> Atomic.set s.routine handler)

(* The slot under [ep] while [ep]'s service holds it; [None] once the
   name is dead. *)
let tenant t ep =
  let s = t.slots.(slot_index ep) in
  let st = Atomic.get s.state in
  if holds ep st then Some (s, st) else None

let in_flight t ~ep =
  match tenant t ep with
  | Some (s, _) -> Striped_counter.value s.inflight
  | None -> 0

let lifecycle t ~ep =
  match tenant t ep with
  | Some (_, st) ->
      let lc = lc_of st in
      if lc = st_active then Some Ipc_intf.Lifecycle.Active
      else if lc = st_soft then Some Ipc_intf.Lifecycle.Soft_killed
      else Some Ipc_intf.Lifecycle.Hard_killed
  | None -> None

(* --- fault-containment observability ----------------------------------- *)

let handler_faults t = Atomic.get t.handler_faults
let breaker_trips t = Atomic.get t.breaker_trips

let ep_faults t ~ep =
  match tenant t ep with Some (s, _) -> Atomic.get s.faults | None -> 0

(* --- cross-domain calls: the channel path ------------------------------ *)

(* N server shards, each owning a doorbell and a registry of client
   channels; every client endpoint of a shard rings the shard's bell.
   Requests route to [slot mod shards] — entry-point affinity, so a
   service's state stays with one shard, the way the paper keeps a
   request on the processor that owns its worker pool.  A shard that
   finds its own channels dry steals a batch from a sibling before it
   spins down and parks, so the pool scales like Figure 3 instead of
   serialising on one server domain.

   Each shard also carries an execution *ticket* — one atomic word that
   serialises handler execution for that shard.  The shard domain holds
   it for the length of a drain batch; an uncontended client grabs it to
   run its call inline on its own domain (see [channel_call]).  That
   inline case is the paper's PPC proper: a protected procedure call
   executes on the *caller's* processor, and the hand-off to a separate
   server processor is reserved for the contended case.

   A channel is one in-heap {!Shm_channel} segment per (client, shard)
   pair: the client holds its [Client] endpoint, the shard the [Server]
   endpoint.  It is the very protocol the cross-process path runs over
   an mmap'd file — preallocated cells reused LIFO, SPSC submission,
   the Pending->Abandoned deadline handoff, exactly-once reclaim, the
   spin -> yield -> nap wait — so there is one implementation of it.
   [Shm_channel.serve_once] wants one consumer per channel at a time;
   the shard ticket provides exactly that, because every drain (the
   shard's own sweep, a sibling's steal, a revival's fail sweep, the
   stop sweep) runs under the owning shard's ticket. *)

type shard = {
  shard_index : int;
  bell : Doorbell.t;
  chans : Shm_channel.t array Atomic.t;
      (** server endpoints of the clients' channels; CAS-append registry *)
  ticket : bool Atomic.t;  (** per-shard handler-execution lock *)
  sh_hold : hold;
      (** the shard's batch-acceptance cache, guarded by [ticket]:
          shared by the shard domain's sweeps, thieves draining this
          shard, and inline callers — whoever holds the ticket *)
  sh_run : Shm_channel.dispatch;
      (** prebuilt drain body (hold-based call + served count), so a
          sweep never allocates a closure *)
  shard_served : int Atomic.t;
  shard_batches : int Atomic.t;  (** non-empty sweeps *)
  shard_steals : int Atomic.t;  (** requests taken from sibling shards *)
  poison : bool Atomic.t;
      (** set by {!kill_shard}: the shard domain exits; cleared by
          {!revive_shard} once that domain is joined *)
}

type channel_server = {
  cs_table : t;
  cs_shards : shard array;
  cs_stop : bool Atomic.t;
  cs_draining : bool Atomic.t;  (** set first on shutdown: refuse new calls *)
  cs_actives : int Atomic.t array Atomic.t;
      (** every client's in-flight gate, CAS-append; summed to quiesce *)
  cs_server_spin : int;
  mutable cs_domains : unit Domain.t array;
      (** exactly one per shard, indexed by shard: set once at spawn,
          an entry replaced only by {!revive_shard}, under [cs_dmutex] *)
  cs_dmutex : Mutex.t;  (** serialises revivals with shutdown's join *)
  cs_respawns : int Atomic.t;  (** shard domains {!revive_shard} restarted *)
  mutable cs_waker : unit -> unit;
      (** this server's entry in [cs_table.wakers], set once at spawn and
          removed at shutdown *)
}

type client = {
  cl_server : channel_server;
  cl_chans : Shm_channel.t array;  (** client endpoints, one per shard *)
  mutable cl_inlined : int;
      (** single-writer (the owning client domain); plain on purpose *)
  mutable cl_rejected : int;  (** calls bounced with [Errc.retry]; ditto *)
  cl_active : int Atomic.t;
      (** queued calls past the draining gate, not yet done.  Inline
          calls are not counted here: their quiesce discipline is the
          shard ticket itself (see [shutdown_channel_server]). *)
}

let try_ticket sh =
  (not (Atomic.get sh.ticket))
  && Atomic.compare_and_set sh.ticket false true

(* Spin for the ticket: the management paths (kill, revive, shutdown)
   that must not skip a shard. *)
let rec take_ticket sh =
  if not (try_ticket sh) then begin
    Domain.cpu_relax ();
    take_ticket sh
  end

let release_ticket sh = Atomic.set sh.ticket false

let rec sweep_chans chans dispatch i acc =
  if i >= Array.length chans then acc
  else
    sweep_chans chans dispatch (i + 1)
      (acc + Shm_channel.serve_once chans.(i) ~dispatch)

(* A full drain pass over [sh]'s channels, serialised by its ticket.
   Before the ticket goes back, a hold gone stale (its slot was killed)
   is retired so the slot can drain; a *fresh* hold is deliberately left
   in place — it is the amortization, spanning batches until a
   lifecycle event invalidates it.  [own] marks the shard's own loop,
   which drains nothing once poisoned: checked under the ticket, so a
   sweep either ends before {!kill_shard}'s ticket pass or sees the
   poison. *)
let sweep_shard ~own t sh dispatch =
  if not (try_ticket sh) then 0
  else if own && Atomic.get sh.poison then begin
    release_ticket sh;
    0
  end
  else begin
    let n = sweep_chans (Atomic.get sh.chans) dispatch 0 0 in
    if hold_stale t sh.sh_hold then hold_retire t sh.sh_hold;
    release_ticket sh;
    n
  end

let rec chans_pending chans i =
  i < Array.length chans
  && (Shm_channel.pending chans.(i) || chans_pending chans (i + 1))

(* Steal-on-idle: visit sibling shards round-robin and drain the first
   batch found.  Safe because each victim's ticket serialises us against
   both its shard domain and its inline callers — and because the sweep
   uses the *victim's* drain body, so the batch hold it touches is the
   one guarded by the ticket we won. *)
let rec steal_round server si k =
  let shards = server.cs_shards in
  if k >= Array.length shards then 0
  else
    let victim = shards.((si + k) mod Array.length shards) in
    let got = sweep_shard ~own:false server.cs_table victim victim.sh_run in
    if got > 0 then got else steal_round server si (k + 1)

let shard_loop server sh =
  let t = server.cs_table in
  (* The doorbell recheck includes hold staleness: a kill wakes every
     registered bell ([t.wakers]), and folding the staleness test into
     the recheck after the flag goes up closes the park/kill race the
     same way the work recheck closes park/ring — a shard can never
     sleep through the retire it owes a killed slot. *)
  let nonempty () =
    Atomic.get server.cs_stop
    || Atomic.get sh.poison
    || hold_stale t sh.sh_hold
    || chans_pending (Atomic.get sh.chans) 0
  in
  let nshards = Array.length server.cs_shards in
  let rec go idle =
    (* One pause per pass paces the loop; nothing reads it as liveness.
       It is kept because without it the domain-channel workload's p50
       read slower in 9 of 10 alternating pairs (0.746 -> 0.757 us,
       2-vCPU VM). *)
    Domain.cpu_relax ();
    if Atomic.get sh.poison then
      (* Injected crash ({!kill_shard}): exit without serving the
         backlog and without retiring the batch hold, exactly as a dead
         domain would; {!revive_shard} cleans up. *)
      ()
    else if Atomic.get server.cs_stop then begin
      (* Final sweep so work enqueued before shutdown still completes;
         then retire whatever hold the sweeps left, so no slot stays
         pinned by a server that no longer exists. *)
      ignore (sweep_shard ~own:true t sh sh.sh_run);
      take_ticket sh;
      hold_retire t sh.sh_hold;
      release_ticket sh
    end
    else begin
      let own = sweep_shard ~own:true t sh sh.sh_run in
      let stolen =
        if own = 0 && nshards > 1 then steal_round server sh.shard_index 1
        else 0
      in
      if stolen > 0 then ignore (Atomic.fetch_and_add sh.shard_steals stolen);
      let did = own + stolen in
      if did > 0 then begin
        Atomic.incr sh.shard_batches;
        go 0
      end
      else if idle < server.cs_server_spin then begin
        Domain.cpu_relax ();
        go (idle + 1)
      end
      else begin
        Doorbell.park sh.bell ~ns:Doorbell.park_bound_ns ~nonempty;
        go 0
      end
    end
  in
  go 0

(* The drain body, built once per shard: a hold-based call (the
   amortized fast path) plus the served count.  The entry-point word is
   the handle the client submitted.  A request for an entry point killed
   and freed while it sat in a ring answers [err_no_entry]; a handler
   that raises is contained inside the call, so no request can take a
   consumer down.  The served counter bumps *before* the channel marks
   the request complete, so a caller that has seen its call return also
   sees it counted. *)
let make_shard t shard_index =
  let sh_hold = make_hold () and shard_served = Padded_atomic.make 0 in
  let sh_run ~ep_word:ep args =
    let rc = hold_call t sh_hold ~ep args in
    Atomic.incr shard_served;
    rc
  in
  {
    shard_index;
    bell = Doorbell.create ();
    chans = Padded_atomic.make [||];
    ticket = Padded_atomic.make false;
    sh_hold;
    sh_run;
    shard_served;
    shard_batches = Padded_atomic.make 0;
    shard_steals = Padded_atomic.make 0;
    poison = Padded_atomic.make false;
  }

let spawn_channel_server ?shards:(shards = 1)
    ?(server_spin = 2 * Shm_channel.default_spin) t =
  if shards <= 0 then
    invalid_arg "Fastcall.spawn_channel_server: shards must be > 0";
  let cs_shards = Array.init shards (make_shard t) in
  let server =
    {
      cs_table = t;
      cs_shards;
      cs_stop = Padded_atomic.make false;
      cs_draining = Padded_atomic.make false;
      cs_actives = Padded_atomic.make [||];
      cs_server_spin = server_spin;
      cs_domains = [||];
      cs_dmutex = Mutex.create ();
      cs_respawns = Padded_atomic.make 0;
      cs_waker = ignore;
    }
  in
  (* A kill must be able to reach a shard that parked while its batch
     hold still pins the killed slot: wake every bell so the shard wakes
     and retires it.  After [cs_stop] the waker is a no-op, which covers
     a kill that read the waker list just before shutdown unhooked it. *)
  server.cs_waker <-
    (fun () ->
      if not (Atomic.get server.cs_stop) then
        Array.iter (fun sh -> Doorbell.wake sh.bell) server.cs_shards);
  update_wakers t (fun ws -> Array.append ws [| server.cs_waker |]);
  server.cs_domains <-
    Array.map (fun sh -> Domain.spawn (fun () -> shard_loop server sh)) cs_shards;
  server

let shard_arg fn server shard =
  if shard < 0 || shard >= Array.length server.cs_shards then
    invalid_arg ("Fastcall." ^ fn ^ ": no such shard");
  server.cs_shards.(shard)

(* Runtime fault injector: simulate the death of a shard domain.  The
   shard exits its loop without serving its backlog, and serves nothing
   submitted after this returns (it waits for a sweep in progress, and
   the handlers it runs, to finish); clients of that shard wedge (or
   time out, on the deadline path) until {!revive_shard}.  The wake
   makes a parked shard see the poison, so the domain is gone, or about
   to be, when this returns. *)
let kill_shard server ~shard =
  let sh = shard_arg "kill_shard" server shard in
  Atomic.set sh.poison true;
  (* One ticket pass waits out a sweep already under way; every later
     sweep by the shard's loop sees the poison. *)
  take_ticket sh;
  release_ticket sh;
  Doorbell.wake sh.bell

(* The inverse of {!kill_shard}: a shard dies only there, so the code
   that killed it revives it.  Under [cs_dmutex], serialised with other
   revivals and with shutdown's join:

   - join the dead domain first.  It was woken by the kill and exits on
     the poison; clearing the poison before the join could let a domain
     woken but not yet scheduled read the cleared flag and keep running
     beside its successor.
   - fail-sweep the backlog under the ticket, like any consumer: every
     request popped answers [err_handler_fault] (it may or may not have
     started when the shard died, which is what that code means) through
     the ordinary completion CAS, and cells abandoned on a deadline are
     reclaimed exactly once.
   - retire the batch hold the dead shard could not, so no slot stays
     pinned by a corpse; a fresh hold is simply re-acquired later.
   - count the respawn before spawning, so an observer that sees the
     successor serve a call also sees it counted.

   Once shutdown has begun no domain may appear, so a revival then does
   nothing. *)
let revive_shard server ~shard =
  let sh = shard_arg "revive_shard" server shard in
  let fail_run ~ep_word:_ _args = err_handler_fault in
  Mutex.protect server.cs_dmutex (fun () ->
      if not (Atomic.get server.cs_draining) then begin
        if not (Atomic.get sh.poison) then
          invalid_arg "Fastcall.revive_shard: shard was not killed";
        Domain.join server.cs_domains.(shard);
        take_ticket sh;
        ignore (sweep_chans (Atomic.get sh.chans) fail_run 0 0 : int);
        hold_retire server.cs_table sh.sh_hold;
        release_ticket sh;
        Atomic.set sh.poison false;
        Atomic.incr server.cs_respawns;
        server.cs_domains.(shard) <-
          Domain.spawn (fun () -> shard_loop server sh)
      end)

(* Runtime fault injector: slow every ring of the shard's doorbell — the
   ring in each queued call's submit (see {!Doorbell.inject_delay}).
   [0] restores normal behaviour. *)
let inject_doorbell_delay server ~shard n =
  Doorbell.inject_delay (shard_arg "inject_doorbell_delay" server shard).bell n

let rec register_chan sh ch =
  let cur = Atomic.get sh.chans in
  let next = Array.append cur [| ch |] in
  if not (Atomic.compare_and_set sh.chans cur next) then register_chan sh ch

let rec register_active server a =
  let cur = Atomic.get server.cs_actives in
  let next = Array.append cur [| a |] in
  if not (Atomic.compare_and_set server.cs_actives cur next) then
    register_active server a

(* Per-calling-domain handle: one channel to every shard — an in-heap
   segment of [capacity] cells whose server endpoint the shard sweeps,
   and whose client endpoint rings the shard's bell.
   Connect from the domain that will make the calls; a client must not
   be shared across domains (the submission rings are single-producer). *)
let connect ?(capacity = 16) ?client_spin server =
  let cl_chans =
    Array.map
      (fun sh ->
        let seg = Shm_channel.create_heap ~capacity () in
        register_chan sh (Shm_channel.attach ~role:Shm_channel.Server seg);
        Shm_channel.attach ?spin:client_spin ~bell:sh.bell
          ~role:Shm_channel.Client seg)
      server.cs_shards
  in
  let cl_active = Padded_atomic.make 0 in
  register_active server cl_active;
  {
    cl_server = server;
    cl_chans;
    cl_inlined = 0;
    cl_rejected = 0;
    cl_active;
  }

(* Entry-point affinity: the shard index a call routes to, from the
   handle's slot bits — every handle of one slot, live or dead, routes
   to the same shard, and a dead one answers [err_no_entry] there. *)
let[@inline] shard_of cl ep = slot_index ep mod Array.length cl.cl_chans

(* The queued round trip, gated for shutdown: submit on the client's
   channel to shard [idx] (the submit rings the shard's bell), wait
   until [deadline], absolute monotonic ns ([max_int] for none).  The
   gate counts the
   call in [cl_active] and then re-reads the draining flag — a
   quiescing server either rejects the call or is guaranteed to see its
   gate and wait (the increment-then-recheck argument).  A timed-out call leaves the
   gate at once: its abandoned cell is the server's to reclaim, so a
   client stuck behind a dead shard never wedges the shutdown.  A full
   pool answers [Errc.retry] without a ring: the submit of every cell in
   flight already rang. *)
let queued_call cl idx ~ep ~deadline args =
  let server = cl.cl_server in
  Atomic.incr cl.cl_active;
  let rc =
    if Atomic.get server.cs_draining then reject args err_killed
    else begin
      let ch = cl.cl_chans.(idx) in
      let i = Shm_channel.submit_raw ch ~ep args in
      if i >= 0 then Shm_channel.await_until ch i ~deadline args
      else begin
        cl.cl_rejected <- cl.cl_rejected + 1;
        reject args i
      end
    end
  in
  Atomic.decr cl.cl_active;
  rc

(* The channel-path cross-domain call.  Entry-point affinity picks the
   shard.  If the shard is uncontended, the call executes right here on
   the caller's domain under the shard ticket — the paper's PPC proper,
   where a protected procedure call runs on the caller's processor and
   hand-off is the exception.  Otherwise it queues on this client's SPSC
   channel and the shard domain batches it.  Either way: no allocation
   after warm-up.  Per-client ordering is trivially preserved because
   calls are synchronous (at most one outstanding request per client).

   Shutdown gating differs by path.  The queued path keeps the counting
   gate (see [queued_call]).  The inline path's gate
   is the shard ticket itself: the draining flag is checked *under* the
   ticket, and [shutdown_channel_server] acquires every ticket once
   after setting the flag, so an inline call either observed draining
   or completed strictly before the shutdown's acquisition — no
   per-call RMW on the inline fast path.  Lifecycle rejections come
   back as [Errc] codes, never exceptions. *)
let channel_call cl ~ep args =
  let idx = shard_of cl ep in
  let server = cl.cl_server in
  let sh = server.cs_shards.(idx) in
  if try_ticket sh then
    if Atomic.get server.cs_draining then begin
      release_ticket sh;
      reject args err_killed
    end
    else begin
      match hold_call server.cs_table sh.sh_hold ~ep args with
      | rc ->
          release_ticket sh;
          cl.cl_inlined <- cl.cl_inlined + 1;
          rc
      | exception e ->
          release_ticket sh;
          raise e
    end
  else queued_call cl idx ~ep ~deadline:max_int args

(* Deadline flavour ([deadline] absolute monotonic ns, [max_int] for
   none).  Always takes the queued path: the point of a deadline is
   bounding the wait on *someone else's* progress, and a call inlined
   under the shard ticket runs on this very domain — there is nothing
   to time out on.  The wait and the Pending->Abandoned handoff are
   {!Shm_channel.await_until}'s. *)
let channel_call_deadline cl ~ep ~deadline args =
  queued_call cl (shard_of cl ep) ~ep ~deadline args

let client_inlined cl = cl.cl_inlined

(* Quiesce, then join (Section 4.5.2's soft-kill discipline applied to
   the whole server): refuse new calls, wait for every call already
   past the gate to complete — the shards are still serving during the
   wait — and only then stop the shard domains.  Every accepted call
   completes; every refused call sees [err_killed].

   Inline calls are quiesced by the ticket pass: after the draining
   flag is up, acquiring and releasing every shard ticket once proves
   no inline call admitted before the flag is still running (it held
   the ticket we just took), and any inline call admitted after will
   see the flag under its own ticket and refuse.  The pass also retires
   each shard's batch hold — covering holds stranded by a killed shard
   never revived, whose domain is no longer there to retire them. *)
let shutdown_channel_server server =
  Atomic.set server.cs_draining true;
  Array.iter
    (fun sh ->
      take_ticket sh;
      hold_retire server.cs_table sh.sh_hold;
      release_ticket sh)
    server.cs_shards;
  let sum_actives () =
    Array.fold_left
      (fun acc a -> acc + Atomic.get a)
      0
      (Atomic.get server.cs_actives)
  in
  while sum_actives () > 0 do
    Domain.cpu_relax ()
  done;
  Atomic.set server.cs_stop true;
  Array.iter (fun sh -> Doorbell.wake sh.bell) server.cs_shards;
  (* A revival that began before [cs_draining] went up finishes first;
     any later one does nothing, so these are the final domains. *)
  Mutex.protect server.cs_dmutex (fun () ->
      Array.iter Domain.join server.cs_domains);
  (* Unhook from the table last: a waker left behind would keep this
     server (shards, bells, every client's segment) reachable for the
     table's lifetime, and every later kill would ring its dead bells. *)
  let waker = server.cs_waker in
  update_wakers server.cs_table (fun ws ->
      Array.of_list (List.filter (fun w -> w != waker) (Array.to_list ws)))

let channel_served server =
  Array.fold_left
    (fun acc sh -> acc + Atomic.get sh.shard_served)
    0 server.cs_shards

let channel_batches server =
  Array.fold_left
    (fun acc sh -> acc + Atomic.get sh.shard_batches)
    0 server.cs_shards

let channel_steals server =
  Array.fold_left
    (fun acc sh -> acc + Atomic.get sh.shard_steals)
    0 server.cs_shards

let channel_doorbell_stats server =
  Array.fold_left
    (fun (r, w, p) sh ->
      ( r + Doorbell.rings sh.bell,
        w + Doorbell.wakes sh.bell,
        p + Doorbell.parks sh.bell ))
    (0, 0, 0) server.cs_shards

let channel_respawns server = Atomic.get server.cs_respawns

(* The cell pool is fixed at [connect]: a full pool answers
   [Errc.retry] instead of growing. *)
let client_slab_grows _ = 0

let sum_chans f cl = Array.fold_left (fun acc ch -> acc + f ch) 0 cl.cl_chans
let client_timeouts cl = sum_chans Shm_channel.timeouts cl
let client_rejected cl = cl.cl_rejected
let client_slab_reclaimed cl = sum_chans Shm_channel.reclaimed cl
