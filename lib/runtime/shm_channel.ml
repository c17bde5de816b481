(* The runtime's one channel protocol, on a Segment: preallocated
   request cells (the paper's CDs, serially reused LIFO), two rings of
   sequence-tagged slots, the doorbell word and the pid and lifecycle
   words are all offsets computed from Ipc_intf.Wire_abi — so the
   identical protocol runs over an in-heap segment (Fastcall's channel
   servers, tests) and over an mmap'd file shared by two OS processes
   (true cross-protection-domain PPC, the paper's call path with the
   protection boundary finally real).

   Roles.  A segment hosts exactly one server and one client, each
   represented by a [t] in its own process (or domain).  The client
   produces into the submission ring and consumes the reclaim ring; it
   owns the free stack and every cell not in flight.  The server
   consumes the submission ring and produces into the reclaim ring.
   A client awaiting a reply spins, yields and naps on its cell's state
   word (the nap cap bounds how late it sees the reply, as it bounds
   deadline overshoot).  An idle server spins and yields on the ring,
   then parks in a timed futex wait on the doorbell word, and the
   submit that finds it parked wakes it.

   Rings.  Both rings hold sequence-tagged slots (Wire_abi.pack_slot,
   FastForward's single-producer single-consumer queue).  Each side
   keeps its ring positions in its own [t]; the producer stores
   [pack_slot ~pos ~cell] into slot [pos] with a release store, which
   publishes the cell staged before it, and the consumer takes slot
   [pos] only when its tag equals [pos + 1].  So a warm call moves the
   slot's line and the cell's lines between the cores, and no index
   word: the client never reads how far the server got, and the
   server's pickup is one load of the slot it expects.  The producer
   needs no fullness check, because of one invariant: every unconsumed
   slot names a distinct cell that is not free.  A cell returns to the
   client's free stack only after the server consumed its slot, through
   the reply or through the reclaim ring, and the dead-peer sweep frees
   cells only once submits are refused.  A submit holds a free cell, so
   fewer than [capacity] slots are unconsumed and the slot it stores
   into was consumed a lap ago; the reclaim ring carries distinct
   abandoned cells, so the same holds there.  The server publishes its
   submission position (Wire_abi.submit_head) once per batch, after the
   replies, for [pending] and for audits; a rebuild zeroes every slot,
   since the previous session's tags would otherwise read as new work.
   A client writes the submission slots, so the server trusts a slot
   only as far as it must: it consumes on an exact tag match, masks the
   cell index by [capacity - 1] and serves at most [capacity] slots per
   batch.

   Doorbell.  The segment's doorbell word (Wire_abi.off_doorbell) is a
   Doorbell, which holds the protocol and its lost-wakeup argument:
   [submit_raw] rings it, a client's shutdown announcement wakes it,
   and an idle server parks on it on the nap rung of its wait.  A
   Fastcall shard serves many channels from one domain, so it attaches
   their client endpoints to its own bell instead ([attach ?bell]): a
   queued call rings once, on the word the shard parks on.

   Crash containment across whole-process death.  Liveness is one rule:
   every wait loop (the client's await, the serving loop's idle pass)
   takes a probe step, and at most once per [probe_interval_ns] that
   step probes the pid the peer recorded at attach with kill(pid, 0)
   (zombies count as alive — reap your forks).  That probe alone can
   declare the peer dead, and a live process always answers it, so a
   peer that is merely slow or silent is never condemned.  The warm
   call path writes no liveness word.  On a confirmed death the
   survivor sweeps the segment exactly once per cell, arbitrated by CAS
   on the cell state word:

     pending   -CAS-> done + rc := handler_fault   (in-flight call fails)
     abandoned -CAS-> free                          (stranded timed-out cell)

   so every in-flight call observes [Errc.handler_fault], every cell
   returns to the free stack exactly once, and submissions after the
   verdict answer [Errc.peer_dead].  This is the deadline path's §4.5.6
   reclamation contract, extended from "server shard died" to "the
   entire peer process is gone".

   Session recovery.  Death containment is bidirectional and the
   segment outlives both endpoints.  A server that finds its client
   dead sweeps and then *releases the session* ([release_session]):
   rings, cells and the client words are rebuilt under the generation
   seqlock so a fresh client can attach to the same segment — the
   [serve_sessions] loop does this and keeps serving.  A server that
   dies is replaced by [Proc_supervisor]: the supervisor regenerates
   the whole segment in place ([regenerate], same seqlock, never a
   truncate — shrinking a mapped file would SIGBUS survivors), and a
   surviving client notices the generation it recorded at attach no
   longer matches the live word.  Every client-facing operation fails
   closed with [Errc.stale_generation] on that mismatch; the channel
   value is then defunct and the owner reattaches via [attach_file]
   (Shm_session automates this, retrying the interrupted call under
   Backoff so callers see at most [Errc.retry], never a hang). *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc

type role = Server | Client

type t = {
  seg : Segment.t;
  role : role;
  capacity : int;
  arg_words : int;
  rc_slot : int;
  cell_words : int;
  cells_base : int;
  spin : int;  (* cpu-relax budget before yielding *)
  mutable gen : int;
  (* the segment generation this endpoint attached under; a live value
     that differs means the segment was rebuilt and this [t] is defunct *)
  mutable sub_pos : int;
  (* submission ring: the client's next slot to fill, the server's next
     slot to take *)
  mutable rec_pos : int;
  (* reclaim ring: the server's next slot to fill, the client's next
     slot to take *)
  (* client: free stack of cell indices; unused by the server *)
  free : int array;
  mutable free_len : int;
  mutable peer_dead : bool;
  mutable next_probe_ns : int;  (* earliest time of the next pid probe *)
  mutable timeouts : int;
  mutable submitted : int;
  mutable served : int;
  mutable batches : int;
  bell : Doorbell.t;  (* rung by submits, parked on by the server *)
  scratch : int array;  (* server-side argument staging *)
}

(* --- layout helpers -------------------------------------------------------- *)

let cell_state t i = t.cells_base + (i * t.cell_words)
let cell_ep t i = t.cells_base + (i * t.cell_words) + 1
let cell_arg t i j = t.cells_base + (i * t.cell_words) + 2 + j

let pid_off = function Server -> W.off_server_pid | Client -> W.off_client_pid

let peer_pid_off t =
  match t.role with Server -> W.off_client_pid | Client -> W.off_server_pid

let my_state_off t =
  match t.role with Server -> W.off_server_state | Client -> W.off_client_state

let peer_state_off t =
  match t.role with Server -> W.off_client_state | Client -> W.off_server_state

(* --- rings ----------------------------------------------------------------- *)

(* The two ring steps, shared by both rings (the discipline is in the
   header).  [off] is the slot word for position [pos]. *)
let ring_put t off ~pos ~cell = Segment.set t.seg off (W.pack_slot ~pos ~cell)

(* The cell at position [pos], or -1 while the slot does not hold it. *)
let ring_take t off ~pos =
  let w = Segment.get t.seg off in
  if W.slot_seq w = pos + 1 then W.slot_cell w land (t.capacity - 1) else -1

(* --- construction ---------------------------------------------------------- *)

(* Rebuild a segment's session state under the generation seqlock:
   the generation goes odd (under construction), everything after the
   header is zeroed (the published position, every slot of both rings,
   the cells), [header] rewrites whatever header words the rebuild owns,
   and the generation goes even again (open for attach); returns it.
   Generations are monotonic across rebuilds of the same words: a fresh
   (zeroed) segment goes 0 -> 1 -> 2, a regeneration 2 -> 3 -> 4, and a
   builder that died at an odd value is skipped past, so no two builds
   share a generation and an attacher can always order them.  The last
   store wakes every [attach_file] asleep on the generation word. *)
let rebuild seg ~capacity ~arg_words header =
  let g = Segment.get seg W.off_generation in
  let building = if g land 1 = 1 then g + 2 else g + 1 in
  Segment.set seg W.off_generation building;
  for off = W.submit_base to W.total_words ~capacity ~arg_words - 1 do
    Segment.set seg off 0
  done;
  header ();
  Segment.set seg W.off_generation (building + 1);
  Segment.wake seg W.off_generation;
  building + 1

(* Lay a segment out: the whole header, both endpoints' words and the
   session state, in one [rebuild].  The creator need not be either
   endpoint — in the forked demo the parent lays the segment out before
   forking the server.  Every layout gives each cell [cell_arg_words]
   argument words, the width of a Fastcall call. *)
let default_capacity = 64
let cell_arg_words = 8
let words_for capacity = W.total_words ~capacity ~arg_words:cell_arg_words

(* One message shape for a bad capacity: tooling that pattern-matches
   the error does it once. *)
let validate_capacity fn capacity =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "%s: capacity must be a positive power of two (got %d)"
         fn capacity)

let layout ?(capacity = default_capacity) seg =
  validate_capacity "Shm_channel.layout" capacity;
  if capacity > W.max_capacity then
    invalid_arg
      (Printf.sprintf "Shm_channel.layout: capacity %d exceeds %d" capacity
         W.max_capacity);
  let words = words_for capacity in
  if Segment.length seg < words then
    invalid_arg
      (Printf.sprintf "Shm_channel.layout: segment holds %d words, need %d"
         (Segment.length seg) words);
  ignore
    (rebuild seg ~capacity ~arg_words:cell_arg_words (fun () ->
         Segment.set seg W.off_magic W.magic;
         Segment.set seg W.off_version W.abi_version;
         Segment.set seg W.off_total_words words;
         Segment.set seg W.off_capacity capacity;
         Segment.set seg W.off_arg_words cell_arg_words;
         for off = W.off_server_pid to W.off_sessions do
           Segment.set seg off 0
         done)
      : int)

let create_heap ?(capacity = default_capacity) () =
  let seg = Segment.create_heap ~words:(words_for capacity) in
  layout ~capacity seg;
  seg

let create_file ~path ?(capacity = default_capacity) () =
  let seg = Segment.create_file ~path ~words:(words_for capacity) in
  (* No msync: the segment is runtime state that every mapper shares
     through the page cache, and nothing reads it after a reboot. *)
  layout ~capacity seg;
  seg

exception Bad_segment of string

(* A client process can write the header: its geometry must fit the
   words actually mapped before any offset is computed from it. *)
let validate seg =
  if Segment.get seg W.off_magic <> W.magic then
    raise (Bad_segment "bad magic (not a PPC segment, or wrong endianness)");
  let v = Segment.get seg W.off_version in
  if v <> W.abi_version then
    raise
      (Bad_segment
         (Printf.sprintf "ABI version %d, this build speaks %d" v W.abi_version));
  let gen = Segment.get seg W.off_generation in
  if gen = 0 || gen land 1 = 1 then
    raise (Bad_segment "segment still under construction (odd generation)");
  let words = Segment.get seg W.off_total_words in
  let capacity = Segment.get seg W.off_capacity in
  let arg_words = Segment.get seg W.off_arg_words in
  if
    words > Segment.length seg || capacity < 1 || capacity > W.max_capacity
    || arg_words < 1 || arg_words > words
    || W.total_words ~capacity ~arg_words <> words
  then
    raise
      (Bad_segment
         (Printf.sprintf "header claims %d words, the segment holds %d" words
            (Segment.length seg)))

(* Rebuild an existing segment in place for a fresh lease: same
   capacity (read back from the header), next generation.  The caller
   is a supervisor replacing a dead server.  Deliberately never
   truncates or remaps the file: a surviving client still holds a
   mapping, and shrinking a mapped file turns its loads into SIGBUS —
   instead the survivor reads the bumped generation and fails closed
   with [Errc.stale_generation]. *)
let regenerate seg =
  if Segment.get seg W.off_magic <> W.magic then
    raise (Bad_segment "regenerate: not a PPC segment");
  layout ~capacity:(Segment.get seg W.off_capacity) seg

(* Default cpu-relax budget before a waiter starts yielding.  Spinning
   only pays when the peer can make progress on another core; on a
   single-CPU box the whole budget is burned while the peer is
   descheduled, so the fast path there is to hand the core over almost
   immediately (the paper's hand-off discipline, enforced by the
   scheduler). *)
let default_spin =
  if Domain.recommended_domain_count () <= 1 then 16 else 2048

(* How often an endpoint may probe its peer's pid (see [probe_peer]). *)
let probe_interval_ns = 50_000_000

(* One endpoint per role per segment: attaching over a live slot would
   add a second writer to single-writer words.  The slot is open when
   its pid word is 0 — fresh build, regeneration, or the server released
   the session — or already ours (same-process re-attach; every
   in-process test and bench runs both roles under one pid).  Answers
   the other process holding it, or 0. *)
let holder seg role =
  let pid = Segment.get seg (pid_off role) in
  if pid = Unix.getpid () then 0 else pid

let attach ?(spin = default_spin) ?bell ~role seg =
  validate seg;
  let pid = holder seg role in
  if pid <> 0 then
    raise
      (Bad_segment
         (Printf.sprintf "%s slot held by pid %d"
            (match role with Server -> "server" | Client -> "client")
            pid));
  let capacity = Segment.get seg W.off_capacity in
  let arg_words = Segment.get seg W.off_arg_words in
  let t =
    {
      seg;
      role;
      capacity;
      arg_words;
      rc_slot = arg_words - 1;
      cell_words = W.cell_words ~arg_words;
      cells_base = W.cells_base ~capacity;
      spin;
      gen = Segment.get seg W.off_generation;
      (* An endpoint joins a session at its start (a layout, a release
         or a regeneration zeroed the rings), so every position is 0. *)
      sub_pos = 0;
      rec_pos = 0;
      free = Array.init capacity (fun i -> capacity - 1 - i);
      free_len = (match role with Client -> capacity | Server -> 0);
      peer_dead = false;
      next_probe_ns = Doorbell.now_ns () + probe_interval_ns;
      timeouts = 0;
      submitted = 0;
      served = 0;
      batches = 0;
      bell =
        (match bell with
        | Some b -> b
        | None -> Doorbell.on_word seg W.off_doorbell);
      scratch = Array.make arg_words 0;
    }
  in
  Segment.set seg (pid_off role) (Unix.getpid ());
  Segment.set seg (my_state_off t) W.peer_ready;
  Segment.wake seg (my_state_off t);
  t

(* Sleep on word [off] until [ready] accepts its value, or answer false
   at [deadline].  The writer that ends such a wait wakes the word. *)
let rec sleep_on seg off ~deadline ready =
  let v = Segment.get seg off in
  ready v
  ||
  let left = deadline - Doorbell.now_ns () in
  left > 0
  && begin
       Segment.wait seg off ~expected:v ~ns:left;
       sleep_on seg off ~deadline ready
     end

(* Map the file once, then sleep on the generation word, read before
   the slot so that a release between the two reads moves the word the
   wait compares.  An [attach] that a rebuild beat to the header waits
   again.  The one timed retry is for a file that is absent or shorter
   than a header: there is no word to sleep on yet. *)
let attach_file ?(timeout_ns = 5_000_000_000) ?(after_generation = 0) ~role
    path =
  let deadline = Doorbell.now_ns () + timeout_ns in
  let rec open_file () =
    match Segment.open_file ~path with
    | seg when Segment.length seg >= W.header_words -> seg
    | _ | (exception Unix.Unix_error _) ->
        if Doorbell.now_ns () > deadline then
          raise (Bad_segment (path ^ ": no segment file appeared in time"));
        Doorbell.nap_ns 200_000;
        open_file ()
  in
  let seg = open_file () in
  let g = ref 0 in
  let open_to_us v =
    g := v;
    v land 1 = 0 && v > after_generation && holder seg role = 0
  in
  let rec go () =
    if not (sleep_on seg W.off_generation ~deadline open_to_us) then
      raise
        (Bad_segment
           (match holder seg role with
           | 0 ->
               Printf.sprintf "%s: no build past generation %d opened in time"
                 path after_generation
           | pid -> Printf.sprintf "%s: slot held by pid %d" path pid));
    match attach ~role seg with
    | t -> t
    | exception Bad_segment _ when Segment.get seg W.off_generation <> !g ->
        go ()
  in
  go ()

let segment t = t.seg
let capacity t = t.capacity
let arg_words t = t.arg_words
let generation t = t.gen

(* The segment was rebuilt (regenerated, or the session released) after
   this endpoint attached: every operation on [t] now fails closed. *)
let stale t = Segment.get t.seg W.off_generation <> t.gen

(* --- liveness -------------------------------------------------------------- *)

(* One probe step, called from every wait loop: a clock read and a
   compare, and kill(pid, 0) at most once per [probe_interval_ns], the
   first an interval after attach.  A pid of 0 is a peer not attached
   yet, which nothing probes.  Both sides run the same rule. *)
let probe_peer t =
  if not t.peer_dead then begin
    let now = Doorbell.now_ns () in
    if now >= t.next_probe_ns then begin
      t.next_probe_ns <- now + probe_interval_ns;
      let pid = Segment.get t.seg (peer_pid_off t) in
      if pid <> 0 && not (Segment.pid_alive pid) then t.peer_dead <- true
    end
  end;
  t.peer_dead

let peer_dead t = t.peer_dead

(* Fail/reclaim every cell the dead peer held, exactly once per cell
   (CAS-arbitrated, so calling this twice — or racing a late sweep
   against an await that triggered its own — cannot double-recycle).
   Returns how many cells this invocation swept.  Idempotent. *)
let sweep_dead_peer t =
  let n = ref 0 in
  for i = 0 to t.capacity - 1 do
    let st = cell_state t i in
    if
      Segment.cas t.seg st ~expected:W.state_pending ~desired:W.state_done
    then begin
      (* An in-flight call: complete it locally with handler_fault so
         its awaiter unblocks with the containment verdict.  Single
         writer now (the peer is dead), so the rc store after the state
         flip is observed by this process's own await loop only. *)
      Segment.set t.seg (cell_arg t i t.rc_slot) Errc.handler_fault;
      incr n;
      ignore (Segment.fetch_add t.seg W.off_peer_faults 1 : int)
    end
    else if
      Segment.cas t.seg st ~expected:W.state_abandoned ~desired:W.state_free
    then begin
      (* A cell the client abandoned on deadline whose reclaim the dead
         server still owed: recycle it straight to the free stack. *)
      (match t.role with
      | Client ->
          t.free.(t.free_len) <- i;
          t.free_len <- t.free_len + 1
      | Server -> ());
      incr n;
      ignore (Segment.fetch_add t.seg W.off_reclaimed 1 : int)
    end
  done;
  !n

(* --- client side ----------------------------------------------------------- *)

(* Drain the server->client reclaim ring into the free stack (the
   §4.5.6 side stack, cold path). *)
let rec drain_reclaim t =
  let pos = t.rec_pos in
  let i = ring_take t (W.reclaim_slot ~capacity:t.capacity pos) ~pos in
  if i >= 0 then begin
    t.free.(t.free_len) <- i;
    t.free_len <- t.free_len + 1;
    t.rec_pos <- pos + 1;
    drain_reclaim t
  end

let free_cells t =
  drain_reclaim t;
  t.free_len

(* Work is queued past the published position [h] iff slot [h] holds
   position [h] or a later lap.  [h] only lags the server's own
   position (while a batch runs), and a lagging [h] names a slot already
   tagged [h + 1] or later, so the answer errs only towards "yes" — an
   extra sweep, never a lost wakeup. *)
let queued seg ~capacity =
  let h = Segment.get seg W.submit_head in
  W.slot_seq (Segment.get seg (W.submit_slot ~capacity h)) > h

let pending t = queued t.seg ~capacity:t.capacity

let in_flight t = t.capacity - free_cells t

(* Submit one call: acquire a cell, stage the arguments, publish it
   with the slot store (no fullness check, see the header's invariant),
   ring the doorbell.  Returns the cell index (>= 0) to [await] on, or
   a negative [Errc] code ([retry] on exhaustion, [peer_dead] once the
   peer is known dead, [stale_generation] once the segment was rebuilt
   underneath this mapping).  The sign-split return keeps the warm path free of result
   boxes.  Client only; allocation-free. *)
let submit_raw t ~ep args =
  if t.peer_dead then Errc.peer_dead
  else if stale t then Errc.stale_generation
  else begin
    if t.free_len = 0 then drain_reclaim t;
    if t.free_len = 0 then Errc.retry
    else begin
      t.free_len <- t.free_len - 1;
      let i = t.free.(t.free_len) in
      let pos = t.sub_pos in
      Segment.set t.seg (cell_ep t i) ep;
      Segment.set_words t.seg (cell_arg t i 0) args t.arg_words;
      Segment.set t.seg (cell_state t i) W.state_pending;
      ring_put t (W.submit_slot ~capacity:t.capacity pos) ~pos ~cell:i;
      t.sub_pos <- pos + 1;
      Doorbell.ring t.bell;
      t.submitted <- t.submitted + 1;
      i
    end
  end

(* Wait for cell [i] to complete; copy the reply back into [args] and
   recycle the cell.  [deadline] is absolute CLOCK_MONOTONIC ns
   ([max_int] = none): on expiry the cell is abandoned to the server by
   the Pending->Abandoned CAS handoff and the call answers
   [Errc.timed_out].  Peer death answers [Errc.handler_fault] via the
   sweep; a segment rebuilt mid-wait answers [Errc.stale_generation]
   and orphans the cell with the old session (the channel is defunct —
   do not recycle into a slab that no longer exists).  Spin -> yield ->
   nap; allocation-free. *)
(* The wait loops are top-level functions taking their whole state as
   immediate arguments — a local recursive closure (or ref cells) would
   cost a minor allocation per call and break the zero-alloc pin. *)

(* Spin rung: poll the state word for up to [t.spin] cpu-relax rounds,
   keeping the staleness check and the liveness probe step going; true
   once the reply has landed, false when the budget is spent or either
   check has news for the slower rungs.  Nothing here stores into the
   segment: a store on every round would bounce a header line between
   the two cores on exactly the path a warm reply takes.  The deadline
   is first checked on the yield rung — one spin budget (microseconds)
   late at worst. *)
let rec spin_rung t st_off n =
  Segment.get t.seg st_off = W.state_done
  || n < t.spin
     && (not (stale t))
     && (not (probe_peer t))
     && begin
          Domain.cpu_relax ();
          spin_rung t st_off (n + 1)
        end

(* Yield and nap rungs: [rounds] counts them, [nap] is the next nap. *)
let rec await_loop t i args deadline st_off rounds nap =
  let st = Segment.get t.seg st_off in
  if st = W.state_done then begin
    Segment.get_words t.seg (cell_arg t i 0) args t.arg_words;
    Segment.set t.seg st_off W.state_free;
    t.free.(t.free_len) <- i;
    t.free_len <- t.free_len + 1;
    args.(t.rc_slot)
  end
  else if deadline <> max_int && Doorbell.now_ns () > deadline then
    if
      Segment.cas t.seg st_off ~expected:W.state_pending
        ~desired:W.state_abandoned
    then begin
      (* Ownership handed to the server: it discards the late reply
         and returns the cell through the reclaim ring. *)
      t.timeouts <- t.timeouts + 1;
      args.(t.rc_slot) <- Errc.timed_out;
      Errc.timed_out
    end
    else await_loop t i args deadline st_off rounds nap
    (* lost the race to Done: take the reply *)
  else if stale t then begin
    args.(t.rc_slot) <- Errc.stale_generation;
    Errc.stale_generation
  end
  else begin
    if probe_peer t then ignore (sweep_dead_peer t : int);
    if rounds < 64 then Doorbell.yield () else Doorbell.nap_ns nap;
    await_loop t i args deadline st_off (rounds + 1)
      (if rounds < 64 then nap else min (2 * nap) 50_000)
  end

let await_until t i ~deadline args =
  let st_off = cell_state t i in
  ignore (spin_rung t st_off 0 : bool);
  await_loop t i args deadline st_off 0 1_000

let await ?(deadline = max_int) t i args = await_until t i ~deadline args

let call_deadline t ~ep ~deadline args =
  let i = submit_raw t ~ep args in
  if i < 0 then begin
    args.(t.rc_slot) <- i;
    i
  end
  else await_until t i ~deadline args

let call t ~ep args = call_deadline t ~ep ~deadline:max_int args

(* Announce clean shutdown to the peer (a serving loop exits once the
   ring is dry).  A client also wakes a parked server, so that it exits
   now rather than when its wait times out. *)
let announce_shutdown t =
  Segment.set t.seg (my_state_off t) W.peer_shutdown;
  match t.role with Client -> Doorbell.wake t.bell | Server -> ()

(* --- server side ----------------------------------------------------------- *)

type dispatch = ep_word:int -> int array -> int

(* Return an abandoned cell through the reclaim ring.  Cannot overrun:
   the ring has as many slots as there are cells (see the header). *)
let reclaim_cell t i =
  let pos = t.rec_pos in
  Segment.set t.seg (cell_state t i) W.state_free;
  ring_put t (W.reclaim_slot ~capacity:t.capacity pos) ~pos ~cell:i;
  t.rec_pos <- pos + 1;
  ignore (Segment.fetch_add t.seg W.off_reclaimed 1 : int)

(* Serve the cell one consumed slot named. *)
let serve_cell t ~dispatch i =
  let st = Segment.get t.seg (cell_state t i) in
  if st = W.state_pending then begin
    Segment.get_words t.seg (cell_arg t i 0) t.scratch t.arg_words;
    let ep_word = Segment.get t.seg (cell_ep t i) in
    let rc =
      match dispatch ~ep_word t.scratch with
      | rc -> rc
      | exception _ -> Errc.handler_fault
    in
    t.scratch.(t.rc_slot) <- rc;
    Segment.set_words t.seg (cell_arg t i 0) t.scratch t.arg_words;
    if
      not
        (Segment.cas t.seg (cell_state t i) ~expected:W.state_pending
           ~desired:W.state_done)
    then
      (* The client abandoned the call while the handler ran: the
         reply is discarded, the cell is the server's to recycle —
         exactly once, because only the CAS loser reclaims. *)
      reclaim_cell t i
  end
  else if st = W.state_abandoned then reclaim_cell t i

let take_submitted t pos =
  ring_take t (W.submit_slot ~capacity:t.capacity pos) ~pos

(* Drain the submission ring once: take slots while each holds the
   position expected next, at most [capacity] of them, run every queued
   call through [dispatch], publish replies, recycle abandoned cells;
   then publish the new position.  Returns how many slots were
   consumed.  Server only. *)
let serve_once t ~dispatch =
  let first = t.sub_pos in
  let i = ref (take_submitted t first) in
  while !i >= 0 do
    serve_cell t ~dispatch !i;
    let pos = t.sub_pos + 1 in
    t.sub_pos <- pos;
    i := if pos - first < t.capacity then take_submitted t pos else -1
  done;
  let served = t.sub_pos - first in
  if served > 0 then begin
    (* One store per batch, after the replies: a store per slot would
       pull the slot's line away from the client mid-call. *)
    Segment.set t.seg W.submit_head t.sub_pos;
    t.served <- t.served + served;
    t.batches <- t.batches + 1
  end;
  served

(* One step of a dry server's wait, the same spin -> yield -> nap ladder
   as the client's await: a server that parked the instant the ring went
   dry would put a wakeup on every ping-pong round trip.  On the nap
   rung it parks on the doorbell instead of sleeping, so a submit wakes
   it at once; [nonempty] rechecks for work and a client shutdown.  The
   nap schedule (1 us doubling to 50 us) times the wait and so still
   sets how often an idle server checks for staleness, shutdown and a
   dead client. *)
let idle_rung t ~idle ~nap ~nonempty =
  if idle < t.spin then Domain.cpu_relax ()
  else if idle < t.spin + 64 then Doorbell.yield ()
  else begin
    Doorbell.park t.bell ~ns:!nap ~nonempty;
    nap := min (2 * !nap) 50_000
  end

(* Release a dead (or departed) client's session so the segment can
   host a successor without a server restart: sweep the client's cells
   exactly once (every in-flight call gets its verdict, every stranded
   abandoned cell is recycled), then [rebuild] rings, cells and the
   client words.  The client is confirmed dead so no live process holds
   the old session, but a half-attached straggler mapping would observe
   the odd generation mid-rebuild and fail closed like any stale
   reader.  Cumulative counters (doorbell, reclaimed, peer_faults,
   sessions) survive the release: they are observability, not session
   state.  The server's own [t] follows the new generation and keeps
   serving.  Server only. *)
let release_session t =
  (match t.role with
  | Server -> ()
  | Client -> invalid_arg "Shm_channel.release_session: server role required");
  ignore (sweep_dead_peer t : int);
  let seg = t.seg in
  t.gen <-
    rebuild seg ~capacity:t.capacity ~arg_words:t.arg_words (fun () ->
        Segment.set seg W.off_client_pid 0;
        Segment.set seg W.off_client_state W.peer_absent;
        ignore (Segment.fetch_add seg W.off_sessions 1 : int));
  t.sub_pos <- 0;
  t.rec_pos <- 0;
  t.peer_dead <- false

(* The one server loop: drain, wait on the idle ladder when dry, exit
   when the client announces shutdown (and the ring is dry) or the
   segment is regenerated underneath this server (a supervisor replaced
   it while it was presumed dead — fail closed, and in particular do not
   write a shutdown announcement into a session that is no longer
   ours).  A client found dead is [on_dead]'s to handle, which answers
   whether to keep serving.  Returns the number of requests served over
   the loop's lifetime. *)
let serve_loop t ~dispatch ~on_dead =
  let continue_ = ref true in
  let nap = ref 1_000 in
  let idle = ref 0 in
  (* Built once, so a park allocates nothing. *)
  let nonempty () =
    pending t || Segment.get t.seg (peer_state_off t) = W.peer_shutdown
  in
  while !continue_ do
    if stale t then continue_ := false
    else if serve_once t ~dispatch > 0 then begin
      nap := 1_000;
      idle := 0
    end
    else if Segment.get t.seg (peer_state_off t) = W.peer_shutdown then
      continue_ := false
    else if probe_peer t then begin
      continue_ := on_dead ();
      nap := 1_000;
      idle := 0
    end
    else begin
      incr idle;
      idle_rung t ~idle:!idle ~nap ~nonempty
    end
  done;
  if not (stale t) then announce_shutdown t;
  t.served

(* Single session: a dead client's cells are reclaimed, then the loop
   exits. *)
let serve t ~dispatch =
  serve_loop t ~dispatch ~on_dead:(fun () ->
      ignore (sweep_dead_peer t : int);
      false)

(* Multi-session: a dead client's session is released ([on_release]
   fires once per release) and the loop keeps serving for the next
   client.  Server only. *)
let serve_sessions ?(on_release = fun () -> ()) t ~dispatch =
  (match t.role with
  | Server -> ()
  | Client -> invalid_arg "Shm_channel.serve_sessions: server role required");
  serve_loop t ~dispatch ~on_dead:(fun () ->
      release_session t;
      on_release ();
      true)

(* --- observability --------------------------------------------------------- *)

let timeouts t = t.timeouts
let submitted t = t.submitted
let served t = t.served
let batches t = t.batches
let parks t = Doorbell.parks t.bell
let wakes t = Doorbell.wakes t.bell
let doorbell_rings t = Doorbell.rings t.bell
let reclaimed t = Segment.get t.seg W.off_reclaimed
let peer_faults t = Segment.get t.seg W.off_peer_faults
let sessions_released t = Segment.get t.seg W.off_sessions
let peer_pid t = Segment.get t.seg (peer_pid_off t)
let peer_ready t = Segment.get t.seg (peer_state_off t) = W.peer_ready

(* The handshake a forking demo does before its first call; the peer's
   [attach] wakes it. *)
let wait_peer_ready ?(timeout_ns = 5_000_000_000) t =
  let deadline = Doorbell.now_ns () + timeout_ns in
  sleep_on t.seg (peer_state_off t) ~deadline (fun st -> st = W.peer_ready)
