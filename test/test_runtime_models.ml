(* Model-based tests for the lock-free runtime structures.

   Each structure is driven by a generated operation sequence and
   compared, observation by observation, against a trivial sequential
   reference model (an OCaml list / queue / integer).  Sequentially the
   lock-free structures must be indistinguishable from their models;
   the cross-domain suites in test_runtime.ml cover the concurrent side.

   Operations are encoded as integer pairs [(tag, value)] so QCheck's
   stock list/int shrinkers minimize failing sequences. *)

let qcheck = QCheck_alcotest.to_alcotest

let ops_arb = QCheck.(small_list (pair (int_bound 3) (int_bound 1000)))

(* --- MPSC queue vs FIFO list ---------------------------------------------- *)

let prop_mpsc_vs_queue =
  QCheck.Test.make ~name:"mpsc queue = queue model" ~count:300 ops_arb
    (fun ops ->
      let q = Baseline.Mpsc_queue.create () in
      let model = Queue.create () in
      List.for_all
        (fun (tag, v) ->
          if tag < 2 then begin
            Baseline.Mpsc_queue.push q v;
            Queue.push v model;
            true
          end
          else
            let got = Baseline.Mpsc_queue.pop q in
            let want = Queue.take_opt model in
            got = want && Baseline.Mpsc_queue.is_empty q = Queue.is_empty model)
        ops)

(* --- striped counter vs integer ------------------------------------------- *)

let prop_striped_vs_int =
  QCheck.Test.make ~name:"striped counter = integer model" ~count:300
    QCheck.(small_list (pair (int_bound 2) (int_range (-500) 500)))
    (fun ops ->
      let c = Runtime.Striped_counter.create ~stripes:4 () in
      let model = ref 0 in
      List.for_all
        (fun (tag, v) ->
          match tag with
          | 0 ->
              Runtime.Striped_counter.incr c;
              incr model;
              true
          | 1 ->
              Runtime.Striped_counter.add c v;
              model := !model + v;
              true
          | _ -> Runtime.Striped_counter.value c = !model)
        ops
      && Runtime.Striped_counter.value c = !model)

(* --- request cells vs free-stack model --------------------------------------- *)

(* Both channel-cell models drive the real Shm_channel code over an
   in-heap segment, playing client and server from one domain: a
   submit acquires a cell, [serve_once] completes every queued one, and
   an await takes the reply and recycles the cell. *)
module Ch = Runtime.Shm_channel
module W = Ipc_intf.Wire_abi

let plus_one ~ep_word:_ args =
  args.(0) <- args.(0) + 1;
  Ipc_intf.Errc.ok

let channel_pair ~capacity =
  let seg = Ch.create_heap ~capacity () in
  (seg, Ch.attach ~role:Ch.Client seg, Ch.attach ~role:Ch.Server seg)

let cell_state seg ~capacity i =
  Runtime.Segment.get seg (W.cell_state ~capacity ~arg_words:8 i)

(* The cell pool's serial-reuse contract: completing a call pushes its
   cell on a free stack, and a submit pops the most recently completed
   cell (warm calls keep touching the same hot cell).  The pool is
   fixed: with every cell out, a submit answers [Errc.retry].  The model
   is a free-id stack plus the outstanding ids and the payload each one
   carries; a recycled cell must read [state_free]. *)
let prop_slab_serial_reuse =
  QCheck.Test.make ~name:"request slab = free-stack model" ~count:300 ops_arb
    (fun ops ->
      let capacity = 4 in
      let seg, client, server = channel_pair ~capacity in
      let args = Array.make 8 0 in
      let free = ref (List.init capacity Fun.id) in
      let out = Hashtbl.create 8 in
      List.for_all
        (fun (tag, v) ->
          if tag < 2 then begin
            args.(0) <- v;
            let got = Ch.submit_raw client ~ep:0 args in
            match !free with
            | [] -> got = Ipc_intf.Errc.retry
            | top :: rest ->
                free := rest;
                Hashtbl.replace out top v;
                got = top
          end
          else
            match Hashtbl.length out with
            | 0 -> true
            | _ ->
                (* Complete an arbitrary outstanding cell (the smallest
                   id keeps it deterministic; the model tracks ids, not
                   order). *)
                let idx, v =
                  Hashtbl.fold
                    (fun k v acc ->
                      match acc with
                      | Some (k0, _) when k0 <= k -> acc
                      | _ -> Some (k, v))
                    out None
                  |> Option.get
                in
                ignore (Ch.serve_once server ~dispatch:plus_one : int);
                Hashtbl.remove out idx;
                free := idx :: !free;
                Ch.await client idx args = Ipc_intf.Errc.ok
                && args.(0) = v + 1
                && cell_state seg ~capacity idx = W.state_free
                && Ch.free_cells client = List.length !free
                && Ch.in_flight client = Hashtbl.length out)
        ops)

(* --- cell abandonment vs set model ------------------------------------------ *)

(* The deadline protocol's core invariant: a cell abandoned via the
   pending → abandoned CAS is handed to the server, which returns it
   through the reclaim ring — recycled exactly once, so the pool never
   ends up with duplicate or lost cells.  The plan mixes three outcomes:
   0 completes normally, 1 abandons before the server picks the cell
   up, 2 abandons while the handler runs (the dispatch itself expires
   the client's deadline, so the server's completion CAS loses).  Then
   the whole pool is drained: every cell must surface exactly once. *)
let prop_slab_abandon_reclaim =
  QCheck.Test.make ~name:"slab: abandoned cells recycled exactly once"
    ~count:300
    QCheck.(small_list (int_bound 2))
    (fun plan ->
      let capacity = 2 in
      let _, client, server = channel_pair ~capacity in
      let args = Array.make 8 0 and inner = Array.make 8 0 in
      let cell = ref (-1) and verdict = ref Ipc_intf.Errc.ok in
      let abandon_mid_handler ~ep_word:_ _ =
        verdict := Ch.await ~deadline:0 client !cell inner;
        Ipc_intf.Errc.ok
      in
      let abandons = ref 0 and ok = ref true in
      List.iter
        (fun outcome ->
          let i = Ch.submit_raw client ~ep:0 args in
          if i < 0 then ok := false
          else if outcome = 0 then begin
            ignore (Ch.serve_once server ~dispatch:plus_one : int);
            if Ch.await client i args <> Ipc_intf.Errc.ok then ok := false
          end
          else begin
            incr abandons;
            if outcome = 1 then
              verdict := Ch.await ~deadline:0 client i args
            else cell := i;
            ignore
              (Ch.serve_once server
                 ~dispatch:(if outcome = 1 then plus_one else abandon_mid_handler)
                : int);
            if !verdict <> Ipc_intf.Errc.timed_out then ok := false
          end)
        plan;
      !ok
      && Ch.reclaimed client = !abandons
      && Ch.timeouts client = !abandons
      && Ch.free_cells client = capacity
      && Ch.in_flight client = 0
      &&
      let seen = Hashtbl.create 4 in
      let unique = ref true in
      for _ = 1 to capacity do
        let i = Ch.submit_raw client ~ep:0 args in
        if i < 0 || Hashtbl.mem seen i then unique := false;
        Hashtbl.replace seen i ()
      done;
      !unique
      && Ch.submit_raw client ~ep:0 args = Ipc_intf.Errc.retry
      && Ch.in_flight client = capacity)

(* --- doorbell park/wake protocol vs a model kernel ------------------------- *)

(* The doorbell protocol (Doorbell's header): one client and one server
   interleave the real [Doorbell] steps on a heap channel segment's
   doorbell word, one atomic step at a time, while a model kernel
   stands in for the futex.  Client steps: a submit (publish a
   tagged slot, ring), the shutdown announcement (store the state,
   fetch-add 0) and, when either found the flag, the clear-and-wake.
   Server steps: drain when there is work, else raise the flag; the recheck
   of the ring and the client's state (which may take the flag back);
   entering the wait, where the kernel compares the word; a timeout;
   and the clear after the wait.  Plan entries 0-1 step the
   client, 2 steps the server, 3 steps the server or times out its
   wait, 4 announces shutdown.  After every step: the flag bit is 1
   exactly while a raised flag is uncleared, and a server asleep while
   work or a shutdown is pending is owed a wake by the client — no
   interleaving leaves it waiting on a word nobody will wake.  After
   the plan the client finishes (so nothing is owed and the sleeper
   must have no news), then the server finishes too, and the rings
   equal the submits and every raised flag was cleared exactly once.
   A client owing a wake to a server still asleep must win the clear,
   so the sleeper gets exactly one wake. *)
type bell_server =
  | Awake
  | Flagged of int
  | Checked of int
  | Asleep of int
  | Returned

let prop_bell_protocol =
  QCheck.Test.make ~name:"doorbell: one wake per parked flag, none lost"
    ~count:500
    QCheck.(small_list (int_bound 4))
    (fun plan ->
      let seg = Ch.create_heap ~capacity:4 () in
      let server = Ch.attach ~role:Ch.Server seg in
      let bell = Runtime.Doorbell.on_word seg W.off_doorbell in
      let word () = Runtime.Segment.get seg W.off_doorbell in
      let low32 w = w land 0xffff_ffff in
      let srv = ref Awake and owes_wake = ref false in
      let shutdown () =
        Runtime.Segment.get seg W.off_client_state = W.peer_shutdown
      in
      let news () = Ch.pending server || shutdown () in
      let submits = ref 0 and sets = ref 0 and clears = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let client_step ~announce =
        if !owes_wake then begin
          owes_wake := false;
          let asleep = match !srv with Asleep _ -> true | _ -> false in
          let won = Runtime.Doorbell.clear_waiting bell in
          (* A sleeper cannot take its flag back, so this clear wins and
             its one wake ends the sleep. *)
          check (won || not asleep);
          if won then incr clears;
          if asleep then srv := Returned
        end
        else if shutdown () then ()
        else if announce then begin
          Runtime.Segment.set seg W.off_client_state W.peer_shutdown;
          owes_wake :=
            Runtime.Segment.fetch_add seg W.off_doorbell 0
            land W.doorbell_waiting
            <> 0
        end
        else begin
          let pos = !submits in
          Runtime.Segment.set seg
            (W.submit_slot ~capacity:4 pos)
            (W.pack_slot ~pos ~cell:0);
          incr submits;
          owes_wake :=
            Runtime.Doorbell.ring_word bell land W.doorbell_waiting <> 0
        end
      in
      let server_clear () =
        if Runtime.Doorbell.clear_waiting bell then incr clears
      in
      let server_step ~timeout =
        match !srv with
        | Awake ->
            if Ch.pending server then
              Runtime.Segment.set seg W.submit_head !submits
            else if not (shutdown ()) then begin
              let v = Runtime.Doorbell.set_waiting bell in
              if v >= 0 then begin
                incr sets;
                srv := Flagged v
              end
            end
        | Flagged v ->
            if news () then begin
              server_clear ();
              srv := Awake
            end
            else srv := Checked v
        | Checked v ->
            srv := if low32 (word ()) = low32 v then Asleep v else Returned
        | Asleep _ -> if timeout then srv := Returned
        | Returned ->
            server_clear ();
            srv := Awake
      in
      let invariant () =
        let up = !sets - !clears in
        check
          ((up = 0 || up = 1)
          && (up = 1) = (word () land W.doorbell_waiting <> 0));
        match !srv with
        | Asleep _ -> check ((not (news ())) || !owes_wake)
        | _ -> ()
      in
      List.iter
        (fun step ->
          if step < 2 || step = 4 then client_step ~announce:(step = 4)
          else server_step ~timeout:(step = 3);
          invariant ())
        plan;
      if !owes_wake then client_step ~announce:false;
      invariant ();
      let rec finish n =
        if n > 0 && !srv <> Awake then begin
          server_step ~timeout:true;
          invariant ();
          finish (n - 1)
        end
      in
      finish 5;
      !ok && !srv = Awake
      && Ch.doorbell_rings server = !submits
      && !sets = !clears
      && word () land W.doorbell_waiting = 0)

(* --- tagged submission ring vs FIFO model ------------------------------------ *)

(* The sequence-tagged ring (Shm_channel's header) against a queue of
   unserved calls, at capacities 1, 2 and 8 so small rings lap often.
   Plan entries: 0-1 submit, 2 [serve_once], 3 take the oldest reply,
   4 abandon the oldest unserved call (deadline 0), 5 release the
   session and attach a fresh client.  Checked after every step:
   - a batch dispatches exactly the unserved live calls, in submission
     order, consumes every queued slot (abandoned ones included), and a
     second pass finds nothing — no phantom work after a lap;
   - a submit fails with [retry] exactly when every cell is held;
   - a released session has no pending work and serves nothing;
   - the published position is the server's, and [pending] read
     against it is exact; read against any position up to a capacity
     behind (a head published before a batch that is still running),
     it is never false while calls are queued. *)
let prop_tagged_ring_fifo =
  QCheck.Test.make ~name:"tagged ring = FIFO model" ~count:300
    QCheck.(pair (oneofl [ 1; 2; 8 ]) (small_list (int_bound 5)))
    (fun (capacity, plan) ->
      let seg = Ch.create_heap ~capacity () in
      let server = Ch.attach ~role:Ch.Server seg in
      let client = ref (Ch.attach ~spin:1 ~role:Ch.Client seg) in
      let args = Array.make 8 0 in
      let next = ref 0 in
      let queue = Queue.create () (* unserved: cell, value, abandoned *) in
      let replies = Queue.create () (* served, reply not yet taken *) in
      let held = ref 0 (* cells not free for the client to take *) in
      let subs = ref 0 (* slots published this session *) in
      let dispatched = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      let record ~ep_word:_ a =
        dispatched := a.(0) :: !dispatched;
        a.(0) <- a.(0) + 1;
        Ipc_intf.Errc.ok
      in
      let step = function
        | 0 | 1 ->
            incr next;
            args.(0) <- !next;
            let i = Ch.submit_raw !client ~ep:0 args in
            if !held = capacity then check (i = Ipc_intf.Errc.retry)
            else if i < 0 then check false
            else begin
              Queue.push (i, !next, ref false) queue;
              incr held;
              incr subs
            end
        | 2 ->
            dispatched := [];
            let want =
              Queue.fold
                (fun acc (_, v, abandoned) -> if !abandoned then acc else v :: acc)
                [] queue
            in
            check (Ch.serve_once server ~dispatch:record = Queue.length queue);
            check (!dispatched = want);
            Queue.iter
              (fun (i, v, abandoned) ->
                if !abandoned then decr held else Queue.push (i, v) replies)
              queue;
            Queue.clear queue;
            check (Ch.serve_once server ~dispatch:record = 0)
        | 3 -> (
            match Queue.take_opt replies with
            | None -> ()
            | Some (i, v) ->
                (* A served cell is done: deadline 0 takes its reply at
                   once, where an unserved one would fail the check
                   rather than wait for a server that is not coming. *)
                check
                  (Ch.await ~deadline:0 !client i args = Ipc_intf.Errc.ok
                  && args.(0) = v + 1);
                decr held)
        | 4 -> (
            let live =
              Queue.fold
                (fun acc ((_, _, abandoned) as e) ->
                  match acc with
                  | None when not !abandoned -> Some e
                  | _ -> acc)
                None queue
            in
            match live with
            | None -> ()
            | Some (i, _, abandoned) ->
                check
                  (Ch.await ~deadline:0 !client i args
                  = Ipc_intf.Errc.timed_out);
                abandoned := true)
        | _ ->
            Ch.release_session server;
            check (not (Ch.pending server));
            check (Ch.serve_once server ~dispatch:record = 0);
            client := Ch.attach ~spin:1 ~role:Ch.Client seg;
            Queue.clear queue;
            Queue.clear replies;
            held := 0;
            subs := 0
      in
      let observe () =
        check (Ch.in_flight !client = !held);
        let pos = !subs - Queue.length queue in
        let live = Runtime.Segment.get seg W.submit_head in
        check (live = pos);
        for h = max 0 (pos - capacity) to pos do
          Runtime.Segment.set seg W.submit_head h;
          let p = Ch.pending server in
          check (p || Queue.is_empty queue);
          if h = pos then check (p = not (Queue.is_empty queue))
        done;
        Runtime.Segment.set seg W.submit_head live
      in
      List.iter
        (fun op ->
          step op;
          observe ())
        plan;
      !ok)

(* --- entry-point slot table vs lifecycle model ---------------------------- *)

(* Sequential model of the versioned slot table, with the handle as the
   one name: a map from each live handle to the stamp its current
   handler writes, each slot's generation, a LIFO free list mirroring the table's free-slot list,
   and a monotonic mint counter.  Sequentially every kill drains
   immediately (nothing is in flight), so a killed slot goes straight
   back on the free list under the next generation, and every handle
   minted before the kill must be refused forever after — including
   across slot reuse, which is exactly the ABA case the generation
   exists for.  A handle is live iff its slot is live at its
   generation; every other int answers [no_entry] and runs nothing. *)
let prop_slot_lifecycle =
  QCheck.Test.make ~name:"entry-point slot table = lifecycle model" ~count:200
    QCheck.(small_list (pair (int_bound 6) (int_bound 1000)))
    (fun ops ->
      let module F = Runtime.Fastcall in
      let t = F.create () in
      let stamp = Hashtbl.create 16 in
      let gens = Hashtbl.create 16 in
      let gen id = Option.value ~default:0 (Hashtbl.find_opt gens id) in
      let free = ref [] in
      let minted = ref 0 in
      let handles = ref [] in
      let pick v =
        match !handles with
        | [] -> None
        | hs -> Some (List.nth hs (v mod List.length hs))
      in
      let behavior v : F.handler = fun _ctx args -> args.(0) <- v in
      let fresh_args () = Array.make F.arg_words 0 in
      let live ep = Hashtbl.mem stamp ep in
      let expect_call ep a rc =
        if live ep then rc = Ipc_intf.Errc.ok && a.(0) = Hashtbl.find stamp ep
        else rc = Ipc_intf.Errc.no_entry && a.(0) = 0
      in
      let kill_model ep =
        let id = W.handle_slot ep in
        Hashtbl.remove stamp ep;
        Hashtbl.replace gens id (gen id + 1);
        free := id :: !free
      in
      List.for_all
        (fun (tag, v) ->
          match tag with
          | 0 ->
              let ep = F.register t (behavior v) in
              let want =
                match !free with
                | top :: rest ->
                    free := rest;
                    top
                | [] ->
                    let i = !minted in
                    incr minted;
                    i
              in
              Hashtbl.replace stamp ep v;
              handles := ep :: !handles;
              ep = W.pack_handle ~slot:want ~gen:(gen want)
          | 1 -> (
              (* handles this table handed out: live ones reach their
                 current handler, dead ones run nothing *)
              match pick v with
              | None -> true
              | Some ep ->
                  let a = fresh_args () in
                  expect_call ep a (F.call t ~ep a))
          | 2 ->
              (* any handle over the minted slots, from generation 0 to
                 one past the slot's current one: the names handed out,
                 those freed since, and names never minted *)
              if !minted = 0 then true
              else begin
                let id = v mod !minted in
                let ep =
                  W.pack_handle ~slot:id ~gen:(v / !minted mod (gen id + 2))
                in
                let a = fresh_args () in
                expect_call ep a (F.call t ~ep a)
              end
          | 3 | 4 -> (
              match pick v with
              | None -> true
              | Some ep ->
                  let rc =
                    if tag = 3 then F.soft_kill t ~ep else F.hard_kill t ~ep
                  in
                  if live ep then begin
                    kill_model ep;
                    (* an idle kill drains immediately: slot freed, old
                       generation retired *)
                    rc = Ipc_intf.Errc.ok
                    && F.lifecycle t ~ep = None
                    && F.in_flight t ~ep = 0
                  end
                  else rc = Ipc_intf.Errc.no_entry)
          | 5 -> (
              match pick v with
              | None -> true
              | Some ep ->
                  let rc = F.exchange t ~ep (behavior v) in
                  if live ep then begin
                    Hashtbl.replace stamp ep v;
                    rc = Ipc_intf.Errc.ok
                  end
                  else rc = Ipc_intf.Errc.no_entry)
          | _ ->
              (* invariants probe: every model-live handle is Active,
                 every handle handed out and since killed reads as dead *)
              Hashtbl.fold
                (fun ep _ acc ->
                  acc
                  && F.lifecycle t ~ep = Some Ipc_intf.Lifecycle.Active
                  && F.in_flight t ~ep = 0)
                stamp true
              && List.for_all
                   (fun ep -> live ep || F.lifecycle t ~ep = None)
                   !handles
              && F.registered t = Hashtbl.length stamp)
        ops)

(* --- batch hold vs lifecycle model ---------------------------------------- *)

(* The amortized acceptance check (Fastcall.Batch): one striped-counter
   reservation stands for a whole batch, and per-call admission is a
   generation-stamp compare.  The property that makes the amortization
   sound: once a kill is observed (the kill call returned), no later
   batch call may reach the old handler — the stamp compare must fail
   and acceptance re-run, landing in the per-call error taxonomy.

   The model mirrors prop_slot_lifecycle's table (owner/stamp/free/mint,
   here keyed by slot, plus each slot's generation) and the hold
   itself: which handle it pins, and — when the pinned tenant was
   killed under the hold — the dead tenant's token.  A killed
   held slot must *not* drain to the free list until the hold retires
   (that is the staleness window, one batch at most), and must drain
   exactly then. *)
let prop_batch_hold_lifecycle =
  QCheck.Test.make ~name:"batch hold: never accepts after kill observed"
    ~count:200
    QCheck.(small_list (pair (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let module F = Runtime.Fastcall in
      let t = F.create () in
      let hold = F.Batch.hold () in
      let owner = Hashtbl.create 16 in
      let stamp = Hashtbl.create 16 in
      let free = ref [] in
      let minted = ref 0 in
      let next_token = ref 0 in
      let handles = ref [] in
      let gens = Hashtbl.create 16 in
      let gen id = Option.value ~default:0 (Hashtbl.find_opt gens id) in
      let free_slot id =
        Hashtbl.replace gens id (gen id + 1);
        free := id :: !free
      in
      (* hold model: pinned handle (-1 none); [dead] is the pinned
         tenant's token once a kill landed under the hold *)
      let held = ref (-1) in
      let held_slot () = if !held < 0 then -1 else W.handle_slot !held in
      let dead = ref None in
      let retire_model () =
        if !held >= 0 && !dead <> None then free_slot (held_slot ());
        held := -1;
        dead := None
      in
      let pick v =
        match !handles with
        | [] -> None
        | hs -> Some (List.nth hs (v mod List.length hs))
      in
      let live id token = Hashtbl.find_opt owner id = Some token in
      let behavior v : F.handler = fun _ctx args -> args.(0) <- v in
      List.for_all
        (fun (tag, v) ->
          match tag with
          | 0 ->
              (* register: a slot pinned by a stale hold must not be
                 reusable yet — it is not on the model free list *)
              let ep = F.register t (behavior v) in
              let id = W.handle_slot ep in
              let want =
                match !free with
                | top :: rest ->
                    free := rest;
                    top
                | [] ->
                    let i = !minted in
                    incr minted;
                    i
              in
              let token = !next_token in
              incr next_token;
              Hashtbl.replace owner id token;
              Hashtbl.replace stamp id v;
              handles := (ep, id, token) :: !handles;
              ep = W.pack_handle ~slot:want ~gen:(gen want)
          | 1 ->
              (* the amortized call itself, on the slot's handle at its
                 current generation (dead when the slot is draining or
                 free) *)
              if !minted = 0 then true
              else begin
                let id = v mod !minted in
                let ep = W.pack_handle ~slot:id ~gen:(gen id) in
                let a = Array.make F.arg_words 0 in
                let rc = F.Batch.call t hold ~ep a in
                if Hashtbl.mem owner id then begin
                  let ok =
                    rc = Ipc_intf.Errc.ok && a.(0) = Hashtbl.find stamp id
                  in
                  if !held <> ep then retire_model ();
                  held := ep;
                  ok && F.Batch.held hold = ep
                end
                else begin
                  (* cold path retires the hold before re-running
                     acceptance, so a dead pinned slot drains here —
                     including when it is [id] itself *)
                  retire_model ();
                  rc = Ipc_intf.Errc.no_entry
                  && a.(0) = 0
                  && F.Batch.held hold = -1
                end
              end
          | 2 | 3 -> (
              match pick v with
              | None -> true
              | Some (ep, id, token) ->
                  let rc =
                    if tag = 2 then F.soft_kill t ~ep else F.hard_kill t ~ep
                  in
                  if live id token then begin
                    Hashtbl.remove owner id;
                    Hashtbl.remove stamp id;
                    if held_slot () = id then begin
                      (* killed under the hold: the reservation keeps
                         the slot draining (not freed) — the staleness
                         window in the flesh *)
                      dead := Some token;
                      rc = Ipc_intf.Errc.ok
                      && F.lifecycle t ~ep
                         = Some
                             (if tag = 2 then Ipc_intf.Lifecycle.Soft_killed
                              else Ipc_intf.Lifecycle.Hard_killed)
                      && F.in_flight t ~ep = 1
                    end
                    else begin
                      (* nothing in flight: drains immediately *)
                      free_slot id;
                      rc = Ipc_intf.Errc.ok && F.lifecycle t ~ep = None
                    end
                  end
                  else if held_slot () = id && !dead = Some token then
                    (* same tenant, still draining under the hold *)
                    rc = Ipc_intf.Errc.killed
                  else rc = Ipc_intf.Errc.no_entry)
          | 4 ->
              (* explicit retire: a dead pinned slot drains now *)
              let was = !held and was_dead = !dead <> None in
              F.Batch.retire t hold;
              retire_model ();
              F.Batch.held hold = -1
              && ((not was_dead) || F.lifecycle t ~ep:was = None)
          | _ -> (
              match pick v with
              | None -> true
              | Some (ep, id, token) ->
                  let rc = F.exchange t ~ep (behavior v) in
                  if live id token then begin
                    (* swap without moving the state word: a warm hold
                       must run the *new* handler on its next call,
                       which tag 1 checks via the stamp table *)
                    Hashtbl.replace stamp id v;
                    rc = Ipc_intf.Errc.ok
                  end
                  else if held_slot () = id && !dead = Some token then
                    rc = Ipc_intf.Errc.killed
                  else rc = Ipc_intf.Errc.no_entry))
        ops)

(* --- per-call vs batch admission, differentially -------------------------- *)

(* [Fastcall.call] and [Fastcall.Batch.call] share one admission, one
   handler body and one containment path; only how long an admission
   lasts differs.  So one operation sequence, run on two tables — one
   called per call, one through a single hold — must answer identically
   op by op: the same RC, the same result word, the same fault and
   breaker counts.  Handlers stamp a value and then either return,
   raise, or soft/hard-kill their own entry point mid-call, and the
   breaker threshold is small, so kills and trips land under a live
   hold.  A stale hold keeps its killed slot draining (not yet free) —
   the staleness window — so before every management op a stale hold
   is retired, as a channel server's kill waker makes its shard do;
   both tables then mint and free the same handles, and every call,
   kill and exchange names one of the handles minted so far — live or
   dead, one name for both tables. *)
let prop_admission_differential =
  QCheck.Test.make ~name:"per-call and batch admission agree" ~count:300
    QCheck.(small_list (pair (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let module F = Runtime.Fastcall in
      let ta = F.create ~breaker_threshold:2 () in
      let tb = F.create ~breaker_threshold:2 () in
      let hold = F.Batch.hold () in
      let minted = ref [||] in
      let behavior t me v : F.handler =
       fun _ctx args ->
        args.(0) <- v;
        match v mod 4 with
        | 1 -> failwith "handler fault"
        | 2 -> ignore (F.soft_kill t ~ep:!me : int)
        | 3 -> ignore (F.hard_kill t ~ep:!me : int)
        | _ -> ()
      in
      let register t v =
        let me = ref (-1) in
        me := F.register t (behavior t me v);
        !me
      in
      let retire_stale () =
        let ep = F.Batch.held hold in
        if ep >= 0 && F.lifecycle tb ~ep <> Some Ipc_intf.Lifecycle.Active
        then F.Batch.retire tb hold
      in
      (* RC, then the result word *)
      let observe call =
        let a = Array.make F.arg_words 0 in
        let rc = call a in
        (rc, a.(0))
      in
      List.for_all
        (fun (tag, v) ->
          if tag <> 1 && tag <> 2 then retire_stale ();
          let n = Array.length !minted in
          let id = if n = 0 then 0 else !minted.(v mod n) in
          let step =
            match tag with
            | 0 ->
                let a = register ta v and b = register tb v in
                minted := Array.append !minted [| a |];
                ((a, 0), (b, 0))
            | 1 | 2 ->
                (observe (F.call ta ~ep:id), observe (F.Batch.call tb hold ~ep:id))
            | 3 -> ((F.soft_kill ta ~ep:id, 0), (F.soft_kill tb ~ep:id, 0))
            | 4 -> ((F.hard_kill ta ~ep:id, 0), (F.hard_kill tb ~ep:id, 0))
            | _ ->
                let me = ref id in
                ( (F.exchange ta ~ep:id (behavior ta me v), 0),
                  (F.exchange tb ~ep:id (behavior tb me v), 0) )
          in
          fst step = snd step
          && F.handler_faults ta = F.handler_faults tb
          && F.breaker_trips ta = F.breaker_trips tb)
        ops)

(* --- Backoff vs closed-form doubling -------------------------------------- *)

(* Drive a [Backoff.t] through a generated schedule of [once]/[reset]
   steps (true = once, false = reset) and check the observable [spun]
   trace against the doubling law, purely from the generated
   parameters:

     - each pause delta is between [min_spin] and [max_spin] (cap never
       exceeded, even when doubling overshoots it);
     - deltas are monotone non-decreasing between resets (exponential
       climb saturates, never dips);
     - the whole trace is a pure function of the inputs — replaying the
       same schedule on a fresh instance reproduces [spun] exactly, so
       a QCheck seed pins the full behavior deterministically. *)
let backoff_arb =
  QCheck.(
    triple (1 -- 64) (0 -- 8) (list_of_size Gen.(0 -- 40) bool))

let prop_backoff_laws =
  QCheck.Test.make ~name:"backoff: capped, monotone, replayable" ~count:300
    backoff_arb (fun (min_spin, extra_doublings, steps) ->
      (* max_spin somewhere on the doubling ladder or just off it, so the
         saturation edge is exercised. *)
      let max_spin = (min_spin lsl extra_doublings) + (min_spin / 2) in
      let run () =
        let b = Runtime.Backoff.create ~min_spin ~max_spin () in
        let trace = ref [] in
        let last = ref 0 in
        let prev_delta = ref 0 in
        let ok = ref true in
        List.iter
          (fun step ->
            if step then begin
              Runtime.Backoff.once b;
              let s = Runtime.Backoff.spun b in
              let delta = s - !last in
              if delta < min_spin || delta > max_spin then ok := false;
              if delta < !prev_delta then ok := false;
              prev_delta := delta;
              last := s
            end
            else begin
              Runtime.Backoff.reset b;
              if Runtime.Backoff.spun b <> 0 then ok := false;
              last := 0;
              prev_delta := 0
            end;
            trace := Runtime.Backoff.spun b :: !trace)
          steps;
        (!ok, !trace)
      in
      let ok1, trace1 = run () in
      let ok2, trace2 = run () in
      ok1 && ok2 && trace1 = trace2)

let prop_backoff_with_retry =
  QCheck.Test.make ~name:"with_retry: budget honoured, verdict passed through"
    ~count:200
    QCheck.(pair (1 -- 8) (0 -- 12))
    (fun (attempts, succeed_after) ->
      let calls = ref 0 in
      let rc =
        Runtime.Backoff.with_retry ~attempts ~min_spin:1 ~max_spin:4 (fun () ->
            incr calls;
            if !calls > succeed_after then Ipc_intf.Errc.ok
            else Ipc_intf.Errc.retry)
      in
      if succeed_after < attempts then
        rc = Ipc_intf.Errc.ok && !calls = succeed_after + 1
      else rc = Ipc_intf.Errc.retry && !calls = attempts)

let suites =
  [
    ( "runtime.models",
      [
        qcheck prop_mpsc_vs_queue;
        qcheck prop_striped_vs_int;
        qcheck prop_slab_serial_reuse;
        qcheck prop_slab_abandon_reclaim;
        qcheck prop_bell_protocol;
        qcheck prop_tagged_ring_fifo;
        qcheck prop_slot_lifecycle;
        qcheck prop_batch_hold_lifecycle;
        qcheck prop_admission_differential;
        qcheck prop_backoff_laws;
        qcheck prop_backoff_with_retry;
      ] );
  ]
