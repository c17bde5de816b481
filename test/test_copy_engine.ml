(* The async bulk-data engine against an executable model.

   The engine core is a per-client descriptor slab that is its own
   ring, drained on its callers: a client's flush — or, here mostly, a
   budgeted [drain] — runs passes under the engine ticket.  The model
   is two queues and a free count: submit succeeds iff a descriptor is
   free, a drain moves at most [budget] descriptors from submission to
   completion, reap delivers exactly the completion queue.  On top of
   the model equivalence the tests pin the engine's delivery contract —
   every submitted tag completes exactly once, in order, and never
   twice — the post-kill fail sweep (also against a drainer on another
   domain), the zero-allocation warm path the bench gate relies on, the
   single-consumer ticket between two client domains, and that the
   engine needs no thread of its own.  [runtime.spsc] pins the ring's
   capacity edges and the capacity contract it shares with
   Shm_channel. *)

module E = Transfer.Copy_engine
module Errc = Ipc_intf.Errc

let qcheck = QCheck_alcotest.to_alcotest
let ok_exec : E.exec = fun _ -> Errc.ok

let submit_tag cl tag =
  E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0 ~dst:0
    ~dst_off:0 ~len:8 ~tag

(* --- the descriptor ring vs two-queue model -------------------------------- *)

(* Ops: 0/1 = submit a fresh tag, 2 = drain with a small budget,
   3 = reap.  The value picks the drain budget. *)
let ops_arb = QCheck.(small_list (pair (int_bound 3) (int_bound 1000)))

let prop_engine_vs_queue_model =
  QCheck.Test.make ~name:"copy engine = two-queue model" ~count:300 ops_arb
    (fun ops ->
      let cap = 4 in
      let eng = E.create ok_exec in
      let completions = Queue.create () in
      let cl =
        E.connect ~capacity:cap
          ~on_complete:(fun ~tag ~rc -> Queue.push (tag, rc) completions)
          eng
      in
      (* Model state: tags in the submission queue, tags executed but
         not yet reaped, and every tag ever completed (exactly-once). *)
      let sq = Queue.create () in
      let cq = Queue.create () in
      let next_tag = ref 0 in
      let seen = Hashtbl.create 16 in
      let drain_completions () =
        (* Engine completions this reap must be the model cq, in order,
           each tag fresh. *)
        let matched = ref true in
        Queue.iter
          (fun (tag, rc) ->
            (match Queue.take_opt cq with
            | Some want_tag when want_tag = tag && rc = Errc.ok -> ()
            | _ -> matched := false);
            if Hashtbl.mem seen tag then matched := false
            else Hashtbl.replace seen tag ())
          completions;
        Queue.clear completions;
        !matched && Queue.is_empty cq
      in
      List.for_all
        (fun (op, v) ->
          if op < 2 then begin
            let tag = !next_tag in
            incr next_tag;
            let rc =
              E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0
                ~dst:0 ~dst_off:0 ~len:8 ~tag
            in
            let free = cap - Queue.length sq - Queue.length cq in
            if free > 0 then begin
              Queue.push tag sq;
              rc = Errc.ok
            end
            else rc = Errc.retry
          end
          else if op = 2 then begin
            let budget = 1 + (v mod 3) in
            let executed = E.drain eng ~budget in
            let want = min budget (Queue.length sq) in
            for _ = 1 to want do
              Queue.push (Queue.pop sq) cq
            done;
            executed = want
          end
          else begin
            let n = E.reap cl in
            let want = Queue.length cq in
            n = want && drain_completions ()
          end)
        ops
      &&
      (* Final flush: everything still in flight completes, each tag
         exactly once, and the engine ends empty. *)
      begin
        ignore (E.flush cl);
        Queue.transfer sq cq;
        let want = Queue.length cq in
        let n = E.reap cl in
        n = want && drain_completions () && E.outstanding cl = 0
      end)

(* --- kill mid-copy: fail sweep exactly once ------------------------------- *)

let test_kill_sweep () =
  let eng = E.create ok_exec in
  let seen = Hashtbl.create 16 in
  let completed = ref 0 and swept = ref 0 in
  let cl =
    E.connect
      ~on_complete:(fun ~tag ~rc ->
        Alcotest.(check bool)
          (Printf.sprintf "tag %d completes once" tag)
          false (Hashtbl.mem seen tag);
        Hashtbl.replace seen tag rc;
        if rc = Errc.ok then incr completed else incr swept;
        if rc <> Errc.ok then
          Alcotest.(check int)
            (Printf.sprintf "tag %d swept with handler_fault" tag)
            Errc.handler_fault rc)
      eng
  in
  for tag = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "submit %d" tag)
      Errc.ok
      (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0 ~dst:0
         ~dst_off:0 ~len:8 ~tag)
  done;
  Alcotest.(check int) "three executed" 3 (E.drain eng ~budget:3);
  E.kill eng;
  ignore (E.reap cl);
  Alcotest.(check int) "posted completions win" 3 !completed;
  Alcotest.(check int) "stranded descriptors swept" 5 !swept;
  Alcotest.(check int) "nothing outstanding" 0 (E.outstanding cl);
  (* A second reap must not sweep anything again. *)
  Alcotest.(check int) "sweep is exactly-once" 0 (E.reap cl);
  Alcotest.(check int) "submit after death refused" Errc.killed
    (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0 ~dst:0
       ~dst_off:0 ~len:8 ~tag:99);
  let cs = E.client_stats cl in
  Alcotest.(check int) "sweep counter" 5 cs.E.cs_failed_swept

(* --- zero-allocation warm path -------------------------------------------- *)

let minor_words_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_warm_path_zero_alloc () =
  let eng, store = E.create_with_buffers () in
  let unwrap = function Ok id -> id | Error _ -> Alcotest.fail "add" in
  let src = unwrap (E.Buffers.add store ~owner:0 (Bytes.create 4096)) in
  let dst = unwrap (E.Buffers.add store ~owner:0 (Bytes.create 4096)) in
  let completed = ref 0 in
  let cl = E.connect ~on_complete:(fun ~tag:_ ~rc:_ -> incr completed) eng in
  let rounds = 500 in
  let loop () =
    for i = 1 to rounds do
      ignore
        (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
           ~dst_off:0 ~len:256 ~tag:i);
      ignore (E.flush cl);
      ignore (E.reap cl)
    done
  in
  loop ();
  (* warm-up: ring and slab in steady state *)
  let delta = minor_words_delta loop in
  Alcotest.(check (float 0.0))
    "warm submit->flush->reap allocates zero minor words" 0.0 delta;
  Alcotest.(check int) "all completions delivered" (2 * rounds) !completed

(* --- bounded grant table --------------------------------------------------- *)

let test_grant_table_bounded () =
  let r = Transfer.Region.create ~max_grants:2 () in
  let g1 =
    Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x1000 ~len:64
      ~access:Transfer.Region.Read_write
  in
  let g2 =
    Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x2000 ~len:64
      ~access:Transfer.Region.Read_only
  in
  Alcotest.(check bool) "two grants fit" true
    (Result.is_ok g1 && Result.is_ok g2);
  (match
     Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x3000 ~len:64
       ~access:Transfer.Region.Read_write
   with
  | Error rc -> Alcotest.(check int) "exhaustion answers retry" Errc.retry rc
  | Ok _ -> Alcotest.fail "grant table grew past its cap");
  (* Revoke frees a slot: the table recovers, never grows. *)
  let id1 = Result.get_ok g1 in
  Alcotest.(check bool) "revoke" true (Transfer.Region.revoke r ~grant_id:id1);
  (match
     Transfer.Region.try_grant r ~owner:3 ~grantee:4 ~base:0x4000 ~len:64
       ~access:Transfer.Region.Read_write
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "slot not reusable after revoke");
  Alcotest.(check int) "active" 2 (Transfer.Region.active_grants r);
  Alcotest.(check int) "cap" 2 (Transfer.Region.max_grants r)

let test_grant_handoff_consumes () =
  let r = Transfer.Region.create () in
  let id =
    Transfer.Region.grant r ~owner:1 ~grantee:2 ~base:0x1000 ~len:8192
      ~access:Transfer.Region.Read_write
  in
  (match Transfer.Region.handoff r ~grant_id:id with
  | Some g ->
      Alcotest.(check int) "handoff returns the grant's range" 8192
        g.Transfer.Region.len
  | None -> Alcotest.fail "live grant refused handoff");
  Alcotest.(check int) "handoff revokes" 0 (Transfer.Region.active_grants r);
  Alcotest.(check bool) "consumed grant cannot hand off twice" true
    (Transfer.Region.handoff r ~grant_id:id = None);
  Alcotest.(check int) "handoffs counted" 1 (Transfer.Region.handoffs r)

(* --- two client domains on one engine ------------------------------------- *)

(* The main domain and one spawned domain each stream [n] descriptors
   through their own client, each copying its own 8-byte word: up to
   [batch] submits before each flush, then a reap, from a common start
   line.  The flushes contend for the engine ticket, and each drains
   the other's staged work on the way, so descriptors are published
   across domains both ways.  Every 128th copy sleeps 20 us inside its
   exec, holding the ticket, so the other domain's flush meets a held
   ticket even where the two domains share one CPU.

   Every tag must complete exactly once, in order, with [Errc.ok]; a
   flush must return only when its own client has nothing left to
   execute, so the reap after it empties the client; the destination
   must equal the source; and [served] counts every descriptor once.  A
   watchdog turns a lost descriptor into a failure. *)
type stream_result = { completed : int; bad : int; unflushed : int; late : bool }

let stream ~capacity ~batch ~n () =
  let store = E.Buffers.create () in
  let copy = E.Buffers.exec store in
  let eng =
    E.create (fun d ->
        if d.Transfer.Copy_desc.src_off land 1023 = 0 then Unix.sleepf 20e-6;
        copy d)
  in
  let unwrap = function Ok id -> id | Error _ -> Alcotest.fail "add" in
  let ready = Atomic.make 0 in
  let lane seed =
    let src_b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le src_b (8 * i) (Int64.of_int ((i * 7919) + seed))
    done;
    let src = unwrap (E.Buffers.add store ~owner:0 src_b) in
    let dst = unwrap (E.Buffers.add store ~owner:0 (Bytes.make (8 * n) '\000')) in
    let next = ref 0 and bad = ref 0 in
    let cl =
      E.connect ~capacity
        ~on_complete:(fun ~tag ~rc ->
          if tag <> !next || rc <> Errc.ok then incr bad;
          incr next)
        eng
    in
    let run () =
      let deadline = Unix.gettimeofday () +. 20.0 in
      Atomic.incr ready;
      while Atomic.get ready < 2 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      let sent = ref 0 and unflushed = ref 0 and late = ref false in
      while !next < n && !bad = 0 && not !late do
        if Unix.gettimeofday () > deadline then late := true;
        let k = ref 0 in
        while
          !k < batch && !sent < n
          && E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src
               ~src_off:(8 * !sent) ~dst ~dst_off:(8 * !sent) ~len:8 ~tag:!sent
             = Errc.ok
        do
          incr sent;
          incr k
        done;
        ignore (E.flush cl);
        ignore (E.reap cl);
        if E.outstanding cl > 0 then incr unflushed
      done;
      { completed = !next; bad = !bad; unflushed = !unflushed; late = !late }
    in
    (run, fun () -> Bytes.equal src_b (E.Buffers.get store dst))
  in
  let run_a, equal_a = lane 1 and run_b, equal_b = lane 2 in
  let other = Domain.spawn run_b in
  let a = run_a () in
  let b = Domain.join other in
  List.iter
    (fun (who, r) ->
      Alcotest.(check bool) (who ^ ": within the watchdog") false r.late;
      Alcotest.(check int) (who ^ ": every tag once, in order, ok") 0 r.bad;
      Alcotest.(check int) (who ^ ": all completed") n r.completed;
      Alcotest.(check int) (who ^ ": every flush drained its own client") 0
        r.unflushed)
    [ ("main", a); ("spawned", b) ];
  Alcotest.(check bool) "main: destination equals source" true (equal_a ());
  Alcotest.(check bool) "spawned: destination equals source" true (equal_b ());
  Alcotest.(check int) "served = submitted" (2 * n) (E.stats eng).E.served

(* --- kill against a drainer on another domain ------------------------------ *)

(* A spawned domain flushes a full 64-slot ring while the main client
   has 128 descriptors staged.  Its first descriptor waits until the
   main domain is about to kill, then lingers, so [kill] starts while
   the flush holds the ticket.  [kill] must return only after that
   flush ends — all 64 of the flusher's descriptors executed, and 64 of
   the main client's, two passes of 32 — and no descriptor may run
   after it.  The main client's next reap then fails exactly its
   stranded descriptors. *)
let test_kill_vs_drainer () =
  let started = Atomic.make false and killing = Atomic.make false in
  let executed = Array.init 2 (fun _ -> Atomic.make 0) in
  let exec (d : Transfer.Copy_desc.t) =
    if not (Atomic.exchange started true) then begin
      let deadline = Unix.gettimeofday () +. 20.0 in
      while (not (Atomic.get killing)) && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Unix.sleepf 0.02
    end;
    Atomic.incr executed.(d.client);
    Errc.ok
  in
  let eng = E.create exec in
  let seen = Hashtbl.create 128 in
  let completed = ref 0 and swept = ref 0 in
  let main =
    E.connect ~capacity:128
      ~on_complete:(fun ~tag ~rc ->
        Alcotest.(check bool)
          (Printf.sprintf "tag %d completes once" tag)
          false (Hashtbl.mem seen tag);
        Hashtbl.replace seen tag ();
        if rc = Errc.ok then incr completed
        else begin
          Alcotest.(check int) "swept with handler_fault" Errc.handler_fault rc;
          incr swept
        end)
      eng
  in
  let flusher_ok = ref 0 in
  let flusher =
    E.connect ~capacity:64
      ~on_complete:(fun ~tag:_ ~rc -> if rc = Errc.ok then incr flusher_ok)
      eng
  in
  for tag = 0 to 127 do
    Alcotest.(check int) "main stages" Errc.ok (submit_tag main tag)
  done;
  let drainer =
    Domain.spawn (fun () ->
        for tag = 0 to 63 do
          ignore (submit_tag flusher tag)
        done;
        ignore (E.flush flusher);
        ignore (E.reap flusher);
        !flusher_ok)
  in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "the flush began" true (Atomic.get started);
  Atomic.set killing true;
  E.kill eng;
  let main_run = Atomic.get executed.(0) and flusher_run = Atomic.get executed.(1) in
  Alcotest.(check int) "kill waited for the whole flush" 64 flusher_run;
  Alcotest.(check int) "two passes of the main client" 64 main_run;
  Alcotest.(check int) "the flusher reaped its 64" 64 (Domain.join drainer);
  Alcotest.(check int) "nothing ran after kill" (main_run + flusher_run)
    (Atomic.get executed.(0) + Atomic.get executed.(1));
  ignore (E.reap main);
  Alcotest.(check int) "completions posted before death" main_run !completed;
  Alcotest.(check int) "stranded descriptors swept" (128 - main_run) !swept;
  Alcotest.(check int) "completions + swept = submitted" 128 (!completed + !swept);
  Alcotest.(check int) "nothing outstanding" 0 (E.outstanding main);
  Alcotest.(check int) "submit after death refused" Errc.killed
    (submit_tag main 999)

(* --- the engine needs no thread -------------------------------------------- *)

let threads () = Array.length (Sys.readdir "/proc/self/task")

(* The thread count of this process before the engine exists, once it
   has held still for 10 ms (a domain joined by an earlier test may
   still be exiting). *)
let rec settled n =
  Unix.sleepf 0.01;
  let m = threads () in
  if m = n then n else settled m

let test_no_engine_thread () =
  if not (Sys.file_exists "/proc/self/task") then ()
  else begin
    let before = settled (threads ()) in
    let eng, store = E.create_with_buffers () in
    let unwrap = function Ok id -> id | Error _ -> Alcotest.fail "add" in
    let src = unwrap (E.Buffers.add store ~owner:0 (Bytes.create 4096)) in
    let dst = unwrap (E.Buffers.add store ~owner:0 (Bytes.create 4096)) in
    let completed = ref 0 in
    let cl = E.connect ~on_complete:(fun ~tag:_ ~rc:_ -> incr completed) eng in
    for i = 1 to 1000 do
      ignore
        (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
           ~dst_off:0 ~len:64 ~tag:i);
      ignore (E.flush cl);
      ignore (E.reap cl)
    done;
    Alcotest.(check int) "1000 copies completed" 1000 !completed;
    Alcotest.(check int) "no thread added while the engine is live" before
      (threads ());
    E.kill eng
  end

(* --- ring capacity edges --------------------------------------------------- *)

let test_ring_bounded_capacity () =
  List.iter
    (fun cap ->
      let eng = E.create ok_exec in
      let got = Queue.create () in
      let cl =
        E.connect ~capacity:cap ~on_complete:(fun ~tag ~rc:_ -> Queue.push tag got) eng
      in
      for i = 0 to cap - 1 do
        Alcotest.(check int) "submit fits" Errc.ok (submit_tag cl i);
        Alcotest.(check int) "outstanding tracks submits" (i + 1) (E.outstanding cl)
      done;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: full answers retry" cap)
        Errc.retry (submit_tag cl cap);
      Alcotest.(check int) "one executed" 1 (E.drain eng ~budget:1);
      Alcotest.(check int) "one reaped" 1 (E.reap cl);
      Alcotest.(check int) "space again" Errc.ok (submit_tag cl cap);
      ignore (E.flush cl);
      Alcotest.(check int) "the rest reaped" cap (E.reap cl);
      Alcotest.(check (list int)) "completes in order across the lap"
        (List.init (cap + 1) Fun.id)
        (List.of_seq (Queue.to_seq got));
      Alcotest.(check int) "nothing outstanding" 0 (E.outstanding cl);
      Alcotest.(check int) "rejections counted" 1
        (E.client_stats cl).E.cs_rejected)
    [ 1; 2; 8 ]

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring preserves order across wraps" ~count:100
    QCheck.(pair (int_bound 6) (list_of_size Gen.(0 -- 200) small_nat))
    (fun (log_cap, xs) ->
      let cap = 1 lsl log_cap in
      let eng = E.create ok_exec in
      let out = ref [] in
      let cl =
        E.connect ~capacity:cap ~on_complete:(fun ~tag ~rc:_ -> out := tag :: !out) eng
      in
      List.iter
        (fun x ->
          (* On a full ring a drain runs a burst of half the ring (at
             least one) and the client reaps it, so the positions wrap
             at varying offsets. *)
          if submit_tag cl x = Errc.retry then begin
            ignore (E.drain eng ~budget:((cap / 2) + 1));
            ignore (E.reap cl);
            ignore (submit_tag cl x)
          end)
        xs;
      ignore (E.drain eng ~budget:max_int);
      ignore (E.reap cl);
      List.rev !out = xs)

(* --- the uniform capacity contract ---------------------------------------- *)

(* Every capacity-taking constructor speaks the same [Invalid_argument]
   sentence (via [Shm_channel.validate_capacity]), pinned verbatim so a
   drive-by rewording shows up here. *)
let capacity_message fn n =
  Printf.sprintf "%s: capacity must be a positive power of two (got %d)" fn n

let test_power_of_two_required () =
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %d rejected" bad)
        (Invalid_argument (capacity_message "Copy_engine.connect" bad))
        (fun () -> ignore (E.connect ~capacity:bad (E.create ok_exec))))
    [ 6; 0; -1; 3; 1000 ]

let test_uniform_capacity_contract () =
  Alcotest.check_raises "Shm_channel.create_heap capacity 6"
    (Invalid_argument (capacity_message "Shm_channel.layout" 6))
    (fun () ->
      ignore (Runtime.Shm_channel.create_heap ~capacity:6 ~arg_words:8 ()));
  Alcotest.check_raises "Copy_engine.connect capacity 0"
    (Invalid_argument (capacity_message "Copy_engine.connect" 0))
    (fun () -> ignore (E.connect ~capacity:0 (E.create ok_exec)));
  (* validate_capacity itself: accepts every power of two, including 1. *)
  List.iter
    (fun ok -> Runtime.Shm_channel.validate_capacity "t" ok)
    [ 1; 2; 4; 64; 1024 ]

let suites =
  [
    ( "transfer.engine",
      [
        qcheck prop_engine_vs_queue_model;
        Alcotest.test_case "kill mid-copy: sweep exactly once" `Quick
          test_kill_sweep;
        Alcotest.test_case "warm submit->reap allocates nothing" `Quick
          test_warm_path_zero_alloc;
        Alcotest.test_case "grant table bounded, exhaustion = retry" `Quick
          test_grant_table_bounded;
        Alcotest.test_case "grant handoff consumes exactly once" `Quick
          test_grant_handoff_consumes;
        Alcotest.test_case "cross-domain stream" `Quick
          (stream ~capacity:64 ~batch:8 ~n:4096);
        Alcotest.test_case "kill waits for a concurrent drainer" `Quick
          test_kill_vs_drainer;
        Alcotest.test_case "no engine thread" `Quick test_no_engine_thread;
      ] );
    (* The group keeps its name: it pins the runtime's in-heap
       single-producer single-consumer ring, which is now the copy
       engine's descriptor ring. *)
    ( "runtime.spsc",
      [
        Alcotest.test_case "power of two required" `Quick
          test_power_of_two_required;
        Alcotest.test_case "bounded capacity" `Quick test_ring_bounded_capacity;
        Alcotest.test_case "cross-domain stream" `Quick
          (stream ~capacity:16 ~batch:16 ~n:20_000);
        qcheck prop_ring_wraparound;
        Alcotest.test_case "uniform capacity contract" `Quick
          test_uniform_capacity_contract;
      ] );
  ]
