(* The async bulk-data engine against an executable model.

   The engine core is a per-client descriptor slab that is its own
   ring, drained by a (here mostly manually stepped) mover.  The model
   is two queues and a free count: submit succeeds iff a descriptor is
   free, step moves at most [budget] descriptors from submission to
   completion, reap delivers exactly the completion queue.  On top of
   the model equivalence the tests pin the engine's delivery contract —
   every submitted tag completes exactly once, in order, and never
   twice — the post-kill fail sweep, the zero-allocation warm path the
   bench gate relies on, and publication through the ring between two
   real domains.  [runtime.spsc] pins the ring's capacity edges and the
   capacity contract it shares with Shm_channel. *)

module E = Transfer.Copy_engine
module Errc = Ipc_intf.Errc

let qcheck = QCheck_alcotest.to_alcotest
let ok_exec : E.exec = fun _ -> Errc.ok

(* --- the descriptor ring vs two-queue model -------------------------------- *)

(* Ops: 0/1 = submit a fresh tag, 2 = step the mover with a small
   budget, 3 = reap.  The value picks the step budget. *)
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
      let mover = Transfer.Mover.manual eng in
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
            ignore (E.flush cl);
            let executed = Transfer.Mover.step mover ~budget in
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
      (* Final drain: everything still in flight completes, each tag
         exactly once, and the engine ends empty. *)
      begin
        ignore (E.flush cl);
        while E.pending eng > 0 do
          ignore (Transfer.Mover.step mover ~budget:8)
        done;
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
  let mover = Transfer.Mover.manual eng in
  for tag = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "submit %d" tag)
      Errc.ok
      (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0 ~dst:0
         ~dst_off:0 ~len:8 ~tag)
  done;
  ignore (E.flush cl);
  Alcotest.(check int) "three executed" 3 (Transfer.Mover.step mover ~budget:3);
  Transfer.Mover.kill mover;
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
  let mover = Transfer.Mover.manual eng in
  let rounds = 500 in
  let loop () =
    for i = 1 to rounds do
      ignore
        (E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
           ~dst_off:0 ~len:256 ~tag:i);
      ignore (E.flush cl);
      ignore (Transfer.Mover.step mover ~budget:4);
      ignore (E.reap cl)
    done
  in
  loop ();
  (* warm-up: rings, slab and doorbell all in steady state *)
  let delta = minor_words_delta loop in
  Alcotest.(check (float 0.0))
    "warm submit->flush->step->reap allocates zero minor words" 0.0 delta;
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

(* --- the ring between two domains ------------------------------------------ *)

(* A spawned mover and one client stream [n] descriptors, each copying
   its own 8-byte word, submitting up to [batch] before each flush and
   reaping as completions arrive.  Every tag must complete exactly
   once, in order, with [Errc.ok], and the destination must equal the
   source.  A watchdog turns a lost descriptor into a failure. *)
let stream ~capacity ~batch ~n () =
  let eng, store = E.create_with_buffers () in
  let unwrap = function Ok id -> id | Error _ -> Alcotest.fail "add" in
  let src_b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le src_b (8 * i) (Int64.of_int ((i * 7919) + 1))
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
  let mover = Transfer.Mover.spawn eng in
  let deadline = Unix.gettimeofday () +. 20.0 in
  Fun.protect
    ~finally:(fun () -> Transfer.Mover.shutdown mover)
    (fun () ->
      let sent = ref 0 in
      while !next < n && !bad = 0 do
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "watchdog: %d of %d completed" !next n;
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
        if E.reap cl = 0 then Domain.cpu_relax ()
      done);
  Alcotest.(check int) "every tag once, in order, ok" 0 !bad;
  Alcotest.(check int) "all completed" n !next;
  Alcotest.(check bool) "destination equals source" true
    (Bytes.equal src_b (E.Buffers.get store dst))

(* --- ring capacity edges --------------------------------------------------- *)

let submit_tag cl tag =
  E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src:0 ~src_off:0 ~dst:0
    ~dst_off:0 ~len:8 ~tag

let test_ring_bounded_capacity () =
  List.iter
    (fun cap ->
      let eng = E.create ok_exec in
      let got = Queue.create () in
      let cl =
        E.connect ~capacity:cap ~on_complete:(fun ~tag ~rc:_ -> Queue.push tag got) eng
      in
      let mover = Transfer.Mover.manual eng in
      for i = 0 to cap - 1 do
        Alcotest.(check int) "submit fits" Errc.ok (submit_tag cl i);
        Alcotest.(check int) "outstanding tracks submits" (i + 1) (E.outstanding cl)
      done;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: full answers retry" cap)
        Errc.retry (submit_tag cl cap);
      Alcotest.(check int) "pending counts clients, not descriptors" 1
        (E.pending eng);
      ignore (E.flush cl);
      Alcotest.(check int) "one executed" 1 (Transfer.Mover.step mover ~budget:1);
      Alcotest.(check int) "one reaped" 1 (E.reap cl);
      Alcotest.(check int) "space again" Errc.ok (submit_tag cl cap);
      ignore (E.flush cl);
      ignore (Transfer.Mover.step mover ~budget:cap);
      Alcotest.(check int) "the rest reaped" cap (E.reap cl);
      Alcotest.(check (list int)) "completes in order across the lap"
        (List.init (cap + 1) Fun.id)
        (List.of_seq (Queue.to_seq got));
      Alcotest.(check int) "mover idle" 0 (E.pending eng);
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
      let mover = Transfer.Mover.manual eng in
      List.iter
        (fun x ->
          (* On a full ring the mover runs a burst of half the ring (at
             least one) and the client reaps it, so the positions wrap
             at varying offsets. *)
          if submit_tag cl x = Errc.retry then begin
            ignore (Transfer.Mover.step mover ~budget:((cap / 2) + 1));
            ignore (E.reap cl);
            ignore (submit_tag cl x)
          end)
        xs;
      ignore (Transfer.Mover.step mover ~budget:max_int);
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
          (stream ~capacity:2 ~batch:1 ~n:20_000);
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
