(* The host copy service: [Transfer.Buffers] served as one Fastcall
   entry point, so a copy or a grant is one [Fastcall.call] run on the
   caller's domain.  The tests pin what the service adds to Fastcall's
   call contract: the warm copy call allocates nothing (the bench gate
   relies on it), two domains can copy through one handle at once, the
   service needs no thread of its own, and of two grants racing for
   one region exactly one wins — the owner flip is a CAS. *)

module B = Transfer.Buffers
module F = Runtime.Fastcall
module Errc = Ipc_intf.Errc

let unwrap = function Ok id -> id | Error _ -> Alcotest.fail "add"

(* A fresh table with the copy service registered on it. *)
let service () =
  let fast = F.create () in
  let store = B.create () in
  (fast, F.register fast (B.handler store), store)

(* Fill the 8 argument words of one call. *)
let set_args a ~op ~src ~src_off ~dst ~dst_off ~len ~caller =
  a.(0) <- op;
  a.(1) <- src;
  a.(2) <- src_off;
  a.(3) <- dst;
  a.(4) <- dst_off;
  a.(5) <- len;
  a.(6) <- caller

(* --- zero-allocation warm path -------------------------------------------- *)

let minor_words_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_warm_call_zero_alloc () =
  let fast, ep, store = service () in
  let src = unwrap (B.add store ~owner:0 (Bytes.create 4096)) in
  let dst = unwrap (B.add store ~owner:0 (Bytes.create 4096)) in
  let a = Array.make F.arg_words 0 in
  let ok = ref 0 in
  let loop () =
    for _ = 1 to 500 do
      set_args a ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
        ~dst_off:0 ~len:256 ~caller:0;
      if F.call fast ~ep a = Errc.ok then incr ok
    done
  in
  loop ();
  let delta = minor_words_delta loop in
  Alcotest.(check (float 0.0)) "a warm copy call allocates zero minor words"
    0.0 delta;
  Alcotest.(check int) "every call ok" 1000 !ok

(* --- two domains on one handle -------------------------------------------- *)

(* The main domain and one spawned domain each copy their own [n]
   8-byte words, one call per word, through the same handle, from a
   common start line.  Every call must answer [ok] exactly once, each
   destination must equal its source, and a watchdog turns a wedged
   domain into a failure. *)
type stream_result = { completed : int; bad : int; late : bool }

let test_cross_domain_stream () =
  let n = 4096 in
  let fast, ep, store = service () in
  let ready = Atomic.make 0 in
  let lane seed =
    let src_b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le src_b (8 * i) (Int64.of_int ((i * 7919) + seed))
    done;
    let src = unwrap (B.add store ~owner:0 src_b) in
    let dst = unwrap (B.add store ~owner:0 (Bytes.make (8 * n) '\000')) in
    let run () =
      let a = Array.make F.arg_words 0 in
      let deadline = Unix.gettimeofday () +. 20.0 in
      Atomic.incr ready;
      while Atomic.get ready < 2 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      let completed = ref 0 and bad = ref 0 and late = ref false in
      let i = ref 0 in
      while !i < n && not !late do
        if Unix.gettimeofday () > deadline then late := true;
        set_args a ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:(8 * !i) ~dst
          ~dst_off:(8 * !i) ~len:8 ~caller:0;
        if F.call fast ~ep a = Errc.ok then incr completed else incr bad;
        incr i
      done;
      { completed = !completed; bad = !bad; late = !late }
    in
    (run, fun () -> Bytes.equal src_b (B.get store dst))
  in
  let run_a, equal_a = lane 1 and run_b, equal_b = lane 2 in
  let other = Domain.spawn run_b in
  let a = run_a () in
  let b = Domain.join other in
  List.iter
    (fun (who, r) ->
      Alcotest.(check bool) (who ^ ": within the watchdog") false r.late;
      Alcotest.(check int) (who ^ ": no call failed") 0 r.bad;
      Alcotest.(check int) (who ^ ": every call ok once") n r.completed)
    [ ("main", a); ("spawned", b) ];
  Alcotest.(check bool) "main: destination equals source" true (equal_a ());
  Alcotest.(check bool) "spawned: destination equals source" true (equal_b ())

(* --- the service needs no thread ------------------------------------------- *)

let threads () = Array.length (Sys.readdir "/proc/self/task")

(* The thread count of this process before the service exists, once it
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
    let fast, ep, store = service () in
    let src = unwrap (B.add store ~owner:0 (Bytes.create 4096)) in
    let dst = unwrap (B.add store ~owner:0 (Bytes.create 4096)) in
    let a = Array.make F.arg_words 0 in
    let ok = ref 0 in
    for _ = 1 to 1000 do
      set_args a ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
        ~dst_off:0 ~len:64 ~caller:0;
      if F.call fast ~ep a = Errc.ok then incr ok
    done;
    Alcotest.(check int) "1000 copies completed" 1000 !ok;
    Alcotest.(check int) "no thread added while the service is live" before
      (threads ())
  end

(* --- racing grants --------------------------------------------------------- *)

(* Two domains meet at a barrier, then each grants the same region away
   — as its current owner — to a target of its own.  Exactly one call
   must answer [ok] and the other [copy_fault], and the region's owner
   must then be the winner's target.  The next round starts from that
   owner.  The region is 256 pages, so each grant touches 256 bytes
   before its flip: a check-then-set flip leaves both callers that long
   to pass the check together. *)
let test_grant_race () =
  let rounds = 1000 in
  let fast, ep, store = service () in
  let region = unwrap (B.add store ~owner:0 (Bytes.create (256 * B.page))) in
  let target r k = 1 + (2 * r) + k in
  let rcs = Array.init 2 (fun _ -> Array.make rounds 0) in
  let owners = Array.make rounds 0 in
  let arrived = Atomic.make 0 and late = Atomic.make false in
  let deadline = Unix.gettimeofday () +. 20.0 in
  (* The [k]-th crossing of the two-domain barrier. *)
  let barrier k =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 * k && not (Atomic.get late) do
      Domain.cpu_relax ();
      if Unix.gettimeofday () > deadline then Atomic.set late true
    done
  in
  let lane k () =
    let a = Array.make F.arg_words 0 in
    let owner = ref 0 in
    for r = 0 to rounds - 1 do
      set_args a ~op:Ipc_intf.Wellknown.bulk_grant ~src:region ~src_off:0
        ~dst:(target r k) ~dst_off:0 ~len:0 ~caller:!owner;
      barrier ((2 * r) + 1);
      rcs.(k).(r) <- F.call fast ~ep a;
      barrier ((2 * r) + 2);
      owner := B.owner store region;
      if k = 0 then owners.(r) <- !owner
    done
  in
  let other = Domain.spawn (lane 1) in
  lane 0 ();
  Domain.join other;
  Alcotest.(check bool) "within the watchdog" false (Atomic.get late);
  for r = 0 to rounds - 1 do
    let rc0 = rcs.(0).(r) and rc1 = rcs.(1).(r) in
    let winner =
      if rc0 = Errc.ok && rc1 = Errc.copy_fault then 0
      else if rc1 = Errc.ok && rc0 = Errc.copy_fault then 1
      else
        Alcotest.failf "round %d: rcs %s and %s, want one ok and one copy_fault"
          r (Errc.to_string rc0) (Errc.to_string rc1)
    in
    Alcotest.(check int)
      (Printf.sprintf "round %d: the winner's target owns the region" r)
      (target r winner) owners.(r)
  done

let suites =
  [
    ( "transfer.copy",
      [
        Alcotest.test_case "warm copy call allocates nothing" `Quick
          test_warm_call_zero_alloc;
        Alcotest.test_case "cross-domain stream" `Quick test_cross_domain_stream;
        Alcotest.test_case "no engine thread" `Quick test_no_engine_thread;
        Alcotest.test_case "racing grants: exactly one wins" `Quick
          test_grant_race;
      ] );
  ]
