(* Tests for the real-multicore runtime: lock-free queues, the fastcall
   registry, and the baselines it is measured against (the MPSC queue,
   the legacy cross-domain server and the locked registry, which live in
   lib/baseline).

   These run real OCaml 5 domains.  The container may have a single core;
   everything here is correctness, not speedup. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- MPSC queue --------------------------------------------------------- *)

let test_mpsc_fifo_single_producer () =
  let q = Baseline.Mpsc_queue.create () in
  for i = 1 to 100 do
    Baseline.Mpsc_queue.push q i
  done;
  let out = ref [] in
  let rec drain () =
    match Baseline.Mpsc_queue.pop q with
    | Some v ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo" (List.init 100 (fun i -> i + 1))
    (List.rev !out);
  Alcotest.(check bool) "empty after drain" true (Baseline.Mpsc_queue.is_empty q)

let prop_mpsc_roundtrip =
  QCheck.Test.make ~name:"mpsc preserves sequence" ~count:100
    QCheck.(list int)
    (fun xs ->
      let q = Baseline.Mpsc_queue.create () in
      List.iter (Baseline.Mpsc_queue.push q) xs;
      let rec drain acc =
        match Baseline.Mpsc_queue.pop q with
        | Some v -> drain (v :: acc)
        | None -> List.rev acc
      in
      drain [] = xs)

let test_mpsc_multi_producer_total () =
  let q = Baseline.Mpsc_queue.create () in
  let producers = 4 and per = 500 in
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Baseline.Mpsc_queue.push q ((p * per) + i)
            done))
  in
  List.iter Domain.join domains;
  let seen = Hashtbl.create 64 in
  let rec drain n =
    match Baseline.Mpsc_queue.pop q with
    | Some v ->
        Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen v);
        Hashtbl.replace seen v ();
        drain (n + 1)
    | None -> n
  in
  let n = drain 0 in
  Alcotest.(check int) "all elements arrived" (producers * per) n

(* --- fastcall ------------------------------------------------------------ *)

let adder : Runtime.Fastcall.handler =
 fun _ctx args ->
  args.(0) <- args.(0) + args.(1);
  args.(7) <- 0

let test_fastcall_local () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let args = Array.make 8 0 in
  args.(0) <- 40;
  args.(1) <- 2;
  let rc = Runtime.Fastcall.call t ~ep args in
  Alcotest.(check int) "rc" 0 rc;
  Alcotest.(check int) "result in place" 42 args.(0)

let test_fastcall_unknown_ep () =
  let t = Runtime.Fastcall.create () in
  let args = Array.make 8 0 in
  Alcotest.(check int) "unknown entry" Ipc_intf.Errc.no_entry
    (Runtime.Fastcall.call t ~ep:3 args);
  Alcotest.(check int) "rc slot" Ipc_intf.Errc.no_entry args.(7)

let test_fastcall_nested_calls () =
  let t = Runtime.Fastcall.create () in
  let inner = Runtime.Fastcall.register t adder in
  let outer : Runtime.Fastcall.handler =
   fun _ctx args ->
    (* Servers calling servers: the inner call runs on this handler's
       own stack, one OCaml frame deeper. *)
    let nested = Array.make 8 0 in
    nested.(0) <- args.(0);
    nested.(1) <- 1;
    ignore (Runtime.Fastcall.call t ~ep:inner nested);
    args.(0) <- nested.(0);
    args.(7) <- 0
  in
  let ep = Runtime.Fastcall.register t outer in
  let args = Array.make 8 0 in
  args.(0) <- 41;
  ignore (Runtime.Fastcall.call t ~ep args);
  Alcotest.(check int) "nested result" 42 args.(0)

let test_fastcall_cross_domain () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let sd = Baseline.Mpsc_server.spawn t in
  let total = ref 0 in
  for i = 1 to 100 do
    let args = Array.make 8 0 in
    args.(0) <- i;
    args.(1) <- i;
    ignore (Baseline.Mpsc_server.cross_call sd ~ep args);
    total := !total + args.(0)
  done;
  Baseline.Mpsc_server.shutdown sd;
  Alcotest.(check int) "all served" 100 (Baseline.Mpsc_server.served sd);
  Alcotest.(check int) "sums correct" (2 * (100 * 101 / 2)) !total

(* --- locked registry ------------------------------------------------------ *)

let test_locked_registry_parity () =
  let t = Baseline.Locked_registry.create () in
  let ep =
    Baseline.Locked_registry.register t (fun _frame args ->
        args.(0) <- args.(0) * 2;
        args.(7) <- 0)
  in
  let args = Array.make 8 0 in
  args.(0) <- 21;
  let rc = Baseline.Locked_registry.call t ~ep args in
  Alcotest.(check int) "rc" 0 rc;
  Alcotest.(check int) "doubled" 42 args.(0);
  Alcotest.(check int) "calls" 1 (Baseline.Locked_registry.calls t)

let test_locked_registry_multidomain () =
  let t = Baseline.Locked_registry.create () in
  let ep =
    Baseline.Locked_registry.register t (fun _frame args -> args.(7) <- 0)
  in
  let per = 1000 in
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              ignore (Baseline.Locked_registry.call t ~ep (Array.make 8 0))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "exact count under contention" (3 * per)
    (Baseline.Locked_registry.calls t)

let suites =
  [
    ( "runtime.mpsc",
      [
        Alcotest.test_case "fifo single producer" `Quick
          test_mpsc_fifo_single_producer;
        Alcotest.test_case "multi-producer totals" `Quick
          test_mpsc_multi_producer_total;
        qcheck prop_mpsc_roundtrip;
      ] );
    ( "runtime.fastcall",
      [
        Alcotest.test_case "local call" `Quick test_fastcall_local;
        Alcotest.test_case "unknown entry" `Quick test_fastcall_unknown_ep;
        Alcotest.test_case "nested calls" `Quick test_fastcall_nested_calls;
        Alcotest.test_case "cross-domain call" `Quick test_fastcall_cross_domain;
      ] );
    ( "runtime.locked_registry",
      [
        Alcotest.test_case "parity" `Quick test_locked_registry_parity;
        Alcotest.test_case "multi-domain exactness" `Quick
          test_locked_registry_multidomain;
      ] );
  ]

(* --- striped counter -------------------------------------------------------- *)

(* Four domains mix [incr] and [add] on their own stripes; the gather
   must see every one. *)
let test_striped_counter_exact () =
  let c = Runtime.Striped_counter.create () in
  let per = 5000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              if i land 1 = 0 then Runtime.Striped_counter.incr c
              else Runtime.Striped_counter.add c (d + 2)
            done))
  in
  List.iter Domain.join domains;
  let expect =
    List.fold_left (fun acc d -> acc + (per / 2 * (d + 3))) 0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "no lost increments" expect
    (Runtime.Striped_counter.value c)

let test_striped_counter_add () =
  let c = Runtime.Striped_counter.create ~stripes:4 () in
  Runtime.Striped_counter.add c 40;
  Runtime.Striped_counter.incr c;
  Runtime.Striped_counter.incr c;
  Alcotest.(check int) "adds and incrs sum" 42 (Runtime.Striped_counter.value c)

let test_striped_counter_pow2 () =
  Alcotest.check_raises "non-power-of-two stripes"
    (Invalid_argument "Striped_counter.create: stripes must be a power of two")
    (fun () -> ignore (Runtime.Striped_counter.create ~stripes:3 ()))

(* --- padded atomics ---------------------------------------------------------- *)

module Pa = Runtime.Padded_atomic

let test_padded_atomic_size () =
  Alcotest.(check bool) "at least 8 fields" true
    (Obj.size (Obj.repr (Pa.make 0)) >= 8)

(* Every [Atomic] operation on a padded atomic answers what it answers
   on a plain one, step by step. *)
let test_padded_atomic_ops () =
  let p = Pa.make 5 and a = Atomic.make 5 in
  let both name f = Alcotest.(check int) name (f a) (f p) in
  both "get" Atomic.get;
  Atomic.set p 9;
  Atomic.set a 9;
  both "set" Atomic.get;
  both "exchange" (fun x -> Atomic.exchange x 11);
  both "after exchange" Atomic.get;
  Alcotest.(check bool) "failed CAS" (Atomic.compare_and_set a 0 1)
    (Atomic.compare_and_set p 0 1);
  Alcotest.(check bool) "CAS" (Atomic.compare_and_set a 11 12)
    (Atomic.compare_and_set p 11 12);
  both "after CAS" Atomic.get;
  both "fetch_and_add" (fun x -> Atomic.fetch_and_add x 30);
  Atomic.incr p;
  Atomic.incr a;
  Atomic.decr p;
  Atomic.decr a;
  both "after incr/decr" Atomic.get;
  Alcotest.(check int) "value" 42 (Atomic.get p);
  let s = Pa.make "boxed" in
  Alcotest.(check bool) "boxed CAS by identity" true
    (Atomic.compare_and_set s (Atomic.get s) "moved");
  Alcotest.(check string) "boxed value" "moved" (Atomic.get s)

(* --- request slab: the channel's cell pool ---------------------------------- *)

(* A channel's request slab is its fixed pool of Shm_channel cells, the
   runtime's preallocated CDs.  Client and server are played from one
   domain: a submit takes a cell, [serve_once] completes every queued
   one, an await takes the reply and recycles the cell. *)
let slab_pair ~capacity =
  let seg = Runtime.Shm_channel.create_heap ~capacity () in
  ( seg,
    Runtime.Shm_channel.attach ~role:Runtime.Shm_channel.Client seg,
    Runtime.Shm_channel.attach ~role:Runtime.Shm_channel.Server seg )

(* Folds argument words 1..6 into word 0 (word 7 is the RC slot), so a
   stale word left in a recycled cell shows up in the reply. *)
let sum_into_first ~ep_word:_ args =
  for j = 1 to 6 do
    args.(0) <- args.(0) + args.(j)
  done;
  Ipc_intf.Errc.ok

(* Serial calls reuse the most recently freed cell.  The growth half:
   the pool is fixed, so with every cell out a submit answers
   [Errc.retry], and the pool serves again once cells come back. *)
let test_request_slab_lifo_reuse () =
  let module Ch = Runtime.Shm_channel in
  let capacity = 4 in
  let _, client, server = slab_pair ~capacity in
  let args = Array.make 8 0 in
  let serve () = ignore (Ch.serve_once server ~dispatch:sum_into_first : int) in
  let complete i =
    Alcotest.(check int) "call completes" Ipc_intf.Errc.ok (Ch.await client i args)
  in
  let call () =
    let i = Ch.submit_raw client ~ep:0 args in
    serve ();
    complete i;
    i
  in
  let hot = call () in
  for _ = 1 to 10 do
    Alcotest.(check int) "serial calls reuse the hot cell" hot (call ())
  done;
  let held = List.init capacity (fun _ -> Ch.submit_raw client ~ep:0 args) in
  Alcotest.(check int) "most recently freed cell first" hot (List.hd held);
  Alcotest.(check (list int)) "every cell handed out once"
    (List.init capacity Fun.id) (List.sort compare held);
  Alcotest.(check int) "a full pool answers retry" Ipc_intf.Errc.retry
    (Ch.submit_raw client ~ep:0 args);
  serve ();
  List.iter complete held;
  Alcotest.(check int) "every cell back" capacity (Ch.free_cells client);
  Alcotest.(check int) "last freed is reused first"
    (List.nth held (capacity - 1))
    (call ())

(* A cell back on the free stack reads [state_free], whether an await or
   the server's reclaim of an abandoned call returned it, and its next
   use carries only the new call's words. *)
let test_request_slab_release_resets () =
  let module Ch = Runtime.Shm_channel in
  let module W = Ipc_intf.Wire_abi in
  let capacity = 2 in
  let seg, client, server = slab_pair ~capacity in
  let state i = Runtime.Segment.get seg (W.cell_state ~capacity ~arg_words:8 i) in
  let serve () = ignore (Ch.serve_once server ~dispatch:sum_into_first : int) in
  let args = Array.init 8 (fun j -> j + 1) in
  let i = Ch.submit_raw client ~ep:0 args in
  serve ();
  Alcotest.(check int) "first call" Ipc_intf.Errc.ok (Ch.await client i args);
  Alcotest.(check int) "words 0..6 summed" 28 args.(0);
  Alcotest.(check int) "completed cell reads free" W.state_free (state i);
  let fresh = Array.make 8 0 in
  fresh.(0) <- 5;
  let j = Ch.submit_raw client ~ep:0 fresh in
  Alcotest.(check int) "same cell reused" i j;
  serve ();
  Alcotest.(check int) "second call" Ipc_intf.Errc.ok (Ch.await client j fresh);
  Alcotest.(check (array int)) "no word of the last call leaks"
    [| 5; 0; 0; 0; 0; 0; 0; Ipc_intf.Errc.ok |]
    fresh;
  let k = Ch.submit_raw client ~ep:0 fresh in
  Alcotest.(check int) "abandoned on deadline" Ipc_intf.Errc.timed_out
    (Ch.await ~deadline:0 client k fresh);
  serve ();
  Alcotest.(check int) "reclaimed cell back on the free stack" capacity
    (Ch.free_cells client);
  Alcotest.(check int) "reclaimed cell reads free" W.state_free (state k)

(* --- doorbell ------------------------------------------------------------- *)

(* Every park below outlasts the 30 s watchdogs: a bounded park would
   otherwise turn a lost wakeup into a delay these tests cannot see. *)
let forever = 60_000_000_000

let test_doorbell_fast_ring () =
  let db = Runtime.Doorbell.create () in
  Runtime.Doorbell.ring db;
  Runtime.Doorbell.ring db;
  Alcotest.(check int) "both rings counted" 2 (Runtime.Doorbell.rings db);
  Alcotest.(check int) "no wakes" 0 (Runtime.Doorbell.wakes db);
  Alcotest.(check bool) "not parked" false (Runtime.Doorbell.is_parked db)

let test_doorbell_park_no_sleep_when_work_pending () =
  let db = Runtime.Doorbell.create () in
  (* Work already visible: park must return without sleeping. *)
  Runtime.Doorbell.park db ~ns:forever ~nonempty:(fun () -> true);
  Alcotest.(check int) "no sleep" 0 (Runtime.Doorbell.parks db);
  Alcotest.(check bool) "back to spinning" false (Runtime.Doorbell.is_parked db)

(* The lost-wakeup stress: a producer publishes work items and rings; a
   consumer parks whenever it sees nothing new.  If any wakeup were
   lost, the consumer would sleep forever with work pending — the
   watchdog turns that hang into a failure. *)
let test_doorbell_park_unpark_race () =
  let db = Runtime.Doorbell.create () in
  let published = Atomic.make 0 and aborted = Atomic.make false in
  let n = 400 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Atomic.set published i;
          Runtime.Doorbell.ring db;
          (* Occasionally let the consumer reach its park so both sides
             of the state machine get exercised. *)
          if i mod 7 = 0 then Unix.sleepf 0.0005
        done)
  in
  let consumed = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        while
          Atomic.get consumed < n && not (Atomic.get aborted)
        do
          let avail = Atomic.get published in
          if avail > Atomic.get consumed then Atomic.set consumed avail
          else
            Runtime.Doorbell.park db ~ns:forever ~nonempty:(fun () ->
                Atomic.get published > Atomic.get consumed
                || Atomic.get aborted)
        done)
  in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        while
          Atomic.get consumed < n && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.05
        done;
        if Atomic.get consumed < n then begin
          Atomic.set aborted true;
          Runtime.Doorbell.wake db
        end)
  in
  Domain.join producer;
  Domain.join consumer;
  Domain.join watchdog;
  Alcotest.(check bool) "no lost wakeup (watchdog never fired)" false
    (Atomic.get aborted);
  Alcotest.(check int) "all work observed" n (Atomic.get consumed)

(* The peer-vanishes case: the ringer's very last act is [ring] — the
   domain exits immediately after, so nothing about the wakeup may
   depend on the ringer sticking around.  The parker must still wake on
   every round; a lost wakeup would hang the test, which the watchdog
   turns into a failure. *)
let test_doorbell_ringer_dies () =
  let db = Runtime.Doorbell.create () in
  let rounds = 50 in
  let aborted = Atomic.make false in
  let woke = ref 0 in
  let round = Atomic.make 0 in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        while Atomic.get round < rounds && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if Atomic.get round < rounds then begin
          Atomic.set aborted true;
          Runtime.Doorbell.wake db
        end)
  in
  (try
     for _ = 1 to rounds do
       let published = Atomic.make false in
       let ringer =
         Domain.spawn (fun () ->
             (* Wait for the parker to actually sleep, so every round
                exercises the parked path, then ring and die. *)
             while
               (not (Runtime.Doorbell.is_parked db))
               && not (Atomic.get aborted)
             do
               Domain.cpu_relax ()
             done;
             Atomic.set published true;
             Runtime.Doorbell.ring db)
       in
       (* A park may return early (a signal); only news ends the round. *)
       while not (Atomic.get published || Atomic.get aborted) do
         Runtime.Doorbell.park db ~ns:forever ~nonempty:(fun () ->
             Atomic.get published || Atomic.get aborted)
       done;
       (* The ringer is gone by now; joining must not be needed for the
          wake (it already happened), only for cleanliness. *)
       Domain.join ringer;
       if Atomic.get published then incr woke;
       Atomic.incr round
     done
   with e ->
     Atomic.set round rounds;
     Domain.join watchdog;
     raise e);
  Domain.join watchdog;
  Alcotest.(check bool) "watchdog never fired" false (Atomic.get aborted);
  Alcotest.(check int) "woke on every round" rounds !woke

(* The kill and shutdown path: news that is not a ring (a stop flag)
   published before [wake] must release a parked waiter just as a ring
   does, and must not count as a ring. *)
let test_doorbell_wake_releases_parker () =
  let db = Runtime.Doorbell.create () in
  let rounds = 50 in
  let stop = Atomic.make false and aborted = Atomic.make false in
  let round = Atomic.make 0 in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        while Atomic.get round < rounds && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if Atomic.get round < rounds then begin
          Atomic.set aborted true;
          Runtime.Doorbell.wake db
        end)
  in
  let news () = Atomic.get stop || Atomic.get aborted in
  (try
     for _ = 1 to rounds do
       Atomic.set stop false;
       let waker =
         Domain.spawn (fun () ->
             while
               (not (Runtime.Doorbell.is_parked db))
               && not (Atomic.get aborted)
             do
               Domain.cpu_relax ()
             done;
             Atomic.set stop true;
             Runtime.Doorbell.wake db)
       in
       while not (news ()) do
         Runtime.Doorbell.park db ~ns:forever ~nonempty:news
       done;
       Domain.join waker;
       Atomic.incr round
     done
   with e ->
     Atomic.set round rounds;
     Domain.join watchdog;
     raise e);
  Domain.join watchdog;
  Alcotest.(check bool) "watchdog never fired" false (Atomic.get aborted);
  Alcotest.(check int) "a wake is not a ring" 0 (Runtime.Doorbell.rings db);
  Alcotest.(check bool) "flag down at rest" false
    (Runtime.Doorbell.is_parked db)

(* --- channel-path cross-domain calls -------------------------------------- *)

let test_channel_call_inline () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let srv = Runtime.Fastcall.spawn_channel_server t in
  let cl = Runtime.Fastcall.connect srv in
  let args = Array.make 8 0 in
  for i = 1 to 100 do
    args.(0) <- i;
    args.(1) <- 1;
    let rc = Runtime.Fastcall.channel_call cl ~ep args in
    Alcotest.(check int) "rc" 0 rc;
    Alcotest.(check int) "in-place result" (i + 1) args.(0)
  done;
  Alcotest.(check int) "all calls accounted"
    100
    (Runtime.Fastcall.client_inlined cl + Runtime.Fastcall.channel_served srv);
  Runtime.Fastcall.shutdown_channel_server srv

let test_channel_call_queued () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let srv = Runtime.Fastcall.spawn_channel_server t in
  let cl = Runtime.Fastcall.connect srv in
  let args = Array.make 8 0 in
  for i = 1 to 200 do
    args.(0) <- i;
    args.(1) <- i;
    ignore
      (Runtime.Fastcall.channel_call_deadline cl ~ep ~deadline:max_int args);
    Alcotest.(check int) "doubled" (2 * i) args.(0)
  done;
  Alcotest.(check int) "nothing inlined" 0 (Runtime.Fastcall.client_inlined cl);
  Alcotest.(check int) "all served by the shard" 200
    (Runtime.Fastcall.channel_served srv);
  Runtime.Fastcall.shutdown_channel_server srv

(* A queued call rings its shard once, in its submit: the shard's bell
   is the one word its clients' channels ring and the shard parks on.
   Naps between some calls let the shards park, so rings also take the
   wake branch. *)
let test_channel_one_ring_per_queued_call () =
  let t = Runtime.Fastcall.create () in
  let eps = Array.init 2 (fun _ -> Runtime.Fastcall.register t adder) in
  let srv = Runtime.Fastcall.spawn_channel_server ~shards:2 t in
  let cl = Runtime.Fastcall.connect srv in
  let args = Array.make 8 0 in
  let n = 200 in
  for i = 1 to n do
    if i mod 20 = 0 then Runtime.Doorbell.nap_ns 2_000_000;
    args.(0) <- i;
    args.(1) <- 1;
    let rc =
      Runtime.Fastcall.channel_call_deadline cl ~ep:eps.(i mod 2)
        ~deadline:max_int args
    in
    Alcotest.(check int) "rc" 0 rc
  done;
  let rings, wakes, parks = Runtime.Fastcall.channel_doorbell_stats srv in
  Runtime.Fastcall.shutdown_channel_server srv;
  Alcotest.(check int) "one ring per queued call" n rings;
  if wakes > parks then Alcotest.failf "%d wakes for %d parks" wakes parks

(* [inline:false] takes the queued path: a deadline call, no deadline. *)
let channel_call ~inline cl ~ep args =
  if inline then Runtime.Fastcall.channel_call cl ~ep args
  else Runtime.Fastcall.channel_call_deadline cl ~ep ~deadline:max_int args

let run_producers ~producers ~per ~shards ~inline t ep srv =
  ignore t;
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            let cl = Runtime.Fastcall.connect srv in
            let args = Array.make 8 0 in
            let total = ref 0 in
            for i = 1 to per do
              args.(0) <- i;
              args.(1) <- p;
              ignore (channel_call ~inline cl ~ep args);
              total := !total + args.(0)
            done;
            !total))
  in
  let expected_per p = (per * (per + 1) / 2) + (per * p) in
  List.iteri
    (fun p d ->
      Alcotest.(check int)
        (Printf.sprintf "producer %d sums (shards=%d)" p shards)
        (expected_per p) (Domain.join d))
    domains

let test_channel_stress_one_shard () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let srv = Runtime.Fastcall.spawn_channel_server t in
  run_producers ~producers:4 ~per:500 ~shards:1 ~inline:false t ep srv;
  Alcotest.(check int) "exact served count" (4 * 500)
    (Runtime.Fastcall.channel_served srv);
  Runtime.Fastcall.shutdown_channel_server srv

let stress_sharded ~inline () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  (* Burn entry points so calls land on shard 1 too. *)
  let ep2 = Runtime.Fastcall.register t adder in
  let srv = Runtime.Fastcall.spawn_channel_server ~shards:2 t in
  run_producers ~producers:3 ~per:400 ~shards:2 ~inline t ep srv;
  run_producers ~producers:3 ~per:400 ~shards:2 ~inline t ep2 srv;
  Runtime.Fastcall.shutdown_channel_server srv;
  srv

let test_channel_stress_sharded () = ignore (stress_sharded ~inline:true ())

(* Every call queued on a 2-shard server: an idle shard drains its
   sibling's channels, guarded by nothing but the victim's ticket — the
   exact per-producer sums above prove no request is served twice or
   lost, and the served count proves every call went through a ring. *)
let test_channel_stress_sharded_queued () =
  let srv = stress_sharded ~inline:false () in
  Alcotest.(check int) "every call served by a shard" (2 * 3 * 400)
    (Runtime.Fastcall.channel_served srv)

(* --- zero-allocation assertions ------------------------------------------- *)

(* [Gc.minor_words] is unboxed and per-domain, so a strict zero delta is
   measurable.  Warm-up happens outside the measured window: cells and
   rings are all preallocated-and-reused from then on. *)
let minor_words_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_local_call_zero_alloc () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let args = Array.make 8 0 in
  let calls = 1_000 in
  let loop () =
    for i = 1 to calls do
      args.(0) <- i;
      args.(1) <- 1;
      ignore (Runtime.Fastcall.call t ~ep args)
    done
  in
  loop ();
  (* warm-up *)
  let delta = minor_words_delta loop in
  Alcotest.(check (float 0.0)) "warm local calls allocate zero minor words" 0.0
    delta

let test_channel_call_zero_alloc () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let srv = Runtime.Fastcall.spawn_channel_server t in
  let check_mode name inline =
    let cl = Runtime.Fastcall.connect srv in
    let args = Array.make 8 0 in
    let calls = 500 in
    let loop () =
      for i = 1 to calls do
        args.(0) <- i;
        args.(1) <- 1;
        ignore (channel_call ~inline cl ~ep args)
      done
    in
    loop ();
    (* warm-up: slab/ring steady state *)
    let delta = minor_words_delta loop in
    Alcotest.(check (float 0.0)) name 0.0 delta;
    Alcotest.(check int)
      (name ^ ": slab never grew after warm-up")
      0
      (Runtime.Fastcall.client_slab_grows cl)
  in
  check_mode "warm inline channel calls allocate zero minor words" true;
  check_mode "warm queued channel calls allocate zero minor words" false;
  Runtime.Fastcall.shutdown_channel_server srv

(* Slots are bound at first registration, so a table costs its slot
   array and a few records — not a slot record per ID.  Words allocated
   are minor plus major, less what a minor collection promoted meanwhile
   (major counts those again). *)
let test_create_is_o1 () =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let t = Runtime.Fastcall.create () in
  let delta = words () -. before in
  ignore (Sys.opaque_identity t);
  Alcotest.(check bool)
    (Printf.sprintf "create allocates %.0f words < 2 * max_entry_points" delta)
    true
    (delta < float_of_int (2 * Runtime.Fastcall.max_entry_points))

(* A table owns nothing outside itself: once dropped, a table that
   registered a service and took a call leaves no live word behind on
   the domain that called it.  Live words may grow by less than 64 per
   table (the slack absorbs heap noise, not a per-table leak). *)
let test_dropped_table_leaves_nothing () =
  let tables = 2000 in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let churn () =
    for _ = 1 to tables do
      let t = Runtime.Fastcall.create () in
      let ep = Runtime.Fastcall.register t adder in
      ignore (Runtime.Fastcall.call t ~ep (Array.make 8 0))
    done
  in
  churn ();
  (* warm-up: anything allocated once per process is live by now *)
  let before = live () in
  churn ();
  let grown = live () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d dropped tables left %d live words" tables grown)
    true
    (grown < 64 * tables)

(* --- lazily bound entry-point slots ----------------------------------------- *)

module F = Runtime.Fastcall

(* Every never-registered slot reads the one shared unbound slot.
   Nothing may write it: after every operation below it must still read
   free, through this handle and through other unbound ones. *)
let test_unbound_id () =
  let t = F.create () in
  let ep = F.register t adder in
  let u = ep + 5 in
  let args = Array.make 8 0 in
  let no_entry = Ipc_intf.Errc.no_entry in
  Alcotest.(check int) "call" no_entry (F.call t ~ep:u args);
  Alcotest.(check int) "soft_kill" no_entry (F.soft_kill t ~ep:u);
  Alcotest.(check int) "hard_kill" no_entry (F.hard_kill t ~ep:u);
  Alcotest.(check int) "exchange" no_entry (F.exchange t ~ep:u adder);
  let hold = F.Batch.hold () in
  Alcotest.(check int) "batch call" no_entry (F.Batch.call t hold ~ep:u args);
  Alcotest.(check int) "no hold taken" (-1) (F.Batch.held hold);
  List.iter
    (fun id ->
      let name = Printf.sprintf "handle %d" id in
      Alcotest.(check bool) (name ^ ": lifecycle None") true
        (F.lifecycle t ~ep:id = None);
      Alcotest.(check int) (name ^ ": in_flight") 0 (F.in_flight t ~ep:id);
      Alcotest.(check int) (name ^ ": ep_faults") 0 (F.ep_faults t ~ep:id))
    [ u; ep + 1; F.max_entry_points - 1 ];
  Alcotest.(check int) "the bound handle still serves" Ipc_intf.Errc.ok
    (F.call t ~ep args);
  Alcotest.(check int) "a later register binds the next slot" (ep + 1)
    (F.register t adder)

(* Handles are handed out in slot order on a fresh table (generation 0,
   so handle = slot); a freed slot's next tenant gets the next
   generation, and every name minted before the free is dead on every
   operation.  With every slot bound, negative handles — and an empty
   batch hold, whose marker is -1 — still name nothing: -1's slot bits
   are slot 1023's. *)
let test_bind_every_id () =
  let t = F.create () in
  let hs = Array.init F.max_entry_points (fun _ -> F.register t adder) in
  Alcotest.(check int) "every slot live" F.max_entry_points (F.registered t);
  Alcotest.(check (list int)) "handles handed out in slot order"
    (List.init F.max_entry_points Fun.id)
    (Array.to_list hs);
  Alcotest.check_raises "the next register is refused"
    (Invalid_argument "Fastcall.register: out of entry points") (fun () ->
      ignore (F.register t adder));
  let args = Array.make 8 0 in
  Array.iter
    (fun h ->
      args.(0) <- h;
      args.(1) <- 1;
      Alcotest.(check int) "bound handle serves" Ipc_intf.Errc.ok
        (F.call t ~ep:h args);
      Alcotest.(check int) "its own handler ran" (h + 1) args.(0))
    hs;
  List.iter
    (fun ep ->
      let name = Printf.sprintf "handle %d" ep in
      args.(0) <- 5;
      Alcotest.(check int) (name ^ ": call") Ipc_intf.Errc.no_entry
        (F.call t ~ep args);
      let hold = F.Batch.hold () in
      Alcotest.(check int) (name ^ ": empty hold") Ipc_intf.Errc.no_entry
        (F.Batch.call t hold ~ep args);
      Alcotest.(check int) (name ^ ": no hold taken") (-1) (F.Batch.held hold);
      Alcotest.(check int) (name ^ ": nothing ran") 5 args.(0))
    [ -1; -2; min_int ];
  let victim = hs.(77) in
  Alcotest.(check int) "soft kill" Ipc_intf.Errc.ok (F.soft_kill t ~ep:victim);
  Alcotest.(check int) "idle slot drained" (F.max_entry_points - 1)
    (F.registered t);
  let fresh = F.register t adder in
  Alcotest.(check int) "the freed slot is reused" 77
    (Ipc_intf.Wire_abi.handle_slot fresh);
  Alcotest.(check int) "under the next generation" 1
    (Ipc_intf.Wire_abi.handle_gen fresh);
  args.(0) <- 5;
  Alcotest.(check int) "stale handle rejected" Ipc_intf.Errc.no_entry
    (F.call t ~ep:victim args);
  Alcotest.(check int) "stale handle ran nothing" 5 args.(0);
  Alcotest.(check int) "stale batch call rejected" Ipc_intf.Errc.no_entry
    (F.Batch.call t (F.Batch.hold ()) ~ep:victim args);
  Alcotest.(check int) "stale kill rejected" Ipc_intf.Errc.no_entry
    (F.hard_kill t ~ep:victim);
  Alcotest.(check int) "stale exchange rejected" Ipc_intf.Errc.no_entry
    (F.exchange t ~ep:victim adder);
  Alcotest.(check bool) "stale lifecycle" true (F.lifecycle t ~ep:victim = None);
  Alcotest.(check int) "fresh handle serves" Ipc_intf.Errc.ok
    (F.call t ~ep:fresh args);
  Alcotest.(check bool) "fresh lifecycle" true
    (F.lifecycle t ~ep:fresh = Some Ipc_intf.Lifecycle.Active)

(* --- deadline timed park --------------------------------------------------- *)

(* The deadline wait is spin, then a timed park (sched_yield rounds,
   then bounded nanosleep naps — see Shm_channel.await).  These tests
   pin its three wake reasons: the reply landing, the deadline
   expiring, and a dead server (where only the clock can save the
   caller).  [client_spin:0] forces every call past the spin phase so
   the park itself is what's exercised.  Deadlines are absolute. *)

let ms_from_now ms = Runtime.Doorbell.now_ns () + (ms * 1_000_000)

let test_deadline_wakes_on_reply () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let ep = F.register t adder in
  let srv = F.spawn_channel_server t in
  let cl = F.connect ~client_spin:0 srv in
  let args = Array.make 8 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 200 do
    args.(0) <- i;
    args.(1) <- 1;
    Alcotest.(check int) "parked call completes" Ipc_intf.Errc.ok
      (F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 10_000) args);
    Alcotest.(check int) "reply intact" (i + 1) args.(0)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "replies woke the park, not the deadline" true
    (dt < 5.0);
  Alcotest.(check int) "no timeouts" 0 (F.client_timeouts cl);
  F.shutdown_channel_server srv

let test_deadline_wakes_on_expiry () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let stall = Atomic.make true in
  let slow : F.handler =
   fun _ctx args ->
    if Atomic.get stall then Unix.sleepf 0.3;
    args.(0) <- args.(0) + args.(1);
    args.(7) <- 0
  in
  let ep = F.register t slow in
  let srv = F.spawn_channel_server t in
  let cl = F.connect ~client_spin:0 srv in
  let args = Array.make 8 0 in
  let t0 = Unix.gettimeofday () in
  let rc = F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 5) args in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "stalled reply expires" Ipc_intf.Errc.timed_out rc;
  Alcotest.(check int) "rc slot written too" Ipc_intf.Errc.timed_out args.(7);
  Alcotest.(check bool) "woke near the deadline, not the reply"
    true
    (dt >= 0.005 && dt < 0.25);
  Alcotest.(check int) "counted" 1 (F.client_timeouts cl);
  (* The abandoned cell comes back through the reclaim stack, and the
     channel keeps working afterwards. *)
  Atomic.set stall false;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while F.client_slab_reclaimed cl < 1 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "abandoned cell reclaimed exactly once" 1
    (F.client_slab_reclaimed cl);
  args.(0) <- 5;
  args.(1) <- 2;
  Alcotest.(check int) "channel alive after a timeout" Ipc_intf.Errc.ok
    (F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 10_000) args);
  Alcotest.(check int) "later reply intact" 7 args.(0);
  F.shutdown_channel_server srv

(* A dead shard never replies and never rings: the timed park's clock is
   the only thing that can wake the caller.  Watchdogged — before the
   timed park, this scenario relied on the caller's own spin budget and
   could burn a full timeslice per nap on a loaded host. *)
let test_deadline_wakes_on_server_death () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let ep = F.register t adder in
  let srv = F.spawn_channel_server t in
  let done_ = Atomic.make false in
  let aborted = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get done_) then Atomic.set aborted true)
  in
  F.kill_shard srv ~shard:0;
  let cl = F.connect ~client_spin:0 srv in
  let args = Array.make 8 0 in
  let t0 = Unix.gettimeofday () in
  let rc = F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 50) args in
  let dt = Unix.gettimeofday () -. t0 in
  Atomic.set done_ true;
  Domain.join watchdog;
  Alcotest.(check bool) "watchdog never fired" false (Atomic.get aborted);
  Alcotest.(check int) "dead shard call times out" Ipc_intf.Errc.timed_out rc;
  Alcotest.(check bool)
    "the clock woke the caller (napping, not spinning to 30s)" true
    (dt >= 0.05 && dt < 10.0);
  F.shutdown_channel_server srv

(* The whole timed wait is integer-only C stubs (clock_gettime,
   sched_yield, nanosleep) — a deadline call that parks and completes
   warm must allocate nothing, exactly like the undeadlined paths. *)
let test_deadline_park_zero_alloc () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let ep = F.register t adder in
  let srv = F.spawn_channel_server t in
  let cl = F.connect ~client_spin:0 srv in
  let args = Array.make 8 0 in
  let calls = 300 in
  let loop () =
    for i = 1 to calls do
      args.(0) <- i;
      args.(1) <- 1;
      ignore (F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 10_000) args)
    done
  in
  loop ();
  (* warm-up: slab/ring steady state *)
  let delta = minor_words_delta loop in
  Alcotest.(check (float 0.0))
    "warm parked deadline calls allocate zero minor words" 0.0 delta;
  Alcotest.(check int) "no timeouts during the pin" 0 (F.client_timeouts cl);
  F.shutdown_channel_server srv

(* Out-of-range and unbound IDs answer [no_entry] on both channel paths,
   on a multi-shard server too: a negative ID must not index a shard
   that does not exist. *)
let test_channel_no_entry () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let ep = F.register t adder in
  let srv = F.spawn_channel_server ~shards:2 t in
  let cl = F.connect srv in
  let args = Array.make 8 0 in
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "inline ID %d" id)
        Ipc_intf.Errc.no_entry
        (F.channel_call cl ~ep:id args);
      Alcotest.(check int)
        (Printf.sprintf "queued ID %d" id)
        Ipc_intf.Errc.no_entry
        (F.channel_call_deadline cl ~ep:id ~deadline:max_int args))
    [ -1; -2; min_int; ep + 1; F.max_entry_points ];
  Alcotest.(check int) "the bound ID still serves" Ipc_intf.Errc.ok
    (F.channel_call cl ~ep args);
  F.shutdown_channel_server srv

(* A deadline is absolute monotonic time.  A call bounded 2 ms from now,
   against a handler held shut on a gate, must time out while the gate
   is still shut; read as a budget, the same number is uptime + 2 ms and
   the call answers only once the gate opens.  After a 1 s watchdog the
   gate opens anyway, so a failing run still ends. *)
let test_channel_absolute_deadline () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let gate = Atomic.make false in
  let ep =
    F.register t (fun _ a ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        a.(0) <- 1)
  in
  let srv = F.spawn_channel_server t in
  let answered = Atomic.make false in
  let caller =
    Domain.spawn (fun () ->
        let cl = F.connect srv in
        let args = Array.make 8 0 in
        let rc = F.channel_call_deadline cl ~ep ~deadline:(ms_from_now 2) args in
        Atomic.set answered true;
        rc)
  in
  let watchdog = Runtime.Doorbell.now_ns () + 1_000_000_000 in
  while
    (not (Atomic.get answered)) && Runtime.Doorbell.now_ns () < watchdog
  do
    Runtime.Doorbell.nap_ns 1_000_000
  done;
  let before_gate = Atomic.get answered in
  Atomic.set gate true;
  let rc = Domain.join caller in
  F.shutdown_channel_server srv;
  Alcotest.(check bool) "answered before the gate opened" true before_gate;
  Alcotest.(check int) "timed out" Ipc_intf.Errc.timed_out rc

(* --- lifecycle under fire -------------------------------------------------- *)

(* Soft-kill an entry point while client domains hammer it.  The
   acceptance protocol (stripe increment, state recheck) must partition
   every attempt cleanly: accepted calls run the handler exactly once and
   answer [ok] with their result intact; rejected calls answer the
   documented [killed]/[no_entry] codes without touching the arguments. *)
let test_soft_kill_under_fire () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let executed = Atomic.make 0 in
  let handler : F.handler =
   fun _ctx args ->
    Atomic.incr executed;
    args.(0) <- args.(0) + 1;
    args.(F.arg_words - 1) <- 0
  in
  let ep = F.register t handler in
  let clients = 4 and per = 20_000 in
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            let args = Array.make F.arg_words 0 in
            let ok = ref 0 and rejected = ref 0 in
            for i = 1 to per do
              args.(0) <- i;
              let rc = F.call t ~ep args in
              if rc = Ipc_intf.Errc.ok then begin
                if args.(0) <> i + 1 then
                  Alcotest.fail "accepted call lost its result";
                incr ok
              end
              else if rc = Ipc_intf.Errc.killed || rc = Ipc_intf.Errc.no_entry
              then incr rejected
              else Alcotest.failf "undocumented return code %d" rc
            done;
            (!ok, !rejected)))
  in
  while Atomic.get executed < 1_000 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "kill accepted" Ipc_intf.Errc.ok (F.soft_kill t ~ep);
  let totals = List.map Domain.join domains in
  let ok_total = List.fold_left (fun a (o, _) -> a + o) 0 totals in
  let rej_total = List.fold_left (fun a (_, r) -> a + r) 0 totals in
  Alcotest.(check int) "accepted + rejected = attempts" (clients * per)
    (ok_total + rej_total);
  Alcotest.(check int) "every accepted call ran exactly once" ok_total
    (Atomic.get executed);
  Alcotest.(check bool) "kill raced real traffic" true (ok_total >= 1_000);
  Alcotest.(check int) "drained" 0 (F.in_flight t ~ep);
  Alcotest.(check bool) "slot freed once drained" true
    (F.lifecycle t ~ep = None)

(* Hard kill flips the return code of calls caught in flight — but only
   after the handler has run to completion, so its side effects stand.
   Deterministic single-domain version: the handler hard-kills its own
   entry point. *)
let test_hard_kill_flips_rc () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let cell = ref None in
  let handler : F.handler =
   fun _ctx args ->
    args.(0) <- 99;
    args.(F.arg_words - 1) <- 0;
    ignore (F.hard_kill t ~ep:(Option.get !cell))
  in
  let ep = F.register t handler in
  cell := Some ep;
  let args = Array.make F.arg_words 0 in
  Alcotest.(check int) "aborted call answers killed" Ipc_intf.Errc.killed
    (F.call t ~ep args);
  Alcotest.(check int) "completed work is not rolled back" 99 args.(0);
  Alcotest.(check bool) "slot freed after drain" true
    (F.lifecycle t ~ep = None);
  Alcotest.(check int) "stale handle rejected" Ipc_intf.Errc.no_entry
    (F.call t ~ep args)

(* Concurrent flavour: with the handler adding 1, every execution is
   observable, so [executed = ok + flipped] must hold exactly — a call
   the handler ran answers either [ok] (retired before the kill landed)
   or [killed] with its mutation intact (the flip). *)
let test_hard_kill_under_fire () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let executed = Atomic.make 0 in
  let handler : F.handler =
   fun _ctx args ->
    Atomic.incr executed;
    args.(0) <- args.(0) + 1;
    args.(F.arg_words - 1) <- 0
  in
  let ep = F.register t handler in
  let clients = 4 and per = 20_000 in
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            let args = Array.make F.arg_words 0 in
            let ok = ref 0 and flipped = ref 0 and rejected = ref 0 in
            for i = 1 to per do
              args.(0) <- i;
              let rc = F.call t ~ep args in
              if rc = Ipc_intf.Errc.ok then begin
                if args.(0) <> i + 1 then
                  Alcotest.fail "accepted call lost its result";
                incr ok
              end
              else if rc = Ipc_intf.Errc.killed then begin
                if args.(0) = i + 1 then incr flipped
                else if args.(0) = i then incr rejected
                else Alcotest.fail "rejected call mangled its arguments"
              end
              else if rc = Ipc_intf.Errc.no_entry then incr rejected
              else Alcotest.failf "undocumented return code %d" rc
            done;
            (!ok, !flipped, !rejected)))
  in
  while Atomic.get executed < 1_000 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "kill accepted" Ipc_intf.Errc.ok (F.hard_kill t ~ep);
  let totals = List.map Domain.join domains in
  let sum f = List.fold_left (fun a x -> a + f x) 0 totals in
  let ok_total = sum (fun (o, _, _) -> o) in
  let flipped_total = sum (fun (_, f, _) -> f) in
  let rej_total = sum (fun (_, _, r) -> r) in
  Alcotest.(check int) "every attempt accounted for" (clients * per)
    (ok_total + flipped_total + rej_total);
  Alcotest.(check int) "every execution answered ok or flipped-killed"
    (Atomic.get executed)
    (ok_total + flipped_total);
  Alcotest.(check bool) "slot freed once drained" true
    (F.lifecycle t ~ep = None)

(* Shutdown must quiesce, not abandon: calls that already passed the
   draining gate complete with their results; calls arriving after it
   answer [killed]; and the counters reconcile exactly once the shards
   have been joined. *)
let test_shutdown_quiesces () =
  let module F = Runtime.Fastcall in
  let t = F.create () in
  let ok_adder : F.handler =
   fun _ctx args ->
    args.(0) <- args.(0) + args.(1);
    args.(F.arg_words - 1) <- 0
  in
  let ep = F.register t ok_adder in
  let srv = F.spawn_channel_server t in
  let started = Atomic.make 0 in
  let clients = 3 and per = 5_000 in
  let domains =
    List.init clients (fun p ->
        Domain.spawn (fun () ->
            let cl = F.connect srv in
            let args = Array.make 8 0 in
            let ok = ref 0 and rejected = ref 0 in
            for i = 1 to per do
              args.(0) <- i;
              args.(1) <- p;
              Atomic.incr started;
              let rc = F.channel_call cl ~ep args in
              if rc = Ipc_intf.Errc.ok then begin
                if args.(0) <> i + p then
                  Alcotest.fail "accepted channel call lost its result";
                incr ok
              end
              else if rc = Ipc_intf.Errc.killed then incr rejected
              else Alcotest.failf "undocumented return code %d" rc
            done;
            (F.client_inlined cl, !ok, !rejected)))
  in
  while Atomic.get started < 500 do
    Domain.cpu_relax ()
  done;
  F.shutdown_channel_server srv;
  let totals = List.map Domain.join domains in
  let sum f = List.fold_left (fun a x -> a + f x) 0 totals in
  let inlined = sum (fun (i, _, _) -> i) in
  let ok_total = sum (fun (_, o, _) -> o) in
  let rej_total = sum (fun (_, _, r) -> r) in
  Alcotest.(check int) "accepted + rejected = attempts" (clients * per)
    (ok_total + rej_total);
  Alcotest.(check int) "every accepted call was served exactly once"
    ok_total
    (inlined + F.channel_served srv);
  Alcotest.(check bool) "shutdown raced real traffic" true (ok_total >= 500);
  let late = F.connect srv in
  let args = Array.make 8 0 in
  Alcotest.(check int) "calls after shutdown answer killed"
    Ipc_intf.Errc.killed
    (F.channel_call late ~ep args)

(* A shut-down channel server must become garbage: nothing the table
   keeps — its kill-waker list in particular — may pin the server, its
   shards' doorbells or its clients' segments.  Each round runs in its
   own non-inlined frame so no stack slot of the test keeps a server
   alive; a throwaway domain then takes over the last shard domain's
   slot, whose leftover state would otherwise still reference it. *)
let[@inline never] serve_one_round t ep collected =
  let module F = Runtime.Fastcall in
  let srv = F.spawn_channel_server t in
  Gc.finalise_last (fun () -> Atomic.incr collected) srv;
  let cl = F.connect srv in
  let args = Array.make 8 0 in
  args.(0) <- 40;
  args.(1) <- 2;
  Alcotest.(check int) "round trip rc" Ipc_intf.Errc.ok
    (F.channel_call cl ~ep args);
  Alcotest.(check int) "round trip result" 42 args.(0);
  F.shutdown_channel_server srv

let test_shutdown_releases_server () =
  let t = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register t adder in
  let collected = Atomic.make 0 in
  for _ = 1 to 5 do
    serve_one_round t ep collected
  done;
  Domain.join (Domain.spawn (fun () -> ()));
  Gc.full_major ();
  Alcotest.(check int) "every shut-down server was collected" 5
    (Atomic.get collected);
  (* the table itself stays live throughout: it is what leaked them *)
  Alcotest.(check int) "table still serves" 1
    (Runtime.Fastcall.registered (Sys.opaque_identity t))

(* --- control plane --------------------------------------------------------- *)

let triple : Runtime.Fastcall.handler =
 fun _ctx args ->
  args.(0) <- args.(0) * 3;
  args.(Runtime.Fastcall.arg_words - 1) <- 0

let quint : Runtime.Fastcall.handler =
 fun _ctx args ->
  args.(0) <- args.(0) * 5;
  args.(Runtime.Fastcall.arg_words - 1) <- 0

(* Full service lifecycle driven through the control-plane stubs with
   [via] left at the default: direct calls into well-known entry points
   0 and 1. *)
let test_control_plane_direct () =
  let module F = Runtime.Fastcall in
  let module C = Runtime.Control in
  let t = F.create () in
  let ctl = C.install t in
  let ep =
    match C.alloc_ep ctl ~principal:42 triple with
    | Ok id -> id
    | Error rc -> Alcotest.failf "alloc_ep failed with %d" rc
  in
  Alcotest.(check int) "publish" Ipc_intf.Errc.ok
    (C.publish ctl ~principal:42 ~name:"triple" ~ep);
  (match C.lookup ctl ~name:"triple" with
  | Ok id -> Alcotest.(check int) "lookup finds the binding" ep id
  | Error rc -> Alcotest.failf "lookup failed with %d" rc);
  Alcotest.(check bool) "lookup miss" true
    (C.lookup ctl ~name:"no-such-service" = Error Ipc_intf.Errc.no_entry);
  let args = Array.make F.arg_words 0 in
  args.(0) <- 7;
  Alcotest.(check int) "call rc" Ipc_intf.Errc.ok (F.call t ~ep args);
  Alcotest.(check int) "tripled" 21 args.(0);
  Alcotest.(check int) "exchange" Ipc_intf.Errc.ok
    (C.exchange ctl ~principal:42 ~ep quint);
  args.(0) <- 7;
  ignore (F.call t ~ep args);
  Alcotest.(check int) "exchanged routine live at the same id" 35 args.(0);
  Alcotest.(check int) "soft kill" Ipc_intf.Errc.ok
    (C.soft_kill ctl ~principal:42 ~ep);
  Alcotest.(check int) "call on a killed entry point" Ipc_intf.Errc.no_entry
    (F.call t ~ep args);
  Alcotest.(check int) "unpublish" Ipc_intf.Errc.ok
    (C.unpublish ctl ~principal:42 ~name:"triple")

(* Once the first grant lands, the ACL closes: Name-Server writes need
   [Write], manager operations need [Admin], lookups stay open. *)
let test_control_plane_auth () =
  let module F = Runtime.Fastcall in
  let module C = Runtime.Control in
  let t = F.create () in
  let ctl = C.install t in
  let ep =
    match C.alloc_ep ctl ~principal:1 triple with
    | Ok id -> id
    | Error rc -> Alcotest.failf "alloc_ep failed with %d" rc
  in
  Alcotest.(check int) "open ACL admits anyone" Ipc_intf.Errc.ok
    (C.publish ctl ~principal:1 ~name:"svc" ~ep);
  C.grant ctl ~principal:1 ~perms:[ Ipc_intf.Auth.Write; Ipc_intf.Auth.Admin ];
  Alcotest.(check bool) "unknown principal denied manager ops" true
    (C.soft_kill ctl ~principal:2 ~ep = Ipc_intf.Errc.denied);
  Alcotest.(check bool) "unknown principal denied naming writes" true
    (C.publish ctl ~principal:2 ~name:"svc2" ~ep = Ipc_intf.Errc.denied);
  (match C.lookup ctl ~name:"svc" with
  | Ok id -> Alcotest.(check int) "lookups stay open" ep id
  | Error rc -> Alcotest.failf "lookup failed with %d" rc);
  Alcotest.(check bool) "non-owner cannot unbind" true
    (C.unpublish ctl ~principal:2 ~name:"svc" = Ipc_intf.Errc.denied);
  Alcotest.(check int) "granted principal still works" Ipc_intf.Errc.ok
    (C.soft_kill ctl ~principal:1 ~ep)

(* Same stubs, reached cross-domain: [via] is a channel-path call, so
   naming and lifecycle requests travel through the shard like any other
   IPC — the paper's "system servers are ordinary servers". *)
let test_control_plane_channel_path () =
  let module F = Runtime.Fastcall in
  let module C = Runtime.Control in
  let t = F.create () in
  let ctl = C.install t in
  let srv = F.spawn_channel_server t in
  let cl = F.connect srv in
  let via = F.channel_call cl in
  let ep =
    match C.alloc_ep ~via ctl ~principal:9 triple with
    | Ok id -> id
    | Error rc -> Alcotest.failf "alloc_ep over the channel failed with %d" rc
  in
  Alcotest.(check int) "publish over the channel" Ipc_intf.Errc.ok
    (C.publish ~via ctl ~principal:9 ~name:"remote-triple" ~ep);
  (match C.lookup ~via ctl ~name:"remote-triple" with
  | Ok id -> Alcotest.(check int) "lookup over the channel" ep id
  | Error rc -> Alcotest.failf "lookup over the channel failed with %d" rc);
  let args = Array.make F.arg_words 0 in
  args.(0) <- 4;
  Alcotest.(check int) "service call over the channel" Ipc_intf.Errc.ok
    (F.channel_call cl ~ep args);
  Alcotest.(check int) "tripled" 12 args.(0);
  Alcotest.(check int) "exchange over the channel" Ipc_intf.Errc.ok
    (C.exchange ~via ctl ~principal:9 ~ep quint);
  args.(0) <- 4;
  ignore (F.channel_call cl ~ep args);
  Alcotest.(check int) "exchanged routine live" 20 args.(0);
  Alcotest.(check int) "hard kill over the channel" Ipc_intf.Errc.ok
    (C.hard_kill ~via ctl ~principal:9 ~ep);
  Alcotest.(check int) "killed service rejects channel calls"
    Ipc_intf.Errc.no_entry
    (F.channel_call cl ~ep args);
  F.shutdown_channel_server srv

(* The pool-sizing ops are the simulator's Frank's alone: a runtime
   handler runs on its caller's stack, so the runtime manager has no
   pool to size and answers both like any unknown op. *)
let test_control_pool_ops_sim_only () =
  let module F = Runtime.Fastcall in
  let module Wk = Ipc_intf.Wellknown in
  let t = F.create () in
  ignore (Runtime.Control.install t : Runtime.Control.t);
  List.iter
    (fun (name, op) ->
      let args = Array.make F.arg_words 0 in
      args.(1) <- 4;
      args.(7) <- Ipc_intf.Opfield.pack ~op ~flags:0;
      Alcotest.(check int) name Ipc_intf.Errc.bad_request
        (F.call t ~ep:Wk.resource_manager_ep args))
    [ ("grow pool", Wk.op_grow_pool); ("reclaim", Wk.op_reclaim) ]

(* A name outlives its service: publish a service, soft-kill it (idle,
   so its slot frees at once), let a second service take the freed slot,
   then look the name up and call what it answers.  The dead name must
   answer [no_entry] — the lookup and the call both touch only public
   APIs, and the second service's result must never appear. *)
let test_control_dead_name_stays_dead () =
  let module F = Runtime.Fastcall in
  let module C = Runtime.Control in
  let t = F.create () in
  let ctl = C.install t in
  let stamp v : F.handler = fun _ctx args -> args.(0) <- v in
  let first = F.register t (stamp 111) in
  Alcotest.(check int) "publish" Ipc_intf.Errc.ok
    (C.publish ctl ~principal:1 ~name:"svc" ~ep:first);
  Alcotest.(check int) "soft kill" Ipc_intf.Errc.ok
    (C.soft_kill ctl ~principal:1 ~ep:first);
  let second = F.register t (stamp 222) in
  Alcotest.(check int) "the second service takes the freed slot"
    (Ipc_intf.Wire_abi.handle_slot first)
    (Ipc_intf.Wire_abi.handle_slot second);
  let looked_up =
    match C.lookup ctl ~name:"svc" with
    | Ok ep -> ep
    | Error rc -> Alcotest.failf "lookup failed with %d" rc
  in
  let args = Array.make F.arg_words 0 in
  Alcotest.(check int) "the dead name answers no_entry" Ipc_intf.Errc.no_entry
    (F.call t ~ep:looked_up args);
  Alcotest.(check int) "the second service did not run" 0 args.(0);
  let args = Array.make F.arg_words 0 in
  Alcotest.(check int) "the second service still serves" Ipc_intf.Errc.ok
    (F.call t ~ep:second args);
  Alcotest.(check int) "under its own handle" 222 args.(0)

let channel_suites =
  [
    ( "runtime.request_slab",
      [
        Alcotest.test_case "LIFO reuse and growth" `Quick
          test_request_slab_lifo_reuse;
        Alcotest.test_case "release resets state" `Quick
          test_request_slab_release_resets;
      ] );
    ( "runtime.doorbell",
      [
        Alcotest.test_case "lock-free fast ring" `Quick test_doorbell_fast_ring;
        Alcotest.test_case "no sleep with work pending" `Quick
          test_doorbell_park_no_sleep_when_work_pending;
        Alcotest.test_case "park/unpark race (watchdogged)" `Quick
          test_doorbell_park_unpark_race;
        Alcotest.test_case "ringer dies after ring (watchdogged)" `Quick
          test_doorbell_ringer_dies;
        Alcotest.test_case "wake releases a parker (watchdogged)" `Quick
          test_doorbell_wake_releases_parker;
      ] );
    ( "runtime.channel",
      [
        Alcotest.test_case "inline path" `Quick test_channel_call_inline;
        Alcotest.test_case "queued path" `Quick test_channel_call_queued;
        Alcotest.test_case "4 producers x 1 shard" `Quick
          test_channel_stress_one_shard;
        Alcotest.test_case "3 producers x 2 shards" `Quick
          test_channel_stress_sharded;
        Alcotest.test_case "3 producers x 2 shards, queued" `Quick
          test_channel_stress_sharded_queued;
        Alcotest.test_case "one ring per queued call" `Quick
          test_channel_one_ring_per_queued_call;
        Alcotest.test_case "absolute deadline is honoured" `Quick
          test_channel_absolute_deadline;
        Alcotest.test_case "unbound IDs answer no_entry" `Quick
          test_channel_no_entry;
      ] );
    ( "runtime.zero_alloc",
      [
        Alcotest.test_case "local call" `Quick test_local_call_zero_alloc;
        Alcotest.test_case "channel call (both modes)" `Quick
          test_channel_call_zero_alloc;
        Alcotest.test_case "create is O(1)" `Quick test_create_is_o1;
        Alcotest.test_case "a dropped table leaves nothing behind" `Quick
          test_dropped_table_leaves_nothing;
      ] );
    ( "runtime.slots",
      [
        Alcotest.test_case "unbound ID" `Quick test_unbound_id;
        Alcotest.test_case "bind every ID" `Quick test_bind_every_id;
      ] );
    ( "runtime.deadline",
      [
        Alcotest.test_case "timed park wakes on reply" `Quick
          test_deadline_wakes_on_reply;
        Alcotest.test_case "timed park wakes on expiry" `Quick
          test_deadline_wakes_on_expiry;
        Alcotest.test_case "timed park wakes on server death (watchdogged)"
          `Quick test_deadline_wakes_on_server_death;
        Alcotest.test_case "parked deadline path zero-alloc" `Quick
          test_deadline_park_zero_alloc;
      ] );
    ( "runtime.lifecycle",
      [
        Alcotest.test_case "soft-kill under fire" `Quick
          test_soft_kill_under_fire;
        Alcotest.test_case "hard-kill flips in-flight rc" `Quick
          test_hard_kill_flips_rc;
        Alcotest.test_case "hard-kill under fire" `Quick
          test_hard_kill_under_fire;
        Alcotest.test_case "shutdown quiesces" `Quick test_shutdown_quiesces;
        Alcotest.test_case "shutdown releases the server" `Quick
          test_shutdown_releases_server;
      ] );
    ( "runtime.control",
      [
        Alcotest.test_case "direct path lifecycle" `Quick
          test_control_plane_direct;
        Alcotest.test_case "authentication" `Quick test_control_plane_auth;
        Alcotest.test_case "channel path lifecycle" `Quick
          test_control_plane_channel_path;
        Alcotest.test_case "pool ops are simulator-only" `Quick
          test_control_pool_ops_sim_only;
        Alcotest.test_case "a dead name never reaches the next tenant" `Quick
          test_control_dead_name_stays_dead;
      ] );
  ]

let extra_suites =
  [
    ( "runtime.striped_counter",
      [
        Alcotest.test_case "exact under domains" `Quick test_striped_counter_exact;
        Alcotest.test_case "add" `Quick test_striped_counter_add;
        Alcotest.test_case "power of two" `Quick test_striped_counter_pow2;
      ] );
    ( "runtime.padded_atomic",
      [
        Alcotest.test_case "one line per atomic" `Quick test_padded_atomic_size;
        Alcotest.test_case "behaves as Atomic" `Quick test_padded_atomic_ops;
      ] );
  ]

let suites = suites @ extra_suites @ channel_suites
