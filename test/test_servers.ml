(* Tests for the servers: Bob the file server, the disk + device server,
   the exception server, and the counter server. *)

let spawn_client kern ~cpu ~name body =
  let program = Kernel.new_program kern ~name in
  let space = Kernel.new_user_space kern ~name ~node:cpu in
  Kernel.spawn kern ~cpu ~name ~kind:Kernel.Process.Client ~program ~space body

let grant_read bob program =
  Naming.Auth.grant (Servers.File_server.auth bob)
    ~program:(Kernel.Program.id program)
    ~perms:[ Naming.Auth.Read ]

(* --- file server -------------------------------------------------------- *)

let file_setup ?(cpus = 1) () =
  let kern = Kernel.create ~cpus () in
  let ppc = Ppc.create kern in
  let bob, ep = Servers.File_server.install ppc in
  Ppc.prime ppc ~ep ~cpus:(List.init cpus Fun.id);
  (kern, ppc, bob)

let test_get_set_length () =
  let kern, _ppc, bob = file_setup () in
  ignore (Servers.File_server.create_file bob ~file_id:7 ~length:123 ~node:0);
  let first = ref (Error 0) and second = ref (Error 0) in
  ignore
    (spawn_client kern ~cpu:0 ~name:"c" (fun self ->
         grant_read bob (Kernel.Process.program self);
         Naming.Auth.grant (Servers.File_server.auth bob)
           ~program:(Kernel.Program.id (Kernel.Process.program self))
           ~perms:[ Naming.Auth.Read; Naming.Auth.Write ];
         first := Servers.File_server.get_length bob ~client:self ~file_id:7;
         ignore (Servers.File_server.set_length bob ~client:self ~file_id:7 ~length:999);
         second := Servers.File_server.get_length bob ~client:self ~file_id:7));
  Kernel.run kern;
  Alcotest.(check bool) "initial length" true (!first = Ok 123);
  Alcotest.(check bool) "after set_length" true (!second = Ok 999)

let test_auth_denied_without_grant () =
  let kern, _ppc, bob = file_setup () in
  ignore (Servers.File_server.create_file bob ~file_id:1 ~length:10 ~node:0);
  let result = ref (Ok 0) in
  ignore
    (spawn_client kern ~cpu:0 ~name:"stranger" (fun self ->
         result := Servers.File_server.get_length bob ~client:self ~file_id:1));
  Kernel.run kern;
  Alcotest.(check bool) "denied" true (!result = Error Ppc.Reg_args.err_denied)

let test_missing_file () =
  let kern, _ppc, bob = file_setup () in
  let result = ref (Ok 0) in
  ignore
    (spawn_client kern ~cpu:0 ~name:"c" (fun self ->
         grant_read bob (Kernel.Process.program self);
         result := Servers.File_server.get_length bob ~client:self ~file_id:404));
  Kernel.run kern;
  Alcotest.(check bool) "bad request" true
    (!result = Error Ppc.Reg_args.err_bad_request)

let test_create_homes_locally () =
  let kern, _ppc, bob = file_setup ~cpus:2 () in
  ignore
    (spawn_client kern ~cpu:1 ~name:"creator" (fun self ->
         grant_read bob (Kernel.Process.program self);
         let rc =
           Servers.File_server.create_via_call bob ~client:self ~file_id:55
             ~length:10
         in
         Alcotest.(check int) "create ok" Ppc.Reg_args.ok rc));
  Kernel.run kern;
  match Servers.File_server.find_file bob ~file_id:55 with
  | None -> Alcotest.fail "file not created"
  | Some f ->
      Alcotest.(check int) "metadata homed on creator's CPU" 1
        f.Servers.File_server.home

let test_worker_init_once_per_worker () =
  let kern, _ppc, bob = file_setup () in
  ignore (Servers.File_server.create_file bob ~file_id:1 ~length:10 ~node:0);
  ignore
    (spawn_client kern ~cpu:0 ~name:"c" (fun self ->
         grant_read bob (Kernel.Process.program self);
         for _ = 1 to 20 do
           ignore (Servers.File_server.get_length bob ~client:self ~file_id:1)
         done));
  Kernel.run kern;
  Alcotest.(check int) "one worker init for 20 calls" 1
    (Servers.File_server.worker_inits bob);
  Alcotest.(check int) "20 GetLengths" 20 (Servers.File_server.get_length_calls bob)

let test_single_file_lock_contends () =
  let kern, _ppc, bob = file_setup ~cpus:4 () in
  ignore (Servers.File_server.create_file bob ~file_id:0 ~length:10 ~node:0);
  for cpu = 0 to 3 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "c%d" cpu) (fun self ->
           grant_read bob (Kernel.Process.program self);
           for _ = 1 to 25 do
             ignore (Servers.File_server.get_length bob ~client:self ~file_id:0)
           done))
  done;
  Kernel.run kern;
  let file = Option.get (Servers.File_server.find_file bob ~file_id:0) in
  Alcotest.(check int) "100 acquisitions" 100
    (Kernel.Spinlock.acquisitions file.Servers.File_server.lock);
  Alcotest.(check bool) "lock was contended" true
    (Kernel.Spinlock.contended_acquisitions file.Servers.File_server.lock > 0)

let test_different_files_do_not_contend () =
  let kern, _ppc, bob = file_setup ~cpus:4 () in
  for i = 0 to 3 do
    ignore (Servers.File_server.create_file bob ~file_id:i ~length:10 ~node:i)
  done;
  for cpu = 0 to 3 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "c%d" cpu) (fun self ->
           grant_read bob (Kernel.Process.program self);
           for _ = 1 to 25 do
             ignore (Servers.File_server.get_length bob ~client:self ~file_id:cpu)
           done))
  done;
  Kernel.run kern;
  for i = 0 to 3 do
    let file = Option.get (Servers.File_server.find_file bob ~file_id:i) in
    Alcotest.(check int)
      (Printf.sprintf "file %d uncontended" i)
      0
      (Kernel.Spinlock.contended_acquisitions file.Servers.File_server.lock)
  done

(* --- disk + device server ----------------------------------------------- *)

let dev_setup () =
  let kern = Kernel.create ~cpus:2 () in
  let ppc = Ppc.create kern in
  let disk =
    Servers.Disk.create kern ~owner_cpu:1 ~vector:9 ~latency:(Sim.Time.us 200)
  in
  let dev = Servers.Device_server.install ppc ~disk in
  (kern, disk, dev)

let test_read_block_completes () =
  let kern, disk, dev = dev_setup () in
  let result = ref (Error 0) in
  ignore
    (spawn_client kern ~cpu:0 ~name:"reader" (fun self ->
         result := Servers.Device_server.read_block dev ~client:self ~block:5));
  Kernel.run kern;
  (match !result with
  | Ok req_id -> Alcotest.(check bool) "request id positive" true (req_id > 0)
  | Error rc -> Alcotest.failf "read failed rc=%d" rc);
  Alcotest.(check int) "disk serviced one" 1 (Servers.Disk.serviced disk);
  Alcotest.(check int) "no outstanding" 0 (Servers.Device_server.outstanding dev);
  Alcotest.(check bool) "took at least the disk latency" true
    Sim.Time.(Sim.Time.us 200 <= Kernel.now kern)

let test_reads_queue_when_busy () =
  let kern, disk, dev = dev_setup () in
  let done_ = ref 0 in
  for i = 0 to 2 do
    ignore
      (spawn_client kern ~cpu:0 ~name:(Printf.sprintf "r%d" i) (fun self ->
           match Servers.Device_server.read_block dev ~client:self ~block:i with
           | Ok _ -> incr done_
           | Error rc -> Alcotest.failf "read failed rc=%d" rc))
  done;
  Kernel.run kern;
  Alcotest.(check int) "all reads completed" 3 !done_;
  Alcotest.(check int) "disk serviced all" 3 (Servers.Disk.serviced disk);
  (* Requests were serialised by the single disk: at least 3 latencies. *)
  Alcotest.(check bool) "serialised service" true
    Sim.Time.(Sim.Time.us 600 <= Kernel.now kern)

let test_prefetch_on_complete () =
  let kern, _disk, dev = dev_setup () in
  let fired = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"prefetcher" (fun self ->
         for b = 1 to 4 do
           Servers.Device_server.prefetch_block dev ~client:self ~block:b
             ~on_complete:(fun _ -> incr fired)
             ()
         done));
  Kernel.run kern;
  Alcotest.(check int) "all completions fired" 4 !fired

(* --- exception server ---------------------------------------------------- *)

let test_exception_upcall () =
  let kern = Kernel.create ~cpus:2 () in
  let ppc = Ppc.create kern in
  let es = Servers.Exception_server.install ppc in
  Servers.Exception_server.notify es ~cpu_index:1 ~program:42 ~code:11 ~detail:7;
  Servers.Exception_server.notify es ~cpu_index:0 ~program:42 ~code:12 ~detail:8;
  Kernel.run kern;
  Alcotest.(check int) "two events" 2 (Servers.Exception_server.delivered es);
  (* Upcalls land on different CPUs; completion order is timing-dependent,
     so compare the code set. *)
  let codes =
    List.sort Int.compare
      (List.map
         (fun e -> e.Servers.Exception_server.code)
         (Servers.Exception_server.events es))
  in
  Alcotest.(check (list int)) "both codes recorded" [ 11; 12 ] codes

(* --- counter server ------------------------------------------------------ *)

let test_counter_sharded () =
  let kern = Kernel.create ~cpus:3 () in
  let ppc = Ppc.create kern in
  let counter = Servers.Counter_server.install ppc ~mode:Servers.Counter_server.Sharded in
  let read_back = ref (Error 0) in
  for cpu = 0 to 2 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "inc%d" cpu) (fun self ->
           for _ = 1 to 10 do
             ignore (Servers.Counter_server.increment counter ~client:self)
           done))
  done;
  ignore
    (spawn_client kern ~cpu:0 ~name:"reader" (fun self ->
         (* Runs after inc0 on cpu 0; other CPUs race ahead in sim time,
            so read at the end instead. *)
         ignore self));
  Kernel.run kern;
  Alcotest.(check int) "shards sum to total" 30
    (Servers.Counter_server.value counter);
  let kern2 = Kernel.create ~cpus:1 () in
  let ppc2 = Ppc.create kern2 in
  let c2 = Servers.Counter_server.install ppc2 ~mode:Servers.Counter_server.Sharded in
  ignore
    (spawn_client kern2 ~cpu:0 ~name:"rw" (fun self ->
         ignore (Servers.Counter_server.increment c2 ~client:self);
         ignore (Servers.Counter_server.increment c2 ~client:self);
         read_back := Servers.Counter_server.read c2 ~client:self));
  Kernel.run kern2;
  Alcotest.(check bool) "read gathers shards" true (!read_back = Ok 2)

let test_counter_global_lock () =
  let kern = Kernel.create ~cpus:2 () in
  let ppc = Ppc.create kern in
  let counter =
    Servers.Counter_server.install ppc ~mode:Servers.Counter_server.Global_lock
  in
  for cpu = 0 to 1 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "inc%d" cpu) (fun self ->
           for _ = 1 to 15 do
             ignore (Servers.Counter_server.increment counter ~client:self)
           done))
  done;
  Kernel.run kern;
  Alcotest.(check int) "global count exact under contention" 30
    (Servers.Counter_server.value counter)

let suites =
  [
    ( "servers.file",
      [
        Alcotest.test_case "get/set length" `Quick test_get_set_length;
        Alcotest.test_case "auth enforced" `Quick test_auth_denied_without_grant;
        Alcotest.test_case "missing file" `Quick test_missing_file;
        Alcotest.test_case "create homes locally" `Quick
          test_create_homes_locally;
        Alcotest.test_case "worker init once" `Quick test_worker_init_once_per_worker;
        Alcotest.test_case "single file contends" `Quick
          test_single_file_lock_contends;
        Alcotest.test_case "different files don't" `Quick
          test_different_files_do_not_contend;
      ] );
    ( "servers.device",
      [
        Alcotest.test_case "read completes via interrupt PPC" `Quick
          test_read_block_completes;
        Alcotest.test_case "busy disk queues" `Quick test_reads_queue_when_busy;
        Alcotest.test_case "prefetch completions" `Quick test_prefetch_on_complete;
      ] );
    ( "servers.exception",
      [ Alcotest.test_case "upcall notifications" `Quick test_exception_upcall ] );
    ( "servers.counter",
      [
        Alcotest.test_case "sharded" `Quick test_counter_sharded;
        Alcotest.test_case "global lock exact" `Quick test_counter_global_lock;
      ] );
  ]

(* --- console server -------------------------------------------------------- *)

let test_console_read_line () =
  let kern = Kernel.create ~cpus:2 () in
  let ppc = Ppc.create kern in
  let console = Servers.Console.install ppc in
  Servers.Console.script_input console ~start:(Sim.Time.us 50) ~gap:10_000
    "hello\nworld\n";
  let got = ref [] in
  ignore
    (spawn_client kern ~cpu:1 ~name:"shell" (fun self ->
         for _ = 1 to 2 do
           match Servers.Console.read_line console ~client:self with
           | Ok line -> got := line :: !got
           | Error rc -> Alcotest.failf "read_line failed rc=%d" rc
         done));
  Kernel.run kern;
  Alcotest.(check (list string)) "lines in arrival order" [ "hello"; "world" ]
    (List.rev !got);
  Alcotest.(check int) "all chars received" 12
    (Servers.Console.chars_received console);
  Alcotest.(check int) "each char echoed" 12 (Servers.Console.echoes console);
  Alcotest.(check int) "no reader left behind" 0
    (Servers.Console.waiting_readers console)

let test_console_reader_blocks_until_newline () =
  let kern = Kernel.create ~cpus:1 () in
  let ppc = Ppc.create kern in
  let console = Servers.Console.install ppc in
  (* Characters but no newline: the reader must still be blocked when the
     simulation goes quiet. *)
  Servers.Console.script_input console ~start:(Sim.Time.us 10) ~gap:1_000 "abc";
  let completed = ref false in
  ignore
    (spawn_client kern ~cpu:0 ~name:"shell" (fun self ->
         ignore (Servers.Console.read_line console ~client:self);
         completed := true));
  Kernel.run kern;
  Alcotest.(check bool) "read has not completed" false !completed;
  Alcotest.(check int) "one blocked reader" 1
    (Servers.Console.waiting_readers console);
  (* Now the newline arrives. *)
  Servers.Console.inject_char console '\n';
  Kernel.run kern;
  Alcotest.(check bool) "read completed after newline" true !completed

let test_console_write_costs_per_char () =
  let kern = Kernel.create ~cpus:1 () in
  let ppc = Ppc.create kern in
  let console = Servers.Console.install ppc in
  let cpu = Machine.cpu (Kernel.machine kern) 0 in
  let short = ref 0 and long = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"writer" (fun self ->
         ignore (Servers.Console.write console ~client:self ~tag:0 ~len:4);
         let c0 = Machine.Cpu.cycles cpu in
         ignore (Servers.Console.write console ~client:self ~tag:1 ~len:4);
         short := Machine.Cpu.cycles cpu - c0;
         let c1 = Machine.Cpu.cycles cpu in
         ignore (Servers.Console.write console ~client:self ~tag:2 ~len:64);
         long := Machine.Cpu.cycles cpu - c1));
  Kernel.run kern;
  Alcotest.(check int) "chars written" 72 (Servers.Console.chars_written console);
  Alcotest.(check bool)
    (Printf.sprintf "64 chars cost more than 4 (%d vs %d)" !long !short)
    true
    (!long > !short + 500)

let console_suite =
  ( "servers.console",
    [
      Alcotest.test_case "scripted input read" `Quick test_console_read_line;
      Alcotest.test_case "reader blocks until newline" `Quick
        test_console_reader_blocks_until_newline;
      Alcotest.test_case "write costs per char" `Quick
        test_console_write_costs_per_char;
    ] )

let suites = suites @ [ console_suite ]

let test_handler_fault_reaches_exception_server () =
  let kern = Kernel.create ~cpus:1 () in
  let ppc = Ppc.create kern in
  let es = Servers.Exception_server.install ppc in
  Servers.Exception_server.attach_to_faults es;
  (* A buggy server: wild stack access under the Single_page policy. *)
  let server = Ppc.make_user_server ppc ~name:"buggy" () in
  let ep =
    Ppc.register_direct ppc ~server
      ~handler:(Ppc.Null_server.deep_handler ~pages:3 ())
  in
  Ppc.prime ppc ~ep ~cpus:[ 0 ];
  let rc = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"victim" (fun self ->
         rc :=
           Ppc.call ppc ~client:self ~ep_id:(Ppc.Entry_point.id ep)
             (Ppc.Reg_args.make ())));
  Kernel.run kern;
  Alcotest.(check int) "caller aborted" Ppc.Reg_args.err_killed !rc;
  Alcotest.(check int) "fault reported" 1 (Servers.Exception_server.delivered es);
  match Servers.Exception_server.events es with
  | [ e ] ->
      Alcotest.(check int) "code 1 = handler fault" 1
        e.Servers.Exception_server.code;
      Alcotest.(check int) "faulting ep recorded" (Ppc.Entry_point.id ep)
        e.Servers.Exception_server.detail
  | _ -> Alcotest.fail "expected exactly one event"

let fault_report_suite =
  ( "servers.exception_faults",
    [
      Alcotest.test_case "handler faults reach the exception server" `Quick
        test_handler_fault_reaches_exception_server;
    ] )

let suites = suites @ [ fault_report_suite ]

(* --- block cache -------------------------------------------------------- *)

let cache_setup ?(capacity = 4) () =
  let kern = Kernel.create ~cpus:2 () in
  let ppc = Ppc.create kern in
  let disk =
    Servers.Disk.create kern ~owner_cpu:1 ~vector:9 ~latency:(Sim.Time.us 250)
  in
  let dev = Servers.Device_server.install ppc ~disk in
  let cache = Servers.Block_cache.install ~capacity ppc ~dev in
  (kern, cache)

let test_block_cache_hit_after_miss () =
  let kern, cache = cache_setup () in
  let first = ref None and second = ref None in
  let t_miss = ref Sim.Time.zero and t_hit = ref Sim.Time.zero in
  ignore
    (spawn_client kern ~cpu:0 ~name:"reader" (fun self ->
         let t0 = Kernel.now kern in
         first := Some (Servers.Block_cache.get_block cache ~client:self ~block:7);
         t_miss := Sim.Time.sub (Kernel.now kern) t0;
         let t1 = Kernel.now kern in
         second := Some (Servers.Block_cache.get_block cache ~client:self ~block:7);
         t_hit := Sim.Time.sub (Kernel.now kern) t1));
  Kernel.run kern;
  (match (!first, !second) with
  | Some (Ok (buf1, hit1)), Some (Ok (buf2, hit2)) ->
      Alcotest.(check bool) "first was a miss" false hit1;
      Alcotest.(check bool) "second was a hit" true hit2;
      Alcotest.(check int) "same buffer" buf1 buf2
  | _ -> Alcotest.fail "calls failed");
  Alcotest.(check int) "one miss one hit" 1 (Servers.Block_cache.hits cache);
  Alcotest.(check bool)
    (Printf.sprintf "miss (%.0f us) dominated by disk; hit (%.0f us) fast"
       (Sim.Time.to_us !t_miss) (Sim.Time.to_us !t_hit))
    true
    (Sim.Time.to_us !t_miss > 250.0 && Sim.Time.to_us !t_hit < 60.0)

let test_block_cache_lru_eviction () =
  let kern, cache = cache_setup ~capacity:2 () in
  ignore
    (spawn_client kern ~cpu:0 ~name:"reader" (fun self ->
         let read b =
           ignore (Servers.Block_cache.get_block cache ~client:self ~block:b)
         in
         read 1;
         read 2;
         (* Touch 1 so 2 becomes LRU, then force an eviction. *)
         read 1;
         read 3;
         (* 1 must still be cached; 2 must have been evicted. *)
         read 1;
         read 2));
  Kernel.run kern;
  Alcotest.(check int) "one eviction at capacity, one refetch of 2" 2
    (Servers.Block_cache.evictions cache);
  Alcotest.(check int) "cache holds capacity" 2
    (Servers.Block_cache.cached_blocks cache);
  Alcotest.(check int) "misses: 1,2,3 and re-2" 4
    (Servers.Block_cache.misses cache)

let test_block_cache_concurrent_hits_share () =
  let kern, cache = cache_setup () in
  (* Warm block 5, then hammer it from two CPUs: hits take the read lock
     and never write-contend. *)
  ignore
    (spawn_client kern ~cpu:0 ~name:"warm" (fun self ->
         ignore (Servers.Block_cache.get_block cache ~client:self ~block:5)));
  Kernel.run kern;
  let done_ = ref 0 in
  for cpu = 0 to 1 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "r%d" cpu) (fun self ->
           for _ = 1 to 20 do
             match Servers.Block_cache.get_block cache ~client:self ~block:5 with
             | Ok (_, true) -> ()
             | Ok (_, false) -> Alcotest.fail "unexpected miss"
             | Error rc -> Alcotest.failf "get_block failed rc=%d" rc
           done;
           incr done_))
  done;
  Kernel.run kern;
  Alcotest.(check int) "both clients done" 2 !done_;
  Alcotest.(check int) "40 hits" 41 (Servers.Block_cache.hits cache + 1)

let block_cache_suite =
  ( "servers.block_cache",
    [
      Alcotest.test_case "hit after miss" `Quick test_block_cache_hit_after_miss;
      Alcotest.test_case "LRU eviction" `Quick test_block_cache_lru_eviction;
      Alcotest.test_case "concurrent hits share" `Quick
        test_block_cache_concurrent_hits_share;
    ] )

let suites = suites @ [ block_cache_suite ]

(* Two CPUs miss the same block concurrently: the write-lock re-check
   prevents a double insert. *)
let test_block_cache_concurrent_miss_single_insert () =
  let kern, cache = cache_setup () in
  let results = ref [] in
  for cpu = 0 to 1 do
    ignore
      (spawn_client kern ~cpu ~name:(Printf.sprintf "m%d" cpu) (fun self ->
           match Servers.Block_cache.get_block cache ~client:self ~block:9 with
           | Ok (buf, _) -> results := buf :: !results
           | Error rc -> Alcotest.failf "get_block failed rc=%d" rc))
  done;
  Kernel.run kern;
  (match !results with
  | [ a; b ] -> Alcotest.(check int) "both got the same buffer" a b
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "one cached entry" 1
    (Servers.Block_cache.cached_blocks cache);
  Alcotest.(check int) "no eviction" 0 (Servers.Block_cache.evictions cache)

let block_cache_race_suite =
  ( "servers.block_cache_race",
    [
      Alcotest.test_case "concurrent miss inserts once" `Quick
        test_block_cache_concurrent_miss_single_insert;
    ] )

let suites = suites @ [ block_cache_race_suite ]
