(* Determinism and model-based property tests.

   The whole simulator must be bit-for-bit reproducible: identical runs
   give identical clocks, counts and breakdowns.  And the costed pool /
   cache structures must agree with trivial reference models under
   arbitrary operation sequences. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- determinism --------------------------------------------------------- *)

let test_fig2_deterministic () =
  let cond =
    { Experiments.Fig2.target = Experiments.Fig2.To_user;
      hold_cd = false;
      flushed = false;
    }
  in
  let a = Experiments.Fig2.run cond and b = Experiments.Fig2.run cond in
  Alcotest.(check (float 0.0)) "identical totals" a.Experiments.Fig2.total_us
    b.Experiments.Fig2.total_us;
  List.iter2
    (fun (ca, ua) (cb, ub) ->
      Alcotest.(check bool) "same category" true (ca = cb);
      Alcotest.(check (float 0.0)) "identical category cost" ua ub)
    a.Experiments.Fig2.breakdown b.Experiments.Fig2.breakdown

let test_fig3_point_deterministic () =
  let run () =
    Experiments.Fig3.run_point ~horizon:(Sim.Time.ms 10)
      ~mode:Experiments.Fig3.Single_file ~cpus:3 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "identical call counts" a.Experiments.Fig3.calls
    b.Experiments.Fig3.calls;
  Alcotest.(check (float 0.0)) "identical throughput"
    a.Experiments.Fig3.throughput b.Experiments.Fig3.throughput

let test_engine_event_count_deterministic () =
  let run () =
    let kern = Kernel.create ~cpus:2 () in
    let ppc = Ppc.create kern in
    let server = Ppc.make_user_server ppc ~name:"s" () in
    let ep = Ppc.register_direct ppc ~server ~handler:Ppc.Null_server.echo in
    Ppc.prime ppc ~ep ~cpus:[ 0; 1 ];
    for cpu = 0 to 1 do
      let program = Kernel.new_program kern ~name:(Printf.sprintf "c%d" cpu) in
      let space =
        Kernel.new_user_space kern ~name:(Printf.sprintf "c%d" cpu) ~node:cpu
      in
      ignore
        (Kernel.spawn kern ~cpu ~name:"c" ~kind:Kernel.Process.Client ~program
           ~space (fun self ->
             for _ = 1 to 20 do
               ignore
                 (Ppc.call ppc ~client:self ~ep_id:(Ppc.Entry_point.id ep)
                    (Ppc.Reg_args.make ()))
             done))
    done;
    Kernel.run kern;
    (Sim.Engine.executed_events (Kernel.engine kern), Kernel.now kern)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "identical event streams" a b

(* --- model-based: CD pool vs reference LIFO ------------------------------- *)

let test_cd_pool_model () =
  let kern = Kernel.create ~cpus:1 () in
  let ppc = Ppc.create ~initial_cds_per_cpu:4 kern in
  let pool = Ppc.Engine.cd_pool (Ppc.engine ppc) 0 in
  let cpu = Machine.cpu (Kernel.machine kern) 0 in
  let rng = Sim.Rng.create ~seed:99 in
  (* Model: [free] is a LIFO of indices; [held] the indices we hold. *)
  let free = ref [] and held = ref [] in
  (* Drain the pool, keeping the CD handles, then push everything back to
     establish a known LIFO shared by pool and model. *)
  let handles = Hashtbl.create 8 in
  let rec drain () =
    match Ppc.Cd_pool.alloc cpu pool with
    | Some cd ->
        Hashtbl.replace handles (Ppc.Call_descriptor.index cd) cd;
        drain ()
    | None -> ()
  in
  drain ();
  Hashtbl.iter
    (fun idx cd ->
      Ppc.Cd_pool.release cpu pool cd;
      free := idx :: !free)
    handles;
  (* Random alloc/release walk checked against the model. *)
  for _ = 1 to 500 do
    if (Sim.Rng.bool rng && !free <> []) || !held = [] then begin
      match (Ppc.Cd_pool.alloc cpu pool, !free) with
      | Some cd, m :: rest ->
          Alcotest.(check int) "alloc pops model head" m
            (Ppc.Call_descriptor.index cd);
          free := rest;
          held := Ppc.Call_descriptor.index cd :: !held
      | None, [] -> ()
      | Some _, [] -> Alcotest.fail "pool gave a CD the model didn't have"
      | None, _ :: _ -> Alcotest.fail "pool empty but model wasn't"
    end
    else
      match !held with
      | idx :: rest ->
          Ppc.Cd_pool.release cpu pool (Hashtbl.find handles idx);
          held := rest;
          free := idx :: !free
      | [] -> ()
  done

(* --- model-based: cache vs reference set-associative model ---------------- *)

let test_cache_model () =
  let params = Machine.Cost_params.hector in
  let cache = Machine.Cache.create params in
  let rng = Sim.Rng.create ~seed:7 in
  (* Reference: per set, a list of (tag, lru_stamp), max 4 entries. *)
  let n_sets = Machine.Cache.n_sets cache in
  let sets = Array.make n_sets [] in
  let clock = ref 0 in
  for _ = 1 to 5000 do
    (* Cluster addresses so sets see real pressure. *)
    let addr = Sim.Rng.int rng 4096 * 16 in
    let set = addr / 16 mod n_sets in
    let tag = addr / 16 / n_sets in
    incr clock;
    let model_hit = List.mem_assoc tag sets.(set) in
    let actual_hit = Machine.Cache.contains cache addr in
    Alcotest.(check bool) "residency agrees with reference" model_hit actual_hit;
    ignore (Machine.Cache.access cache Machine.Cache.Load addr);
    let entries = List.remove_assoc tag sets.(set) in
    let entries = (tag, !clock) :: entries in
    let entries =
      if List.length entries > 4 then
        (* Drop the least recently used. *)
        let lru, _ =
          List.fold_left
            (fun (bt, bc) (t, c) -> if c < bc then (t, c) else (bt, bc))
            (List.hd entries) (List.tl entries)
        in
        List.remove_assoc lru entries
      else entries
    in
    sets.(set) <- entries
  done

(* Every experiment, run twice with the same (implicit) seed, rendered
   through its own pretty-printer: the reports must be byte-identical.
   Parameters are scaled down where the API allows, to keep this cheap. *)
let test_all_experiments_bit_identical () =
  let twice name render =
    Alcotest.(check string) (name ^ " bit-identical") (render ()) (render ())
  in
  let ms = Sim.Time.ms in
  twice "fig2" (fun () ->
      Fmt.str "%a" Experiments.Fig2.pp_result
        (Experiments.Fig2.run
           { Experiments.Fig2.target = Experiments.Fig2.To_kernel;
             hold_cd = true;
             flushed = false;
           }));
  twice "fig2_icache" (fun () ->
      Fmt.str "%a" Experiments.Fig2_icache.pp_result
        (Experiments.Fig2_icache.run ()));
  twice "fig3" (fun () ->
      Fmt.str "%a" Experiments.Fig3.pp_result
        (Experiments.Fig3.run ~max_cpus:3 ~horizon:(ms 8)
           ~mode:Experiments.Fig3.Single_file ()));
  twice "fig3_zipf" (fun () ->
      Fmt.str "%a" Experiments.Fig3_zipf.pp_result
        (Experiments.Fig3_zipf.run ~cpus:3 ~files:4 ~horizon:(ms 8)
           ~thetas:[ 0.0; 1.2 ] ()));
  twice "program_mix" (fun () ->
      Fmt.str "%a" Experiments.Program_mix.pp_result
        (Experiments.Program_mix.run ~cpus:3 ~horizon:(ms 8) ()));
  twice "latency_load" (fun () ->
      Fmt.str "%a" Experiments.Latency_load.pp_result
        ( Experiments.Latency_load.Different_files,
          Experiments.Latency_load.run ~cpus:3 ~horizon:(ms 8)
            ~thinks:[ 400.0; 60.0 ]
            ~mode:Experiments.Latency_load.Different_files () ));
  twice "ablate_holdcd" (fun () ->
      Fmt.str "%a" Experiments.Ablate_holdcd.pp_result
        (Experiments.Ablate_holdcd.run ~calls:50 ~server_counts:[ 1; 2 ] ()));
  twice "ablate_lrpc" (fun () ->
      Fmt.str "%a" Experiments.Ablate_lrpc.pp_result
        (Experiments.Ablate_lrpc.run ~max_cpus:3 ~horizon:(ms 8) ()));
  twice "ablate_async" (fun () ->
      Fmt.str "%a" Experiments.Ablate_async.pp_result
        (Experiments.Ablate_async.run ~blocks:4 ()));
  twice "ablate_msg" (fun () ->
      Fmt.str "%a" Experiments.Ablate_msg.pp_result
        (Experiments.Ablate_msg.run ()));
  twice "ablate_rwlock" (fun () ->
      Fmt.str "%a" Experiments.Ablate_rwlock.pp_result
        (Experiments.Ablate_rwlock.run ~max_cpus:3 ~horizon:(ms 8) ()));
  twice "ablate_compat" (fun () ->
      Fmt.str "%a" Experiments.Ablate_compat.pp_result
        (Experiments.Ablate_compat.run ()));
  twice "ablate_cluster" (fun () ->
      Fmt.str "%a" Experiments.Ablate_cluster.pp_result
        (Experiments.Ablate_cluster.run ~horizon:(ms 8) ()));
  twice "ablate_remote" (fun () ->
      Fmt.str "%a" Experiments.Ablate_remote.pp_result
        (Experiments.Ablate_remote.run ~cpus:3 ()));
  twice "ablate_migration" (fun () ->
      Fmt.str "%a" Experiments.Ablate_migration.pp_result
        (Experiments.Ablate_migration.run ()));
  twice "ablate_stack" (fun () ->
      Fmt.str "%a" Experiments.Ablate_stack.pp_result
        (Experiments.Ablate_stack.run ()));
  twice "uniproc_context" (fun () ->
      Fmt.str "%a" Experiments.Uniproc_context.pp_result
        (Experiments.Uniproc_context.run ()));
  twice "copy_sweep" (fun () ->
      Fmt.str "%a" Experiments.Copy_sweep.pp_result
        (Experiments.Copy_sweep.run ~sizes:[ 64; 4096; 65536 ] ()));
  (* The traffic report is a CI-diffed artifact: the *JSON bytes* must be
     identical across runs, not just the numbers. *)
  twice "traffic_study report json" (fun () ->
      Bench_json.to_string
        (Workload.Report.to_json
           (Experiments.Traffic_study.report
              (Experiments.Traffic_study.run ~cfg:Experiments.Traffic_study.slice
                 ()))))

let suites =
  [
    ( "determinism",
      [
        Alcotest.test_case "fig2 bit-identical" `Quick test_fig2_deterministic;
        Alcotest.test_case "fig3 point bit-identical" `Quick
          test_fig3_point_deterministic;
        Alcotest.test_case "event stream identical" `Quick
          test_engine_event_count_deterministic;
        Alcotest.test_case "all experiments bit-identical" `Quick
          test_all_experiments_bit_identical;
      ] );
    ( "model_based",
      [
        Alcotest.test_case "CD pool vs LIFO model" `Quick test_cd_pool_model;
        Alcotest.test_case "cache vs 4-way LRU model" `Quick test_cache_model;
      ] );
  ]
