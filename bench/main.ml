(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations documented in DESIGN.md.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig2      # one experiment
     dune exec bench/main.exe -- --quick   # smaller horizons/sweeps

   Experiments (see DESIGN.md section 3):
     fig2   Figure 2   round-trip PPC cost breakdown (8 conditions)
     fig3   Figure 3   GetLength throughput scaling, 1..16 CPUs (+ plot)
     t3     T-text-3   worst-case caches (dirty D + cold I)
     f3b               Zipf file popularity between the Figure-3 extremes
     f3c               request origin: programs vs parallel program
     l1                GetLength latency under open-loop load
     intro  T-intro    uniprocessor null-RPC context table
     a1..a9            design-choice ablations (hold-CD, LRPC, async,
                       message passing, stack policies, RW locks,
                       compat transports, clustering)
     e1, e2            cross-processor PPC; migration vs technology
     bechamel          machine-time microbenchmarks (one subject per
                       experiment + the real multicore A5 measurements)

   The simulated results are deterministic; the Bechamel section measures
   real wall time on this host. *)

let section title = Fmt.pr "@.=== %s ===@.@." title

(* --- Figure 2 ----------------------------------------------------------- *)

let run_fig2 () =
  section "Figure 2: round-trip PPC time breakdown (simulated us)";
  let results = Experiments.Fig2.run_all () in
  (* Paper-style stacked columns: categories as rows, conditions as
     columns. *)
  let cols = results in
  Fmt.pr "%-22s" "";
  List.iter
    (fun r ->
      let c = r.Experiments.Fig2.condition in
      Fmt.pr "%10s"
        (Printf.sprintf "%s/%s"
           (match c.Experiments.Fig2.target with
           | Experiments.Fig2.To_user -> "u2u"
           | Experiments.Fig2.To_kernel -> "u2k")
           (if c.Experiments.Fig2.hold_cd then "hold" else "noCD")))
    cols;
  Fmt.pr "@.%-22s" "";
  List.iter
    (fun r ->
      Fmt.pr "%10s"
        (if r.Experiments.Fig2.condition.Experiments.Fig2.flushed then "flushed"
         else "primed"))
    cols;
  Fmt.pr "@.";
  List.iter
    (fun cat ->
      Fmt.pr "%-22s" (Machine.Account.name cat);
      List.iter
        (fun r ->
          let us =
            try List.assoc cat r.Experiments.Fig2.breakdown with Not_found -> 0.0
          in
          Fmt.pr "%10.2f" us)
        cols;
      Fmt.pr "@.")
    Machine.Account.all;
  Fmt.pr "%-22s" "TOTAL (measured)";
  List.iter (fun r -> Fmt.pr "%10.2f" r.Experiments.Fig2.total_us) cols;
  Fmt.pr "@.%-22s" "TOTAL (paper)";
  List.iter
    (fun r ->
      match r.Experiments.Fig2.paper_us with
      | Some p -> Fmt.pr "%10.1f" p
      | None -> Fmt.pr "%10s" "-")
    cols;
  Fmt.pr "@.%-22s" "error vs paper";
  List.iter
    (fun r ->
      match r.Experiments.Fig2.paper_us with
      | Some p ->
          Fmt.pr "%9.1f%%" (100.0 *. (r.Experiments.Fig2.total_us -. p) /. p)
      | None -> Fmt.pr "%10s" "-")
    cols;
  Fmt.pr "@."

(* --- Figure 3 ----------------------------------------------------------- *)

let run_fig3 ~quick () =
  section "Figure 3: GetLength throughput vs processors (simulated)";
  let max_cpus = 16 in
  let horizon = if quick then Sim.Time.ms 50 else Sim.Time.ms 200 in
  let diff =
    Experiments.Fig3.run ~max_cpus ~horizon
      ~mode:Experiments.Fig3.Different_files ()
  in
  let single =
    Experiments.Fig3.run ~max_cpus ~horizon ~mode:Experiments.Fig3.Single_file ()
  in
  Fmt.pr
    "  base GetLength latency: %.1f us (paper: 66 us; half IPC, half server)@.@."
    diff.Experiments.Fig3.base_call_us;
  Fmt.pr " CPUs   perfect     different-files   single-file@.";
  List.iter2
    (fun pd ps ->
      Fmt.pr "  %2d   %9.0f   %9.0f (%.2fx)  %9.0f (%.2fx)@."
        pd.Experiments.Fig3.cpus
        (diff.Experiments.Fig3.perfect pd.Experiments.Fig3.cpus)
        pd.Experiments.Fig3.throughput
        (pd.Experiments.Fig3.throughput
        /. diff.Experiments.Fig3.perfect pd.Experiments.Fig3.cpus)
        ps.Experiments.Fig3.throughput
        (ps.Experiments.Fig3.throughput
        /. single.Experiments.Fig3.perfect ps.Experiments.Fig3.cpus))
    diff.Experiments.Fig3.points single.Experiments.Fig3.points;
  Fmt.pr
    "@.  different-files linearity: %.3f (paper: linear);  single-file \
     saturates at %d CPUs (paper: 4)@."
    (Experiments.Fig3.linearity diff)
    (Experiments.Fig3.saturation_cpus single);
  (* The figure itself, in the paper's shape: throughput vs processors. *)
  let max_y = diff.Experiments.Fig3.perfect max_cpus in
  let rows = 14 in
  Fmt.pr "@.  %8.0f +%s@." max_y (String.make (max_cpus * 4) '-');
  for row = rows - 1 downto 0 do
    let y_lo = max_y *. float_of_int row /. float_of_int rows in
    let y_hi = max_y *. float_of_int (row + 1) /. float_of_int rows in
    let cell cpus =
      let within v = v >= y_lo && v < y_hi in
      let d =
        (List.nth diff.Experiments.Fig3.points (cpus - 1))
          .Experiments.Fig3.throughput
      and s =
        (List.nth single.Experiments.Fig3.points (cpus - 1))
          .Experiments.Fig3.throughput
      and p = diff.Experiments.Fig3.perfect cpus in
      if within d && within s then "*"
      else if within d then "D"
      else if within s then "S"
      else if within p then "."
      else " "
    in
    Fmt.pr "  %8s |" "";
    for cpus = 1 to max_cpus do
      Fmt.pr " %s  " (cell cpus)
    done;
    Fmt.pr "@."
  done;
  Fmt.pr "  %8d +%s@." 0 (String.make (max_cpus * 4) '-');
  Fmt.pr "  %8s  " "";
  for cpus = 1 to max_cpus do
    Fmt.pr "%2d  " cpus
  done;
  Fmt.pr "@.  %8s   calls/s vs processors:  . perfect   D different files   S single file@." ""

(* --- remaining experiments ---------------------------------------------- *)

let run_t3 () =
  section "T-text-3: worst-case caches (dirty D + cold I)";
  Fmt.pr "%a@." Experiments.Fig2_icache.pp_result (Experiments.Fig2_icache.run ())

let run_f3b ~quick () =
  section "F3b: Zipf file popularity between the Figure-3 extremes";
  let horizon = if quick then Sim.Time.ms 20 else Sim.Time.ms 50 in
  Fmt.pr "%a@." Experiments.Fig3_zipf.pp_result
    (Experiments.Fig3_zipf.run ~horizon ())

let run_f3c ~quick () =
  section "F3c: request origin (programs vs parallel program)";
  let horizon = if quick then Sim.Time.ms 20 else Sim.Time.ms 50 in
  Fmt.pr "%a@." Experiments.Program_mix.pp_result
    (Experiments.Program_mix.run ~horizon ())

let run_l1 ~quick () =
  section "L1: latency under load";
  let horizon = if quick then Sim.Time.ms 25 else Sim.Time.ms 60 in
  Fmt.pr "%a@." Experiments.Latency_load.pp_result
    ( Experiments.Latency_load.Different_files,
      Experiments.Latency_load.run ~horizon
        ~mode:Experiments.Latency_load.Different_files () );
  Fmt.pr "%a@." Experiments.Latency_load.pp_result
    ( Experiments.Latency_load.Single_file,
      Experiments.Latency_load.run ~horizon
        ~mode:Experiments.Latency_load.Single_file () )

let run_intro () =
  section "T-intro: uniprocessor null-RPC context";
  Fmt.pr "%a@." Experiments.Uniproc_context.pp_result
    (Experiments.Uniproc_context.run ())

let run_a1 ~quick () =
  section "A1: hold-CD vs recycled stacks under multi-server mixes";
  let calls = if quick then 100 else 300 in
  Fmt.pr "%a@." Experiments.Ablate_holdcd.pp_result
    (Experiments.Ablate_holdcd.run ~calls ())

let run_a2 ~quick () =
  section "A2: PPC per-CPU pools vs LRPC-style shared locked pools";
  let horizon = if quick then Sim.Time.ms 25 else Sim.Time.ms 100 in
  Fmt.pr "%a@." Experiments.Ablate_lrpc.pp_result
    (Experiments.Ablate_lrpc.run ~max_cpus:16 ~horizon ())

let run_a3 () =
  section "A3: asynchronous prefetch PPCs";
  Fmt.pr "%a@." Experiments.Ablate_async.pp_result (Experiments.Ablate_async.run ())

let run_a4 () =
  section "A4: PPC vs the pre-existing message-passing IPC";
  Fmt.pr "%a@." Experiments.Ablate_msg.pp_result (Experiments.Ablate_msg.run ())

let run_a6 () =
  section "A6: stack-size policies (Section 4.5.4)";
  Fmt.pr "%a@." Experiments.Ablate_stack.pp_result (Experiments.Ablate_stack.run ())

let run_a7 ~quick () =
  section "A7: server-side locking granularity (mutex vs RW)";
  let horizon = if quick then Sim.Time.ms 20 else Sim.Time.ms 50 in
  Fmt.pr "%a@." Experiments.Ablate_rwlock.pp_result
    (Experiments.Ablate_rwlock.run ~horizon ())

let run_a8 () =
  section "A8: legacy message service — three transports";
  Fmt.pr "%a@." Experiments.Ablate_compat.pp_result (Experiments.Ablate_compat.run ())

let run_a9 ~quick () =
  section "A9: clustered name service (hierarchical clustering)";
  let horizon = if quick then Sim.Time.ms 15 else Sim.Time.ms 40 in
  Fmt.pr "%a@." Experiments.Ablate_cluster.pp_result
    (Experiments.Ablate_cluster.run ~horizon ())

let run_e2 () =
  section "E2: idle-processor migration under two technology regimes";
  Fmt.pr "%a@." Experiments.Ablate_migration.pp_result
    (Experiments.Ablate_migration.run ())

let run_e1 () =
  section "E1: cross-processor PPC variant (Section 4.3 future work)";
  Fmt.pr "%a@." Experiments.Ablate_remote.pp_result
    (Experiments.Ablate_remote.run ())

let run_copy () =
  section "Copy: bulk-payload sweep (register vs engine-copy vs grant-handoff)";
  Fmt.pr "%a@." Experiments.Copy_sweep.pp_result (Experiments.Copy_sweep.run ())

(* --- Bechamel: machine-time microbenchmarks ------------------------------ *)

open Bechamel
open Toolkit

(* One Test.make per table/figure: each subject regenerates (a reduced
   version of) that experiment, so the suite both exercises every harness
   and measures the simulator's own speed.  The a5_* subjects are the
   real-multicore measurements (ablation A5). *)

let bechamel_tests ~with_cross_domain =
  let fig2_subject =
    Test.make ~name:"fig2:u2u-call-path"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig2.run ~warmup:4
                {
                  Experiments.Fig2.target = Experiments.Fig2.To_user;
                  hold_cd = false;
                  flushed = false;
                })))
  in
  let fig3_subject =
    Test.make ~name:"fig3:getlength-2cpu"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig3.run_point ~horizon:(Sim.Time.ms 2)
                ~mode:Experiments.Fig3.Different_files ~cpus:2 ())))
  in
  let a1_subject =
    Test.make ~name:"a1:holdcd-mix"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Ablate_holdcd.run ~calls:20 ~server_counts:[ 2 ] ())))
  in
  let a2_subject =
    Test.make ~name:"a2:lrpc-2cpu"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Ablate_lrpc.run ~max_cpus:2 ~horizon:(Sim.Time.ms 2) ())))
  in
  let a3_subject =
    Test.make ~name:"a3:prefetch"
      (Staged.stage (fun () -> ignore (Experiments.Ablate_async.run ~blocks:4 ())))
  in
  let a4_subject =
    Test.make ~name:"a4:msg-vs-ppc"
      (Staged.stage (fun () -> ignore (Experiments.Ablate_msg.run ())))
  in
  let t3_subject =
    Test.make ~name:"t3:worst-case-caches"
      (Staged.stage (fun () -> ignore (Experiments.Fig2_icache.run ())))
  in
  let f3b_subject =
    Test.make ~name:"f3b:zipf-sweep"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Fig3_zipf.run ~cpus:2 ~files:2
                ~horizon:(Sim.Time.ms 2) ~thetas:[ 1.0 ] ())))
  in
  let f3c_subject =
    Test.make ~name:"f3c:program-mix"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Program_mix.run ~cpus:2 ~horizon:(Sim.Time.ms 2) ())))
  in
  let l1_subject =
    Test.make ~name:"l1:latency-load"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Latency_load.run ~cpus:2 ~horizon:(Sim.Time.ms 2)
                ~thinks:[ 100.0 ] ~mode:Experiments.Latency_load.Single_file ())))
  in
  let a7_subject =
    Test.make ~name:"a7:rwlock"
      (Staged.stage (fun () ->
           ignore
             (Experiments.Ablate_rwlock.run ~max_cpus:2 ~horizon:(Sim.Time.ms 2) ())))
  in
  let a8_subject =
    Test.make ~name:"a8:compat-transports"
      (Staged.stage (fun () -> ignore (Experiments.Ablate_compat.run ())))
  in
  let a9_subject =
    Test.make ~name:"a9:clustered-naming"
      (Staged.stage (fun () ->
           ignore (Experiments.Ablate_cluster.run ~horizon:(Sim.Time.ms 2) ())))
  in
  let e2_subject =
    Test.make ~name:"e2:migration-regimes"
      (Staged.stage (fun () -> ignore (Experiments.Ablate_migration.run ())))
  in
  let a6_subject =
    Test.make ~name:"a6:stack-policies"
      (Staged.stage (fun () ->
           ignore (Experiments.Ablate_stack.run ~deep_pages:2 ())))
  in
  let e1_subject =
    Test.make ~name:"e1:remote-ppc"
      (Staged.stage (fun () -> ignore (Experiments.Ablate_remote.run ~cpus:4 ())))
  in
  (* A5: the real-multicore runtime, measured for real. *)
  let fast = Runtime.Fastcall.create () in
  let fast_ep =
    Runtime.Fastcall.register fast (fun _ctx args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let fast_args = Array.make 8 0 in
  let a5_local =
    Test.make ~name:"a5:fastcall-local"
      (Staged.stage (fun () ->
           fast_args.(0) <- 1;
           fast_args.(1) <- 2;
           ignore (Runtime.Fastcall.call fast ~ep:fast_ep fast_args)))
  in
  (* Same warm call, but through the versioned handle: the full
     lifecycle protocol (state load, stripe increment, recheck, stripe
     decrement) that replaced PR 2's direct handler-array fetch. *)
  let fast_h =
    Runtime.Fastcall.register_ep fast (fun _ctx args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let a5_lifecycle =
    Test.make ~name:"a5:lifecycle"
      (Staged.stage (fun () ->
           fast_args.(0) <- 1;
           fast_args.(1) <- 2;
           ignore (Runtime.Fastcall.call_h fast fast_h fast_args)))
  in
  (* The containment layer's cost when the handler actually raises:
     trap, fault bookkeeping, RC rewrite.  The breaker threshold is
     pushed out of reach so every iteration takes the fault path
     instead of tripping the entry point after the first few.  Target:
     within noise of a5:lifecycle plus the raise itself. *)
  let faulty = Runtime.Fastcall.create ~breaker_threshold:max_int () in
  let faulty_h = Runtime.Fastcall.register_ep faulty (fun _ctx _args -> raise Exit) in
  let a5_handler_fault =
    Test.make ~name:"a5:handler-fault"
      (Staged.stage (fun () ->
           ignore (Runtime.Fastcall.call_h faulty faulty_h fast_args)))
  in
  let locked = Baseline.Locked_registry.create () in
  let locked_ep =
    Baseline.Locked_registry.register locked (fun _frame args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let a5_locked =
    Test.make ~name:"a5:locked-registry"
      (Staged.stage (fun () ->
           fast_args.(0) <- 1;
           fast_args.(1) <- 2;
           ignore (Baseline.Locked_registry.call locked ~ep:locked_ep fast_args)))
  in
  let striped = Runtime.Striped_counter.create () in
  let a5_striped =
    Test.make ~name:"a5:striped-counter-incr"
      (Staged.stage (fun () -> Runtime.Striped_counter.incr striped))
  in
  let plain = Atomic.make 0 in
  let a5_atomic =
    Test.make ~name:"a5:single-atomic-incr"
      (Staged.stage (fun () -> Atomic.incr plain))
  in
  let cross_tests =
    if not with_cross_domain then []
    else begin
      let sd = Baseline.Mpsc_server.spawn fast in
      let srv = Runtime.Fastcall.spawn_channel_server fast in
      let cl_inline = Runtime.Fastcall.connect srv in
      let cl_queued = Runtime.Fastcall.connect srv in
      [
        ( Test.make ~name:"a5:fastcall-cross-domain"
            (Staged.stage (fun () ->
                 fast_args.(0) <- 1;
                 fast_args.(1) <- 2;
                 ignore (Baseline.Mpsc_server.cross_call sd ~ep:fast_ep fast_args))),
          fun () -> Baseline.Mpsc_server.shutdown sd );
        ( Test.make ~name:"a5:channel-inline"
            (Staged.stage (fun () ->
                 fast_args.(0) <- 1;
                 fast_args.(1) <- 2;
                 ignore
                   (Runtime.Fastcall.channel_call cl_inline ~ep:fast_ep
                      fast_args))),
          fun () -> () );
        (* The queued path is a deadline call with no deadline, so
           a5:channel-queued and a5:deadline make the same call: their
           delta is noise, not a cost of the deadline machinery. *)
        ( Test.make ~name:"a5:channel-queued"
            (Staged.stage (fun () ->
                 fast_args.(0) <- 1;
                 fast_args.(1) <- 2;
                 ignore
                   (Runtime.Fastcall.channel_call_deadline cl_queued
                      ~ep:fast_ep ~deadline:max_int fast_args))),
          fun () -> () );
        ( Test.make ~name:"a5:deadline"
            (Staged.stage (fun () ->
                 fast_args.(0) <- 1;
                 fast_args.(1) <- 2;
                 ignore
                   (Runtime.Fastcall.channel_call_deadline cl_queued
                      ~ep:fast_ep ~deadline:max_int fast_args))),
          fun () -> Runtime.Fastcall.shutdown_channel_server srv );
      ]
    end
  in
  ( [
      fig2_subject;
      fig3_subject;
      a1_subject;
      a2_subject;
      a3_subject;
      a4_subject;
      a6_subject;
      a7_subject;
      a8_subject;
      a9_subject;
      t3_subject;
      f3b_subject;
      f3c_subject;
      l1_subject;
      e1_subject;
      e2_subject;
      a5_local;
      a5_lifecycle;
      a5_handler_fault;
      a5_locked;
      a5_striped;
      a5_atomic;
    ]
    @ List.map fst cross_tests,
    List.map snd cross_tests )

let run_bechamel ~quick () =
  section "Bechamel microbenchmarks (real machine time on this host)";
  let tests, cleanups = bechamel_tests ~with_cross_domain:(not quick) in
  let grouped = Test.make_grouped ~name:"ppc" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let quota = if quick then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      let ns =
        match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> Float.nan
      in
      if ns >= 1e6 then Fmt.pr "  %-32s %12.3f ms/run@." name (ns /. 1e6)
      else if ns >= 1e3 then Fmt.pr "  %-32s %12.3f us/run@." name (ns /. 1e3)
      else Fmt.pr "  %-32s %12.1f ns/run@." name ns)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  List.iter (fun cleanup -> cleanup ()) cleanups

(* --- bench-regression trajectory (--json / --check) ----------------------- *)

(* Three sections.  "simulated" is deterministic — same code, same bytes
   — and CI diffs it structurally against the committed BENCH_PR<n>.json.
   "wallclock" is real machine time on whatever host ran --json; it is
   committed for the trajectory record and never gated directly.  "gate"
   (schema 2) is the wall-clock regression gate: a handful of subjects
   measured with repeats, recorded as median + noise-calibrated
   tolerance, and re-checked in ratios by --check (see bench_gate.ml).
   Getting faster never fails the gate; drifting past a subject's
   recorded tolerance in the bad direction does. *)

let simulated_json () =
  let fig2 = Experiments.Fig2.run_all () in
  let cond_name r =
    let c = r.Experiments.Fig2.condition in
    Printf.sprintf "%s/%s/%s"
      (match c.Experiments.Fig2.target with
      | Experiments.Fig2.To_user -> "u2u"
      | Experiments.Fig2.To_kernel -> "u2k")
      (if c.Experiments.Fig2.hold_cd then "hold" else "noCD")
      (if c.Experiments.Fig2.flushed then "flushed" else "primed")
  in
  let fig2_json =
    Bench_json.Arr
      (List.map
         (fun r ->
           Bench_json.Obj
             [
               ("condition", Bench_json.Str (cond_name r));
               ("total_us", Bench_json.Num r.Experiments.Fig2.total_us);
             ])
         fig2)
  in
  (* Fixed parameters regardless of --quick: the gate must produce the
     same bytes everywhere. *)
  let horizon = Sim.Time.ms 20 in
  let run mode = Experiments.Fig3.run ~max_cpus:8 ~horizon ~mode () in
  let diff = run Experiments.Fig3.Different_files in
  let single = run Experiments.Fig3.Single_file in
  let points d =
    Bench_json.Arr
      (List.map
         (fun p ->
           Bench_json.Obj
             [
               ("cpus", Bench_json.Num (float_of_int p.Experiments.Fig3.cpus));
               ("throughput", Bench_json.Num p.Experiments.Fig3.throughput);
             ])
         d.Experiments.Fig3.points)
  in
  (* PR7: deterministic bulk-payload sweep — simulated us per strategy
     per size, plus the two located crossover points. *)
  let sweep = Experiments.Copy_sweep.run () in
  let copy_points =
    Bench_json.Arr
      (List.map
         (fun p ->
           Bench_json.Obj
             [
               ( "bytes",
                 Bench_json.Num (float_of_int p.Experiments.Copy_sweep.size) );
               ( "register_us",
                 Bench_json.Num p.Experiments.Copy_sweep.register_us );
               ("engine_us", Bench_json.Num p.Experiments.Copy_sweep.engine_us);
               ("grant_us", Bench_json.Num p.Experiments.Copy_sweep.grant_us);
             ])
         sweep.Experiments.Copy_sweep.points)
  in
  let crossover = function
    | Some s -> Bench_json.Num (float_of_int s)
    | None -> Bench_json.Num (-1.0)
  in
  (* Deterministic slice of the open-loop traffic study. *)
  let traffic =
    Workload.Report.to_json
      (Experiments.Traffic_study.report
         (Experiments.Traffic_study.run ~cfg:Experiments.Traffic_study.slice ()))
  in
  Bench_json.Obj
    [
      ("fig2", fig2_json);
      ( "fig3",
        Bench_json.Obj
          [
            ("base_call_us", Bench_json.Num diff.Experiments.Fig3.base_call_us);
            ("different_files", points diff);
            ("single_file", points single);
            ( "linearity",
              Bench_json.Num (Experiments.Fig3.linearity diff) );
            ( "saturation_cpus",
              Bench_json.Num
                (float_of_int (Experiments.Fig3.saturation_cpus single)) );
          ] );
      ( "copy",
        Bench_json.Obj
          [
            ("points", copy_points);
            ( "reg_engine_crossover_bytes",
              crossover sweep.Experiments.Copy_sweep.reg_engine_crossover );
            ( "engine_grant_crossover_bytes",
              crossover sweep.Experiments.Copy_sweep.engine_grant_crossover );
          ] );
      ("traffic", traffic);
    ]

(* --- PR9: the same wire protocol, two protection-domain placements.
   "cross_process" runs the server in a forked child over an mmap'd
   segment file; "in_heap_domain" runs it on a domain over a heap
   segment.  Both use a bare Shm_channel dispatch (no Fastcall table in
   the way) so the delta isolates the substrate: mmap + real scheduler
   round trip vs shared heap.  Ping-pong is one call at a time;
   pipelined keeps the whole cell pool in flight.

   This MUST run before the bench process spawns any domain: forking a
   multi-domain OCaml runtime leaves the child's GC rendezvous waiting
   on domains that do not exist on its side of the fork. *)
let shm_wallclock_json ~quick () =
  let module Ch = Runtime.Shm_channel in
  let calls = if quick then 5_000 else 20_000 in
  let window = 64 in
  let num f = Bench_json.Num f in
  let dispatch ~ep_word:_ args =
    args.(0) <- args.(0) + args.(1);
    0
  in
  let measure ch =
    let a = Array.make (Ch.arg_words ch) 0 in
    let bad = ref 0 in
    let ping n =
      for i = 1 to n do
        a.(0) <- i;
        a.(1) <- 1;
        if Ch.call ch ~ep:0 a <> Ipc_intf.Errc.ok || a.(0) <> i + 1 then
          incr bad
      done
    in
    ping (min 1_000 calls) (* warm *);
    let t0 = Runtime.Doorbell.now_ns () in
    ping calls;
    let ping_ns =
      float_of_int (Runtime.Doorbell.now_ns () - t0) /. float_of_int calls
    in
    let cells = Array.make window 0 in
    let done_ = ref 0 in
    let t0 = Runtime.Doorbell.now_ns () in
    while !done_ < calls do
      let depth = min window (calls - !done_) in
      for k = 0 to depth - 1 do
        a.(0) <- !done_ + k;
        a.(1) <- 1;
        let c = Ch.submit_raw ch ~ep:0 a in
        if c < 0 then incr bad;
        cells.(k) <- c
      done;
      for k = 0 to depth - 1 do
        if cells.(k) >= 0 && Ch.await ch cells.(k) a <> Ipc_intf.Errc.ok then
          incr bad
      done;
      done_ := !done_ + depth
    done;
    let dt = Runtime.Doorbell.now_ns () - t0 in
    let pipelined_per_s = float_of_int calls /. (float_of_int dt /. 1e9) in
    (!bad, ping_ns, pipelined_per_s)
  in
  let cross =
    let path = Filename.temp_file "ppc_bench" ".seg" in
    ignore (Ch.create_file ~path ~capacity:window () : Runtime.Segment.t);
    match Unix.fork () with
    | 0 ->
        let code =
          match
            let srv = Ch.attach_file ~role:Ch.Server path in
            ignore (Ch.serve srv ~dispatch : int)
          with
          | () -> 0
          | exception _ -> 1
        in
        (* skip at_exit: the parent owns the buffered stdout *)
        Unix._exit code
    | pid ->
        let ch = Ch.attach_file ~role:Ch.Client path in
        if not (Ch.wait_peer_ready ch) then
          Fmt.failwith "bench shm: server process never became ready";
        let bad, ping_ns, pipe_s = measure ch in
        Ch.announce_shutdown ch;
        ignore (Unix.waitpid [] pid);
        (try Sys.remove path with Sys_error _ -> ());
        if bad > 0 then
          Fmt.failwith "bench shm: %d bad cross-process replies" bad;
        (ping_ns, pipe_s)
  in
  let heap =
    let seg = Ch.create_heap ~capacity:window () in
    let srv = Ch.attach ~role:Ch.Server seg in
    let cl = Ch.attach ~role:Ch.Client seg in
    let d = Domain.spawn (fun () -> ignore (Ch.serve srv ~dispatch : int)) in
    ignore (Ch.wait_peer_ready cl : bool);
    let bad, ping_ns, pipe_s = measure cl in
    Ch.announce_shutdown cl;
    Domain.join d;
    if bad > 0 then Fmt.failwith "bench shm: %d bad in-heap replies" bad;
    (ping_ns, pipe_s)
  in
  let pair (ping_ns, pipe_s) =
    Bench_json.Obj
      [
        ("pingpong_ns", num ping_ns); ("pipelined_calls_per_s", num pipe_s);
      ]
  in
  Bench_json.Obj
    [
      ("calls", num (float_of_int calls));
      ("window", num (float_of_int window));
      ("cross_process", pair cross);
      ("in_heap_domain", pair heap);
    ]

let wallclock_json ~quick ~shm () =
  let quota = if quick then 0.25 else 0.5 in
  let adder _ctx args =
    args.(0) <- args.(0) + args.(1);
    args.(7) <- 0
  in
  let fast = Runtime.Fastcall.create () in
  let fast_ep = Runtime.Fastcall.register fast adder in
  let faulty = Runtime.Fastcall.create ~breaker_threshold:max_int () in
  let faulty_h =
    Runtime.Fastcall.register_ep faulty (fun _ctx _args -> raise Exit)
  in
  let locked = Baseline.Locked_registry.create () in
  let locked_ep =
    Baseline.Locked_registry.register locked (fun _frame args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let sd = Baseline.Mpsc_server.spawn fast in
  let srv = Runtime.Fastcall.spawn_channel_server fast in
  let cl_inline = Runtime.Fastcall.connect srv in
  let cl_queued = Runtime.Fastcall.connect srv in
  let args = Array.make 8 0 in
  let subject name f = Test.make ~name (Staged.stage f) in
  let pingpong =
    Bench_gate.measure_ns ~quota
      [
        subject "local" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Runtime.Fastcall.call fast ~ep:fast_ep args));
        subject "locked-registry" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Baseline.Locked_registry.call locked ~ep:locked_ep args));
        subject "legacy-cross" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Baseline.Mpsc_server.cross_call sd ~ep:fast_ep args));
        subject "channel-inline" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Runtime.Fastcall.channel_call cl_inline ~ep:fast_ep args));
        subject "channel-queued" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore
              (Runtime.Fastcall.channel_call_deadline cl_queued ~ep:fast_ep
                 ~deadline:max_int args));
        subject "channel-deadline" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore
              (Runtime.Fastcall.channel_call_deadline cl_queued ~ep:fast_ep
                 ~deadline:max_int args));
        subject "handler-fault" (fun () ->
            ignore (Runtime.Fastcall.call_h faulty faulty_h args));
      ]
  in
  Runtime.Fastcall.shutdown_channel_server srv;
  (* Large enough that the producers' call work dominates the ~ms of
     Domain.spawn/join bracketing it: at ~30 ns per warm inline call,
     3 x 3000 calls is ~300 us of work inside ~4 ms of scaffolding, and
     the "throughput" is mostly domain startup.  3 x 30000 makes the
     measured region ~10x the scaffolding. *)
  let producers = 3 and per = if quick then 3_000 else 30_000 in
  let legacy_thr =
    Bench_gate.time_throughput ~producers ~per ~mk:(fun _p ->
        let a = Array.make 8 0 in
        fun i ->
          a.(0) <- i;
          a.(1) <- 1;
          ignore (Baseline.Mpsc_server.cross_call sd ~ep:fast_ep a))
  in
  let channel_thr ~shards ~inline =
    let srv = Runtime.Fastcall.spawn_channel_server ~shards fast in
    let thr =
      Bench_gate.time_throughput ~producers ~per ~mk:(fun _p ->
          let cl = Runtime.Fastcall.connect srv in
          let a = Array.make 8 0 in
          fun i ->
            a.(0) <- i;
            a.(1) <- 1;
            ignore
              (if inline then Runtime.Fastcall.channel_call cl ~ep:fast_ep a
               else
                 Runtime.Fastcall.channel_call_deadline cl ~ep:fast_ep
                   ~deadline:max_int a))
    in
    Runtime.Fastcall.shutdown_channel_server srv;
    thr
  in
  let channel_1 = channel_thr ~shards:1 ~inline:true in
  let channel_queued_1 = channel_thr ~shards:1 ~inline:false in
  let channel_2 = channel_thr ~shards:2 ~inline:true in
  Baseline.Mpsc_server.shutdown sd;
  let num f = Bench_json.Num f in
  (* --- PR7 bulk sweep on the real substrate: 4 KB -> 4 MB, three ways.
     "register" moves the payload 6 words per warm local call,
     "engine" pushes chunked descriptors through the engine (flushed
     on this domain), "grant" hands a whole region over without
     copying.  ns per whole payload; the two crossovers fall out.  Plus
     the zero-alloc pin: minor words allocated by a warm
     submit->flush->reap cycle. *)
  let copy_json =
    let eng, store = Transfer.Copy_engine.create_with_buffers () in
    let big = 4 * 1024 * 1024 in
    let reg = function
      | Ok id -> id
      | Error rc -> Fmt.failwith "bench: region add rc=%d" rc
    in
    let src_id =
      reg
        (Transfer.Copy_engine.Buffers.add store ~owner:0
           (Bytes.init big (fun i -> Char.chr (i land 0xff))))
    in
    let dst_id =
      reg (Transfer.Copy_engine.Buffers.add store ~owner:0 (Bytes.create big))
    in
    let ecl = Transfer.Copy_engine.connect eng in
    let self = Transfer.Copy_engine.client_id ecl in
    let sizes =
      [ 4096; 16384; 65536; 262144; 1048576; 4194304 ]
    in
    let grant_regions =
      List.map
        (fun s ->
          ( s,
            reg
              (Transfer.Copy_engine.Buffers.add store ~owner:self
                 (Bytes.create s)) ))
        sizes
    in
    let drain () =
      while Transfer.Copy_engine.outstanding ecl > 0 do
        if Transfer.Copy_engine.reap ecl = 0 then Domain.cpu_relax ()
      done
    in
    let engine_move bytes =
      let chunk = 64 * 1024 in
      let off = ref 0 in
      while !off < bytes do
        let len = if bytes - !off < chunk then bytes - !off else chunk in
        (match
           Transfer.Copy_engine.submit ecl ~op:Ipc_intf.Wellknown.bulk_copy
             ~src:src_id ~src_off:!off ~dst:dst_id ~dst_off:!off ~len ~tag:0
         with
        | 0 -> off := !off + len
        | _ ->
            ignore (Transfer.Copy_engine.flush ecl);
            ignore (Transfer.Copy_engine.reap ecl))
      done;
      ignore (Transfer.Copy_engine.flush ecl);
      drain ()
    in
    let grant_move (bytes, region) =
      (match
         Transfer.Copy_engine.submit ecl ~op:Ipc_intf.Wellknown.bulk_grant
           ~src:region ~src_off:0 ~dst:self ~dst_off:0 ~len:bytes ~tag:0
       with
      | 0 -> ()
      | rc -> Fmt.failwith "bench: grant submit rc=%d" rc);
      ignore (Transfer.Copy_engine.flush ecl);
      drain ()
    in
    let reg_args = Array.make 8 0 in
    let register_move bytes =
      (* 6 data words = 48 bytes per warm local call *)
      let calls = (bytes + 47) / 48 in
      for i = 1 to calls do
        reg_args.(0) <- i;
        reg_args.(1) <- 1;
        ignore (Runtime.Fastcall.call fast ~ep:fast_ep reg_args)
      done
    in
    let reps = if quick then 5 else 30 in
    let time_ns f =
      f ();
      (* warm *)
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
    in
    let points =
      List.map
        (fun s ->
          let register_ns = time_ns (fun () -> register_move s) in
          let engine_ns = time_ns (fun () -> engine_move s) in
          let grant_ns =
            time_ns (fun () -> grant_move (s, List.assoc s grant_regions))
          in
          (s, register_ns, engine_ns, grant_ns))
        sizes
    in
    (* Zero-alloc pin: a warm submit->flush->reap cycle must not touch
       the minor heap (the request-cell discipline). *)
    let warm () =
      (match
         Transfer.Copy_engine.submit ecl ~op:Ipc_intf.Wellknown.bulk_copy
           ~src:src_id ~src_off:0 ~dst:dst_id ~dst_off:0 ~len:64 ~tag:1
       with
      | 0 -> ()
      | rc -> Fmt.failwith "bench: warm submit rc=%d" rc);
      ignore (Transfer.Copy_engine.flush ecl);
      drain ()
    in
    for _ = 1 to 200 do
      warm ()
    done;
    let before = Gc.minor_words () in
    for _ = 1 to 200 do
      warm ()
    done;
    let warm_minor_words = Gc.minor_words () -. before in
    let crossover pick =
      match
        List.find_map
          (fun p -> let s, _, _, _ = p in if pick p then Some s else None)
          points
      with
      | Some s -> float_of_int s
      | None -> -1.0
    in
    Bench_json.Obj
      [
        ( "points",
          Bench_json.Arr
            (List.map
               (fun (s, r, e, g) ->
                 Bench_json.Obj
                   [
                     ("bytes", num (float_of_int s));
                     ("register_ns", num r);
                     ("engine_ns", num e);
                     ("grant_ns", num g);
                   ])
               points) );
        ( "reg_engine_crossover_bytes",
          num (crossover (fun (_, r, e, _) -> e < r)) );
        ( "engine_grant_crossover_bytes",
          num (crossover (fun (_, _, e, g) -> g < e)) );
        ("warm_submit_reap_minor_words", num warm_minor_words);
      ]
  in
  Bench_json.Obj
    [
      ("host_domains", num (float_of_int (Domain.recommended_domain_count ())));
      ( "pingpong_ns",
        Bench_json.Obj
          (List.map
             (fun (k, v) -> (k, num v))
             (List.sort (fun (a, _) (b, _) -> String.compare a b) pingpong)) );
      ( "throughput_calls_per_s",
        Bench_json.Obj
          [
            ("producers", num (float_of_int producers));
            ("calls_per_producer", num (float_of_int per));
            ("legacy-cross", num legacy_thr);
            ("channel-1shard", num channel_1);
            ("channel-1shard-queued", num channel_queued_1);
            ("channel-2shards", num channel_2);
          ] );
      ("shm", shm);
      ("copy_sweep", copy_json);
    ]

let run_json ~json_path ~check_path ~quick ~skip_wall_gate ~wall_gate_only
    ~gate_repeats ~gate_calls ~gate_quota () =
  let failed = ref false in
  (* Fork-based, so it must precede every Domain.spawn in this process —
     including the gate re-measurement below. *)
  let shm =
    match json_path with
    | None -> None
    | Some _ ->
        Fmt.pr "measuring shm section (cross-process fork, pre-domains)...@.";
        Some (shm_wallclock_json ~quick ())
  in
  let sim =
    if wall_gate_only then None
    else begin
      Fmt.pr "regenerating deterministic simulated section...@.";
      Some (simulated_json ())
    end
  in
  (match check_path with
  | None -> ()
  | Some path ->
      let committed = Bench_json.of_file path in
      (match sim with
      | None -> ()
      | Some sim -> (
          let want =
            match Bench_json.member "simulated" committed with
            | Some v -> v
            | None -> Fmt.failwith "%s: no \"simulated\" section" path
          in
          match Bench_json.compare_values ~got:sim ~want with
          | [] -> Fmt.pr "check: simulated section matches %s@." path
          | mismatches ->
              failed := true;
              Fmt.pr "check: simulated section DRIFTED from %s:@." path;
              List.iter
                (fun (p, got, want) ->
                  Fmt.pr "  %s: got %s, committed %s@." p got want)
                mismatches));
      if not skip_wall_gate then (
        match Bench_json.member "gate" committed with
        | None ->
            (* schema-1 trajectory points predate the gate; nothing to
               hold them to. *)
            Fmt.pr "check: %s has no \"gate\" section (schema 1) — wall-clock \
                    gate skipped@."
              path
        | Some gate ->
            Fmt.pr
              "check: re-measuring wall-clock gate subjects against %s...@."
              path;
            let verdicts =
              Bench_gate.check ?repeats:gate_repeats ?calls:gate_calls
                ?quota:gate_quota gate
            in
            List.iter (fun v -> Fmt.pr "%a@." Bench_gate.pp_verdict v) verdicts;
            if Bench_gate.all_ok verdicts then
              Fmt.pr "check: wall-clock gate OK (%d subjects within tolerance)@."
                (List.length verdicts)
            else begin
              failed := true;
              Fmt.pr "check: wall-clock gate FAILED against %s@." path
            end));
  (match json_path with
  | None -> ()
  | Some path ->
      let sim = match sim with Some s -> s | None -> simulated_json () in
      Fmt.pr "measuring wall-clock section (bechamel + throughput)...@.";
      let shm = match shm with Some s -> s | None -> assert false in
      let wall = wallclock_json ~quick ~shm () in
      let repeats = Option.value gate_repeats ~default:3 in
      let calls =
        Option.value gate_calls ~default:(if quick then 3_000 else 30_000)
      in
      let quota =
        Option.value gate_quota ~default:(if quick then 0.25 else 0.5)
      in
      Fmt.pr
        "calibrating wall-clock gate (%d repeats, %d calls/producer, %.2fs \
         quota)...@."
        repeats calls quota;
      let gate = Bench_gate.emit ~repeats ~calls ~quota in
      Bench_json.to_file path
        (Bench_json.Obj
           [
             ("schema", Bench_json.Num 2.0);
             ( "paper",
               Bench_json.Str
                 "Optimizing IPC Performance for Shared-Memory Multiprocessors \
                  (Gamsa, Krieger & Stumm, ICPP 1994)" );
             ("simulated", sim);
             ("wallclock", wall);
             ("gate", gate);
           ]);
      Fmt.pr "wrote %s@." path);
  if !failed then exit 1

let run_shm ~quick () =
  section "shm: cross-process vs in-heap PPC over the shared-segment ABI";
  Fmt.pr "%s@." (Bench_json.to_string (shm_wallclock_json ~quick ()))

(* --- driver --------------------------------------------------------------- *)

let known =
  [
    "shm"; "fig2"; "fig3"; "t3"; "f3b"; "f3c"; "l1"; "intro"; "a1"; "a2";
    "a3"; "a4"; "a6"; "a7"; "a8"; "a9"; "e1"; "e2"; "copy"; "bechamel";
  ]

let usage () =
  Fmt.pr
    "usage: bench/main.exe [--quick] [--json PATH] [--check PATH] [%s]...@."
    (String.concat "|" known);
  Fmt.pr
    "  --json PATH    write simulated + wall-clock + gate sections as JSON@.\
    \  --check PATH   re-run the deterministic simulated section AND the@.\
    \                 wall-clock gate; fail if either drifted from the@.\
    \                 committed file (gate drift is judged in ratios@.\
    \                 against each subject's recorded tolerance)@.\
    \  --skip-wall-gate   with --check: simulated section only@.\
    \  --wall-gate-only   with --check: wall-clock gate only@.@.\
     Gate knobs (independent of --quick, which only shrinks the@.\
     informational wallclock section and the experiment sweeps):@.\
    \  --gate-repeats N   measurement rounds per subject@.\
    \                     (--json default 3; --check defaults to the@.\
    \                     value recorded in the committed gate section)@.\
    \  --gate-calls N     per-producer calls for the throughput subjects@.\
    \                     (--json default 30000)@.\
    \  --gate-quota S     bechamel time budget in seconds for the@.\
    \                     ns-scale subjects (--json default 0.5)@.";
  exit 1

(* Pull "--flag VALUE" out of the argument list. *)
let rec extract_flag key = function
  | [] -> (None, [])
  | [ k ] when k = key -> usage ()
  | k :: v :: rest when k = key ->
      let found, rest = extract_flag key rest in
      ((match found with None -> Some v | s -> s), rest)
  | x :: rest ->
      let found, rest = extract_flag key rest in
      (found, x :: rest)

let extract_int_flag key args =
  let v, args = extract_flag key args in
  match v with
  | None -> (None, args)
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> (Some n, args)
      | _ ->
          Fmt.pr "%s: expected a positive integer, got %S@." key s;
          usage ())

let extract_float_flag key args =
  let v, args = extract_flag key args in
  match v with
  | None -> (None, args)
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> (Some f, args)
      | _ ->
          Fmt.pr "%s: expected a positive number, got %S@." key s;
          usage ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json_path, args = extract_flag "--json" args in
  let check_path, args = extract_flag "--check" args in
  let gate_repeats, args = extract_int_flag "--gate-repeats" args in
  let gate_calls, args = extract_int_flag "--gate-calls" args in
  let gate_quota, args = extract_float_flag "--gate-quota" args in
  let quick = List.mem "--quick" args in
  let skip_wall_gate = List.mem "--skip-wall-gate" args in
  let wall_gate_only = List.mem "--wall-gate-only" args in
  let which =
    List.filter
      (fun a ->
        a <> "--quick" && a <> "--skip-wall-gate" && a <> "--wall-gate-only")
      args
  in
  List.iter (fun a -> if not (List.mem a known) then usage ()) which;
  if skip_wall_gate && wall_gate_only then usage ();
  if json_path <> None || check_path <> None then begin
    if which <> [] then usage ();
    Fmt.pr
      "PPC IPC reproduction benchmarks — Gamsa, Krieger & Stumm (CSRI-294, \
       1994)@.";
    run_json ~json_path ~check_path ~quick ~skip_wall_gate ~wall_gate_only
      ~gate_repeats ~gate_calls ~gate_quota ();
    exit 0
  end;
  if skip_wall_gate || wall_gate_only || gate_repeats <> None
     || gate_calls <> None || gate_quota <> None
  then usage ();
  let all = which = [] in
  let want name = all || List.mem name which in
  Fmt.pr
    "PPC IPC reproduction benchmarks — Gamsa, Krieger & Stumm (CSRI-294, 1994)@.";
  (* shm forks; it must go first, before any section spawns a domain. *)
  if want "shm" then run_shm ~quick ();
  if want "fig2" then run_fig2 ();
  if want "fig3" then run_fig3 ~quick ();
  if want "t3" then run_t3 ();
  if want "f3b" then run_f3b ~quick ();
  if want "f3c" then run_f3c ~quick ();
  if want "l1" then run_l1 ~quick ();
  if want "intro" then run_intro ();
  if want "a1" then run_a1 ~quick ();
  if want "a2" then run_a2 ~quick ();
  if want "a3" then run_a3 ();
  if want "a4" then run_a4 ();
  if want "a6" then run_a6 ();
  if want "a7" then run_a7 ~quick ();
  if want "a8" then run_a8 ();
  if want "a9" then run_a9 ~quick ();
  if want "e1" then run_e1 ();
  if want "e2" then run_e2 ();
  if want "copy" then run_copy ();
  if want "bechamel" then run_bechamel ~quick ();
  Fmt.pr "@.done.@."
