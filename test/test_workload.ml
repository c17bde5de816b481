(* Tests for the workload drivers and samplers. *)

let qcheck = QCheck_alcotest.to_alcotest

let test_closed_loop_counts () =
  let kern = Kernel.create ~cpus:2 () in
  let counters =
    Workload.Driver.run kern
      ~specs:(Workload.Driver.one_per_cpu ~n:2 ~name_prefix:"c" ())
      ~horizon:(Sim.Time.ms 1) ~seed:1
      ~body:(fun ~client ~iteration:_ ->
        let kc = Kernel.kcpu kern (Kernel.Process.cpu_index client) in
        Machine.Cpu.instr (Kernel.Kcpu.cpu kc) 1667;
        Kernel.Kcpu.sync kc)
  in
  Kernel.run kern;
  (* Each iteration costs ~100 us; 1 ms horizon; 2 clients -> ~20 total. *)
  let total = Workload.Driver.total counters in
  Alcotest.(check bool)
    (Printf.sprintf "approx 20 iterations (got %d)" total)
    true
    (total >= 18 && total <= 22);
  let tput = Workload.Driver.throughput_per_sec counters in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ~20k/s (got %.0f)" tput)
    true
    (tput > 17_000.0 && tput < 23_000.0)

let run_one_client kern ~think_mean_us =
  let body ~client ~iteration:_ =
    let kc = Kernel.kcpu kern (Kernel.Process.cpu_index client) in
    (* ~10 us of work per iteration *)
    Machine.Cpu.instr (Kernel.Kcpu.cpu kc) 167;
    Kernel.Kcpu.sync kc
  in
  let counters =
    Workload.Driver.run kern
      ~specs:[ { Workload.Driver.cpu = 0; name = "c"; think_mean_us; identity = None } ]
      ~horizon:(Sim.Time.ms 1) ~seed:1 ~body
  in
  Kernel.run kern;
  Workload.Driver.total counters

let test_open_loop_thinks () =
  let closed = run_one_client (Kernel.create ~cpus:1 ()) ~think_mean_us:None in
  let open_ =
    run_one_client (Kernel.create ~cpus:1 ()) ~think_mean_us:(Some 50.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "think time throttles (%d open vs %d closed)" open_ closed)
    true
    (open_ * 2 < closed && closed >= 90)

let test_prepare_hook_runs_per_client () =
  let kern = Kernel.create ~cpus:3 () in
  let prepared = ref [] in
  let counters =
    Workload.Driver.run kern
      ~specs:(Workload.Driver.one_per_cpu ~n:3 ~name_prefix:"c" ())
      ~horizon:(Sim.Time.us 10) ~seed:1
      ~prepare:(fun ~program ~index ->
        prepared := (index, Kernel.Program.name program) :: !prepared)
      ~body:(fun ~client:_ ~iteration:_ -> ())
  in
  ignore counters;
  Alcotest.(check int) "one prepare per client" 3 (List.length !prepared);
  Alcotest.(check bool) "names distinct" true
    (List.mem (0, "c-0") !prepared && List.mem (2, "c-2") !prepared)

(* --- zipf ----------------------------------------------------------------- *)

let test_zipf_uniform_theta0 () =
  let rng = Sim.Rng.create ~seed:3 in
  let z = Workload.Zipf.create ~n:4 ~theta:0.0 ~rng in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let i = Workload.Zipf.sample z in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (c > 1700 && c < 2300))
    counts

let test_zipf_skew () =
  let rng = Sim.Rng.create ~seed:3 in
  let z = Workload.Zipf.create ~n:16 ~theta:1.2 ~rng in
  let counts = Array.make 16 0 in
  for _ = 1 to 8000 do
    let i = Workload.Zipf.sample z in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "head dominates tail" true (counts.(0) > 5 * counts.(15));
  Alcotest.(check bool) "rank order head >= 2nd" true (counts.(0) >= counts.(1))

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf samples within [0,n)" ~count:100
    QCheck.(pair (1 -- 64) (0 -- 3))
    (fun (n, theta10) ->
      let rng = Sim.Rng.create ~seed:(n + theta10) in
      let z = Workload.Zipf.create ~n ~theta:(float_of_int theta10 /. 2.0) ~rng in
      let ok = ref true in
      for _ = 1 to 50 do
        let s = Workload.Zipf.sample z in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

let prop_zipf_sample_u_total =
  QCheck.Test.make ~name:"zipf sample_u total (u=1, out-of-range clamp)"
    ~count:100
    QCheck.(pair (1 -- 64) (0 -- 4))
    (fun (n, t2) ->
      let rng = Sim.Rng.create ~seed:(n + t2) in
      let z = Workload.Zipf.create ~n ~theta:(float_of_int t2 /. 2.0) ~rng in
      let ok u =
        let i = Workload.Zipf.sample_u z u in
        i >= 0 && i < n
      in
      ok 1.0 && ok 0.0 && ok (-0.5) && ok 1.5 && ok 0.999999)

let test_zipf_theta0_chi_square () =
  let rng = Sim.Rng.create ~seed:9 in
  let k = 8 in
  let z = Workload.Zipf.create ~n:k ~theta:0.0 ~rng in
  let n = 16_000 in
  let counts = Array.make k 0 in
  for _ = 1 to n do
    let i = Workload.Zipf.sample z in
    counts.(i) <- counts.(i) + 1
  done;
  let expect = float_of_int n /. float_of_int k in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expect in
        acc +. ((d *. d) /. expect))
      0.0 counts
  in
  (* df = 7; critical value at p = 0.001 is 24.32. *)
  Alcotest.(check bool)
    (Printf.sprintf "chi^2 %.2f below 24.32" chi2)
    true (chi2 < 24.32)

(* --- hist ------------------------------------------------------------------ *)

let mk_hist vs =
  let h = Workload.Hist.create () in
  List.iter (Workload.Hist.record h) vs;
  h

let prop_hist_quantile_oracle =
  QCheck.Test.make ~name:"hist quantile within rel-error of sorted oracle"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300) (int_range 0 2_000_000))
        (int_range 0 1000))
    (fun (vs, qi) ->
      let q = float_of_int qi /. 1000.0 in
      let arr = Array.of_list vs in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
      in
      let x = arr.(rank - 1) in
      let r = Workload.Hist.quantile (mk_hist vs) q in
      r >= x
      && float_of_int r
         <= float_of_int x *. (1.0 +. Workload.Hist.rel_error_bound))

let hist_state_equal a b =
  Workload.Hist.bucket_counts a = Workload.Hist.bucket_counts b
  && Workload.Hist.count a = Workload.Hist.count b
  && Workload.Hist.min_value a = Workload.Hist.min_value b
  && Workload.Hist.max_value a = Workload.Hist.max_value b
  && Workload.Hist.mean a = Workload.Hist.mean b

let prop_hist_merge_trees =
  QCheck.Test.make
    ~name:"hist merge assoc/comm/count-conserving over merge trees" ~count:150
    QCheck.(
      list_of_size
        Gen.(0 -- 6)
        (list_of_size Gen.(0 -- 40) (int_range 0 2_000_000)))
    (fun groups ->
      let reference = mk_hist (List.concat groups) in
      let fold_left_merge gs =
        let acc = Workload.Hist.create () in
        List.iter
          (fun vs -> Workload.Hist.merge_into ~dst:acc ~src:(mk_hist vs))
          gs;
        acc
      in
      (* An unbalanced tree: merge head pairs, re-queue the result. *)
      let rec tree = function
        | [] -> Workload.Hist.create ()
        | [ h ] -> h
        | h1 :: h2 :: rest ->
            Workload.Hist.merge_into ~dst:h1 ~src:h2;
            tree (rest @ [ h1 ])
      in
      hist_state_equal reference (fold_left_merge groups)
      && hist_state_equal reference (fold_left_merge (List.rev groups))
      && hist_state_equal reference (tree (List.map mk_hist groups))
      && Workload.Hist.count reference = List.length (List.concat groups))

let prop_hist_minmax_mean_exact =
  QCheck.Test.make ~name:"hist min/max/mean exact" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 3_000_000))
    (fun vs ->
      let h = mk_hist vs in
      Workload.Hist.min_value h = List.fold_left min max_int vs
      && Workload.Hist.max_value h = List.fold_left max 0 vs
      && Workload.Hist.mean h
         = float_of_int (List.fold_left ( + ) 0 vs)
           /. float_of_int (List.length vs))

(* --- samplers -------------------------------------------------------------- *)

let sampler_of_index = function
  | 0 -> Workload.Sampler.Constant 7.5
  | 1 -> Workload.Sampler.Exponential { mean = 120.0 }
  | 2 -> Workload.Sampler.Lognormal { mu = 3.0; sigma = 0.8 }
  | _ -> Workload.Sampler.Pareto { xm = 64.0; alpha = 1.3; cap = 4096.0 }

let prop_sampler_replays_from_seed =
  QCheck.Test.make ~name:"sampler stream replays bit-for-bit from seed"
    ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, which) ->
      let s = sampler_of_index which in
      let stream () =
        let rng = Sim.Rng.create ~seed in
        List.init 100 (fun _ -> Workload.Sampler.draw s rng)
      in
      stream () = stream ())

let test_sampler_empirical_means () =
  let n = 100_000 in
  let check_one s ~tol =
    let rng = Sim.Rng.create ~seed:11 in
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. Workload.Sampler.draw s rng
    done;
    let emp = !sum /. float_of_int n in
    let ana = Workload.Sampler.mean s in
    Alcotest.(check bool)
      (Printf.sprintf "%s empirical mean %.2f vs analytic %.2f"
         (Workload.Sampler.name s) emp ana)
      true
      (Float.abs (emp -. ana) /. ana < tol)
  in
  check_one (Workload.Sampler.Constant 42.0) ~tol:1e-9;
  check_one (Workload.Sampler.Exponential { mean = 100.0 }) ~tol:0.02;
  check_one (Workload.Sampler.Lognormal { mu = 3.0; sigma = 1.0 }) ~tol:0.05;
  check_one
    (Workload.Sampler.Pareto { xm = 64.0; alpha = 1.3; cap = 4096.0 })
    ~tol:0.03

let test_pareto_tail_mass () =
  (* Bounded-Pareto tail: P(X > x) has a closed form; the empirical
     exceedance fraction at x = 1024 must sit within 20% of it. *)
  let xm = 64.0 and alpha = 1.3 and cap = 4096.0 in
  let s = Workload.Sampler.Pareto { xm; alpha; cap } in
  let x = 1024.0 in
  let analytic =
    ((xm ** alpha) *. ((x ** -.alpha) -. (cap ** -.alpha)))
    /. (1.0 -. ((xm /. cap) ** alpha))
  in
  let n = 100_000 in
  let rng = Sim.Rng.create ~seed:13 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Workload.Sampler.draw s rng > x then incr hits
  done;
  let emp = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "tail mass %.4f vs analytic %.4f" emp analytic)
    true
    (Float.abs (emp -. analytic) /. analytic < 0.2)

(* --- open loop vs closed loop ---------------------------------------------- *)

(* The defining property of an open-loop generator: the arrival schedule
   (and hence the arrival count) is a pure function of seed, sampler and
   horizon — it cannot depend on how slow the served system is.  A
   closed loop, by contrast, throttles: each client only issues the next
   request after the previous one completes. *)

let open_loop_counts ~work_instr =
  let kern = Kernel.create ~cpus:2 () in
  let counters =
    Workload.Open_loop.run kern ~lanes:2 ~clients:100 ~client_theta:0.0
      ~horizon:(Sim.Time.ms 2) ~seed:5
      ~interarrival:(Workload.Sampler.Exponential { mean = 50.0 })
      ~body:(fun ~self _arrival ->
        let kc = Kernel.kcpu kern (Kernel.Process.cpu_index self) in
        Machine.Cpu.instr (Kernel.Kcpu.cpu kc) work_instr;
        Kernel.Kcpu.sync kc;
        0)
  in
  Kernel.run kern;
  ( Workload.Open_loop.total_arrivals counters,
    Workload.Open_loop.total_completions counters )

let closed_loop_iters ~work_instr =
  let kern = Kernel.create ~cpus:1 () in
  let counters =
    Workload.Driver.run kern
      ~specs:
        [
          {
            Workload.Driver.cpu = 0;
            name = "c";
            think_mean_us = Some 50.0;
            identity = None;
          };
        ]
      ~horizon:(Sim.Time.ms 2) ~seed:5
      ~body:(fun ~client ~iteration:_ ->
        let kc = Kernel.kcpu kern (Kernel.Process.cpu_index client) in
        Machine.Cpu.instr (Kernel.Kcpu.cpu kc) work_instr;
        Kernel.Kcpu.sync kc)
  in
  Kernel.run kern;
  Workload.Driver.total counters

let test_open_loop_schedule_independent () =
  (* ~6 us vs ~300 us of service per arrival (the slow case overloads a
     lane whose mean gap is 50 us). *)
  let fast_a, fast_c = open_loop_counts ~work_instr:100 in
  let slow_a, slow_c = open_loop_counts ~work_instr:5000 in
  Alcotest.(check int) "arrival count independent of service time" fast_a
    slow_a;
  Alcotest.(check int) "fast: every arrival completes" fast_a fast_c;
  Alcotest.(check int) "slow: backlog drained, nothing skipped" slow_a slow_c;
  Alcotest.(check bool) "schedule is non-trivial" true (fast_a > 20);
  let closed_fast = closed_loop_iters ~work_instr:100 in
  let closed_slow = closed_loop_iters ~work_instr:5000 in
  Alcotest.(check bool)
    (Printf.sprintf "closed loop throttles with service time (%d vs %d)"
       closed_fast closed_slow)
    true
    (closed_slow < closed_fast)

(* --- report diff: the `traffic --diff` gate ------------------------------- *)

(* One run with a stage per (name, p99) pair plus the end-to-end row,
   round-tripped through the JSON writer and reader exactly as
   `traffic --out` and `traffic --diff` do.  A NaN p99 is written as
   null. *)
let report_json stages =
  let row (stage, p99_us) : Workload.Report.stage_row =
    {
      stage;
      arrivals = 100;
      ok = 100;
      errors = 0;
      mean_us = 6.0;
      p50_us = 5.0;
      p99_us;
      p999_us = 40.0;
      min_us = 1.0;
      max_us = 50.0;
    }
  in
  let run : Workload.Report.run_section =
    {
      label = "steady";
      transport = "ppc";
      offered_per_sec = 1000.0;
      achieved_per_sec = 990.0;
      arrivals = 100;
      completions = 100;
      run_errors = 0;
      max_backlog_us = 0.0;
      stages = List.map row stages;
      end_to_end = row ("end-to-end", 30.0);
    }
  in
  Workload.Report.to_json
    { title = "t"; scenario = []; runs = [ run ]; curve = []; comparator = [];
      faults = None }
  |> Bench_json.to_string |> Bench_json.of_string

let base_stages = [ ("lookup", 10.0); ("read", 20.0) ]

let diff_against stages =
  Workload.Report_diff.diff ~tolerance:0.25 (report_json base_stages)
    (report_json stages)

let lookup_p99 (o : Workload.Report_diff.outcome) =
  List.find
    (fun (d : Workload.Report_diff.delta) ->
      d.stage = "lookup" && d.metric = "p99_us")
    o.deltas

let test_report_diff_self_clean () =
  let o = diff_against base_stages in
  Alcotest.(check bool) "not drifted" false o.drifted;
  Alcotest.(check (list string)) "nothing missing" [] o.missing;
  (* throughput + 4 latency metrics x (2 stages + end-to-end) *)
  Alcotest.(check int) "every metric compared" 13 (List.length o.deltas);
  Alcotest.(check bool) "all Same" true
    (List.for_all (fun d -> d.Workload.Report_diff.verdict = Same) o.deltas)

let test_report_diff_worse_drifts () =
  let o = diff_against [ ("lookup", 13.0); ("read", 20.0) ] in
  let d = lookup_p99 o in
  Alcotest.(check bool) "drifted" true o.drifted;
  Alcotest.(check bool) "p99 +30% is Worse" true (d.verdict = Worse);
  Alcotest.(check (float 1e-9)) "relative drift" 0.3 d.rel

let test_report_diff_better_passes () =
  let o = diff_against [ ("lookup", 7.0); ("read", 20.0) ] in
  Alcotest.(check bool) "p99 -30% is Better" true ((lookup_p99 o).verdict = Better);
  Alcotest.(check bool) "improvement does not fail" false o.drifted

let test_report_diff_vanished_stage () =
  let o = diff_against [ ("lookup", 10.0) ] in
  Alcotest.(check (list string)) "stage listed"
    [ {|run "steady [ppc]" stage "read"|} ] o.missing;
  Alcotest.(check bool) "drifted" true o.drifted

let test_report_diff_nulled_metric () =
  let o = diff_against [ ("lookup", Float.nan); ("read", 20.0) ] in
  Alcotest.(check (list string)) "metric listed"
    [ {|run "steady [ppc]" stage "lookup" metric "p99_us"|} ] o.missing;
  Alcotest.(check bool) "drifted" true o.drifted

let suites =
  [
    ( "workload.driver",
      [
        Alcotest.test_case "closed loop counts" `Quick test_closed_loop_counts;
        Alcotest.test_case "open loop thinks" `Quick test_open_loop_thinks;
        Alcotest.test_case "prepare hook" `Quick test_prepare_hook_runs_per_client;
      ] );
    ( "workload.open_loop",
      [
        Alcotest.test_case "schedule independent of service time" `Quick
          test_open_loop_schedule_independent;
      ] );
    ( "workload.zipf",
      [
        Alcotest.test_case "theta 0 uniform" `Quick test_zipf_uniform_theta0;
        Alcotest.test_case "theta 0 chi-square" `Quick
          test_zipf_theta0_chi_square;
        Alcotest.test_case "skew" `Quick test_zipf_skew;
        qcheck prop_zipf_in_range;
        qcheck prop_zipf_sample_u_total;
      ] );
    ( "workload.hist",
      [
        qcheck prop_hist_quantile_oracle;
        qcheck prop_hist_merge_trees;
        qcheck prop_hist_minmax_mean_exact;
      ] );
    ( "workload.sampler",
      [
        qcheck prop_sampler_replays_from_seed;
        Alcotest.test_case "empirical means" `Quick test_sampler_empirical_means;
        Alcotest.test_case "pareto tail mass" `Quick test_pareto_tail_mass;
      ] );
    ( "workload.report",
      [
        Alcotest.test_case "self-diff is clean" `Quick test_report_diff_self_clean;
        Alcotest.test_case "p99 +30% is drift" `Quick test_report_diff_worse_drifts;
        Alcotest.test_case "-30% is better, not a failure" `Quick
          test_report_diff_better_passes;
        Alcotest.test_case "vanished stage is missing" `Quick
          test_report_diff_vanished_stage;
        Alcotest.test_case "nulled metric is missing" `Quick
          test_report_diff_nulled_metric;
      ] );
  ]
