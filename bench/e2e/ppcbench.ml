(* ppcbench: the end-to-end benchmark of the PPC runtime.  See README.md
   in this directory for the workloads, every metric, and how to run,
   trace and compare.

     ppcbench run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     ppcbench all [--seed N] [--out DIR | --trace DIR]
     ppcbench compare DIR_A DIR_B
     ppcbench selftest

   Each reads the metric names, units and bounds from --bench (default
   BENCHMARK.json in the current directory).  [run] measures one
   workload in this process and prints every metric by name with its
   unit; its last line is one JSON object with the end-to-end metrics
   (untraced) or the per-layer metrics (traced).  It exits 1 on any
   failed or wrong reply.  [all] re-executes [run] once per workload,
   20 s each untraced and 10 s traced, so every workload starts in a
   fresh process and no fork ever follows a [Domain.spawn]. *)

open Cmdliner

let workloads = [ "pingpong"; "open-sparse"; "open-busy"; "domain-channel" ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let print_metric cat (name, v) =
  Printf.printf "  %-32s %18s  %s\n" name (Bench_json.float_repr v) (Result_file.unit_of cat name)

(* --- run ------------------------------------------------------------------------ *)

let measure bench workload seed seconds trace out scratch =
  let cat = Result_file.catalog bench in
  mkdir_p scratch;
  let seconds_ns = int_of_float (seconds *. 1e9) in
  let cfg = { Loops.seed; seconds_ns; trace; scratch } in
  let acc = Rows.acc () in
  let shm shape = Shm_load.run cfg shape acc in
  (match workload with
  | "pingpong" ->
      shm Shm_load.Pingpong;
      if trace then begin
        let ns = seconds_ns / 5 in
        let uds = Os_ref.uds_p50 ~ns acc and pipe = Os_ref.pipe_p50 ~ns acc in
        let shm_us = List.assoc "lat_p50_us" acc.metrics in
        let uds_us = Rows.us uds in
        Rows.set acc "os.uds_rtt_us_p50" uds_us;
        Rows.set acc "os.pipe_rtt_us_p50" (Rows.us pipe);
        Rows.set acc "os.uds_over_shm_p50" (uds_us /. shm_us);
        Printf.printf
          "shm PPC p50 is %.3f× a Unix-socket round trip on this host (%.2f us vs %.2f us)\n"
          (shm_us /. uds_us) shm_us uds_us
      end
  | "open-sparse" -> shm Shm_load.Open_sparse
  | "open-busy" -> shm Shm_load.Open_busy
  | _ -> Chan_load.run cfg acc);
  Rows.set acc "fail_share"
    (float_of_int acc.failed /. float_of_int (max 1 acc.attempted));
  let r =
    {
      Result_file.workload;
      seed;
      seconds;
      trace;
      host = Host.fingerprint ();
      attempted = acc.attempted;
      failed = acc.failed;
      metrics = acc.metrics;
    }
  in
  (match Result_file.unlisted cat r with
  | [] -> ()
  | names -> failwith (bench ^ " does not list " ^ String.concat ", " names));
  Printf.printf "%s seed=%d seconds=%g trace=%b: %d operations, %d failed\n" workload seed
    seconds trace r.attempted r.failed;
  List.iter (print_metric cat) (Result_file.reported cat r);
  Option.iter (fun f -> Bench_json.to_file f (Result_file.to_json cat r)) out;
  print_endline (Result_file.result_line cat r);
  if Result_file.correct r then 0 else 1

let run bench workload seed seconds trace out scratch =
  if seconds > 0. then measure bench workload seed seconds trace out scratch
  else begin
    prerr_endline "ppcbench run: --seconds must be positive";
    2
  end

(* --- all: one fresh process per workload ----------------------------------------- *)

let run_child ?(stdout = Unix.stdout) ~bench ~workload ~seed ~seconds ~trace ~out ~scratch () =
  flush Stdlib.stdout;
  let args =
    [|
      Sys.executable_name; "run"; "--bench"; bench; "--workload"; workload; "--seed";
      string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace";
      (if trace then "1" else "0"); "--out"; out; "--scratch"; scratch;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin stdout Unix.stderr in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

(* The first DIR/W.K.json not yet taken, so repeated [all] runs into one
   directory make a run set. *)
let fresh_file dir workload =
  let rec go k =
    let f = Filename.concat dir (Printf.sprintf "%s.%d.json" workload k) in
    if Sys.file_exists f then go (k + 1) else f
  in
  go 1

let all bench seed out trace_dir scratch =
  let dir, trace, seconds =
    match trace_dir with Some d -> (d, true, 10.) | None -> (out, false, 20.)
  in
  mkdir_p dir;
  let ok =
    List.for_all Fun.id
      (List.map
         (fun workload ->
           run_child ~bench ~workload ~seed ~seconds ~trace ~out:(fresh_file dir workload)
             ~scratch ())
         workloads)
  in
  if ok then 0 else 1

(* --- compare ----------------------------------------------------------------------- *)

let results dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> Bench_json.of_file (Filename.concat dir f))

let compare_cmd_run bench dir_a dir_b =
  let specs =
    List.map
      (fun m ->
        {
          Verdict.name = Result_file.str (Result_file.member "name" m);
          better = Verdict.better_of_string (Result_file.str (Result_file.member "better" m));
          bound = Result_file.num (Result_file.member "bound" m);
        })
      (Result_file.section bench "end_to_end")
  in
  let untraced dir =
    List.filter (fun j -> Bench_json.member "trace" j = Some (Bench_json.Bool false)) (results dir)
    |> List.map Result_file.run_of_json
  in
  let a = untraced dir_a and b = untraced dir_b in
  let show_hosts name (runs : Verdict.run list) =
    List.iter
      (fun h ->
        Printf.printf "%s host: %s\n" name
          (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) h)))
      (List.sort_uniq compare (List.map (fun (r : Verdict.run) -> r.host) runs))
  in
  show_hosts "A" a;
  show_hosts "B" b;
  let rows = Verdict.compare_sets specs a b in
  let side xs =
    let q1, med, q3 = Stats.quartiles xs in
    Printf.sprintf "%10.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length xs)
  in
  Printf.printf "%-15s %-12s %-36s %-36s %9s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "worse by" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      Printf.printf "%-15s %-12s %-36s %-36s %8.2f%%  %s\n" r.workload r.metric (side r.a)
        (side r.b) (100. *. r.change) (Verdict.to_string r.verdict))
    rows;
  if List.exists (fun (r : Verdict.row) -> r.verdict = Verdict.Info) rows then
    print_endline "hosts differ: the comparison is informational";
  if Verdict.any_worse rows then 1 else 0

(* --- selftest ------------------------------------------------------------------------ *)

(* Every workload for 1 s with tracing on; each result must name every
   metric in BENCHMARK.json with its unit, fail nothing and join its
   spans without a negative gap.  (A run that sets a metric
   BENCHMARK.json does not list fails by itself.) *)
let selftest bench scratch =
  let dir = Filename.concat scratch "selftest" in
  mkdir_p dir;
  let wanted =
    let cat = Result_file.catalog bench in
    cat.end_to_end @ cat.per_layer
  in
  let quiet = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun workload ->
      let out = Filename.concat dir (workload ^ ".json") in
      if
        not
          (run_child ~stdout:quiet ~bench ~workload ~seed:1 ~seconds:1. ~trace:true ~out
             ~scratch:dir ())
      then
        problem "%s: run failed" workload
      else begin
        let j = Bench_json.of_file out in
        let got = Result_file.metrics_of_json j in
        List.iter
          (fun (name, unit) ->
            match List.find_opt (fun (n, _, _) -> n = name) got with
            | None -> problem "%s: no metric %s" workload name
            | Some (_, _, u) when u <> unit -> problem "%s: %s in %s, not %s" workload name u unit
            | Some _ -> ())
          wanted;
        let value name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) got in
        if Result_file.member "correct" j <> Bench_json.Bool true then problem "%s: wrong replies" workload;
        if value "fail_share" <> Some 0. then problem "%s: fail_share is not 0" workload;
        if value "trace.negative_gaps" <> Some 0. then problem "%s: negative span gaps" workload
      end)
    workloads;
  Unix.close quiet;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  List.iter (Printf.printf "selftest: %s\n") (List.rev !problems);
  if !problems = [] then begin
    print_endline "selftest: ok";
    0
  end
  else 1

(* --- command line ---------------------------------------------------------------------- *)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.")

let scratch_arg =
  Arg.(
    value
    & opt string "_build/ppcbench"
    & info [ "scratch" ] ~doc:"Directory for segment and server report files.")

let bench_arg =
  Arg.(
    value & opt file "BENCHMARK.json"
    & info [ "bench" ] ~doc:"The benchmark definition (metric names, units, bounds).")

let run_cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
      & info [ "workload" ] ~doc:"One of pingpong, open-sparse, open-busy, domain-channel.")
  in
  let seconds = Arg.(value & opt float 20. & info [ "seconds" ] ~doc:"Measured seconds.") in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~doc:"1: stamp spans and report the per-layer metrics.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write the result JSON here.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure one workload in this process.")
    Term.(const run $ bench_arg $ workload $ seed_arg $ seconds $ trace $ out $ scratch_arg)

let all_cmd =
  let out =
    Arg.(
      value
      & opt string "_build/ppcbench/results"
      & info [ "out" ] ~doc:"Result directory (untraced).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"DIR" ~doc:"Traced run; results go to $(docv).")
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every workload, each in a fresh process: 20 s each untraced, 10 s traced.")
    Term.(const all $ bench_arg $ seed_arg $ out $ trace $ scratch_arg)

let compare_cmd =
  let dir n = Arg.(required & pos n (some dir) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Judge run set B against run set A, per workload and end-to-end metric: ok, worse or \
          unresolved against the bound in BENCHMARK.json; informational across hosts.  Exits 1 \
          on worse.")
    Term.(const compare_cmd_run $ bench_arg $ dir 0 $ dir 1)

let selftest_cmd =
  Cmd.v
    (Cmd.info "selftest" ~doc:"Every workload for 1 s, traced, checked against BENCHMARK.json.")
    Term.(const selftest $ bench_arg $ scratch_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ppcbench" ~doc:"End-to-end benchmark of the PPC runtime")
          [ run_cmd; all_cmd; compare_cmd; selftest_cmd ]))
