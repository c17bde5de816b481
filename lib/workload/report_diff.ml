(* Structural comparison of two traffic-report JSON files — the
   regression gate for `ppc_sim traffic --diff OLD.json NEW.json`.

   Runs are matched by label, stages by name, and the latency
   percentiles (mean/p50/p99/p999) plus the run-level achieved
   throughput are compared under a relative tolerance.  The gate is
   one-sided: only drift in the *worse* direction (latency up,
   throughput down) beyond the tolerance fails; improvements are
   reported but never block.  Anything present in OLD but missing from
   NEW — a run, a stage, or a metric that is absent or null — is always
   a failure: a silently vanished number is the worst kind of drift.

   The files are read with [Bench_json], the same module that writes
   them, and [classify] is the one drift rule: the wall-clock bench gate
   ([Bench_gate]) judges its subjects with it too. *)

type verdict = Better | Same | Worse

type delta = {
  run : string;
  stage : string;  (** "(run)" for run-level metrics *)
  metric : string;
  old_v : float;
  new_v : float;
  rel : float;  (** signed relative change, worse direction positive *)
  verdict : verdict;
}

type outcome = {
  tolerance : float;
  deltas : delta list;
  missing : string list;  (** runs/stages/metrics in OLD absent from NEW *)
  drifted : bool;  (** any Worse delta beyond tolerance, or any missing *)
}

let classify ~tolerance ~higher_is_worse old_v new_v =
  (* Relative change, oriented so positive = worse.  Sub-microsecond
     noise floors divide-by-almost-zero into meaninglessness; treat a
     vanishing baseline as an absolute comparison against itself.  A
     NaN on either side makes [rel] NaN, which never passes. *)
  let base = Float.max (Float.abs old_v) 1e-9 in
  let change = (new_v -. old_v) /. base in
  let rel = if higher_is_worse then change else -.change in
  let verdict =
    if Float.is_nan rel || rel > tolerance then Worse
    else if rel < -.tolerance then Better
    else Same
  in
  (rel, verdict)

(* Latency metrics are compared per stage and end-to-end; higher is
   worse.  Throughput is run-level; lower is worse. *)
let latency_metrics = [ "mean_us"; "p50_us"; "p99_us"; "p999_us" ]

(* A report may carry the same label on both transports (modern and
   legacy comparator runs), so the match key is label + transport. *)
let runs j =
  match Bench_json.member "runs" j with
  | Some (Bench_json.Arr rs) ->
      List.filter_map
        (fun r ->
          match (Bench_json.member "label" r, Bench_json.member "transport" r) with
          | Some (Bench_json.Str l), Some (Bench_json.Str tr) ->
              Some (l ^ " [" ^ tr ^ "]", r)
          | Some (Bench_json.Str l), _ -> Some (l, r)
          | _ -> None)
        rs
  | _ -> []

(* Named stages, then the end-to-end row under the name "end_to_end". *)
let stages r =
  let named =
    match Bench_json.member "stages" r with
    | Some (Bench_json.Arr ss) ->
        List.filter_map
          (fun s ->
            match Bench_json.member "stage" s with
            | Some (Bench_json.Str n) -> Some (n, s)
            | _ -> None)
          ss
    | _ -> []
  in
  match Bench_json.member "end_to_end" r with
  | Some e -> named @ [ ("end_to_end", e) ]
  | None -> named

let diff ~tolerance old_json new_json =
  let missing = ref [] and deltas = ref [] in
  let compare ~run ~stage ~higher_is_worse old_j new_j metric =
    match (Bench_json.member metric old_j, Bench_json.member metric new_j) with
    | Some (Bench_json.Num old_v), Some (Bench_json.Num new_v) ->
        let rel, verdict = classify ~tolerance ~higher_is_worse old_v new_v in
        deltas := { run; stage; metric; old_v; new_v; rel; verdict } :: !deltas
    | Some (Bench_json.Num _), _ ->
        missing :=
          Printf.sprintf "run %S stage %S metric %S" run stage metric
          :: !missing
    | _ -> ()
  in
  let new_runs = runs new_json in
  List.iter
    (fun (run, old_run) ->
      match List.assoc_opt run new_runs with
      | None -> missing := Printf.sprintf "run %S" run :: !missing
      | Some new_run ->
          compare ~run ~stage:"(run)" ~higher_is_worse:false old_run new_run
            "achieved_per_sec";
          let new_stages = stages new_run in
          List.iter
            (fun (stage, old_stage) ->
              match List.assoc_opt stage new_stages with
              | None ->
                  missing :=
                    Printf.sprintf "run %S stage %S" run stage :: !missing
              | Some new_stage ->
                  List.iter
                    (compare ~run ~stage ~higher_is_worse:true old_stage
                       new_stage)
                    latency_metrics)
            (stages old_run))
    (runs old_json);
  let deltas = List.rev !deltas and missing = List.rev !missing in
  {
    tolerance;
    deltas;
    missing;
    drifted =
      missing <> [] || List.exists (fun d -> d.verdict = Worse) deltas;
  }

let diff_files ~tolerance old_path new_path =
  diff ~tolerance (Bench_json.of_file old_path) (Bench_json.of_file new_path)

(* --- rendering ------------------------------------------------------------- *)

let to_markdown o =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "## Traffic report drift (tolerance %.0f%%, worse-direction only)\n\n"
    (100.0 *. o.tolerance);
  if o.missing <> [] then begin
    bpf "### Missing from NEW\n\n";
    List.iter (fun m -> bpf "- %s\n" m) o.missing;
    bpf "\n"
  end;
  bpf "| run | stage | metric | old | new | drift | verdict |\n";
  bpf "|---|---|---|---:|---:|---:|---|\n";
  List.iter
    (fun d ->
      bpf "| %s | %s | %s | %.2f | %.2f | %+.1f%% | %s |\n" d.run d.stage
        d.metric d.old_v d.new_v
        (100.0 *. d.rel)
        (match d.verdict with
        | Worse -> "**WORSE**"
        | Better -> "better"
        | Same -> "ok"))
    o.deltas;
  let worse = List.length (List.filter (fun d -> d.verdict = Worse) o.deltas) in
  bpf "\n%d metrics compared, %d beyond tolerance in the worse direction%s.\n"
    (List.length o.deltas) worse
    (if o.missing = [] then ""
     else Printf.sprintf ", %d missing" (List.length o.missing));
  bpf "Verdict: **%s**\n" (if o.drifted then "DRIFT" else "clean");
  Buffer.contents b
