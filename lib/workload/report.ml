(* Report rendering.  The markdown is for humans (CI uploads it as a
   build artifact); the JSON is for machines and must be byte-stable, so
   it is a [Bench_json.t] written by the repo's one JSON writer
   (two-space indent, shortest round-trip-exact floats); field order is
   authorial and fixed. *)

type stage_row = {
  stage : string;
  arrivals : int;
  ok : int;
  errors : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  min_us : float;
  max_us : float;
}

let us_of_ns ns = float_of_int ns /. 1000.0

let stage_row ~stage ~arrivals ~ok ~errors ~hist =
  {
    stage;
    arrivals;
    ok;
    errors;
    mean_us = Hist.mean hist /. 1000.0;
    p50_us = us_of_ns (Hist.p50 hist);
    p99_us = us_of_ns (Hist.p99 hist);
    p999_us = us_of_ns (Hist.p999 hist);
    min_us = us_of_ns (Hist.min_value hist);
    max_us = us_of_ns (Hist.max_value hist);
  }

type run_section = {
  label : string;
  transport : string;
  offered_per_sec : float;
  achieved_per_sec : float;
  arrivals : int;
  completions : int;
  run_errors : int;
  max_backlog_us : float;
  stages : stage_row list;
  end_to_end : stage_row;
}

type curve_point = {
  offered_per_sec : float;
  achieved_per_sec : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

type fault_check = { check : string; injected : int; observed : int }

type fault_section = {
  checks : fault_check list;
  retried_ok : int;
  failed_arrivals : int;
  reconciled : bool;
}

type t = {
  title : string;
  scenario : string list;
  runs : run_section list;
  curve : curve_point list;
  comparator : (string * float * float) list;
  faults : fault_section option;
}

let reconcile checks =
  List.for_all (fun c -> c.injected = c.observed) checks

(* --- markdown ------------------------------------------------------------- *)

let bpf = Printf.bprintf

let md_stage_table b rows =
  bpf b "| stage | calls | ok | err | mean µs | p50 µs | p99 µs | p999 µs | max µs |\n";
  bpf b "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun r ->
      bpf b "| %s | %d | %d | %d | %.1f | %.1f | %.1f | %.1f | %.1f |\n"
        r.stage r.arrivals r.ok r.errors r.mean_us r.p50_us r.p99_us r.p999_us
        r.max_us)
    rows

let md_run b r =
  bpf b "### %s (%s)\n\n" r.label r.transport;
  bpf b
    "offered %.0f/s, achieved %.0f/s; %d arrivals, %d completed, %d failed; \
     max lane backlog %.1f µs\n\n"
    r.offered_per_sec r.achieved_per_sec r.arrivals r.completions r.run_errors
    r.max_backlog_us;
  md_stage_table b (r.stages @ [ r.end_to_end ]);
  bpf b "\n"

let to_markdown t =
  let b = Buffer.create 4096 in
  bpf b "# %s\n\n" t.title;
  List.iter (fun line -> bpf b "%s\n" line) t.scenario;
  bpf b "\n";
  List.iter (md_run b) t.runs;
  if t.curve <> [] then begin
    bpf b "### Throughput vs offered load\n\n";
    bpf b "| offered/s | achieved/s | p50 µs | p99 µs | p999 µs |\n";
    bpf b "|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun p ->
        bpf b "| %.0f | %.0f | %.1f | %.1f | %.1f |\n" p.offered_per_sec
          p.achieved_per_sec p.p50_us p.p99_us p.p999_us)
      t.curve;
    bpf b "\n"
  end;
  if t.comparator <> [] then begin
    bpf b "### Channel vs legacy message-passing IPC\n\n";
    bpf b "| metric | modern (ppc) | legacy (msg) | legacy/modern |\n";
    bpf b "|---|---:|---:|---:|\n";
    List.iter
      (fun (name, modern, legacy) ->
        let ratio = if modern = 0.0 then Float.nan else legacy /. modern in
        bpf b "| %s | %.1f | %.1f | %.2fx |\n" name modern legacy ratio)
      t.comparator;
    bpf b "\n"
  end;
  (match t.faults with
  | None -> ()
  | Some f ->
      bpf b "### Fault injection reconciliation\n\n";
      bpf b "| check | injected | observed |\n|---|---:|---:|\n";
      List.iter
        (fun c -> bpf b "| %s | %d | %d |\n" c.check c.injected c.observed)
        f.checks;
      bpf b "\n%d rejected attempts recovered by re-lookup; %d arrivals failed.\n"
        f.retried_ok f.failed_arrivals;
      bpf b "Reconciled: **%s** — every client-observed error is accounted to \
             an injected fault, one for one.\n\n"
        (if f.reconciled then "yes" else "NO"));
  Buffer.contents b

(* --- json ----------------------------------------------------------------- *)

let json_stage r =
  Bench_json.(
    Obj
      [
        ("stage", Str r.stage);
        ("calls", Num (float_of_int r.arrivals));
        ("ok", Num (float_of_int r.ok));
        ("errors", Num (float_of_int r.errors));
        ("mean_us", Num r.mean_us);
        ("p50_us", Num r.p50_us);
        ("p99_us", Num r.p99_us);
        ("p999_us", Num r.p999_us);
        ("min_us", Num r.min_us);
        ("max_us", Num r.max_us);
      ])

let json_run r =
  Bench_json.(
    Obj
      [
        ("label", Str r.label);
        ("transport", Str r.transport);
        ("offered_per_sec", Num r.offered_per_sec);
        ("achieved_per_sec", Num r.achieved_per_sec);
        ("arrivals", Num (float_of_int r.arrivals));
        ("completions", Num (float_of_int r.completions));
        ("errors", Num (float_of_int r.run_errors));
        ("max_backlog_us", Num r.max_backlog_us);
        ("stages", Arr (List.map json_stage r.stages));
        ("end_to_end", json_stage r.end_to_end);
      ])

let to_json t =
  Bench_json.(
    Obj
      [
        ("title", Str t.title);
        ("scenario", Arr (List.map (fun s -> Str s) t.scenario));
        ("runs", Arr (List.map json_run t.runs));
        ( "curve",
          Arr
            (List.map
               (fun p ->
                 Obj
                   [
                     ("offered_per_sec", Num p.offered_per_sec);
                     ("achieved_per_sec", Num p.achieved_per_sec);
                     ("p50_us", Num p.p50_us);
                     ("p99_us", Num p.p99_us);
                     ("p999_us", Num p.p999_us);
                   ])
               t.curve) );
        ( "comparator",
          Arr
            (List.map
               (fun (name, modern, legacy) ->
                 Obj
                   [
                     ("metric", Str name);
                     ("modern", Num modern);
                     ("legacy", Num legacy);
                   ])
               t.comparator) );
        ( "faults",
          match t.faults with
          | None -> Null
          | Some f ->
              Obj
                [
                  ( "checks",
                    Arr
                      (List.map
                         (fun c ->
                           Obj
                             [
                               ("check", Str c.check);
                               ("injected", Num (float_of_int c.injected));
                               ("observed", Num (float_of_int c.observed));
                             ])
                         f.checks) );
                  ("retried_ok", Num (float_of_int f.retried_ok));
                  ("failed_arrivals", Num (float_of_int f.failed_arrivals));
                  ("reconciled", Bool f.reconciled);
                ] );
      ])
