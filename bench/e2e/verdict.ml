(* The verdict of [ppcbench compare]: two sets of runs, A (the parent)
   and B (the change), judged metric by metric against the bound
   BENCHMARK.json fixes for it.

     info        the runs come from hosts with different fingerprints:
                 reported, never judged
     unresolved  either side's inter-quartile spread is wider than the
                 bound, and B does not beat A on every run
     worse       B's median is worse than A's by more than the bound
     ok          otherwise

   [fail_share] is judged with an absolute bound of zero: B may not fail
   more than A did. *)

type better = Lower | Higher
type t = Ok | Worse | Unresolved | Info

let to_string = function
  | Ok -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Info -> "info"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("Verdict.better_of_string: " ^ s)

type spec = { name : string; better : better; bound : float }

type run = {
  workload : string;
  host : (string * string) list;
  metrics : (string * float) list;
  fail_share : float;
}

type row = {
  workload : string;
  metric : string;
  a : float list;
  b : float list;
  change : float;  (* how much worse B's median is, as a share of A's *)
  verdict : t;
}

let list_min = List.fold_left Float.min Float.infinity
let list_max = List.fold_left Float.max Float.neg_infinity

let judge ~better ~bound ~same_host a b =
  let ma = Bench_gate.median a and mb = Bench_gate.median b in
  let change =
    match better with
    | Lower -> (mb -. ma) /. Float.abs ma
    | Higher -> (ma -. mb) /. Float.abs ma
  in
  let b_wins_every_run =
    match better with
    | Lower -> list_max b < list_min a
    | Higher -> list_min b > list_max a
  in
  let verdict =
    if not same_host then Info
    else if a = [] || b = [] then Unresolved
    else if Float.max (Stats.spread a) (Stats.spread b) > bound then
      if b_wins_every_run then Ok else Unresolved
    else if change > bound then Worse
    else Ok
  in
  (change, verdict)

let compare_sets specs (a : run list) (b : run list) =
  let hosts = List.sort_uniq compare (List.map (fun (r : run) -> r.host) (a @ b)) in
  let same_host = List.length hosts <= 1 in
  let workloads =
    List.fold_left
      (fun acc (r : run) -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (a @ b)
  in
  let of_workload w runs = List.filter (fun (r : run) -> r.workload = w) runs in
  List.concat_map
    (fun w ->
      let ra = of_workload w a and rb = of_workload w b in
      let values name runs =
        List.filter_map (fun (r : run) -> List.assoc_opt name r.metrics) runs
      in
      let gated =
        List.map
          (fun s ->
            let va = values s.name ra and vb = values s.name rb in
            let change, verdict =
              judge ~better:s.better ~bound:s.bound ~same_host va vb
            in
            { workload = w; metric = s.name; a = va; b = vb; change; verdict })
          specs
      in
      let fa = List.map (fun (r : run) -> r.fail_share) ra
      and fb = List.map (fun (r : run) -> r.fail_share) rb in
      let fail =
        let change = list_max fb -. list_max fa in
        let verdict =
          if not same_host then Info
          else if fa = [] || fb = [] then Unresolved
          else if change > 0. then Worse
          else Ok
        in
        { workload = w; metric = "fail_share"; a = fa; b = fb; change; verdict }
      in
      gated @ [ fail ])
    workloads

let any_worse rows = List.exists (fun r -> r.verdict = Worse) rows
