(* What one ppcbench run reports: every metric by name with its unit,
   the host fingerprint, and the operation counts.  The names and units
   are those BENCHMARK.json at the repository root lists, the one list
   of them; a run that sets a metric the file does not list fails. *)

(* --- reading JSON ------------------------------------------------------------ *)

let member k j =
  match Bench_json.member k j with
  | Some v -> v
  | None -> failwith ("no \"" ^ k ^ "\" in the JSON")

let str = function Bench_json.Str s -> s | _ -> failwith "expected a string"
let num = function Bench_json.Num f -> f | _ -> failwith "expected a number"

let obj = function
  | Bench_json.Obj kvs -> kvs
  | _ -> failwith "expected an object"

(* A metric list of BENCHMARK.json: "end_to_end" or "per_layer". *)
let section bench name =
  match Bench_json.member name (Bench_json.of_file bench) with
  | Some (Bench_json.Arr ms) -> ms
  | _ -> failwith (bench ^ ": no " ^ name ^ " list")

(* (name, unit) of each metric, in BENCHMARK.json's order.  A per-layer
   metric a workload does not exercise reads 0 there (README.md says
   which workload loads which layer). *)
type catalog = { end_to_end : (string * string) list; per_layer : (string * string) list }

let catalog bench =
  let metrics name =
    List.map (fun m -> (str (member "name" m), str (member "unit" m))) (section bench name)
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

let unit_of cat name = List.assoc name (cat.end_to_end @ cat.per_layer)

(* --- one run ------------------------------------------------------------------ *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  host : (string * string) list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let correct r = r.failed = 0

(* The metrics [r] sets that [cat] does not list. *)
let unlisted cat r =
  List.filter_map
    (fun (name, _) -> if List.mem_assoc name (cat.end_to_end @ cat.per_layer) then None else Some name)
    r.metrics

(* The metrics the run reports: the end-to-end set, plus the per-layer
   set in a traced run; a per-layer metric the workload did not set
   reads 0. *)
let reported cat r =
  let pick (name, _) =
    (name, Option.value (List.assoc_opt name r.metrics) ~default:0.)
  in
  List.map pick cat.end_to_end @ if r.trace then List.map pick cat.per_layer else []

let metric_json cat (name, v) =
  (name, Bench_json.Obj [ ("value", Bench_json.Num v); ("unit", Bench_json.Str (unit_of cat name)) ])

let to_json cat r =
  let open Bench_json in
  Obj
    [
      ("schema", Str "ppcbench-1");
      ("workload", Str r.workload);
      ("seed", Num (float_of_int r.seed));
      ("seconds", Num r.seconds);
      ("trace", Bool r.trace);
      ("host", Obj (List.map (fun (k, v) -> (k, Str v)) r.host));
      ("correct", Bool (correct r));
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ("metrics", Obj (List.map (metric_json cat) (reported cat r)));
    ]

(* The runner's result line: one JSON object on one line, holding the
   end-to-end metrics of an untraced run or the per-layer metrics of a
   traced one.  Bench_json's writer breaks lines only between values and
   escapes newlines inside strings, so joining its trimmed lines keeps
   the JSON intact. *)
let result_line cat r =
  let names = List.map fst (if r.trace then cat.per_layer else cat.end_to_end) in
  let metrics = List.filter (fun (n, _) -> List.mem n names) (reported cat r) in
  Bench_json.Obj
    [
      ("correct", Bench_json.Bool (correct r));
      ("attempted", Bench_json.Num (float_of_int r.attempted));
      ("failed", Bench_json.Num (float_of_int r.failed));
      ("metrics", Bench_json.Obj (List.map (metric_json cat) metrics));
    ]
  |> Bench_json.to_string |> String.split_on_char '\n' |> List.map String.trim
  |> String.concat ""

(* --- reading result files back ------------------------------------------- *)

(* (name, value, unit) of every metric in a result file. *)
let metrics_of_json j =
  List.map
    (fun (name, m) -> (name, num (member "value" m), str (member "unit" m)))
    (obj (member "metrics" j))

let run_of_json j : Verdict.run =
  let metrics = List.map (fun (n, v, _) -> (n, v)) (metrics_of_json j) in
  let attempted = num (member "attempted" j) and failed = num (member "failed" j) in
  {
    workload = str (member "workload" j);
    host = List.map (fun (k, v) -> (k, str v)) (obj (member "host" j));
    metrics;
    fail_share = (if attempted > 0. then failed /. attempted else 1.);
  }
