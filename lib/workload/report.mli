(** FreeBSD-11-IPC-style performance-analysis report: one generated
    artifact per traffic-study run, as markdown (human) and JSON
    (machine, byte-stable for CI diffing).

    The JSON is a {!Bench_json.t}, so it is written by the repo's one
    JSON writer — two-space indent, shortest round-trip-exact floats —
    and a deterministic run re-rendered anywhere yields identical
    bytes. *)

type stage_row = {
  stage : string;
  arrivals : int;  (** call attempts at this stage *)
  ok : int;
  errors : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  min_us : float;
  max_us : float;
}

val stage_row :
  stage:string -> arrivals:int -> ok:int -> errors:int -> hist:Hist.t -> stage_row
(** Fold a latency histogram (nanosecond values) into a table row in
    microseconds. *)

type run_section = {
  label : string;
  transport : string;  (** "ppc" or "legacy-msg" *)
  offered_per_sec : float;
  achieved_per_sec : float;
  arrivals : int;  (** scheduled arrivals (scenario executions) *)
  completions : int;
  run_errors : int;  (** arrivals that ended in an error after retries *)
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

type fault_check = {
  check : string;
  injected : int;  (** counted at the injection site (server side) *)
  observed : int;  (** counted at the clients *)
}

type fault_section = {
  checks : fault_check list;
  retried_ok : int;  (** rejected attempts recovered via re-lookup *)
  failed_arrivals : int;
  reconciled : bool;  (** every check has injected = observed *)
}

type t = {
  title : string;
  scenario : string list;  (** prose lines describing the setup *)
  runs : run_section list;
  curve : curve_point list;  (** throughput vs offered load *)
  comparator : (string * float * float) list;
      (** metric name, modern value, legacy value *)
  faults : fault_section option;
}

val reconcile : fault_check list -> bool

val to_markdown : t -> string
val to_json : t -> Bench_json.t
