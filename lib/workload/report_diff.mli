(** Structural drift comparison of two traffic-report JSON files (the
    [`ppc_sim traffic --diff`] gate).  Runs are matched by label and
    stages by name; latency percentiles and run-level throughput are
    compared under a relative tolerance, failing only in the worse
    direction (latency up, throughput down).  Anything present in OLD
    but missing from NEW — a run, a stage, or a metric that is absent
    or null — is always drift. *)

type verdict = Better | Same | Worse

val classify :
  tolerance:float -> higher_is_worse:bool -> float -> float -> float * verdict
(** [classify ~tolerance ~higher_is_worse old_v new_v] is the one
    relative-drift rule, shared by this gate and the wall-clock bench
    gate.  Returns the relative change oriented so positive is worse,
    and [Worse] when it exceeds [tolerance] or is NaN, [Better] when
    it is below [-tolerance], [Same] otherwise. *)

type delta = {
  run : string;
  stage : string;  (** ["(run)"] for run-level metrics *)
  metric : string;
  old_v : float;
  new_v : float;
  rel : float;  (** signed relative change, worse direction positive *)
  verdict : verdict;
}

type outcome = {
  tolerance : float;  (** relative, as given to {!diff} *)
  deltas : delta list;
  missing : string list;  (** runs/stages/metrics in OLD absent from NEW *)
  drifted : bool;  (** any [Worse] delta, or anything missing *)
}

val diff : tolerance:float -> Bench_json.t -> Bench_json.t -> outcome
(** [tolerance] is relative (0.25 = 25%). *)

val diff_files : tolerance:float -> string -> string -> outcome
(** @raise Bench_json.Parse_error on malformed input. *)

val to_markdown : outcome -> string
(** The per-stage delta table. *)
