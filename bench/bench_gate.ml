(* Wall-clock regression gate: the subjects whose *real machine time*
   CI refuses to let regress, with per-subject tolerance bounds
   calibrated from repeated measurement.

   The simulated section of BENCH_PR<n>.json is byte-exact and CI diffs
   it structurally.  Wall-clock numbers can never be byte-exact, so the
   gate works in ratios: emitting a trajectory point measures every
   gated subject [repeats] times, records the median and a tolerance of
   max(floor, 3 x observed relative spread) clamped to a per-subject
   cap, and checking re-measures
   under the same knobs and fails only if the fresh median drifts past
   the recorded tolerance in the *bad* direction (throughput down,
   latency up).  A faster run never fails the gate.

   Everything here is self-contained — each measurement round builds its
   own table, channel server and clients — so the gate can run from the
   bench driver and from the test suite without sharing warm state. *)

open Bechamel
open Toolkit

type direction = Higher_better | Lower_better

type spec = {
  name : string;
  unit_label : string;
  direction : direction;
  floor : float;
      (* minimum relative tolerance, e.g. 0.30 = fail beyond a 30%
         regression even if the calibration run was perfectly quiet *)
  cap : float;
      (* maximum relative tolerance: on a host so noisy that 3 x spread
         exceeds this, the bound stops widening — a higher_better
         subject with tolerance >= 1.0 could never fail at all, and a
         gate that can't fail is no gate *)
}

(* The gated subjects.  Throughput subjects get a tighter floor than
   ns-scale subjects: an OLS estimate over a fixed quota is noisier than
   a multi-thousand-call wall-clock average.  All floors are far below
   the 2.3x containment tax this PR wins back, which is the regression
   class the gate exists to catch. *)
let specs =
  [
    {
      name = "channel-1shard";
      unit_label = "calls/s";
      direction = Higher_better;
      floor = 0.30;
      cap = 0.75;
    };
    {
      name = "channel-2shards";
      unit_label = "calls/s";
      direction = Higher_better;
      floor = 0.30;
      cap = 0.75;
    };
    {
      name = "local-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 0.50;
      cap = 4.0;
    };
    {
      name = "channel-inline-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 0.50;
      cap = 4.0;
    };
    {
      name = "channel-deadline-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 0.50;
      cap = 4.0;
    };
    (* The PR7 bulk-data sweep, gated at its three regimes: payload in
       the registers (4 KB), through the async copy engine (256 KB),
       and as a zero-copy grant handoff (4 MB).  Each is ns per whole
       payload, so a regression anywhere on the bulk path moves one of
       them. *)
    {
      name = "copy-register-4k-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 0.50;
      cap = 4.0;
    };
    (* The engine and grant subjects touch megabytes per measurement,
       so their run-to-run variance follows the host's memory and
       scheduler noise, not the engine: a calibration round that lands
       on a quiet window records a spread far below what the next run
       will see.  A wider floor keeps the gate meaningful (a lost batch
       or a broken handoff is a multiple-x regression) without flaking
       on busy hosts. *)
    {
      name = "copy-engine-256k-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 1.50;
      cap = 4.0;
    };
    {
      name = "copy-grant-4m-ns";
      unit_label = "ns";
      direction = Lower_better;
      floor = 1.50;
      cap = 4.0;
    };
  ]

let spec_of_name name = List.find_opt (fun s -> s.name = name) specs

(* --- measurement ---------------------------------------------------------- *)

let adder _ctx args =
  args.(0) <- args.(0) + args.(1);
  args.(7) <- 0

(* Bechamel OLS ns/run for named closures.  The trajectory wallclock
   section of bench/main.ml measures with this too, so the two agree on
   what "ns/run" means. *)
let measure_ns ~quota tests =
  let grouped = Test.make_grouped ~name:"g" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      let ns =
        match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> Float.nan
      in
      let name =
        match String.index_opt name ' ' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      (name, ns) :: acc)
    results []

(* N producer domains hammering one closure each, wall-clock calls/s. *)
let time_throughput ~producers ~per ~mk =
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            let f = mk p in
            for i = 1 to per do
              f i
            done))
  in
  List.iter Domain.join doms;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int (producers * per) /. dt

let channel_throughput fast ep ~shards ~per =
  let srv = Runtime.Fastcall.spawn_channel_server ~shards fast in
  let thr =
    time_throughput ~producers:3 ~per ~mk:(fun _p ->
        let cl = Runtime.Fastcall.connect srv in
        let a = Array.make 8 0 in
        fun i ->
          a.(0) <- i;
          a.(1) <- 1;
          ignore (Runtime.Fastcall.channel_call cl ~ep a))
  in
  Runtime.Fastcall.shutdown_channel_server srv;
  thr

(* One full round: every gated subject measured once, fresh state.
   [calls] is the per-producer call count for the throughput subjects;
   [quota] the bechamel time budget (seconds) for the ns subjects.

   The call plane (table + channel server) and the bulk-data plane
   (the engine, which runs on its caller) are measured one after the
   other, each with only its own domains alive.  An idle domain parks in a blocking section,
   and on OCaml 5.1 every stop-the-world collection of the measuring
   domain then waits on that domain's backup thread: with one sleeping
   domain beside a channel server, [Gc.full_major] went from 0.14 ms to
   about 8 ms and [Gc.compact] from 0.05 to 2 ms (2-vCPU VM).  Bechamel
   compacts before every sample, so with an idle domain parked beside
   it channel-deadline-ns read 30-700 us instead of about 2 us in half
   the rounds, and the gate's self-check failed on it. *)
let measure_once ~calls ~quota =
  let fast = Runtime.Fastcall.create () in
  let ep = Runtime.Fastcall.register fast adder in
  let thr_1 = channel_throughput fast ep ~shards:1 ~per:calls in
  let thr_2 = channel_throughput fast ep ~shards:2 ~per:calls in
  let subject name f = Test.make ~name (Staged.stage f) in
  let args = Array.make 8 0 in
  let srv = Runtime.Fastcall.spawn_channel_server fast in
  let cl_inline = Runtime.Fastcall.connect srv in
  let cl_queued = Runtime.Fastcall.connect srv in
  let call_ns =
    measure_ns ~quota
      [
        subject "local-ns" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Runtime.Fastcall.call fast ~ep args));
        subject "channel-inline-ns" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore (Runtime.Fastcall.channel_call cl_inline ~ep args));
        subject "channel-deadline-ns" (fun () ->
            args.(0) <- 1;
            args.(1) <- 2;
            ignore
              (Runtime.Fastcall.channel_call_deadline cl_queued ~ep
                 ~deadline:max_int args));
        subject "copy-register-4k-ns" (fun () ->
            (* 4096 bytes, 6 data words (48 bytes) per call *)
            for i = 1 to 86 do
              args.(0) <- i;
              args.(1) <- 1;
              ignore (Runtime.Fastcall.call fast ~ep args)
            done);
      ]
  in
  Runtime.Fastcall.shutdown_channel_server srv;
  (* Bulk-data plane, with no domain but this one.  The engine subject
     moves 256 KB as 16 KB descriptors, flushed on this domain; the
     grant subject hands a
     4 MB region over (to itself, so every iteration's ownership check
     passes) without copying. *)
  let eng, store = Transfer.Copy_engine.create_with_buffers () in
  let reg id = match id with Ok id -> id | Error rc -> failwith (Ipc_intf.Errc.to_string rc) in
  let src_id = reg (Transfer.Copy_engine.Buffers.add store ~owner:0 (Bytes.create (256 * 1024))) in
  let dst_id = reg (Transfer.Copy_engine.Buffers.add store ~owner:0 (Bytes.create (256 * 1024))) in
  let ecl = Transfer.Copy_engine.connect eng in
  let grant_id =
    reg
      (Transfer.Copy_engine.Buffers.add store
         ~owner:(Transfer.Copy_engine.client_id ecl)
         (Bytes.create (4 * 1024 * 1024)))
  in
  let engine_move ~bytes ~chunk =
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
    ignore (Transfer.Copy_engine.reap ecl)
  in
  let self = Transfer.Copy_engine.client_id ecl in
  let grant_move ~bytes =
    (match
       Transfer.Copy_engine.submit ecl ~op:Ipc_intf.Wellknown.bulk_grant
         ~src:grant_id ~src_off:0 ~dst:self ~dst_off:0 ~len:bytes ~tag:0
     with
    | 0 -> ()
    | rc -> failwith (Ipc_intf.Errc.to_string rc));
    ignore (Transfer.Copy_engine.flush ecl);
    ignore (Transfer.Copy_engine.reap ecl)
  in
  let bulk_ns =
    measure_ns ~quota
      [
        subject "copy-engine-256k-ns" (fun () ->
            engine_move ~bytes:(256 * 1024) ~chunk:(16 * 1024));
        subject "copy-grant-4m-ns" (fun () ->
            grant_move ~bytes:(4 * 1024 * 1024));
      ]
  in
  let ns = call_ns @ bulk_ns in
  let ns name = try List.assoc name ns with Not_found -> Float.nan in
  [
    ("channel-1shard", thr_1);
    ("channel-2shards", thr_2);
    ("local-ns", ns "local-ns");
    ("channel-inline-ns", ns "channel-inline-ns");
    ("channel-deadline-ns", ns "channel-deadline-ns");
    ("copy-register-4k-ns", ns "copy-register-4k-ns");
    ("copy-engine-256k-ns", ns "copy-engine-256k-ns");
    ("copy-grant-4m-ns", ns "copy-grant-4m-ns");
  ]

(* [repeats] interleaved rounds, so the spread sees between-round drift
   (scheduler, thermal) and not just within-round noise. *)
let measure ~repeats ~calls ~quota =
  let rounds = List.init repeats (fun _ -> measure_once ~calls ~quota) in
  List.map
    (fun s -> (s.name, List.map (fun round -> List.assoc s.name round) rounds))
    specs

(* --- calibration ---------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Relative spread of the calibration samples around their median. *)
let rel_spread xs =
  let m = median xs in
  if m = 0.0 || Float.is_nan m then 0.0
  else
    let lo = List.fold_left Float.min Float.infinity xs
    and hi = List.fold_left Float.max Float.neg_infinity xs in
    (hi -. lo) /. Float.abs m

type calibrated = {
  spec : spec;
  value : float;  (* median of the calibration samples *)
  spread : float;  (* relative spread observed while calibrating *)
  tolerance : float;  (* max(floor, 3 x spread) — the recorded bound *)
}

let calibrate samples =
  List.map
    (fun s ->
      let xs = List.assoc s.name samples in
      let spread = rel_spread xs in
      {
        spec = s;
        value = median xs;
        spread;
        tolerance = Float.min s.cap (Float.max s.floor (3.0 *. spread));
      })
    specs

(* --- JSON ------------------------------------------------------------------ *)

let direction_str = function
  | Higher_better -> "higher_better"
  | Lower_better -> "lower_better"

let to_json ~repeats ~calls ~quota calibrated =
  let num f = Bench_json.Num f in
  Bench_json.Obj
    [
      ("repeats", num (float_of_int repeats));
      ("calls_per_producer", num (float_of_int calls));
      ("quota_s", num quota);
      ( "subjects",
        Bench_json.Arr
          (List.map
             (fun c ->
               Bench_json.Obj
                 [
                   ("name", Bench_json.Str c.spec.name);
                   ("unit", Bench_json.Str c.spec.unit_label);
                   ("direction", Bench_json.Str (direction_str c.spec.direction));
                   ("value", num c.value);
                   ("spread", num c.spread);
                   ("tolerance", num c.tolerance);
                 ])
             calibrated) );
    ]

(* Measure, calibrate, emit: the whole "gate" section of a trajectory
   point. *)
let emit ~repeats ~calls ~quota =
  to_json ~repeats ~calls ~quota (calibrate (measure ~repeats ~calls ~quota))

(* --- checking -------------------------------------------------------------- *)

type recorded = {
  r_name : string;
  r_direction : direction;
  r_unit : string;
  r_value : float;
  r_tolerance : float;
}

exception Bad_gate of string

let get_num obj k =
  match Bench_json.member k obj with
  | Some (Bench_json.Num f) -> f
  | _ -> raise (Bad_gate (Printf.sprintf "gate subject missing number %S" k))

let get_str obj k =
  match Bench_json.member k obj with
  | Some (Bench_json.Str s) -> s
  | _ -> raise (Bad_gate (Printf.sprintf "gate subject missing string %S" k))

(* Parse the committed "gate" object back into records + its knobs. *)
let of_json gate =
  let knob k default =
    match Bench_json.member k gate with
    | Some (Bench_json.Num f) -> int_of_float f
    | _ -> default
  in
  let repeats = knob "repeats" 3 in
  let calls = knob "calls_per_producer" 30_000 in
  let quota =
    match Bench_json.member "quota_s" gate with
    | Some (Bench_json.Num f) -> f
    | _ -> 0.5
  in
  let subjects =
    match Bench_json.member "subjects" gate with
    | Some (Bench_json.Arr xs) ->
        List.map
          (fun obj ->
            let dir =
              match get_str obj "direction" with
              | "higher_better" -> Higher_better
              | "lower_better" -> Lower_better
              | d -> raise (Bad_gate (Printf.sprintf "bad direction %S" d))
            in
            {
              r_name = get_str obj "name";
              r_direction = dir;
              r_unit = get_str obj "unit";
              r_value = get_num obj "value";
              r_tolerance = get_num obj "tolerance";
            })
          xs
    | _ -> raise (Bad_gate "gate section has no \"subjects\" array")
  in
  (repeats, calls, quota, subjects)

type verdict = {
  v_name : string;
  v_unit : string;
  v_recorded : float;
  v_fresh : float;
  v_tolerance : float;
  v_drift : float;
      (* signed relative drift in the *bad* direction: positive means
         worse (throughput down / latency up), so ok = drift <= tol *)
  v_ok : bool;
}

(* Compare one fresh median against its recorded bound with the drift
   rule `traffic --diff` uses: one-directional (getting faster never
   fails), and a NaN measurement never passes. *)
let judge recorded fresh =
  let drift, verdict =
    Workload.Report_diff.classify ~tolerance:recorded.r_tolerance
      ~higher_is_worse:(recorded.r_direction = Lower_better)
      recorded.r_value fresh
  in
  {
    v_name = recorded.r_name;
    v_unit = recorded.r_unit;
    v_recorded = recorded.r_value;
    v_fresh = fresh;
    v_tolerance = recorded.r_tolerance;
    v_drift = drift;
    v_ok = verdict <> Workload.Report_diff.Worse;
  }

(* Check recorded bounds against an already-taken fresh measurement
   (medians by subject name).  Subjects recorded but not measured fresh
   are a hard error — a silently skipped subject is an ungated one. *)
let check_values recorded fresh =
  List.map
    (fun r ->
      match List.assoc_opt r.r_name fresh with
      | Some v -> judge r v
      | None ->
          raise (Bad_gate (Printf.sprintf "no fresh measurement for %S" r.r_name)))
    recorded

(* The full check: re-measure under the committed knobs (overridable)
   and judge every recorded subject. *)
let check ?repeats ?calls ?quota gate =
  let r_repeats, r_calls, r_quota, recorded = of_json gate in
  let repeats = Option.value repeats ~default:r_repeats in
  let calls = Option.value calls ~default:r_calls in
  let quota = Option.value quota ~default:r_quota in
  let samples = measure ~repeats ~calls ~quota in
  let fresh = List.map (fun (name, xs) -> (name, median xs)) samples in
  check_values recorded fresh

let pp_verdict ppf v =
  let pct f = 100.0 *. f in
  if v.v_ok then
    Fmt.pf ppf "  ok    %-20s fresh %12.1f %s vs recorded %12.1f (drift %+.1f%%, tolerance %.0f%%)"
      v.v_name v.v_fresh v.v_unit v.v_recorded (pct v.v_drift)
      (pct v.v_tolerance)
  else
    Fmt.pf ppf "  FAIL  %-20s fresh %12.1f %s vs recorded %12.1f — regressed %.1f%% in the bad direction, tolerance %.0f%%"
      v.v_name v.v_fresh v.v_unit v.v_recorded (pct v.v_drift)
      (pct v.v_tolerance)

let all_ok verdicts = List.for_all (fun v -> v.v_ok) verdicts
