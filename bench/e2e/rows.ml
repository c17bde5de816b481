(* What a workload records while it runs, kept in preallocated arrays so
   the measured loop allocates nothing.

   Every request in the measured window goes into a latency [Hist] (the
   tails) and one request in [k] keeps its exact latency in a row (the
   gated p50/p90 are exact over the rows; see Stats).  In a traced run
   the even rows are also
   stamped: the client writes its [Doorbell.now_ns] stamps into the row,
   puts [row + 1] into argument word [seq_slot] of the call, and the
   server side stamps its spans into arrays indexed the same way, so the
   two sides join on the row.  CLOCK_MONOTONIC is shared across
   processes, so client and server stamps lie on one time line and the
   parts of each stamped request tile its latency:

     late + submit + pickup + dispatch + reply = latency

   (late: due time to submit start; submit: [submit_raw], cut short
   where the server's dispatch starts first; pickup: submit end to
   dispatch start; dispatch: the server's dispatch; reply: dispatch end
   to [await] return). *)

let cap = 1 lsl 19

(* Argument word carrying the row + 1 of a stamped call (0: unstamped).
   Words 0..3 carry operands and ctl operands, word 7 the return code. *)
let seq_slot = 5

type t = {
  trace : bool;
  lat : int array;  (* exact latency, ns *)
  start : int array;  (* what the latency is timed from: due time or call start *)
  s0 : int array;  (* submit start; 0 on an unstamped call row, -1 on a ctl row *)
  s1 : int array;  (* submit end *)
  mutable d0 : int array;  (* server: dispatch start *)
  mutable d1 : int array;  (* server: dispatch end *)
  mutable h0 : int array;  (* server: handler start; 0 when the handler is not stamped *)
  mutable h1 : int array;  (* server: handler end *)
  mutable n : int;
}

let trace_array ~trace = if trace then Array.make cap 0 else [||]

let create ~trace =
  let arr () = trace_array ~trace in
  {
    trace;
    lat = Array.make cap 0;
    start = arr ();
    s0 = arr ();
    s1 = arr ();
    d0 = arr ();
    d1 = arr ();
    h0 = arr ();
    h1 = arr ();
    n = 0;
  }

let stamped t r = t.trace && r land 1 = 0

(* The row a stamped request's server side writes to, or -1. *)
let row_of_args (a : int array) =
  let r = a.(seq_slot) - 1 in
  if r >= 0 && r < cap then r else -1

(* --- the run's counters and metrics ---------------------------------------- *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float) list;
}

let acc () = { attempted = 0; failed = 0; metrics = [] }
let set acc name v = acc.metrics <- (name, v) :: List.remove_assoc name acc.metrics
let us ns = float_of_int ns /. 1e3

(* One wire operation: counted as attempted, and as failed unless [ok]. *)
let op acc ok =
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1

(* A slice's OK completions per second. *)
let rate ~ok ~window_ns = float_of_int ok /. (float_of_int (max 1 window_ns) /. 1e9)

(* The end-to-end metrics: the latency percentiles of every row the run
   kept, across all its slices; the median over slices of their [rates];
   and the tails, from the Hist of every measured request. *)
let report_latency acc t ~rates hist =
  let s = Stats.sorted_sub t.lat 0 t.n in
  set acc "lat_p50_us" (us (Stats.pct s 0.50));
  set acc "lat_p90_us" (us (Stats.pct s 0.90));
  set acc "calls_per_s" (Bench_gate.median rates);
  set acc "tail.lat_p99_us" (us (Workload.Hist.p99 hist));
  set acc "tail.lat_p999_us" (us (Workload.Hist.p999 hist));
  let n = Workload.Hist.count hist in
  set acc "tail.beyond_p99"
    (float_of_int (n - int_of_float (Float.ceil (0.99 *. float_of_int n))))

(* --- the span split of the stamped rows ------------------------------------- *)

type split = {
  late : int array;  (* each sorted, ns *)
  submit : int array;
  pickup : int array;
  dispatch : int array;
  reply : int array;
  handler : int array;  (* rows whose handler was stamped *)
  self : int array;  (* dispatch minus handler (whole dispatch if unstamped) *)
  lat : int array;
  negative_gaps : int;
  overhead_ns : int;  (* stamped minus unstamped latency p50 *)
}

let split t =
  let col () = Array.make t.n 0 in
  let late = col () and submit = col () and pickup = col () and dispatch = col ()
  and reply = col () and handler = col () and self = col () and lat = col ()
  and plain = col () in
  let m = ref 0 and nh = ref 0 and np = ref 0 and neg = ref 0 in
  for r = 0 to t.n - 1 do
    if t.s0.(r) > 0 then begin
      let j = !m in
      (* The server may pick a call up before [submit_raw] returns (its
         doorbell ring and heartbeat follow the publish): submit ends
         at whichever comes first. *)
      let s1 = min t.s1.(r) t.d0.(r) in
      late.(j) <- t.s0.(r) - t.start.(r);
      submit.(j) <- s1 - t.s0.(r);
      pickup.(j) <- t.d0.(r) - s1;
      dispatch.(j) <- t.d1.(r) - t.d0.(r);
      reply.(j) <- t.start.(r) + t.lat.(r) - t.d1.(r);
      lat.(j) <- t.lat.(r);
      if late.(j) < 0 || submit.(j) < 0 || pickup.(j) < 0 || dispatch.(j) < 0
         || reply.(j) < 0
      then incr neg;
      if t.h0.(r) > 0 then begin
        handler.(!nh) <- t.h1.(r) - t.h0.(r);
        self.(j) <- dispatch.(j) - handler.(!nh);
        incr nh
      end
      else self.(j) <- dispatch.(j);
      incr m
    end
    else if t.s0.(r) = 0 then begin
      plain.(!np) <- t.lat.(r);
      incr np
    end
  done;
  let sorted a k = Stats.sorted_sub a 0 k in
  let lat = sorted lat !m in
  {
    late = sorted late !m;
    submit = sorted submit !m;
    pickup = sorted pickup !m;
    dispatch = sorted dispatch !m;
    reply = sorted reply !m;
    handler = sorted handler !nh;
    self = sorted self !m;
    lat;
    negative_gaps = !neg;
    overhead_ns = Stats.pct lat 0.5 - Stats.pct (sorted plain !np) 0.5;
  }

(* The metrics every traced workload reports from its split. *)
let report_split acc sp =
  let mean a = Stats.mean_int a /. 1e3 in
  set acc "split.late_mean_us" (mean sp.late);
  set acc "split.submit_mean_us" (mean sp.submit);
  set acc "split.pickup_mean_us" (mean sp.pickup);
  set acc "split.dispatch_mean_us" (mean sp.dispatch);
  set acc "split.reply_mean_us" (mean sp.reply);
  set acc "split.lat_mean_us" (mean sp.lat);
  set acc "handler.work_ns_p50" (float_of_int (Stats.pct sp.handler 0.5));
  set acc "trace.stamped" (float_of_int (Array.length sp.lat));
  set acc "trace.negative_gaps" (float_of_int sp.negative_gaps);
  set acc "trace.overhead_p50_us" (us sp.overhead_ns)
