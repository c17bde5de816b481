(* The two load shapes, over any transport that can submit a call and
   await its reply.  Both run on the caller's one thread, allocate
   nothing while they measure, and check every reply.

   Closed loop: one call in flight; a call's latency runs from its
   start.  Open loop: arrivals on a schedule made from the seed before
   timing starts; a call's latency runs from its due time, so a
   submission delayed by a full window or by the generator itself counts
   against it.  Replies come back in submission order (one server drains
   one ring), so the open loop always awaits its oldest call.

   A run measures in [slices] slices, each against a server set up cold
   for it.  On a small VM the cost of a call depends on where the two
   sides and their shared pages land, and that placement holds for a
   server's whole life, so a run samples many servers; a [state] pools
   the statistics of all of them. *)

module Errc = Ipc_intf.Errc
module W = Ipc_intf.Wire_abi
module Hist = Workload.Hist

let now = Runtime.Doorbell.now_ns

type cfg = {
  seed : int;
  seconds_ns : int;  (* measured, over all slices *)
  trace : bool;
  scratch : string;  (* segment and report files *)
}

let slices = 20
let slice_ns cfg = cfg.seconds_ns / slices

(* Each slice warms up for a tenth of its measured time before it. *)
let warm_ns cfg = slice_ns cfg / 10

type transport = {
  submit : ep:int -> int array -> int;  (* a token >= 0 to await, or an Errc code *)
  await : int -> int array -> int;  (* the reply's return code *)
}

let call tr ~ep a =
  let c = tr.submit ~ep a in
  if c < 0 then c else tr.await c a

(* Stage a call's arguments: operands in words 0..3, the trace row in
   [Rows.seq_slot].  No service here writes any other word but the
   return code, so the rest stay 0 from [Array.make]. *)
let stage a x0 x1 x2 x3 seq =
  a.(0) <- x0;
  a.(1) <- x1;
  a.(2) <- x2;
  a.(3) <- x3;
  a.(Rows.seq_slot) <- seq

type state = {
  rows : Rows.t;
  hist : Hist.t;  (* every measured request's latency, ns *)
  k : int;  (* open loop: measured arrival j keeps row j / k when k divides j *)
  mutable seen : int;  (* open loop: measured arrivals that left the generator *)
  mutable calls : int;  (* measured requests completed *)
  mutable rates : float list;  (* each slice's OK completions per second *)
  mutable minor_words : float;  (* allocated by this thread while measuring *)
  (* open loop only *)
  late : Hist.t;  (* submit start minus due time *)
  mutable arrivals : int;  (* measured arrivals *)
  mutable retries : int;  (* submits refused with Errc.retry: the window was full *)
  mutable submits : int;
  mutable window_sum : int;  (* calls in flight after each submit, summed *)
  mutable ctl_ops : int;
  ctl_lookup : Hist.t;  (* ctl spans, submit start to await return *)
  ctl_register : Hist.t;
  ctl_kill : Hist.t;
}

let create ~trace ~k =
  {
    rows = Rows.create ~trace;
    hist = Hist.create ();
    k;
    seen = 0;
    calls = 0;
    rates = [];
    minor_words = 0.;
    late = Hist.create ();
    arrivals = 0;
    retries = 0;
    submits = 0;
    window_sum = 0;
    ctl_ops = 0;
    ctl_lookup = Hist.create ();
    ctl_register = Hist.create ();
    ctl_kill = Hist.create ();
  }

(* The row the next measured request keeps, or -1; [take] moves on to
   the request after it. *)
let row_for st =
  let j = st.seen in
  if j mod st.k = 0 && j / st.k < Rows.cap then j / st.k else -1

let take st = st.seen <- st.seen + 1

(* --- closed loop -------------------------------------------------------------- *)

(* One slice: warm up for [warm_ns], then measure for [seconds_ns].
   Add2 semantics on [ep]: word 0 <- word 0 + word 1.  The slice keeps
   at most [rows] rows, one call in k, with k sized from the warm-up rate
   so that about half of them fill. *)
let closed st tr ~ep ~addend ~warm_ns ~seconds_ns ~rows:quota (acc : Rows.acc) =
  let a = Array.make 8 0 in
  let bad = ref 0 in
  let t_w = now () in
  let warm = ref 0 in
  while now () - t_w < warm_ns do
    stage a !warm addend 0 0 0;
    if call tr ~ep a <> Errc.ok || a.(0) <> !warm + addend then incr bad;
    incr warm
  done;
  let expected = !warm * (seconds_ns / max 1 (now () - t_w)) in
  let k = max 1 (((2 * expected) + quota - 1) / quota) in
  let rows = st.rows in
  let row0 = rows.n in
  let last_row = min Rows.cap (row0 + quota) in
  let calls = ref 0 and ok_calls = ref 0 and countdown = ref 0 in
  let w0 = Gc.minor_words () in
  let t_start = now () in
  let t_stop = t_start + seconds_ns in
  let fin = ref t_start in
  while !fin < t_stop do
    let i = !calls in
    let row = if !countdown = 0 && rows.n < last_row then rows.n else -1 in
    let stamp = row >= 0 && Rows.stamped rows row in
    stage a i addend 0 0 (if stamp then row + 1 else 0);
    let s0 = now () in
    let c = tr.submit ~ep a in
    let s1 = if stamp then now () else 0 in
    let rc = if c < 0 then c else tr.await c a in
    fin := now ();
    if rc = Errc.ok && a.(0) = i + addend then incr ok_calls else incr bad;
    Hist.record st.hist (!fin - s0);
    if row >= 0 then begin
      rows.lat.(row) <- !fin - s0;
      if stamp then begin
        rows.start.(row) <- s0;
        rows.s0.(row) <- s0;
        rows.s1.(row) <- s1
      end;
      rows.n <- row + 1;
      countdown := k
    end;
    decr countdown;
    incr calls
  done;
  st.minor_words <- st.minor_words +. (Gc.minor_words () -. w0);
  st.calls <- st.calls + !calls;
  st.rates <- Rows.rate ~ok:!ok_calls ~window_ns:(!fin - t_start) :: st.rates;
  acc.attempted <- acc.attempted + !warm + !calls;
  acc.failed <- acc.failed + !bad

(* --- open loop ------------------------------------------------------------------ *)

(* Arrival kinds, in the [work] array: a value >= 0 is a call to
   [call_ep] with operands (i, work.(i)) whose reply word 0 must equal
   [expect.(i)]; [lookup] resolves the service by name over the ctl
   plane; [write] registers a Stamp service, calls it and soft-kills it,
   one ctl write that holds up the calls queued behind it. *)
let lookup = -1
let write = -2

type inputs = {
  due : int array;  (* ns from the run's schedule start, ascending *)
  work : int array;
  expect : int array;
  warm_ns : int;  (* each slice's arrivals due in its first [warm_ns] are not measured *)
}

(* One slice: arrivals [lo, hi), whose schedule starts at [base]. *)
let open_slice st tr ~window ~call_ep ~bench_id ~name:(nw0, nw1) inp ~lo ~hi ~base
    (acc : Rows.acc) =
  let rows = st.rows in
  let trace = rows.trace in
  let measured i = inp.due.(i) - base >= inp.warm_ns in
  for i = lo to hi - 1 do
    if measured i then st.arrivals <- st.arrivals + 1
  done;
  let a = Array.make 8 0 and r = Array.make 8 0 and wa = Array.make 8 0 in
  let f_cell = Array.make window 0 and f_idx = Array.make window 0 in
  let f_s0 = Array.make window 0 and f_row = Array.make window 0 in
  let head = ref 0 and tail = ref 0 and next = ref lo and last_end = ref 0 in
  let ok_calls = ref 0 in
  let op ok = Rows.op acc ok in
  (* An arrival leaves the generator: submitted, written, or failed. *)
  let leave i t due =
    if measured i then begin
      take st;
      Hist.record st.late (t - due)
    end
  in
  let t0 = now () + 1_000_000 - base in
  let finish i row fin ok =
    if measured i then begin
      let lat = fin - (t0 + inp.due.(i)) in
      Hist.record st.hist lat;
      st.calls <- st.calls + 1;
      if ok then incr ok_calls;
      last_end := fin;
      if row >= 0 then begin
        rows.lat.(row) <- lat;
        (* a write completes before the calls queued ahead of it *)
        rows.n <- max rows.n (row + 1)
      end
    end
  in
  (* The write: three synchronous ctl-plane calls; the caller leaves a
     cell free. *)
  let do_write i =
    let code, tag = W.spec_to_wire (Ipc_intf.Sigs.Stamp (i land 0xffff)) in
    let t = now () in
    stage wa W.ctl_register code tag 0 0;
    let registered = call tr ~ep:W.ctl_ep wa = Errc.ok in
    let handle = wa.(0) in
    Hist.record st.ctl_register (now () - t);
    st.ctl_ops <- st.ctl_ops + 1;
    op registered;
    registered
    && begin
         stage wa 0 0 0 0 0;
         let called = call tr ~ep:handle wa = Errc.ok && wa.(0) = tag in
         op called;
         let t = now () in
         stage wa W.ctl_soft_kill handle 0 0 0;
         let killed = call tr ~ep:W.ctl_ep wa = Errc.ok in
         Hist.record st.ctl_kill (now () - t);
         st.ctl_ops <- st.ctl_ops + 1;
         op killed;
         called && killed
       end
  in
  let w0 = Gc.minor_words () in
  while !next < hi || !tail > !head do
    let blocked = ref false in
    while (not !blocked) && !next < hi do
      let i = !next in
      let t = now () in
      let due = t0 + inp.due.(i) in
      let w = inp.work.(i) in
      if due > t then blocked := true
      else if w = write && !tail - !head >= window then blocked := true
      else begin
        let row = if measured i then row_for st else -1 in
        if w = write then begin
          leave i t due;
          if trace && row >= 0 then rows.s0.(row) <- -1;
          let ok = do_write i in
          finish i row (now ()) ok;
          incr next
        end
        else begin
          let stamp = w <> lookup && row >= 0 && Rows.stamped rows row in
          if w = lookup then stage a W.ctl_lookup nw0 nw1 0 0
          else stage a i w 0 0 (if stamp then row + 1 else 0);
          let c = tr.submit ~ep:(if w = lookup then W.ctl_ep else call_ep) a in
          if c >= 0 then begin
            leave i t due;
            let slot = !tail land (window - 1) in
            f_cell.(slot) <- c;
            f_idx.(slot) <- i;
            f_s0.(slot) <- t;
            f_row.(slot) <- row;
            incr tail;
            st.submits <- st.submits + 1;
            st.window_sum <- st.window_sum + (!tail - !head);
            if trace && row >= 0 then
              if stamp then begin
                rows.start.(row) <- due;
                rows.s0.(row) <- t;
                rows.s1.(row) <- now ()
              end
              else if w = lookup then rows.s0.(row) <- -1;
            incr next
          end
          else if c = Errc.retry then begin
            st.retries <- st.retries + 1;
            blocked := true
          end
          else begin
            leave i t due;
            op false;
            finish i row t false;
            incr next
          end
        end
      end
    done;
    if !tail > !head then begin
      let slot = !head land (window - 1) in
      let i = f_idx.(slot) in
      let rc = tr.await f_cell.(slot) r in
      let fin = now () in
      incr head;
      let ok =
        if inp.work.(i) = lookup then begin
          Hist.record st.ctl_lookup (fin - f_s0.(slot));
          st.ctl_ops <- st.ctl_ops + 1;
          rc = Errc.ok && r.(0) = bench_id
        end
        else rc = Errc.ok && r.(0) = inp.expect.(i)
      in
      op ok;
      finish i f_row.(slot) fin ok
    end
    else if !next < hi then begin
      let due = t0 + inp.due.(!next) in
      while now () < due do
        Domain.cpu_relax ()
      done
    end
  done;
  st.minor_words <- st.minor_words +. (Gc.minor_words () -. w0);
  st.rates <-
    Rows.rate ~ok:!ok_calls ~window_ns:(!last_end - (t0 + base + inp.warm_ns)) :: st.rates
