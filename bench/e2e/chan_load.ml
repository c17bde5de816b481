(* The in-process workload: a closed loop from the main domain through
   Fastcall's channel path ([Ppc_channel], [Request_slab], [Doorbell]) to
   one server shard domain, on [channel_call_deadline] with a far
   deadline, which always takes the queued path.  Like the shm
   workloads it measures in slices, each on a table and shard domain set
   up cold for it.  A traced run adds a phase on a default [connect],
   whose uncontended calls run inline on the caller's domain. *)

module F = Runtime.Fastcall
module Errc = Ipc_intf.Errc

let now = Runtime.Doorbell.now_ns
let far_ns = 60_000_000_000

type server = { fast : F.t; srv : F.channel_server; cl : F.client; ep : int }

(* One cold set-up: [Fastcall.create] through the first OK call.  The
   handler is Add2, stamping traced calls into [rows.h0]/[rows.h1]. *)
let start (rows : Rows.t) (acc : Rows.acc) =
  let t0 = now () in
  let fast = F.create () in
  let handler _ctx (a : int array) =
    let r = Rows.row_of_args a in
    if r >= 0 then rows.h0.(r) <- now ();
    a.(0) <- a.(0) + a.(1);
    a.(7) <- Errc.ok;
    if r >= 0 then rows.h1.(r) <- now ()
  in
  let ep = F.register fast handler in
  let srv = F.spawn_channel_server ~shards:1 fast in
  let cl = F.connect srv in
  let a = Array.make F.arg_words 0 in
  Loops.stage a 1 2 0 0 0;
  let ok =
    F.channel_call_deadline cl ~ep ~deadline:(now () + far_ns) a = Errc.ok && a.(0) = 3
  in
  Rows.op acc ok;
  if not ok then begin
    F.shutdown_channel_server srv;
    failwith "ppcbench: first channel call failed"
  end;
  ({ fast; srv; cl; ep }, now () - t0)

(* Uncontended calls on a default client: the inline path. *)
let inline_phase s ~ns (acc : Rows.acc) =
  let cl = F.connect s.srv in
  let a = Array.make F.arg_words 0 in
  let hist = Workload.Hist.create () in
  let t_stop = now () + ns in
  let i = ref 0 in
  while now () < t_stop do
    Loops.stage a !i 1 0 0 0;
    let t = now () in
    let rc = F.channel_call cl ~ep:s.ep a in
    Workload.Hist.record hist (now () - t);
    Rows.op acc (rc = Errc.ok && a.(0) = !i + 1);
    incr i
  done;
  Workload.Hist.p50 hist

let run (cfg : Loops.cfg) (acc : Rows.acc) =
  let st = Loops.create ~trace:cfg.trace ~k:0 in
  let rows = st.rows in
  let setup_s = ref [] and ops = ref 0 and served = ref 0 and batches = ref 0 in
  let wakes = ref 0 and parks = ref 0 and grows = ref 0 and faults = ref 0 in
  let server_words = ref 0. and inline_ns = ref 0 in
  for j = 0 to Loops.slices - 1 do
    let s, t = start rows acc in
    setup_s := (float_of_int t /. 1e9) :: !setup_s;
    let stopped = ref false in
    Fun.protect ~finally:(fun () -> if not !stopped then F.shutdown_channel_server s.srv)
    @@ fun () ->
    let deadline = now () + Loops.warm_ns cfg + Loops.slice_ns cfg + far_ns in
    let tr =
      {
        Loops.submit = (fun ~ep:_ _ -> 0);
        await = (fun _ a -> F.channel_call_deadline s.cl ~ep:s.ep ~deadline a);
      }
    in
    let served0 = F.channel_served s.srv and batches0 = F.channel_batches s.srv in
    let _, wakes0, parks0 = F.channel_doorbell_stats s.srv in
    let grows0 = F.client_slab_grows s.cl and ops0 = acc.attempted in
    let all_words0 = (Gc.quick_stat ()).minor_words and own_words0 = Gc.minor_words () in
    Loops.closed st tr ~ep:s.ep ~addend:(cfg.seed land 0xffff) ~warm_ns:(Loops.warm_ns cfg)
      ~seconds_ns:(Loops.slice_ns cfg) ~rows:(Rows.cap / Loops.slices) acc;
    (* [quick_stat] counts every domain, the live shard included; what
       this domain allocated itself is the client's.  Read before the
       shard's start-up and shut-down can count. *)
    server_words :=
      !server_words
      +. ((Gc.quick_stat ()).minor_words -. all_words0 -. (Gc.minor_words () -. own_words0));
    let _, wakes1, parks1 = F.channel_doorbell_stats s.srv in
    ops := !ops + (acc.attempted - ops0);
    served := !served + (F.channel_served s.srv - served0);
    batches := !batches + (F.channel_batches s.srv - batches0);
    wakes := !wakes + (wakes1 - wakes0);
    parks := !parks + (parks1 - parks0);
    grows := !grows + (F.client_slab_grows s.cl - grows0);
    if cfg.trace && j = Loops.slices - 1 then
      inline_ns := inline_phase s ~ns:(cfg.seconds_ns / 10) acc;
    faults := !faults + F.handler_faults s.fast;
    F.shutdown_channel_server s.srv;
    stopped := true
  done;
  let kb = float_of_int (Host.hwm_kb ()) in
  let set = Rows.set acc and per a b = float_of_int a /. float_of_int (max 1 b) in
  set "setup_s" (Bench_gate.median !setup_s);
  Rows.report_latency acc rows ~rates:st.rates st.hist;
  set "channel.batch_mean" (per !served !batches);
  set "channel.parks_per_call" (per !parks !ops);
  set "channel.wakes_per_call" (per !wakes !ops);
  set "channel.slab_grows" (float_of_int !grows);
  set "channel.inline_ns_p50" (float_of_int !inline_ns);
  set "fastcall.handler_faults" (float_of_int !faults);
  set "gc.client_minor_words_per_call" (st.minor_words /. float_of_int (max 1 st.calls));
  set "gc.server_minor_words_per_call" (!server_words /. float_of_int (max 1 !ops));
  set "mem.client_hwm_kb" kb;
  set "mem.server_hwm_kb" kb;
  let sorted = Stats.sorted_sub rows.lat 0 rows.n in
  set "channel.call_ns_p50" (float_of_int (Stats.pct sorted 0.5));
  set "channel.call_ns_p90" (float_of_int (Stats.pct sorted 0.9));
  if cfg.trace then begin
    (* the server side of a channel call is the handler itself *)
    rows.d0 <- rows.h0;
    rows.d1 <- rows.h1;
    let sp = Rows.split rows in
    Rows.report_split acc sp;
    set "channel.pickup_ns_p50" (float_of_int (Stats.pct sp.pickup 0.5));
    set "channel.reply_ns_p50" (float_of_int (Stats.pct sp.reply 0.5))
  end
