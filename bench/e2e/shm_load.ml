(* The cross-process workloads: a forked server child on
   [Shm_channel.fastcall_dispatch] over an mmap'd segment, driven from
   this process's one thread.

   Each slice (see Loops) gets a server set up cold for it: a fresh
   segment file and a fresh child.  The set-up times give [setup_s].

   The server child builds a Fastcall table and its control plane,
   registers the bench handler (LCG work) and publishes it by name, then
   serves until the client announces shutdown.  When [serve] returns it
   writes its counters, and in a traced run its spans, to a report file
   the client reads back.

   Must run in a process that has not spawned a domain: a fork of a
   multi-domain OCaml runtime leaves the child's GC waiting on domains
   that do not exist on its side. *)

module Ch = Runtime.Shm_channel
module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Hist = Workload.Hist

let now = Runtime.Doorbell.now_ns
let capacity = 64
let service = "ppcbench"

(* The bench handler's work: [steps] dependent multiply-adds (a 63-bit
   LCG), so the client can check the reply. *)
let lcg x = (x * 2862933555777941757) + 3037000493

let lcg_steps x steps =
  let x = ref x in
  for _ = 1 to steps do
    x := lcg !x
  done;
  !x

(* --- server child ------------------------------------------------------------ *)

type report = {
  served : int;
  batches : int;
  handler_faults : int;
  minor_words : float;
  hwm_kb : int;
  row_lo : int;  (* the span arrays below cover rows row_lo.. *)
  d0 : int array;
  d1 : int array;
  h0 : int array;
  h1 : int array;
}

let serve (cfg : Loops.cfg) ~path ~report =
  (* A forked child starts with its parent's peak RSS; reset it so
     [hwm_kb] is this server's own. *)
  (try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
   with Sys_error _ -> ());
  let fast = Runtime.Fastcall.create () in
  let ctl = Runtime.Control.install fast in
  let arr () = Rows.trace_array ~trace:cfg.trace in
  let d0 = arr () and d1 = arr () and h0 = arr () and h1 = arr () in
  let lo = ref Rows.cap and hi = ref (-1) in
  let handler _ctx (a : int array) =
    let r = Rows.row_of_args a in
    if r >= 0 then h0.(r) <- now ();
    a.(0) <- lcg_steps a.(0) a.(1);
    a.(7) <- Errc.ok;
    if r >= 0 then h1.(r) <- now ()
  in
  let ep = Runtime.Fastcall.register fast handler in
  if Runtime.Control.publish ctl ~principal:7 ~name:service ~ep <> Errc.ok then
    failwith "publish refused";
  let srv = Ch.attach_file ~role:Ch.Server path in
  let base = Ch.fastcall_dispatch fast ctl in
  let dispatch =
    if not cfg.trace then base
    else fun ~ep_word a ->
      let r = Rows.row_of_args a in
      if r < 0 then base ~ep_word a
      else begin
        let t = now () in
        let rc = base ~ep_word a in
        d1.(r) <- now ();
        d0.(r) <- t;
        if r < !lo then lo := r;
        if r > !hi then hi := r;
        rc
      end
  in
  let w0 = Gc.minor_words () in
  let served = Ch.serve srv ~dispatch in
  let minor_words = Gc.minor_words () -. w0 in
  let part a = if !hi < !lo then [||] else Array.sub a !lo (!hi - !lo + 1) in
  let r =
    {
      served;
      batches = Ch.batches srv;
      handler_faults = Runtime.Fastcall.handler_faults fast;
      minor_words;
      hwm_kb = Host.hwm_kb ();
      row_lo = !lo;
      d0 = part d0;
      d1 = part d1;
      h0 = part h0;
      h1 = part h1;
    }
  in
  Out_channel.with_open_bin report (fun oc -> Marshal.to_channel oc r [])

(* --- client side: set-up and tear-down ----------------------------------------- *)

type server = {
  pid : int;
  path : string;
  report : string;
  ch : Ch.t;
  bench_id : int;  (* the service's raw ID, resolved by name *)
}

let name_words =
  match W.pack_name service with Some p -> p | None -> invalid_arg service

let remove p = try Sys.remove p with Sys_error _ -> ()

let kill ~pid ~path ~report =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  remove path;
  remove report

(* Announce shutdown, reap the child and read its report. *)
let stop s =
  Ch.announce_shutdown s.ch;
  let _, status = Unix.waitpid [] s.pid in
  let report =
    match In_channel.with_open_bin s.report (fun ic -> (Marshal.from_channel ic : report)) with
    | r -> Some r
    | exception (Sys_error _ | End_of_file | Failure _) -> None
  in
  remove s.path;
  remove s.report;
  match (status, report) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> failwith "ppcbench: the server child failed"

let ctl_call ch (acc : Rows.acc) what a =
  let rc = Ch.call ch ~ep:W.ctl_ep a in
  Rows.op acc (rc = Errc.ok);
  if rc <> Errc.ok then failwith ("ppcbench: " ^ what ^ " refused: " ^ Errc.to_string rc)

(* One cold set-up: create the segment, fork the server, attach, wait
   for the peer, resolve the service by name, get the first OK call.
   Returns the server and the set-up time in ns. *)
let start (cfg : Loops.cfg) idx (acc : Rows.acc) =
  let t0 = now () in
  let file ext =
    Filename.concat cfg.scratch (Printf.sprintf "%d-%d.%s" (Unix.getpid ()) idx ext)
  in
  let path = file "seg" and report = file "report" in
  ignore (Ch.create_file ~path ~capacity () : Runtime.Segment.t);
  match Unix.fork () with
  | 0 -> Unix._exit (match serve cfg ~path ~report with () -> 0 | exception _ -> 1)
  | pid -> (
      match
        let ch = Ch.attach_file ~role:Ch.Client path in
        if not (Ch.wait_peer_ready ch) then failwith "ppcbench: server never became ready";
        let a = Array.make 8 0 in
        let nw0, nw1 = name_words in
        Loops.stage a W.ctl_lookup nw0 nw1 0 0;
        ctl_call ch acc "lookup by name" a;
        let bench_id = a.(0) in
        Loops.stage a 1 1 0 0 0;
        let ok =
          Ch.call ch ~ep:(W.pack_raw_call bench_id) a = Errc.ok && a.(0) = lcg_steps 1 1
        in
        Rows.op acc ok;
        if not ok then failwith "ppcbench: first call failed";
        ({ pid; path; report; ch; bench_id }, now () - t0)
      with
      | r -> r
      | exception e ->
          kill ~pid ~path ~report;
          raise e)

(* Register Add2 over the wire; returns its versioned handle. *)
let register_add2 s acc =
  let a = Array.make 8 0 in
  let code, param = W.spec_to_wire Ipc_intf.Sigs.Add2 in
  Loops.stage a W.ctl_register code param 0 0;
  ctl_call s.ch acc "register" a;
  a.(0)

(* --- inputs, made from the seed before timing starts ------------------------------ *)

(* Poisson arrival times (ns from the schedule's start) over [total_ns]. *)
let schedule rng ~rate ~total_ns =
  let gap = Workload.Sampler.Exponential { mean = 1e9 /. rate } in
  let buf = ref (Array.make (int_of_float (rate *. float_of_int total_ns /. 1e9 *. 1.1) + 1024) 0) in
  let n = ref 0 and t = ref (Workload.Sampler.draw gap rng) in
  while !t < float_of_int total_ns do
    if !n = Array.length !buf then buf := Array.append !buf (Array.make !n 0);
    !buf.(!n) <- int_of_float !t;
    incr n;
    t := !t +. Workload.Sampler.draw gap rng
  done;
  Array.sub !buf 0 !n

type shape = Pingpong | Open_sparse | Open_busy

(* open-sparse: Add2 calls at 1 k/s.  open-busy: 100 k/s of bench
   handler calls with lognormal work (median 300 LCG steps), 1 in 64 a
   ctl lookup, 1 in 4096 a ctl write.  One schedule covers every slice
   back to back, each slice [warm_ns + slice_ns] long. *)
let inputs (cfg : Loops.cfg) shape : Loops.inputs =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let arrival_rng = Sim.Rng.split rng and work_rng = Sim.Rng.split rng in
  let total_ns = Loops.slices * (Loops.warm_ns cfg + Loops.slice_ns cfg) in
  let rate = if shape = Open_busy then 100_000. else 1_000. in
  let due = schedule arrival_rng ~rate ~total_ns in
  let steps = Workload.Sampler.Lognormal { mu = Float.log 300.; sigma = 0.5 } in
  let work =
    Array.init (Array.length due) (fun _ ->
        if shape = Open_sparse then Sim.Rng.int work_rng 1_000_000
        else
          let u = Sim.Rng.int work_rng 4096 in
          if u = 0 then Loops.write
          else if u land 63 = 0 then Loops.lookup
          else max 1 (Float.to_int (Workload.Sampler.draw steps work_rng)))
  in
  let expect =
    Array.mapi
      (fun i w -> if w < 0 then 0 else if shape = Open_sparse then i + w else lcg_steps i w)
      work
  in
  { due; work; expect; warm_ns = Loops.warm_ns cfg }

(* The first arrival of each slice (and the end), and how many arrivals
   are measured. *)
let slice_bounds cfg (inp : Loops.inputs) =
  let len = Loops.warm_ns cfg + Loops.slice_ns cfg and n = Array.length inp.due in
  let b = Array.make (Loops.slices + 1) n and i = ref 0 in
  for sl = 0 to Loops.slices - 1 do
    while !i < n && inp.due.(!i) < sl * len do incr i done;
    b.(sl) <- !i
  done;
  let measured = Array.fold_left (fun m d -> if d mod len >= inp.warm_ns then m + 1 else m) 0 inp.due in
  (b, measured)

(* --- one workload --------------------------------------------------------------- *)

let transport ch =
  {
    Loops.submit = (fun ~ep a -> Ch.submit_raw ch ~ep a);
    await = (fun c a -> Ch.await ch c a);
  }

let run (cfg : Loops.cfg) shape (acc : Rows.acc) =
  let slice = Loops.slice_ns cfg and warm = Loops.warm_ns cfg in
  let inp = if shape = Pingpong then None else Some (inputs cfg shape) in
  let bounds, k =
    match inp with
    | None -> ([||], 0)
    | Some inp ->
        let b, measured = slice_bounds cfg inp in
        (b, max 1 ((measured + Rows.cap - 1) / Rows.cap))
  in
  let st = Loops.create ~trace:cfg.trace ~k in
  let rows = st.rows in
  let setup_s = ref [] and rings = ref 0 and ops = ref 0 in
  let served = ref 0 and batches = ref 0 and faults = ref 0 and server_words = ref 0. in
  let server_kb = ref 0 in
  for j = 0 to Loops.slices - 1 do
    let s, t = start cfg j acc in
    setup_s := (float_of_int t /. 1e9) :: !setup_s;
    (match
       let tr = transport s.ch in
       let ops0 = acc.attempted and rings0 = Ch.doorbell_rings s.ch in
       (match inp with
       | None ->
           Loops.closed st tr ~ep:(register_add2 s acc) ~addend:(cfg.seed land 0xffff)
             ~warm_ns:warm ~seconds_ns:slice ~rows:(Rows.cap / Loops.slices) acc
       | Some inp ->
           let call_ep =
             if shape = Open_sparse then register_add2 s acc else W.pack_raw_call s.bench_id
           in
           Loops.open_slice st tr ~window:capacity ~call_ep ~bench_id:s.bench_id
             ~name:name_words inp ~lo:bounds.(j) ~hi:bounds.(j + 1)
             ~base:(j * (warm + slice)) acc);
       rings := !rings + (Ch.doorbell_rings s.ch - rings0);
       ops := !ops + (acc.attempted - ops0)
     with
    | () -> ()
    | exception e ->
        kill ~pid:s.pid ~path:s.path ~report:s.report;
        raise e);
    let rep = stop s in
    served := !served + rep.served;
    batches := !batches + rep.batches;
    faults := !faults + rep.handler_faults;
    server_words := !server_words +. rep.minor_words;
    server_kb := max !server_kb rep.hwm_kb;
    if cfg.trace then
      List.iter
        (fun (src, dst) -> Array.blit src 0 dst rep.row_lo (Array.length src))
        [ (rep.d0, rows.d0); (rep.d1, rows.d1); (rep.h0, rows.h0); (rep.h1, rows.h1) ]
  done;
  let set = Rows.set acc and per a b = float_of_int a /. float_of_int (max 1 b) in
  set "mem.client_hwm_kb" (float_of_int (Host.hwm_kb ()));
  set "setup_s" (Bench_gate.median !setup_s);
  Rows.report_latency acc rows ~rates:st.rates st.hist;
  set "shm.doorbell_rings_per_call" (per !rings !ops);
  set "shm.served" (float_of_int !served);
  set "shm.batches" (float_of_int !batches);
  set "shm.batch_mean" (per !served !batches);
  set "fastcall.handler_faults" (float_of_int !faults);
  set "gc.client_minor_words_per_call" (st.minor_words /. float_of_int (max 1 st.calls));
  set "gc.server_minor_words_per_call" (!server_words /. float_of_int (max 1 !served));
  set "mem.server_hwm_kb" (float_of_int !server_kb);
  if inp = None then begin
    set "shm.window_mean" 1.;
    set "shm.retry_share" 0.
  end
  else begin
    let p h q = Rows.us (Hist.quantile h q) in
    set "shm.window_mean" (per st.window_sum st.submits);
    set "shm.retry_share" (per st.retries (st.submits + st.retries));
    set "gen.late_p50_us" (p st.late 0.5);
    set "gen.late_p99_us" (p st.late 0.99);
    set "gen.arrivals" (float_of_int st.arrivals);
    set "ctl.ops" (float_of_int st.ctl_ops);
    set "ctl.lookup_us_p50" (p st.ctl_lookup 0.5);
    set "ctl.lookup_us_p90" (p st.ctl_lookup 0.9);
    set "ctl.register_us_p50" (p st.ctl_register 0.5);
    set "ctl.kill_us_p50" (p st.ctl_kill 0.5)
  end;
  if cfg.trace then begin
    let sp = Rows.split rows in
    Rows.report_split acc sp;
    let ns a q = float_of_int (Stats.pct a q) and us a q = Rows.us (Stats.pct a q) in
    set "shm.submit_ns_p50" (ns sp.submit 0.5);
    set "shm.submit_ns_p90" (ns sp.submit 0.9);
    set "shm.pickup_us_p50" (us sp.pickup 0.5);
    set "shm.pickup_us_p90" (us sp.pickup 0.9);
    set "shm.reply_us_p50" (us sp.reply 0.5);
    set "shm.reply_us_p90" (us sp.reply 0.9);
    set "fastcall.dispatch_ns_p50" (ns sp.dispatch 0.5);
    set "fastcall.dispatch_self_ns_p50" (ns sp.self 0.5)
  end
