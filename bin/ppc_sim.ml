(* ppc_sim: command-line driver for the simulated experiments.

     ppc_sim fig2 [--condition u2u-nocd-primed]
     ppc_sim fig3 [--cpus 16] [--horizon-ms 200] [--mode single|different]
     ppc_sim a1|a2|a3|a4|e1|intro

   The bench binary (bench/main.exe) regenerates everything at once; this
   tool is for poking at one experiment with custom parameters. *)

open Cmdliner

(* -v / --verbosity: route Logs through a stderr reporter. *)
let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

let fig2_cmd =
  let condition =
    let parse s =
      let parts = String.split_on_char '-' s in
      match parts with
      | [ t; cd; cache ] -> (
          match
            ( (match t with
              | "u2u" -> Some Experiments.Fig2.To_user
              | "u2k" -> Some Experiments.Fig2.To_kernel
              | _ -> None),
              (match cd with
              | "nocd" -> Some false
              | "hold" -> Some true
              | _ -> None),
              match cache with
              | "primed" -> Some false
              | "flushed" -> Some true
              | _ -> None )
          with
          | Some target, Some hold_cd, Some flushed ->
              Ok { Experiments.Fig2.target; hold_cd; flushed }
          | _ -> Error (`Msg "expected e.g. u2u-nocd-primed"))
      | _ -> Error (`Msg "expected e.g. u2u-nocd-primed")
    in
    let print ppf c = Fmt.string ppf (Experiments.Fig2.condition_name c) in
    Arg.conv (parse, print)
  in
  let cond_arg =
    Arg.(
      value
      & opt (some condition) None
      & info [ "condition" ] ~docv:"COND"
          ~doc:
            "Run a single condition (e.g. u2u-nocd-primed, u2k-hold-flushed) \
             instead of all eight.")
  in
  let run cond =
    match cond with
    | Some c -> Fmt.pr "%a@." Experiments.Fig2.pp_result (Experiments.Fig2.run c)
    | None ->
        List.iter
          (fun r -> Fmt.pr "%a@." Experiments.Fig2.pp_result r)
          (Experiments.Fig2.run_all ())
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Figure 2: PPC round-trip cost breakdown")
    Term.(const (fun () c -> run c) $ logs_term $ cond_arg)

let fig3_cmd =
  let cpus =
    Arg.(value & opt int 16 & info [ "cpus" ] ~docv:"N" ~doc:"Maximum CPUs.")
  in
  let horizon =
    Arg.(
      value & opt int 200
      & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Simulated run length per point.")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum [ ("different", `Different); ("single", `Single); ("both", `Both) ])
          `Both
      & info [ "mode" ] ~docv:"MODE" ~doc:"File sharing regime.")
  in
  let run cpus horizon mode =
    let horizon = Sim.Time.ms horizon in
    let go m =
      Fmt.pr "%a@." Experiments.Fig3.pp_result
        (Experiments.Fig3.run ~max_cpus:cpus ~horizon ~mode:m ())
    in
    match mode with
    | `Different -> go Experiments.Fig3.Different_files
    | `Single -> go Experiments.Fig3.Single_file
    | `Both ->
        go Experiments.Fig3.Different_files;
        go Experiments.Fig3.Single_file
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Figure 3: GetLength throughput scaling")
    Term.(const (fun () a b c -> run a b c) $ logs_term $ cpus $ horizon $ mode)

let simple name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () () -> f ()) $ logs_term $ const ())

let a1_cmd =
  simple "a1" "Ablation: hold-CD vs recycled stacks" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_holdcd.pp_result
        (Experiments.Ablate_holdcd.run ()))

let a2_cmd =
  simple "a2" "Ablation: PPC vs LRPC-style shared pools" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_lrpc.pp_result
        (Experiments.Ablate_lrpc.run ()))

let a3_cmd =
  simple "a3" "Ablation: asynchronous prefetch" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_async.pp_result
        (Experiments.Ablate_async.run ()))

let a4_cmd =
  simple "a4" "Ablation: PPC vs message-passing IPC" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_msg.pp_result (Experiments.Ablate_msg.run ()))

let a7_cmd =
  simple "a7" "Ablation: mutex vs RW lock in the file server" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_rwlock.pp_result
        (Experiments.Ablate_rwlock.run ()))

let a8_cmd =
  simple "a8" "Ablation: legacy message service on three transports" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_compat.pp_result
        (Experiments.Ablate_compat.run ()))

let a9_cmd =
  simple "a9" "Ablation: clustered vs central name service" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_cluster.pp_result
        (Experiments.Ablate_cluster.run ()))

let e1_cmd =
  simple "e1" "Extension: cross-processor PPC" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_remote.pp_result
        (Experiments.Ablate_remote.run ()))

let t3_cmd =
  simple "t3" "Worst-case caches (dirty D + cold I)" (fun () ->
      Fmt.pr "%a@." Experiments.Fig2_icache.pp_result
        (Experiments.Fig2_icache.run ()))

let f3b_cmd =
  simple "f3b" "Zipf file popularity sweep" (fun () ->
      Fmt.pr "%a@." Experiments.Fig3_zipf.pp_result (Experiments.Fig3_zipf.run ()))

let f3c_cmd =
  simple "f3c" "Request origin: programs vs parallel program" (fun () ->
      Fmt.pr "%a@." Experiments.Program_mix.pp_result
        (Experiments.Program_mix.run ()))

let l1_cmd =
  simple "l1" "Latency under load" (fun () ->
      Fmt.pr "%a@." Experiments.Latency_load.pp_result
        ( Experiments.Latency_load.Different_files,
          Experiments.Latency_load.run
            ~mode:Experiments.Latency_load.Different_files () );
      Fmt.pr "%a@." Experiments.Latency_load.pp_result
        ( Experiments.Latency_load.Single_file,
          Experiments.Latency_load.run
            ~mode:Experiments.Latency_load.Single_file () ))

let e2_cmd =
  simple "e2" "Extension: migration under two technology regimes" (fun () ->
      Fmt.pr "%a@." Experiments.Ablate_migration.pp_result
        (Experiments.Ablate_migration.run ()))

let intro_cmd =
  simple "intro" "Uniprocessor IPC context table" (fun () ->
      Fmt.pr "%a@." Experiments.Uniproc_context.pp_result
        (Experiments.Uniproc_context.run ()))

let trace_cmd =
  let target =
    Arg.(
      value
      & opt (enum [ ("user", `User); ("kernel", `Kernel) ]) `User
      & info [ "target" ] ~docv:"KIND" ~doc:"Server address space.")
  in
  let run target =
    let kern = Kernel.create ~cpus:1 () in
    let tr = Sim.Trace.create () in
    Sim.Engine.set_trace (Kernel.engine kern) (Some tr);
    let ppc = Ppc.create kern in
    let server =
      match target with
      | `User -> Ppc.make_user_server ppc ~name:"traced" ()
      | `Kernel -> Ppc.make_kernel_server ppc ~name:"traced" ()
    in
    let ep = Ppc.register_direct ppc ~server ~handler:Ppc.Null_server.echo in
    Ppc.prime ppc ~ep ~cpus:[ 0 ];
    let program = Kernel.new_program kern ~name:"client" in
    let space = Kernel.new_user_space kern ~name:"client" ~node:0 in
    ignore
      (Kernel.spawn kern ~cpu:0 ~name:"client" ~kind:Kernel.Process.Client
         ~program ~space (fun self ->
           ignore
             (Ppc.call ppc ~client:self ~ep_id:(Ppc.Entry_point.id ep)
                (Ppc.Reg_args.make ()));
           Sim.Trace.clear tr;
           ignore
             (Ppc.call ppc ~client:self ~ep_id:(Ppc.Entry_point.id ep)
                (Ppc.Reg_args.make ()))));
    Kernel.run kern;
    Fmt.pr "%a" Sim.Trace.pp tr
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the event timeline of one warm PPC call")
    Term.(const (fun () t -> run t) $ logs_term $ target)

let faults_cmd =
  let plan_names = String.concat ", " Faultsim.Fault.names in
  let plan_arg =
    Arg.(
      value & pos 0 string "chaos"
      & info [] ~docv:"PLAN" ~doc:(Printf.sprintf "Named fault plan: %s." plan_names))
  in
  let cpus_arg =
    Arg.(value & opt int 2 & info [ "cpus" ] ~docv:"N" ~doc:"Simulated CPUs.")
  in
  let calls_arg =
    Arg.(
      value & opt int 30
      & info [ "calls" ] ~docv:"N" ~doc:"Calls per client process.")
  in
  let minimize_arg =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:
            "If the plan produces an invariant violation, greedily shrink it \
             to a minimal reproducing plan and print that plan's trace.")
  in
  let runtime_arg =
    Arg.(
      value & flag
      & info [ "runtime" ]
          ~doc:
            (Printf.sprintf
               "Run PLAN against the real-domain runtime instead of the \
                simulator (containment scenarios: %s; or $(b,all))."
               (String.concat ", " Faultsim.Runtime_fault.names)))
  in
  let run_runtime plan_name =
    let reports =
      if plan_name = "all" || plan_name = "chaos" then
        Faultsim.Runtime_fault.run_all ()
      else
        match Faultsim.Runtime_fault.run plan_name with
        | Some r -> [ r ]
        | None ->
            Fmt.epr "unknown runtime scenario %S (try: %s, or all)@." plan_name
              (String.concat ", " Faultsim.Runtime_fault.names);
            exit 2
    in
    List.iter (fun r -> Fmt.pr "%a@." Faultsim.Runtime_fault.pp_report r) reports;
    if not (List.for_all Faultsim.Runtime_fault.ok reports) then exit 1
  in
  let run plan_name cpus calls minimize runtime =
    if runtime then run_runtime plan_name
    else
    match Faultsim.Fault.of_name plan_name ~cpus with
    | None ->
        Fmt.epr "unknown plan %S (try: %s)@." plan_name plan_names;
        exit 2
    | Some plan ->
        let run_plan p = Faultsim.Harness.run ~cpus ~calls_per_client:calls p in
        let report = run_plan plan in
        Fmt.pr "%a" Faultsim.Harness.pp_report report;
        if (not (Faultsim.Harness.ok report)) && minimize then begin
          let minimal =
            Faultsim.Scenario.shrink_to_minimal
              (fun p -> not (Faultsim.Harness.ok (run_plan p)))
              plan
          in
          Fmt.pr "@.minimal reproducing plan:@.%a" Faultsim.Harness.pp_report
            (run_plan minimal)
        end;
        if not (Faultsim.Harness.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the fault-injection harness: a client/server workload under a \
          named fault plan, with the kernel invariant checker attached.  With \
          $(b,--runtime), run the named containment scenario against the \
          real-domain runtime instead")
    Term.(const (fun () a b c d e -> run a b c d e) $ logs_term $ plan_arg
          $ cpus_arg $ calls_arg $ minimize_arg $ runtime_arg)

(* --- channel: the real-domain cross-call path ----------------------------- *)

let channel_cmd =
  let producers_arg =
    Arg.(value & opt int 3 & info [ "producers" ] ~doc:"Producer domains")
  in
  let shards_arg =
    Arg.(value & opt int 1 & info [ "shards" ] ~doc:"Server shard domains")
  in
  let calls_arg =
    Arg.(value & opt int 20_000 & info [ "calls" ] ~doc:"Calls per producer")
  in
  let queued_arg =
    Arg.(
      value & flag
      & info [ "queued" ]
          ~doc:
            "Call through $(b,channel_call_deadline) with no deadline, which \
             always takes the queued path: every call goes through the rings")
  in
  let run producers shards calls queued =
    let t = Runtime.Fastcall.create () in
    let ep =
      Runtime.Fastcall.register t (fun _ctx args ->
          args.(0) <- args.(0) + args.(1);
          args.(7) <- 0)
    in
    let srv = Runtime.Fastcall.spawn_channel_server ~shards t in
    let t0 = Unix.gettimeofday () in
    let doms =
      List.init producers (fun p ->
          Domain.spawn (fun () ->
              let cl = Runtime.Fastcall.connect srv in
              let call =
                if queued then
                  Runtime.Fastcall.channel_call_deadline cl ~ep
                    ~deadline:max_int
                else Runtime.Fastcall.channel_call cl ~ep
              in
              let args = Array.make 8 0 in
              let sum = ref 0 in
              for i = 1 to calls do
                args.(0) <- i;
                args.(1) <- p;
                ignore (call args);
                sum := !sum + args.(0)
              done;
              (!sum, Runtime.Fastcall.client_inlined cl)))
    in
    let results = List.map Domain.join doms in
    let dt = Unix.gettimeofday () -. t0 in
    List.iteri
      (fun p (sum, _) ->
        let expect = (calls * (calls + 1) / 2) + (calls * p) in
        if sum <> expect then begin
          Fmt.epr "producer %d: sum %d <> expected %d@." p sum expect;
          exit 1
        end)
      results;
    let inlined = List.fold_left (fun a (_, i) -> a + i) 0 results in
    let total = producers * calls in
    Fmt.pr "channel path: %d producers x %d calls x %d shard(s) in %.3fs@."
      producers calls shards dt;
    Fmt.pr "  %.0f calls/s;  %d inline on callers, %d served by shards (%d stolen)@."
      (float_of_int total /. dt)
      inlined
      (Runtime.Fastcall.channel_served srv)
      (Runtime.Fastcall.channel_steals srv);
    let rings, wakes, parks = Runtime.Fastcall.channel_doorbell_stats srv in
    Fmt.pr "  doorbell: %d rings, %d wakes, %d sleeps;  batches: %d@." rings
      wakes parks
      (Runtime.Fastcall.channel_batches srv);
    Runtime.Fastcall.shutdown_channel_server srv;
    if inlined + Runtime.Fastcall.channel_served srv <> total then begin
      Fmt.epr "accounting mismatch: inline %d + served %d <> %d@." inlined
        (Runtime.Fastcall.channel_served srv)
        total;
      exit 1
    end;
    (* Every queued call rings its shard exactly once, in its submit. *)
    if rings <> total - inlined then begin
      Fmt.epr "doorbell mismatch: %d rings for %d queued calls@." rings
        (total - inlined);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "channel"
       ~doc:
         "Exercise the zero-allocation cross-domain channel path on real \
          OCaml 5 domains (Shm_channel request cells + SPSC rings + \
          doorbell + sharded batching servers) and verify call accounting")
    Term.(
      const (fun () a b c d -> run a b c d)
      $ logs_term $ producers_arg $ shards_arg $ calls_arg $ queued_arg)

(* --- lifecycle: the control plane under fire ------------------------------- *)

let lifecycle_cmd =
  let producers_arg =
    Arg.(value & opt int 3 & info [ "producers" ] ~doc:"Producer domains")
  in
  let calls_arg =
    Arg.(value & opt int 50_000 & info [ "calls" ] ~doc:"Calls per producer")
  in
  let run producers calls =
    let calls = Stdlib.max calls 3 in
    let t = Runtime.Fastcall.create () in
    let ctl = Runtime.Control.install t in
    let v1 _ctx args =
      args.(0) <- args.(0) + 1;
      args.(7) <- 0
    in
    let v2 _ctx args =
      args.(0) <- args.(0) + 2;
      args.(7) <- 0
    in
    let die fmt = Fmt.kpf (fun _ -> exit 1) Fmt.stderr fmt in
    let ep =
      match Runtime.Control.alloc_ep ctl ~principal:1 v1 with
      | Ok id -> id
      | Error rc -> die "alloc_ep failed: rc %d@." rc
    in
    (match Runtime.Control.publish ctl ~principal:1 ~name:"svc" ~ep with
    | 0 -> ()
    | rc -> die "publish failed: rc %d@." rc);
    let id =
      match Runtime.Control.lookup ctl ~name:"svc" with
      | Ok id -> id
      | Error rc -> die "lookup failed: rc %d@." rc
    in
    (* Three phases, fenced by a barrier: v1 traffic, then a live
       exchange, v2 traffic, then a soft-kill.  The fences make the
       expectations exact — every phase-1 call lands on v2, every
       phase-2 call is refused — while within a phase the producers
       hammer concurrently. *)
    let phase = Atomic.make 0 in
    let arrived = Atomic.make 0 in
    let third = calls / 3 in
    let doms =
      List.init producers (fun _ ->
          Domain.spawn (fun () ->
              let args = Array.make 8 0 in
              let old_ok = ref 0 and new_ok = ref 0 and rejected = ref 0 in
              let fence target =
                Atomic.incr arrived;
                while Atomic.get phase < target do
                  Domain.cpu_relax ()
                done
              in
              for i = 1 to calls do
                if i = third + 1 then fence 1
                else if i = (2 * third) + 1 then fence 2;
                args.(0) <- i;
                match Runtime.Fastcall.call t ~ep:id args with
                | 0 ->
                    if args.(0) = i + 1 && Atomic.get phase = 0 then
                      incr old_ok
                    else if args.(0) = i + 2 then incr new_ok
                    else die "wrong routine: result %d for input %d@."
                           args.(0) i
                | rc
                  when rc = Ipc_intf.Errc.killed || rc = Ipc_intf.Errc.no_entry
                  ->
                    incr rejected
                | rc -> die "undocumented rc %d@." rc
              done;
              (!old_ok, !new_ok, !rejected)))
    in
    let total = producers * calls in
    let await n =
      while Atomic.get arrived < n do
        Domain.cpu_relax ()
      done
    in
    await producers;
    (match Runtime.Control.exchange ctl ~principal:1 ~ep:id v2 with
    | 0 -> ()
    | rc -> die "exchange failed: rc %d@." rc);
    Atomic.set phase 1;
    await (2 * producers);
    (match Runtime.Control.soft_kill ctl ~principal:1 ~ep:id with
    | 0 -> ()
    | rc -> die "soft_kill failed: rc %d@." rc);
    Atomic.set phase 2;
    let results = List.map Domain.join doms in
    let sum f = List.fold_left (fun a x -> a + f x) 0 results in
    let old_ok = sum (fun (a, _, _) -> a) in
    let new_ok = sum (fun (_, b, _) -> b) in
    let rejected = sum (fun (_, _, c) -> c) in
    if old_ok + new_ok + rejected <> total then
      die "accounting mismatch: %d + %d + %d <> %d@." old_ok new_ok rejected
        total;
    if old_ok <> producers * third then
      die "v1 phase: expected %d completions, got %d@." (producers * third)
        old_ok;
    if new_ok <> producers * third then
      die "v2 phase: expected %d completions, got %d@." (producers * third)
        new_ok;
    if Runtime.Fastcall.lifecycle t ~ep:id <> None then
      die "slot not freed after drain@.";
    if Runtime.Fastcall.in_flight t ~ep:id <> 0 then
      die "in-flight counter did not drain@.";
    Fmt.pr "lifecycle: %d calls; %d on v1, %d on v2 after live exchange, %d \
            refused after soft-kill; slot drained and freed@."
      total old_ok new_ok rejected
  in
  Cmd.v
    (Cmd.info "lifecycle"
       ~doc:
         "Drive the runtime control plane under fire: allocate a service \
          through the resource manager, publish it, hammer it from producer \
          domains, exchange the handler live, then soft-kill it and verify \
          that no accepted call was lost")
    Term.(const (fun () a b -> run a b) $ logs_term $ producers_arg $ calls_arg)

(* --- copy: the async bulk-data engine end-to-end --------------------------- *)

let copy_cmd =
  let bytes_arg =
    Arg.(
      value & opt int (256 * 1024)
      & info [ "bytes" ] ~docv:"N" ~doc:"Payload size for the runtime demo.")
  in
  let chunk_arg =
    Arg.(
      value & opt int 4096
      & info [ "chunk" ] ~docv:"N" ~doc:"Bytes per descriptor.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Also run the deterministic simulated payload sweep.")
  in
  let die fmt = Fmt.kpf (fun _ -> exit 1) Fmt.stderr fmt in
  let run_engine_demo ~bytes ~chunk =
    let eng, st = Transfer.Copy_engine.create_with_buffers () in
    let src = Bytes.init bytes (fun i -> Char.chr (i land 0xff)) in
    let dst = Bytes.make bytes '\000' in
    let src_id =
      match Transfer.Copy_engine.Buffers.add st ~owner:0 src with
      | Ok id -> id
      | Error rc -> die "region add: rc %d@." rc
    in
    let dst_id =
      match Transfer.Copy_engine.Buffers.add st ~owner:0 dst with
      | Ok id -> id
      | Error rc -> die "region add: rc %d@." rc
    in
    let completions = ref 0 and bad = ref 0 in
    let cl =
      Transfer.Copy_engine.connect
        ~on_complete:(fun ~tag:_ ~rc ->
          incr completions;
          if rc <> Ipc_intf.Errc.ok then incr bad)
        eng
    in
    (* Submit the whole payload as chunked descriptors, one flush per
       batch of 8 — the flush executes them on this domain — with
       "handler work" (a checksum loop) between reaps. *)
    let submitted = ref 0 and staged = ref 0 and overlap_sum = ref 0 in
    let off = ref 0 in
    while !off < bytes do
      let len = Stdlib.min chunk (bytes - !off) in
      (match
         Transfer.Copy_engine.submit cl ~op:Ipc_intf.Wellknown.bulk_copy
           ~src:src_id ~src_off:!off ~dst:dst_id ~dst_off:!off ~len
           ~tag:!submitted
       with
      | 0 ->
          incr submitted;
          incr staged;
          off := !off + len
      | rc when rc = Ipc_intf.Errc.retry ->
          (* Slab full: flush, do useful work, reap, try again. *)
          ignore (Transfer.Copy_engine.flush cl);
          for i = 0 to 255 do
            overlap_sum := !overlap_sum + i
          done;
          ignore (Transfer.Copy_engine.reap cl)
      | rc -> die "submit: rc %d@." rc);
      if !staged >= 8 then begin
        ignore (Transfer.Copy_engine.flush cl);
        staged := 0
      end
    done;
    ignore (Transfer.Copy_engine.flush cl);
    while Transfer.Copy_engine.outstanding cl > 0 do
      for i = 0 to 255 do
        overlap_sum := !overlap_sum + i
      done;
      ignore (Transfer.Copy_engine.reap cl)
    done;
    if not (Bytes.equal src dst) then die "payload mismatch after copy@.";
    if !completions <> !submitted || !bad <> 0 then
      die "completion accounting: %d/%d ok, %d bad@." !completions !submitted
        !bad;
    (* Zero-copy: hand the source region to client 7. *)
    (match
       Transfer.Copy_engine.submit cl ~op:Ipc_intf.Wellknown.bulk_grant
         ~src:src_id ~src_off:0 ~dst:7 ~dst_off:0 ~len:bytes ~tag:9999
     with
    | 0 -> ()
    | rc -> die "grant submit: rc %d@." rc);
    ignore (Transfer.Copy_engine.flush cl);
    while Transfer.Copy_engine.outstanding cl > 0 do
      ignore (Transfer.Copy_engine.reap cl)
    done;
    if Transfer.Copy_engine.Buffers.owner st src_id <> 7 then
      die "grant handoff did not transfer ownership@.";
    let s = Transfer.Copy_engine.stats eng in
    Fmt.pr
      "copy engine: %d descriptors (%d bytes in %d-byte chunks), 1 grant \
       handoff@."
      !submitted bytes chunk;
    Fmt.pr "  served %d;  %d bytes copied;  %d grants@."
      s.Transfer.Copy_engine.served s.Transfer.Copy_engine.bytes_copied
      s.Transfer.Copy_engine.grants_completed;
    (* Engine death: staged descriptors must fail exactly once with
       handler_fault, and later submits must be refused. *)
    let eng2, st2 = Transfer.Copy_engine.create_with_buffers () in
    let id2 =
      match Transfer.Copy_engine.Buffers.add st2 ~owner:0 (Bytes.create 4096) with
      | Ok id -> id
      | Error rc -> die "region add: rc %d@." rc
    in
    let failed = ref 0 in
    let cl2 =
      Transfer.Copy_engine.connect
        ~on_complete:(fun ~tag:_ ~rc ->
          if rc = Ipc_intf.Errc.handler_fault then incr failed)
        eng2
    in
    for i = 0 to 15 do
      ignore
        (Transfer.Copy_engine.submit cl2 ~op:Ipc_intf.Wellknown.bulk_copy
           ~src:id2 ~src_off:0 ~dst:id2 ~dst_off:0 ~len:64 ~tag:i)
    done;
    Transfer.Copy_engine.kill eng2;
    ignore (Transfer.Copy_engine.reap cl2);
    if !failed <> 16 then die "kill sweep: %d/16 failed@." !failed;
    if
      Transfer.Copy_engine.submit cl2 ~op:Ipc_intf.Wellknown.bulk_copy ~src:id2
        ~src_off:0 ~dst:id2 ~dst_off:0 ~len:64 ~tag:0
      <> Ipc_intf.Errc.killed
    then die "submit after engine death not refused@.";
    Fmt.pr
      "  kill-engine: 16 staged descriptors failed with handler_fault, \
       submit-after-death refused@."
  in
  let run bytes chunk sweep =
    run_engine_demo ~bytes ~chunk;
    if sweep then
      Fmt.pr "@.%a@." Experiments.Copy_sweep.pp_result
        (Experiments.Copy_sweep.run ())
  in
  Cmd.v
    (Cmd.info "copy"
       ~doc:
         "Demo the async bulk-data engine end-to-end: batched descriptor \
          submission, flushes that execute the batch on the caller, \
          non-blocking completion reaping, zero-copy grant handoff, and the \
          kill-engine fail sweep.  With $(b,--sweep), also print the \
          deterministic simulated payload sweep")
    Term.(const (fun () a b c -> run a b c) $ logs_term $ bytes_arg $ chunk_arg
          $ sweep_arg)

(* --- shm: true cross-process PPC over an mmap'd segment -------------------- *)

module Shm = struct
  module W = Ipc_intf.Wire_abi
  module Ch = Runtime.Shm_channel
  module Errc = Ipc_intf.Errc

  (* The server process: attach the segment in the Server role, build a
     Fastcall table + control plane, and serve until the client
     announces shutdown or is found dead. *)
  let serve_path path =
    let srv = Ch.attach_file ~role:Ch.Server path in
    let fast = Runtime.Fastcall.create () in
    let ctl = Runtime.Control.install fast in
    Ch.serve srv ~dispatch:(Ch.fastcall_dispatch fast ctl)

  let fork_server path =
    match Unix.fork () with
    | 0 ->
        let code = match serve_path path with _ -> 0 | exception _ -> 1 in
        (* child: never return into cmdliner *)
        Stdlib.exit code
    | pid -> pid

  let temp_path () = Filename.temp_file "ppc_shm" ".seg"
  let cleanup path = try Sys.remove path with Sys_error _ -> ()

  let ctl_call ch fill =
    let a = Array.make 8 0 in
    fill a;
    let rc = Ch.call ch ~ep:W.ctl_ep a in
    (rc, a)

  let register_spec ch spec =
    let code, param = W.spec_to_wire spec in
    let rc, a =
      ctl_call ch (fun a ->
          a.(0) <- W.ctl_register;
          a.(1) <- code;
          a.(2) <- param)
    in
    if rc <> Errc.ok then
      failwith ("shm: server refused registration: " ^ Errc.to_string rc);
    a.(0)

  (* The conformance suite's shared-memory embodiment: every operation
     crosses a real process boundary.  One fresh server process per
     scenario, so a scenario that kills services cannot poison the
     next. *)
  module Shm_subject : Ipc_intf.Sigs.SUBJECT with type ep = int = struct
    type t = { path : string; pid : int; ch : Ch.t }
    type ep = int

    let name = "shm"

    let setup () =
      let path = temp_path () in
      ignore (Ch.create_file ~path ~capacity:16 () : Runtime.Segment.t);
      let pid = fork_server path in
      let ch = Ch.attach_file ~role:Ch.Client path in
      if not (Ch.wait_peer_ready ch) then
        failwith "shm: server process never became ready";
      { path; pid; ch }

    let teardown t =
      Ch.announce_shutdown t.ch;
      ignore (Unix.waitpid [] t.pid);
      cleanup t.path

    let register t spec = register_spec t.ch spec
    let id _ ep = W.handle_slot ep

    let publish t ~name ep =
      match W.pack_name name with
      | None -> Errc.bad_request
      | Some (w0, w1) ->
          fst
            (ctl_call t.ch (fun a ->
                 a.(0) <- W.ctl_publish;
                 a.(1) <- ep;
                 a.(2) <- w0;
                 a.(3) <- w1))

    let lookup t ~name =
      match W.pack_name name with
      | None -> Error Errc.bad_request
      | Some (w0, w1) ->
          let rc, a =
            ctl_call t.ch (fun a ->
                a.(0) <- W.ctl_lookup;
                a.(1) <- w0;
                a.(2) <- w1)
          in
          if rc = Errc.ok then Ok a.(0) else Error rc

    let call t ep a = Ch.call t.ch ~ep a
    let call_id t ~id a = Ch.call t.ch ~ep:(W.pack_raw_call id) a

    let exchange t ep spec =
      let code, param = W.spec_to_wire spec in
      fst
        (ctl_call t.ch (fun a ->
             a.(0) <- W.ctl_exchange;
             a.(1) <- ep;
             a.(2) <- code;
             a.(3) <- param))

    let soft_kill t ep =
      fst
        (ctl_call t.ch (fun a ->
             a.(0) <- W.ctl_soft_kill;
             a.(1) <- ep))

    let hard_kill t ep =
      fst
        (ctl_call t.ch (fun a ->
             a.(0) <- W.ctl_hard_kill;
             a.(1) <- ep))

    let in_flight t ep =
      let rc, a =
        ctl_call t.ch (fun a ->
            a.(0) <- W.ctl_in_flight;
            a.(1) <- ep)
      in
      if rc = Errc.ok then a.(0) else 0
  end

  module Conf = Ipc_intf.Conformance.Make (Shm_subject)

  let run_conformance () =
    Fmt.pr "shm conformance: client pid %d, one server process per scenario@."
      (Unix.getpid ());
    let failures = ref 0 in
    List.iter
      (fun (name, f) ->
        match f () with
        | () -> Fmt.pr "  [OK]   %s@." name
        | exception Conf.Violation m ->
            incr failures;
            Fmt.pr "  [FAIL] %s: %s@." name m
        | exception e ->
            incr failures;
            Fmt.pr "  [FAIL] %s: %s@." name (Printexc.to_string e))
      Conf.scenarios;
    if !failures > 0 then begin
      Fmt.epr "shm conformance: %d scenario(s) failed@." !failures;
      exit 1
    end;
    Fmt.pr "shm conformance: all %d scenarios green@."
      (List.length Conf.scenarios)

  (* Whole-process crash containment, self-checking: park four calls
     behind a napping handler, kill -9 the server, and demand that
     every in-flight call fails with handler_fault and every cell is
     recycled exactly once. *)
  let run_kill9 () =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Fmt.epr "kill9: FAIL: %s@." m;
          exit 1)
        fmt
    in
    let path = temp_path () in
    ignore (Ch.create_file ~path ~capacity:8 () : Runtime.Segment.t);
    let pid = fork_server path in
    let ch = Ch.attach_file ~probe_window_ns:20_000_000 ~role:Ch.Client path in
    if not (Ch.wait_peer_ready ch) then fail "server never became ready";
    let napper = register_spec ch (Ipc_intf.Sigs.Nap_ms 50) in
    let a = Array.make 8 0 in
    let cells = Array.init 4 (fun _ -> Ch.submit_raw ch ~ep:napper a) in
    Array.iter
      (fun i -> if i < 0 then fail "submit: %s" (Errc.to_string i))
      cells;
    (* The server is mid-nap on the first call; the whole process dies.
       Reap before probing: a zombie still answers kill(pid, 0). *)
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Array.iteri
      (fun k i ->
        let rc = Ch.await ch i a in
        if rc <> Errc.handler_fault then
          fail "in-flight call %d: expected handler_fault, got %s" k
            (Errc.to_string rc))
      cells;
    if not (Ch.peer_dead ch) then fail "death verdict is not sticky";
    if Ch.peer_faults ch <> 4 then
      fail "peer_faults = %d, want 4" (Ch.peer_faults ch);
    if Ch.free_cells ch <> Ch.capacity ch then
      fail "only %d/%d cells recycled" (Ch.free_cells ch) (Ch.capacity ch);
    let again = Ch.sweep_dead_peer ch in
    if again <> 0 then fail "second sweep re-recycled %d cells" again;
    let rc = Ch.submit_raw ch ~ep:napper a in
    if rc <> Errc.peer_dead then
      fail "submit after the verdict: expected peer_dead, got %s"
        (Errc.to_string rc);
    cleanup path;
    Fmt.pr
      "kill9: PASS — server pid %d killed -9 mid-service; 4 in-flight calls \
       failed with handler_fault; %d/%d cells recycled exactly once; later \
       submits answer peer_dead@."
      pid (Ch.capacity ch) (Ch.capacity ch)

  (* Forked ping-pong demo: the smoke test for the cross-process path. *)
  let run_demo ~calls ~capacity =
    let path = temp_path () in
    ignore (Ch.create_file ~path ~capacity () : Runtime.Segment.t);
    let pid = fork_server path in
    let ch = Ch.attach_file ~role:Ch.Client path in
    if not (Ch.wait_peer_ready ch) then begin
      Fmt.epr "shm demo: server never became ready@.";
      exit 1
    end;
    let adder = register_spec ch Ipc_intf.Sigs.Add2 in
    let a = Array.make 8 0 in
    let bad = ref 0 in
    let run n =
      for i = 1 to n do
        a.(0) <- i;
        a.(1) <- 1;
        if Ch.call ch ~ep:adder a <> Errc.ok || a.(0) <> i + 1 then incr bad
      done
    in
    run (min 1000 calls) (* warm-up *);
    let t0 = Runtime.Doorbell.now_ns () in
    run calls;
    let dt = Runtime.Doorbell.now_ns () - t0 in
    Ch.announce_shutdown ch;
    ignore (Unix.waitpid [] pid);
    cleanup path;
    if !bad > 0 then begin
      Fmt.epr "shm demo: %d bad replies@." !bad;
      exit 1
    end;
    Fmt.pr
      "shm demo: %d cross-process PPCs (pid %d <-> pid %d): %.1f ms total, \
       %.0f ns/call round trip, %d doorbell rings@."
      calls (Unix.getpid ()) pid
      (float_of_int dt /. 1e6)
      (float_of_int dt /. float_of_int calls)
      (Ch.doorbell_rings ch)

  (* Manual pair: one terminal runs --server, another --client. *)
  let run_server ~path ~capacity =
    ignore (Ch.create_file ~path ~capacity () : Runtime.Segment.t);
    Fmt.pr "shm server: pid %d serving %s (capacity %d)@." (Unix.getpid ())
      path capacity;
    let served = serve_path path in
    Fmt.pr "shm server: client gone; served %d calls@." served

  let run_client ~path ~calls =
    let ch = Ch.attach_file ~role:Ch.Client path in
    let adder = register_spec ch Ipc_intf.Sigs.Add2 in
    let a = Array.make 8 0 in
    let bad = ref 0 in
    let t0 = Runtime.Doorbell.now_ns () in
    for i = 1 to calls do
      a.(0) <- i;
      a.(1) <- 1;
      if Ch.call ch ~ep:adder a <> Errc.ok || a.(0) <> i + 1 then incr bad
    done;
    let dt = Runtime.Doorbell.now_ns () - t0 in
    Ch.announce_shutdown ch;
    if !bad > 0 then begin
      Fmt.epr "shm client: %d bad replies@." !bad;
      exit 1
    end;
    Fmt.pr "shm client: %d calls against server pid %d, %.0f ns/call@." calls
      (Ch.peer_pid ch)
      (float_of_int dt /. float_of_int calls)
end

let shm_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("demo", `Demo); ("conformance", `Conformance); ("kill9", `Kill9);
             ])
          `Demo
      & info [ "scenario" ] ~docv:"S"
          ~doc:
            "What to run: $(b,demo) (forked ping-pong smoke test), \
             $(b,conformance) (the control-plane conformance suite with the \
             server in a separate OS process, one per scenario), $(b,kill9) \
             (self-checking whole-process crash containment: in-flight calls \
             must fail with handler_fault and every cell recycle exactly \
             once).")
  in
  let server_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"PATH"
          ~doc:"Create segment PATH and serve it until the client departs.")
  in
  let client_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "client" ] ~docv:"PATH"
          ~doc:"Attach to segment PATH as the client and run a ping-pong.")
  in
  let calls_arg =
    Arg.(
      value & opt int 50_000
      & info [ "calls" ] ~docv:"N" ~doc:"Ping-pong calls (demo/client).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Segment cell count for the demo and for --server (a power of \
             two, at most 65536).")
  in
  let run scenario server client calls capacity =
    match (server, client) with
    | Some _, Some _ ->
        Fmt.epr "--server and --client are mutually exclusive@.";
        exit 2
    | Some path, None -> Shm.run_server ~path ~capacity
    | None, Some path -> Shm.run_client ~path ~calls
    | None, None -> (
        match scenario with
        | `Demo -> Shm.run_demo ~calls ~capacity
        | `Conformance -> Shm.run_conformance ()
        | `Kill9 -> Shm.run_kill9 ())
  in
  Cmd.v
    (Cmd.info "shm"
       ~doc:
         "Cross-process PPC over an mmap'd shared segment: forked demo, \
          conformance suite against a server in another OS process, kill -9 \
          crash-containment scenario, or a manual $(b,--server)/$(b,--client) \
          pair")
    Term.(
      const (fun () a b c d e -> run a b c d e)
      $ logs_term $ scenario_arg $ server_arg $ client_arg $ calls_arg
      $ capacity_arg)

(* --- chaos: process-level kill -9 chaos under open-loop load --------------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Schedule seed: kill thresholds, victims and pacing are a pure \
             function of it.")
  in
  let calls_arg =
    Arg.(
      value & opt int 4_000
      & info [ "calls" ] ~docv:"N" ~doc:"Call budget the client(s) must drain.")
  in
  let events_arg =
    Arg.(
      value & opt int 6
      & info [ "events" ] ~docv:"N"
          ~doc:"SIGKILLs to inject (victim drawn per event).")
  in
  let pace_arg =
    Arg.(
      value & opt float 60.
      & info [ "pace-us" ] ~docv:"US"
          ~doc:"Mean exponential inter-arrival of the open-loop load, in \u{00b5}s.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the per-seed verdict-reconciliation table (markdown) to \
             FILE (the CI failure artifact).")
  in
  let run seed calls events pace_us out =
    let r = Faultsim.Proc_chaos.run ~calls ~events ~pace_us ~seed () in
    Fmt.pr "%a@." Faultsim.Proc_chaos.pp_report r;
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Faultsim.Proc_chaos.to_markdown r);
        close_out oc;
        Fmt.pr "wrote %s@." file);
    if not (Faultsim.Proc_chaos.ok r) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Process-level chaos against the shm transport: a supervised server \
          and a reconnecting session client under seeded open-loop load, \
          with SIGKILLs of either side at scheduled points; the run fails \
          unless the double-entry books balance exactly (every claimed call \
          one verdict, respawns = server kills, session releases = client \
          kills, reattaches = server kills, zero leaked cells)")
    Term.(
      const (fun () a b c d e -> run a b c d e)
      $ logs_term $ seed_arg $ calls_arg $ events_arg $ pace_arg $ out_arg)

(* --- traffic: the million-client open-loop study --------------------------- *)

let traffic_cmd =
  let profile_arg =
    Arg.(
      value
      & opt (enum [ ("full", `Full); ("quick", `Quick); ("slice", `Slice) ]) `Full
      & info [ "profile" ] ~docv:"P"
          ~doc:
            "Study size: $(b,full) (the million-arrival flagship), $(b,quick) \
             (seconds, CI smoke), $(b,slice) (the deterministic bench slice).")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorthand for --profile quick.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"BASE"
          ~doc:
            "Write the report to BASE.md and BASE.json in addition to \
             printing it.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare two report JSON files instead of running the study: \
             $(b,ppc_sim traffic --diff OLD.json NEW.json).  Prints a \
             per-stage delta table and exits nonzero if any latency \
             percentile or throughput drifted beyond $(b,--tolerance) in the \
             worse direction, or if a run, stage or metric present in OLD is \
             absent or null in NEW.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.25
      & info [ "tolerance" ] ~docv:"T"
          ~doc:
            "Relative drift tolerance for $(b,--diff) (0.25 = 25%). \
             Improvements never fail the gate.")
  in
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"OLD.json NEW.json")
  in
  let run_diff tolerance files =
    match files with
    | [ old_path; new_path ] ->
        let o = Workload.Report_diff.diff_files ~tolerance old_path new_path in
        Fmt.pr "%s" (Workload.Report_diff.to_markdown o);
        if o.Workload.Report_diff.drifted then exit 1
    | _ ->
        Fmt.epr "traffic --diff needs exactly two files: OLD.json NEW.json@.";
        exit 2
  in
  let run profile quick out =
    let cfg =
      match (if quick then `Quick else profile) with
      | `Full -> Experiments.Traffic_study.full
      | `Quick -> Experiments.Traffic_study.quick
      | `Slice -> Experiments.Traffic_study.slice
    in
    let r = Experiments.Traffic_study.run ~cfg () in
    let report = Experiments.Traffic_study.report r in
    Fmt.pr "%s" (Workload.Report.to_markdown report);
    (match out with
    | None -> ()
    | Some base ->
        let write path s =
          let oc = open_out path in
          output_string oc s;
          close_out oc
        in
        write (base ^ ".md") (Workload.Report.to_markdown report);
        Bench_json.to_file (base ^ ".json") (Workload.Report.to_json report);
        Fmt.pr "wrote %s.md and %s.json@." base base);
    match report.Workload.Report.faults with
    | Some f when not f.Workload.Report.reconciled ->
        Fmt.epr "fault counts did not reconcile@.";
        exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Run the open-loop traffic study: a large logical client population \
          drives the lookup -> file-read -> copy service graph on the PPC \
          path and the legacy message-passing comparator, with a \
          fault-injected scenario whose error counts must reconcile exactly; \
          prints (and with $(b,--out) writes) the markdown + JSON report.  \
          With $(b,--diff OLD.json NEW.json), structurally compares two such \
          reports instead")
    Term.(
      const (fun () diff tolerance files a b c ->
          if diff then run_diff tolerance files
          else if files <> [] then begin
            Fmt.epr "traffic: stray positional arguments (did you mean --diff?)@.";
            Stdlib.exit 2
          end
          else run a b c)
      $ logs_term $ diff_arg $ tolerance_arg $ files_arg $ profile_arg
      $ quick_arg $ out_arg)

let () =
  let doc = "Simulated PPC IPC experiments (Gamsa, Krieger & Stumm 1994)" in
  let info = Cmd.info "ppc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig2_cmd; fig3_cmd; t3_cmd; f3b_cmd; f3c_cmd; l1_cmd; a1_cmd;
            a2_cmd; a3_cmd; a4_cmd; a7_cmd; a8_cmd; a9_cmd; e1_cmd; e2_cmd; intro_cmd; trace_cmd;
            faults_cmd; channel_cmd; lifecycle_cmd; copy_cmd; traffic_cmd;
            shm_cmd; chaos_cmd;
          ]))
