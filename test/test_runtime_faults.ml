(* Containment regressions for the crash-contained runtime (handler
   fault isolation, deadlines, backpressure, shard kill and revive).
   Three layers:

   - the named scenarios from [Faultsim.Runtime_fault], each run once
     and required to report zero contract violations — the test-suite
     mirror of `ppc_sim faults --runtime all`;
   - direct error-contract regressions for [Fastcall.call] / [call_h]:
     neither raises; every failure — an ID never bound (or fully
     drained), killed, contained handler exception — comes back in the
     RC slot;
   - stress: several client domains hammering a mix of healthy and
     raising entry points over the sharded channel path (every reply
     classified correctly, the shards surviving to serve a fresh client
     afterwards), and repeated kill / revive cycles on one shard. *)

module F = Runtime.Fastcall
module Errc = Ipc_intf.Errc

exception Boom

let mk () = Array.make F.arg_words 0

(* --- named fault scenarios --------------------------------------------- *)

let scenario_case name =
  Alcotest.test_case name `Quick (fun () ->
      match Faultsim.Runtime_fault.run name with
      | None -> Alcotest.failf "unknown runtime fault scenario %S" name
      | Some r ->
          if not (Faultsim.Runtime_fault.ok r) then
            Alcotest.failf "scenario %s violated containment:@.%a@.%a" name
              (Format.pp_print_list ~pp_sep:Format.pp_print_newline
                 (fun ppf v -> Format.fprintf ppf "  - %s" v))
              r.Faultsim.Runtime_fault.violations
              Faultsim.Runtime_fault.pp_report r)

(* --- call / call_h error contract -------------------------------------- *)

let test_local_error_contract () =
  let t = F.create () in
  (* Unbound and out-of-range raw IDs answer no_entry in the RC slot. *)
  let a = mk () in
  Alcotest.(check int) "unbound ID" Errc.no_entry (F.call t ~ep:57 a);
  Alcotest.(check int) "rc slot written" Errc.no_entry a.(F.arg_words - 1);
  Alcotest.(check int) "out-of-range ID" Errc.no_entry
    (F.call t ~ep:F.max_entry_points (mk ()));
  Alcotest.(check int) "negative ID" Errc.no_entry (F.call t ~ep:(-1) (mk ()));
  (* A healthy endpoint answers ok on both paths. *)
  let h = F.register_ep t (fun _ a -> a.(1) <- a.(0) + 1) in
  let a = mk () in
  a.(0) <- 41;
  Alcotest.(check int) "call_h ok" Errc.ok (F.call_h t h a);
  Alcotest.(check int) "result" 42 a.(1);
  Alcotest.(check int) "call ok" Errc.ok (F.call t ~ep:(F.ep_id h) (mk ()));
  (* A raising handler is contained on both paths: [handler_fault] in
     the RC slot, never an exception. *)
  let bad = F.register_ep t (fun _ _ -> raise Boom) in
  Alcotest.(check int) "call_h handler_fault" Errc.handler_fault
    (F.call_h t bad (mk ()));
  Alcotest.(check int) "call handler_fault" Errc.handler_fault
    (F.call t ~ep:(F.ep_id bad) (mk ()));
  Alcotest.(check int) "faults counted" 2 (F.handler_faults t);
  Alcotest.(check int) "ep faults" 2 (F.ep_faults t ~ep:(F.ep_id bad));
  Alcotest.(check int) "good ep untouched" 0 (F.ep_faults t ~ep:(F.ep_id h));
  (* Kill the healthy endpoint while idle: the slot drains immediately,
     stale handles and the raw ID answer [no_entry]. *)
  Alcotest.(check int) "soft_kill ok" Errc.ok (F.soft_kill_h t h);
  Alcotest.(check int) "stale handle" Errc.no_entry (F.call_h t h (mk ()));
  Alcotest.(check int) "killed-and-drained ID" Errc.no_entry
    (F.call t ~ep:(F.ep_id h) (mk ()))

(* [killed] is only observable while a slot is draining, which needs an
   in-flight call: have the handler soft-kill its own entry point and
   then call it again — the nested call must be refused with [killed]
   while the outer one (already accepted) completes normally. *)
let test_killed_while_draining () =
  let t = F.create () in
  let id = ref (-1) in
  let handler _ a =
    if a.(0) = 1 then begin
      a.(1) <- F.soft_kill t ~ep:!id;
      (match F.lifecycle t ~ep:!id with
      | Some Ipc_intf.Lifecycle.Soft_killed -> a.(3) <- 1
      | _ -> a.(3) <- 0);
      a.(2) <- F.call t ~ep:!id (mk ())
    end
  in
  id := F.register t handler;
  let a = mk () in
  a.(0) <- 1;
  Alcotest.(check int) "outer call completes" Errc.ok (F.call t ~ep:!id a);
  Alcotest.(check int) "self soft-kill accepted" Errc.ok a.(1);
  Alcotest.(check int) "draining observed as Soft_killed" 1 a.(3);
  Alcotest.(check int) "nested call refused with killed" Errc.killed a.(2);
  (* Retiring the outer call finished the drain: the slot is free. *)
  Alcotest.(check bool) "slot drained" true (F.lifecycle t ~ep:!id = None);
  Alcotest.(check int) "drained ID" Errc.no_entry (F.call t ~ep:!id (mk ()))

(* --- multi-domain stress ------------------------------------------------ *)

let test_multidomain_fault_stress () =
  let t = F.create ~breaker_threshold:max_int () in
  let good = F.register t (fun _ a -> a.(1) <- a.(0) + 1) in
  let bad = F.register t (fun _ _ -> raise Boom) in
  let server = F.spawn_channel_server ~shards:2 t in
  let producers = 4 and calls = 400 in
  let misclassified = Atomic.make 0 in
  let ds =
    Array.init producers (fun _ ->
        Domain.spawn (fun () ->
            (* The queued path (a deadline call with no deadline), so
               raising handlers run on the shard domains, not inline on
               this client. *)
            let cl = F.connect server in
            let call ~ep a =
              F.channel_call_deadline cl ~ep ~deadline:max_int a
            in
            let a = Array.make F.arg_words 0 in
            for i = 1 to calls do
              Array.fill a 0 F.arg_words 0;
              if i land 1 = 0 then begin
                a.(0) <- i;
                let rc = call ~ep:good a in
                if rc <> Errc.ok || a.(1) <> i + 1 then
                  Atomic.incr misclassified
              end
              else begin
                let rc = call ~ep:bad a in
                if rc <> Errc.handler_fault then Atomic.incr misclassified
              end
            done))
  in
  Array.iter Domain.join ds;
  Alcotest.(check int) "every reply classified" 0 (Atomic.get misclassified);
  Alcotest.(check int) "every fault counted"
    (producers * calls / 2)
    (F.handler_faults t);
  Alcotest.(check int) "breaker held open" 0 (F.breaker_trips t);
  (* The shards survived: a fresh client still gets service. *)
  let cl = F.connect server in
  let a = mk () in
  a.(0) <- 7;
  Alcotest.(check int) "post-stress call ok" Errc.ok
    (F.channel_call cl ~ep:good a);
  Alcotest.(check int) "post-stress result" 8 a.(1);
  F.shutdown_channel_server server

(* Each cycle kills the only shard (so no sibling can steal its work),
   abandons one cell on a call that must time out, and revives: the
   revival must join the dead domain, reclaim the abandoned cell and
   leave exactly one serving domain.  Twenty cycles abandon more cells
   than the 16-cell pool holds, so a revival that reclaimed nothing
   would surface as [retry]. *)
let test_kill_revive_cycles () =
  let t = F.create () in
  let ep = F.register t (fun _ a -> a.(1) <- a.(0) + 1) in
  let server = F.spawn_channel_server ~shards:1 t in
  let cl = F.connect server in
  let cycles = 20 in
  for i = 1 to cycles do
    F.kill_shard server ~shard:0;
    let rc =
      F.channel_call_deadline cl ~ep
        ~deadline:(Runtime.Doorbell.now_ns () + 200_000)
        (mk ())
    in
    Alcotest.(check string)
      (Printf.sprintf "cycle %d: dead shard times out" i)
      (Errc.to_string Errc.timed_out) (Errc.to_string rc);
    F.revive_shard server ~shard:0;
    let a = mk () in
    a.(0) <- i;
    let rc =
      F.channel_call_deadline cl ~ep
        ~deadline:(Runtime.Doorbell.now_ns () + 1_000_000_000)
        a
    in
    Alcotest.(check string)
      (Printf.sprintf "cycle %d: revived shard answers" i)
      (Errc.to_string Errc.ok) (Errc.to_string rc);
    Alcotest.(check int) (Printf.sprintf "cycle %d: result" i) (i + 1) a.(1)
  done;
  Alcotest.(check int) "one respawn per revival" cycles
    (F.channel_respawns server);
  Alcotest.check_raises "reviving a live shard"
    (Invalid_argument "Fastcall.revive_shard: shard was not killed") (fun () ->
      F.revive_shard server ~shard:0);
  Alcotest.check_raises "reviving a shard that does not exist"
    (Invalid_argument "Fastcall.revive_shard: no such shard") (fun () ->
      F.revive_shard server ~shard:1);
  F.shutdown_channel_server server

let suites =
  [
    ("runtime.faults.scenarios", List.map scenario_case Faultsim.Runtime_fault.names);
    ( "runtime.faults.contract",
      [
        Alcotest.test_case "call / call_h error contract" `Quick
          test_local_error_contract;
        Alcotest.test_case "killed only while draining" `Quick
          test_killed_while_draining;
      ] );
    ( "runtime.faults.stress",
      [
        Alcotest.test_case "multi-domain raising-handler stress" `Quick
          test_multidomain_fault_stress;
        Alcotest.test_case "kill / revive cycles" `Quick
          test_kill_revive_cycles;
      ] );
  ]
