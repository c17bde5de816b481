(* The control-plane conformance suite, instantiated against both
   embodiments of the paper's IPC facility: the cycle-accurate simulator
   and the real-domain runtime.  The scenarios themselves live in
   [Ipc_intf.Conformance]; this file only supplies the two SUBJECT
   adapters, so any semantic drift between the stacks fails here. *)

module Errc = Ipc_intf.Errc

(* --- the simulator embodiment ------------------------------------------- *)

module Sim_subject :
  Ipc_intf.Sigs.SUBJECT with type ep = int = struct
  type t = {
    kern : Kernel.t;
    ppc : Ppc.t;
    ns : Naming.Name_server.t;
    server : Ppc.Entry_point.server;
  }

  (* Simulator entry-point IDs are allocated monotonically and never
     reused, so the raw ID is itself a stale-safe handle. *)
  type ep = int

  let name = "sim"

  let setup () =
    let kern = Kernel.create ~cpus:1 () in
    let ppc = Ppc.create kern in
    let ns = Naming.Name_server.install ppc in
    let server = Ppc.make_user_server ppc ~name:"conformance-server" () in
    { kern; ppc; ns; server }

  let teardown _ = ()

  (* Run [body] as a client process to completion: one simulated
     episode per conformance operation. *)
  let episode t body =
    let program = Kernel.new_program t.kern ~name:"conf-client" in
    let space = Kernel.new_user_space t.kern ~name:"conf-client" ~node:0 in
    ignore
      (Kernel.spawn t.kern ~cpu:0 ~name:"conf-client"
         ~kind:Kernel.Process.Client ~program ~space body);
    Kernel.run t.kern

  let wrap (b : Ipc_intf.Sigs.behavior) : Ppc.Call_ctx.handler =
   fun _ctx args -> b args

  let id _ ep = ep

  let publish t ~name ep =
    let rc = ref Errc.no_entry in
    episode t (fun self ->
        rc := Naming.Name_server.register t.ns ~client:self ~name ~ep_id:ep);
    !rc

  let lookup t ~name =
    let r = ref (Error Errc.no_entry) in
    episode t (fun self ->
        r := Naming.Name_server.lookup t.ns ~client:self ~name);
    !r

  let call_id t ~id args =
    let rc = ref Errc.no_entry in
    episode t (fun self -> rc := Ppc.call t.ppc ~client:self ~ep_id:id args);
    !rc

  (* IDs are never recycled, so the handle path and the raw-ID path
     coincide. *)
  let call t ep args = call_id t ~id:ep args

  let kill_with op t ep =
    match Ppc.find_ep t.ppc ep with
    | None -> Errc.no_entry
    | Some e when Ppc.Entry_point.status e <> Ppc.Entry_point.Active ->
        Errc.killed
    | Some _ ->
        op t.ppc ~ep_id:ep;
        Errc.ok

  let soft_kill t ep = kill_with Ppc.soft_kill t ep
  let hard_kill t ep = kill_with Ppc.hard_kill t ep

  let in_flight t ep =
    match Ppc.find_ep t.ppc ep with
    | None -> 0
    | Some e -> Ppc.Entry_point.in_progress_total e

  (* Compile a behavior spec against this embodiment: self-kills target
     the ref cell filled in right after registration, naps are free
     (simulated time needs no wall clock). *)
  let compile t self spec =
    let kill k () = match !self with Some ep -> k t ep | None -> Errc.no_entry in
    Ipc_intf.Sigs.compile ~kill_soft:(kill soft_kill) ~kill_hard:(kill hard_kill)
      ~nap_ms:(fun _ -> ())
      spec

  let register t spec =
    let self = ref None in
    let b = compile t self spec in
    let ep =
      Ppc.Entry_point.id
        (Ppc.register_direct t.ppc ~server:t.server ~handler:(wrap b))
    in
    self := Some ep;
    ep

  let exchange t ep spec =
    let b = compile t (ref (Some ep)) spec in
    match Ppc.find_ep t.ppc ep with
    | None -> Errc.no_entry
    | Some e when Ppc.Entry_point.status e <> Ppc.Entry_point.Active ->
        Errc.killed
    | Some _ ->
        ignore
          (Ppc.Engine.exchange (Ppc.engine t.ppc) ~ep_id:ep ~handler:(wrap b));
        Errc.ok
end

(* --- the real-domain runtime embodiment ---------------------------------- *)

module Runtime_subject : Ipc_intf.Sigs.SUBJECT with type ep = int = struct
  module F = Runtime.Fastcall

  type t = { table : F.t; ctl : Runtime.Control.t }

  (* Runtime slots are recycled; the generation in the handle keeps a
     dead handle dead, so the handle is the ID on every path. *)
  type ep = int

  let name = "runtime"
  let principal = 7

  let setup () =
    let table = F.create () in
    { table; ctl = Runtime.Control.install table }

  let teardown _ = ()

  let wrap (b : Ipc_intf.Sigs.behavior) : F.handler = fun _ctx args -> b args

  let compile t self spec =
    let kill k () =
      match !self with Some ep -> k t ep | None -> Errc.no_entry
    in
    Ipc_intf.Sigs.compile
      ~kill_soft:(kill (fun t ep -> F.soft_kill t.table ~ep))
      ~kill_hard:(kill (fun t ep -> F.hard_kill t.table ~ep))
      ~nap_ms:(fun ms -> Runtime.Doorbell.nap_ns (ms * 1_000_000))
      spec

  let register t spec =
    let self = ref None in
    let b = compile t self spec in
    let ep = F.register t.table (wrap b) in
    self := Some ep;
    ep

  let id _ ep = ep
  let publish t ~name ep = Runtime.Control.publish t.ctl ~principal ~name ~ep
  let lookup t ~name = Runtime.Control.lookup t.ctl ~name
  let call_id t ~id args = F.call t.table ~ep:id args
  let call t ep args = call_id t ~id:ep args

  let exchange t ep spec =
    F.exchange t.table ~ep (wrap (compile t (ref (Some ep)) spec))

  let soft_kill t ep = F.soft_kill t.table ~ep
  let hard_kill t ep = F.hard_kill t.table ~ep
  let in_flight t ep = F.in_flight t.table ~ep
end

module Sim_conf = Ipc_intf.Conformance.Make (Sim_subject)
module Runtime_conf = Ipc_intf.Conformance.Make (Runtime_subject)

let sim_case (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      try f () with Sim_conf.Violation m -> Alcotest.fail m)

let runtime_case (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      try f () with Runtime_conf.Violation m -> Alcotest.fail m)

(* --- error-code wire convention ------------------------------------------- *)

(* [Errc] values ride the last argument word across every boundary, so
   they are append-only wire values: pin each one exactly, and make
   sure [to_string] names all of them (no code falls through to the
   numeric catch-all, and no two codes share a name). *)
let test_errc_round_trip () =
  let pinned =
    [
      (Errc.ok, 0, "ok");
      (Errc.no_entry, -1, "err_no_entry");
      (Errc.killed, -2, "err_killed");
      (Errc.denied, -3, "err_denied");
      (Errc.bad_request, -4, "err_bad_request");
      (Errc.no_resources, -5, "err_no_resources");
      (Errc.handler_fault, -6, "err_handler_fault");
      (Errc.timed_out, -7, "err_timed_out");
      (Errc.retry, -8, "err_retry");
      (Errc.too_big, -9, "err_too_big");
      (Errc.copy_fault, -10, "err_copy_fault");
      (Errc.peer_dead, -11, "err_peer_dead");
      (Errc.stale_generation, -12, "err_stale_generation");
    ]
  in
  Alcotest.(check int)
    "Errc.all is exhaustive" (List.length pinned) (List.length Errc.all);
  List.iter
    (fun (code, wire, name) ->
      Alcotest.(check int) ("wire value of " ^ name) wire code;
      Alcotest.(check bool) (name ^ " listed in Errc.all") true
        (List.mem code Errc.all);
      Alcotest.(check string) ("to_string " ^ name) name (Errc.to_string code))
    pinned;
  let names = List.map Errc.to_string Errc.all in
  Alcotest.(check int) "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* A code outside the taxonomy must not alias a real name. *)
  Alcotest.(check string) "unknown code" "rc(-99)" (Errc.to_string (-99))

let suites =
  [
    ("conformance.sim", List.map sim_case Sim_conf.scenarios);
    ("conformance.runtime", List.map runtime_case Runtime_conf.scenarios);
    ( "conformance.errc",
      [
        Alcotest.test_case "error codes round-trip exhaustively" `Quick
          test_errc_round_trip;
      ] );
  ]
