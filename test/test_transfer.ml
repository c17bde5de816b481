(* Tests for regions (grants) and the CopyServer. *)

module Errc = Ipc_intf.Errc

let qcheck = QCheck_alcotest.to_alcotest

let spawn_client kern ~cpu ~name body =
  let program = Kernel.new_program kern ~name in
  let space = Kernel.new_user_space kern ~name ~node:cpu in
  Kernel.spawn kern ~cpu ~name ~kind:Kernel.Process.Client ~program ~space body

(* --- regions ------------------------------------------------------------ *)

let test_region_grant_check () =
  let r = Transfer.Region.create () in
  let _id =
    Transfer.Region.grant r ~owner:1 ~grantee:2 ~base:0x1000 ~len:0x100
      ~access:Transfer.Region.Read_only
  in
  Alcotest.(check bool) "read inside ok" true
    (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:0x1000 ~len:0x100 ~dir:`Read);
  Alcotest.(check bool) "subrange ok" true
    (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:0x1040 ~len:0x20 ~dir:`Read);
  Alcotest.(check bool) "write denied on read-only" false
    (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:0x1000 ~len:0x10 ~dir:`Write);
  Alcotest.(check bool) "beyond end denied" false
    (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:0x10F0 ~len:0x20 ~dir:`Read);
  Alcotest.(check bool) "wrong grantee denied" false
    (Transfer.Region.check r ~owner:1 ~grantee:3 ~base:0x1000 ~len:0x10 ~dir:`Read)

let test_region_revoke () =
  let r = Transfer.Region.create () in
  let id =
    Transfer.Region.grant r ~owner:1 ~grantee:2 ~base:0 ~len:64
      ~access:Transfer.Region.Read_write
  in
  Alcotest.(check bool) "revoke succeeds" true (Transfer.Region.revoke r ~grant_id:id);
  Alcotest.(check bool) "revoke twice fails" false
    (Transfer.Region.revoke r ~grant_id:id);
  Alcotest.(check bool) "check after revoke" false
    (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:0 ~len:8 ~dir:`Read);
  Alcotest.(check int) "revocations" 1 (Transfer.Region.revocations r)

let prop_region_subranges_allowed =
  QCheck.Test.make ~name:"any subrange of a grant checks out" ~count:200
    QCheck.(triple (0 -- 1000) (1 -- 512) (1 -- 512))
    (fun (base, len, sub) ->
      let r = Transfer.Region.create () in
      ignore
        (Transfer.Region.grant r ~owner:1 ~grantee:2 ~base ~len:(len + sub)
           ~access:Transfer.Region.Read_write);
      Transfer.Region.check r ~owner:1 ~grantee:2 ~base:(base + sub) ~len
        ~dir:`Write)

let prop_region_outside_denied =
  QCheck.Test.make ~name:"ranges straddling the end are denied" ~count:200
    QCheck.(pair (0 -- 1000) (1 -- 512))
    (fun (base, len) ->
      let r = Transfer.Region.create () in
      ignore
        (Transfer.Region.grant r ~owner:1 ~grantee:2 ~base ~len
           ~access:Transfer.Region.Read_write);
      not
        (Transfer.Region.check r ~owner:1 ~grantee:2 ~base:(base + 1) ~len
           ~dir:`Read))

(* --- copy server --------------------------------------------------------- *)

(* --- bounded grant table --------------------------------------------------- *)

let test_grant_table_bounded () =
  let r = Transfer.Region.create ~max_grants:2 () in
  let g1 =
    Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x1000 ~len:64
      ~access:Transfer.Region.Read_write
  in
  let g2 =
    Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x2000 ~len:64
      ~access:Transfer.Region.Read_only
  in
  Alcotest.(check bool) "two grants fit" true
    (Result.is_ok g1 && Result.is_ok g2);
  (match
     Transfer.Region.try_grant r ~owner:1 ~grantee:2 ~base:0x3000 ~len:64
       ~access:Transfer.Region.Read_write
   with
  | Error rc -> Alcotest.(check int) "exhaustion answers retry" Errc.retry rc
  | Ok _ -> Alcotest.fail "grant table grew past its cap");
  (* Revoke frees a slot: the table recovers, never grows. *)
  let id1 = Result.get_ok g1 in
  Alcotest.(check bool) "revoke" true (Transfer.Region.revoke r ~grant_id:id1);
  (match
     Transfer.Region.try_grant r ~owner:3 ~grantee:4 ~base:0x4000 ~len:64
       ~access:Transfer.Region.Read_write
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "slot not reusable after revoke");
  Alcotest.(check int) "active" 2 (Transfer.Region.active_grants r);
  Alcotest.(check int) "cap" 2 (Transfer.Region.max_grants r)

let test_grant_handoff_consumes () =
  let r = Transfer.Region.create () in
  let id =
    Transfer.Region.grant r ~owner:1 ~grantee:2 ~base:0x1000 ~len:8192
      ~access:Transfer.Region.Read_write
  in
  (match Transfer.Region.handoff r ~grant_id:id with
  | Some g ->
      Alcotest.(check int) "handoff returns the grant's range" 8192
        g.Transfer.Region.len
  | None -> Alcotest.fail "live grant refused handoff");
  Alcotest.(check int) "handoff revokes" 0 (Transfer.Region.active_grants r);
  Alcotest.(check bool) "consumed grant cannot hand off twice" true
    (Transfer.Region.handoff r ~grant_id:id = None);
  Alcotest.(check int) "handoffs counted" 1 (Transfer.Region.handoffs r)

let copy_setup () =
  let kern = Kernel.create ~cpus:1 () in
  let ppc = Ppc.create kern in
  let cs = Transfer.Copy_server.install ppc in
  (kern, ppc, cs)

let test_copy_requires_grant () =
  let kern, ppc, cs = copy_setup () in
  let denied_rc = ref 0 and ok_rc = ref 0 in
  let peer_prog = Kernel.new_program kern ~name:"peer" in
  let src = Kernel.alloc kern ~bytes:256 ~node:0 in
  let dst = Kernel.alloc kern ~bytes:256 ~node:0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"mover" (fun self ->
         denied_rc :=
           Transfer.Copy_server.copy_to cs ppc ~client:self
             ~peer:(Kernel.Program.id peer_prog) ~src ~dst ~len:128;
         Transfer.Region.grant
           (Transfer.Copy_server.regions cs)
           ~owner:(Kernel.Program.id peer_prog)
           ~grantee:(Kernel.Program.id (Kernel.Process.program self))
           ~base:dst ~len:256 ~access:Transfer.Region.Write_only
         |> ignore;
         ok_rc :=
           Transfer.Copy_server.copy_to cs ppc ~client:self
             ~peer:(Kernel.Program.id peer_prog) ~src ~dst ~len:128));
  Kernel.run kern;
  Alcotest.(check int) "without grant denied" Ppc.Reg_args.err_denied !denied_rc;
  Alcotest.(check int) "with grant ok" Ppc.Reg_args.ok !ok_rc;
  Alcotest.(check int) "bytes accounted" 128 (Transfer.Copy_server.bytes_copied cs);
  Alcotest.(check int) "denial accounted" 1 (Transfer.Copy_server.denied cs)

let test_copy_from_direction () =
  let kern, ppc, cs = copy_setup () in
  let rc = ref 0 in
  let peer_prog = Kernel.new_program kern ~name:"peer" in
  let src = Kernel.alloc kern ~bytes:256 ~node:0 in
  let dst = Kernel.alloc kern ~bytes:256 ~node:0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"mover" (fun self ->
         Transfer.Region.grant
           (Transfer.Copy_server.regions cs)
           ~owner:(Kernel.Program.id peer_prog)
           ~grantee:(Kernel.Program.id (Kernel.Process.program self))
           ~base:src ~len:256 ~access:Transfer.Region.Read_only
         |> ignore;
         rc :=
           Transfer.Copy_server.copy_from cs ppc ~client:self
             ~peer:(Kernel.Program.id peer_prog) ~src ~dst ~len:64));
  Kernel.run kern;
  Alcotest.(check int) "copy_from with read grant" Ppc.Reg_args.ok !rc

let test_copy_size_limits () =
  let kern, ppc, cs = copy_setup () in
  let zero_rc = ref 0 and huge_rc = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"mover" (fun self ->
         zero_rc :=
           Transfer.Copy_server.copy_to cs ppc ~client:self ~peer:1 ~src:0 ~dst:0
             ~len:0;
         huge_rc :=
           Transfer.Copy_server.copy_to cs ppc ~client:self ~peer:1 ~src:0 ~dst:0
             ~len:(Transfer.Copy_server.max_bytes_per_call + 1)));
  Kernel.run kern;
  Alcotest.(check int) "zero length rejected" Ppc.Reg_args.err_bad_request !zero_rc;
  Alcotest.(check int) "oversize rejected with distinct code"
    Ppc.Reg_args.err_too_big !huge_rc

let test_copy_charges_memory_traffic () =
  let kern, ppc, cs = copy_setup () in
  let peer_prog = Kernel.new_program kern ~name:"peer" in
  let src = Kernel.alloc kern ~bytes:4096 ~node:0 in
  let dst = Kernel.alloc kern ~bytes:4096 ~node:0 in
  let cpu = Machine.cpu (Kernel.machine kern) 0 in
  let small = ref 0 and large = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"mover" (fun self ->
         Transfer.Region.grant
           (Transfer.Copy_server.regions cs)
           ~owner:(Kernel.Program.id peer_prog)
           ~grantee:(Kernel.Program.id (Kernel.Process.program self))
           ~base:dst ~len:4096 ~access:Transfer.Region.Write_only
         |> ignore;
         let c0 = Machine.Cpu.cycles cpu in
         ignore
           (Transfer.Copy_server.copy_to cs ppc ~client:self
              ~peer:(Kernel.Program.id peer_prog) ~src ~dst ~len:64);
         small := Machine.Cpu.cycles cpu - c0;
         let c1 = Machine.Cpu.cycles cpu in
         ignore
           (Transfer.Copy_server.copy_to cs ppc ~client:self
              ~peer:(Kernel.Program.id peer_prog) ~src ~dst ~len:2048);
         large := Machine.Cpu.cycles cpu - c1));
  Kernel.run kern;
  Alcotest.(check bool)
    (Printf.sprintf "larger copies cost more (%d vs %d)" !large !small)
    true
    (!large > !small + 500)

let suites =
  [
    ( "transfer.region",
      [
        Alcotest.test_case "grant + check" `Quick test_region_grant_check;
        Alcotest.test_case "revoke" `Quick test_region_revoke;
        qcheck prop_region_subranges_allowed;
        qcheck prop_region_outside_denied;
        Alcotest.test_case "grant table bounded, exhaustion = retry" `Quick
          test_grant_table_bounded;
        Alcotest.test_case "grant handoff consumes exactly once" `Quick
          test_grant_handoff_consumes;
      ] );
    ( "transfer.copy_server",
      [
        Alcotest.test_case "grants enforced" `Quick test_copy_requires_grant;
        Alcotest.test_case "copy_from direction" `Quick test_copy_from_direction;
        Alcotest.test_case "size limits" `Quick test_copy_size_limits;
        Alcotest.test_case "memory traffic scales" `Quick
          test_copy_charges_memory_traffic;
      ] );
  ]

let test_copy_from_denied_without_grant () =
  let kern, ppc, cs = copy_setup () in
  let rc = ref 0 in
  ignore
    (spawn_client kern ~cpu:0 ~name:"mover" (fun self ->
         rc :=
           Transfer.Copy_server.copy_from cs ppc ~client:self ~peer:42 ~src:0x1000
             ~dst:0x2000 ~len:64));
  Kernel.run kern;
  Alcotest.(check int) "pull without read grant denied" Ppc.Reg_args.err_denied
    !rc

let denial_suite =
  ( "transfer.copy_denials",
    [
      Alcotest.test_case "copy_from denied" `Quick
        test_copy_from_denied_without_grant;
    ] )

let suites = suites @ [ denial_suite ]
