(* The functorized conformance suite: one set of control-plane
   scenarios, instantiated once against the simulator engine and once
   against the real-domain runtime, so the two embodiments cannot drift.

   Scenarios are deliberately single-threaded — they pin down the
   *semantics* of the lifecycle state machine (registration, naming,
   exchange, the two kill strategies, ID-reuse safety).  Concurrent
   behavior (soft-kill under fire, quiesced shutdown) is embodiment-
   specific and lives with each stack's own stress tests.

   Where the embodiments legitimately differ the contract is a
   disjunction, stated in the comment above the check: a call racing
   its own entry point's hard-kill completes in the simulator (running
   workers finish, then retire) but is aborted with [Errc.killed] in
   the runtime (which cannot preempt a domain).

   An ID is a name that dies with its service: once freed it answers
   [Errc.no_entry] forever, in the simulator because IDs are monotonic
   and in the runtime because the ID is a versioned handle whose
   generation the freed slot's next tenant does not share. *)

module Make (S : Sigs.SUBJECT) = struct
  exception Violation of string

  let failf scenario fmt =
    Printf.ksprintf
      (fun msg -> raise (Violation (Printf.sprintf "[%s] %s: %s" S.name scenario msg)))
      fmt

  let check scenario what cond =
    if not cond then failf scenario "%s" what

  let check_rc scenario what expected rc =
    if rc <> expected then
      failf scenario "%s: expected %s, got %s" what (Errc.to_string expected)
        (Errc.to_string rc)

  let args () = Array.make 8 0

  let with_world f =
    let t = S.setup () in
    Fun.protect ~finally:(fun () -> S.teardown t) (fun () -> f t)

  (* A behavior spec that stamps [tag] into slot 0 and returns ok.
     Specs, not closures: the subject may compile them in another OS
     process (see {!Sigs.spec}). *)
  let stamp tag = Sigs.Stamp tag

  let sc_register_and_call () =
    with_world (fun t ->
        let ep = S.register t Sigs.Add2 in
        let a = args () in
        a.(0) <- 40;
        a.(1) <- 2;
        check_rc "register-and-call" "call rc" Errc.ok (S.call t ep a);
        check "register-and-call" "in-place result" (a.(0) = 42);
        check "register-and-call" "idle in_flight" (S.in_flight t ep = 0))

  let sc_publish_lookup_call () =
    with_world (fun t ->
        let ep = S.register t (stamp 42) in
        check_rc "publish-lookup-call" "publish rc" Errc.ok
          (S.publish t ~name:"bob" ep);
        (match S.lookup t ~name:"bob" with
        | Ok id ->
            check "publish-lookup-call" "lookup returns the bound id"
              (id = S.id t ep);
            let a = args () in
            check_rc "publish-lookup-call" "call by looked-up id" Errc.ok
              (S.call_id t ~id a);
            check "publish-lookup-call" "behavior ran" (a.(0) = 42)
        | Error rc ->
            failf "publish-lookup-call" "lookup failed: %s" (Errc.to_string rc)))

  let sc_lookup_missing () =
    with_world (fun t ->
        match S.lookup t ~name:"ghost" with
        | Ok _ -> failf "lookup-missing" "unbound name resolved"
        | Error rc ->
            check_rc "lookup-missing" "lookup error" Errc.no_entry rc)

  let sc_publish_collision () =
    with_world (fun t ->
        let ep = S.register t (stamp 1) in
        let ep2 = S.register t (stamp 2) in
        check_rc "publish-collision" "first publish" Errc.ok
          (S.publish t ~name:"svc" ep);
        check_rc "publish-collision" "rebinding rejected" Errc.bad_request
          (S.publish t ~name:"svc" ep2))

  let sc_exchange () =
    with_world (fun t ->
        let ep = S.register t (stamp 1) in
        let a = args () in
        check_rc "exchange" "call before" Errc.ok (S.call t ep a);
        check "exchange" "old behavior" (a.(0) = 1);
        check_rc "exchange" "exchange rc" Errc.ok (S.exchange t ep (stamp 2));
        let a = args () in
        check_rc "exchange" "call after" Errc.ok (S.call t ep a);
        check "exchange" "new behavior under the same id" (a.(0) = 2))

  let sc_soft_kill_refuses_new () =
    with_world (fun t ->
        let ep = S.register t (stamp 1) in
        check_rc "soft-kill-refuses-new" "soft_kill rc" Errc.ok
          (S.soft_kill t ep);
        (* No calls were in flight, so the entry point is already freed:
           its ID and its handle both answer no_entry. *)
        let a = args () in
        check_rc "soft-kill-refuses-new" "id after quiesced kill"
          Errc.no_entry
          (S.call_id t ~id:(S.id t ep) a);
        check_rc "soft-kill-refuses-new" "stale handle" Errc.no_entry
          (S.call t ep a);
        check "soft-kill-refuses-new" "behavior did not run" (a.(0) = 0);
        check_rc "soft-kill-refuses-new" "second kill" Errc.no_entry
          (S.soft_kill t ep))

  (* The in-flight call soft-kills its own entry point.  Soft-kill must
     let the accepted call complete (drain, not lose it), refuse
     everything after, and free the entry point once drained. *)
  let sc_soft_kill_drains () =
    with_world (fun t ->
        let ep = S.register t (Sigs.Kill_self_soft 123) in
        let a = args () in
        check_rc "soft-kill-drains" "in-flight call completes" Errc.ok
          (S.call t ep a);
        check "soft-kill-drains" "in-flight call's effect survives"
          (a.(0) = 123);
        check "soft-kill-drains" "drained" (S.in_flight t ep = 0);
        let a = args () in
        check_rc "soft-kill-drains" "id freed after drain" Errc.no_entry
          (S.call_id t ~id:(S.id t ep) a))

  (* Hard-kill from inside the running call.  The simulator lets the
     running worker finish (then retires it); the runtime aborts the
     call's result with [Errc.killed].  Either way: nothing hangs, and
     no call after the kill gets in. *)
  let sc_hard_kill_aborts () =
    with_world (fun t ->
        let ep = S.register t (Sigs.Kill_self_hard 9) in
        let a = args () in
        let rc = S.call t ep a in
        check "hard-kill-aborts" "racing call completes or aborts"
          (rc = Errc.ok || rc = Errc.killed);
        check "hard-kill-aborts" "drained" (S.in_flight t ep = 0);
        let a = args () in
        check_rc "hard-kill-aborts" "id freed" Errc.no_entry
          (S.call_id t ~id:(S.id t ep) a);
        check_rc "hard-kill-aborts" "stale handle" Errc.no_entry
          (S.call t ep a))

  (* Deallocate, reallocate, and prove the dead name dead: through the
     handle and through the ID, the old name answers [Errc.no_entry]
     and runs nothing — neither the old service nor the new one, which
     in the runtime took the freed slot. *)
  let sc_id_reuse_is_safe () =
    with_world (fun t ->
        let old = S.register t (stamp 111) in
        let old_id = S.id t old in
        check_rc "id-reuse" "kill old" Errc.ok (S.soft_kill t old);
        let fresh = S.register t (stamp 222) in
        let a = args () in
        check_rc "id-reuse" "stale handle" Errc.no_entry (S.call t old a);
        check "id-reuse" "nothing ran via the stale handle" (a.(0) = 0);
        let a = args () in
        check_rc "id-reuse" "old id" Errc.no_entry (S.call_id t ~id:old_id a);
        check "id-reuse" "nothing ran via the old id" (a.(0) = 0);
        let a = args () in
        check_rc "id-reuse" "new service callable" Errc.ok (S.call t fresh a);
        check "id-reuse" "new behavior" (a.(0) = 222))

  (* The full paper protocol in one pass: register -> publish -> lookup
     -> call -> exchange -> soft-kill -> reallocate. *)
  let sc_full_journey () =
    with_world (fun t ->
        let ep = S.register t (stamp 1) in
        check_rc "journey" "publish" Errc.ok (S.publish t ~name:"journey" ep);
        let id =
          match S.lookup t ~name:"journey" with
          | Ok id -> id
          | Error rc -> failf "journey" "lookup: %s" (Errc.to_string rc)
        in
        let a = args () in
        check_rc "journey" "call" Errc.ok (S.call_id t ~id a);
        check "journey" "v1 behavior" (a.(0) = 1);
        check_rc "journey" "exchange" Errc.ok (S.exchange t ep (stamp 2));
        let a = args () in
        check_rc "journey" "call v2" Errc.ok (S.call_id t ~id a);
        check "journey" "v2 behavior" (a.(0) = 2);
        check_rc "journey" "soft-kill" Errc.ok (S.soft_kill t ep);
        let a = args () in
        check_rc "journey" "gone" Errc.no_entry (S.call_id t ~id a);
        let ep2 = S.register t (stamp 3) in
        let a = args () in
        check_rc "journey" "successor callable" Errc.ok (S.call t ep2 a);
        check "journey" "successor behavior" (a.(0) = 3))

  let scenarios =
    [
      ("register-and-call", sc_register_and_call);
      ("publish-lookup-call", sc_publish_lookup_call);
      ("lookup-missing", sc_lookup_missing);
      ("publish-collision", sc_publish_collision);
      ("exchange", sc_exchange);
      ("soft-kill-refuses-new", sc_soft_kill_refuses_new);
      ("soft-kill-drains", sc_soft_kill_drains);
      ("hard-kill-aborts", sc_hard_kill_aborts);
      ("id-reuse-is-safe", sc_id_reuse_is_safe);
      ("full-journey", sc_full_journey);
    ]

  let run_all () = List.iter (fun (_, f) -> f ()) scenarios
end
