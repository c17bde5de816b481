(* Single test executable, organized as named groups.

   Each group is its own [Alcotest.run ~and_exit:false] invocation, so a
   full run prints per-group wall-clock timing, and one area can be run
   (and timed) alone:

     TEST_ONLY=faultsim dune runtest --force
     TEST_ONLY=ppc,runtime dune exec test/test_main.exe
     TEST_ONLY=faultsim dune exec test/test_main.exe -- test faultsim.checker

   TEST_ONLY takes a comma-separated list of group names (see [groups]);
   anything after `--` is standard Alcotest CLI, applied to the selected
   groups. *)

let groups : (string * unit Alcotest.test list) list =
  [
    ("sim", Test_sim.suites @ Test_trace.suites);
    ("machine", Test_machine.suites);
    ("kernel", Test_kernel.suites);
    ("ppc", Test_ppc.suites @ Test_ppc_ext.suites);
    ("vm", Test_vm.suites);
    ( "servers",
      Test_naming.suites @ Test_transfer.suites @ Test_servers.suites
      @ Test_sysmgr.suites );
    ("workload", Test_baseline.suites @ Test_workload.suites);
    ("experiments", Test_experiments.suites @ Test_smoke.suites);
    ("determinism", Test_determinism.suites @ Test_properties.suites);
    ("runtime", Test_runtime.suites @ Test_runtime_models.suites @ Test_copy_service.suites);
    ("runtime_faults", Test_runtime_faults.suites);
    ("shm", Test_shm.suites);
    ("conformance", Test_conformance.suites);
    ("faultsim", Test_faultsim.suites);
    ("bench", Test_bench_gate.suites);
    ("misc", Test_misc.suites);
  ]

let () =
  let enabled =
    match Sys.getenv_opt "TEST_ONLY" with
    | None | Some "" -> List.map fst groups
    | Some s ->
        let wanted = List.map String.trim (String.split_on_char ',' s) in
        List.iter
          (fun w ->
            if not (List.mem_assoc w groups) then begin
              Printf.eprintf "TEST_ONLY: unknown group %S (have: %s)\n" w
                (String.concat ", " (List.map fst groups));
              exit 2
            end)
          wanted;
        wanted
  in
  let failed = ref false in
  let timings = ref [] in
  List.iter
    (fun (name, suites) ->
      if List.mem name enabled then begin
        let t0 = Unix.gettimeofday () in
        (try Alcotest.run ~and_exit:false ("ppc_ipc." ^ name) suites
         with Alcotest.Test_error -> failed := true);
        timings := (name, Unix.gettimeofday () -. t0) :: !timings
      end)
    groups;
  Printf.printf "\nper-group timing:\n%!";
  List.iter
    (fun (name, dt) -> Printf.printf "  %-12s %6.2fs\n%!" name dt)
    (List.rev !timings);
  if !failed then exit 1
