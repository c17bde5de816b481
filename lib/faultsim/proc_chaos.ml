(* Process-level chaos for the cross-process shm transport: the
   PR 8 double-entry discipline pointed at whole-process death.

   One parent (this function — it must be single-domain: it forks, and
   forking a multi-domain OCaml runtime wedges the child's GC) drives:

     - a supervised server child (Runtime.Proc_supervisor): attaches
       the segment, serves sessions, is respawned over a regenerated
       segment when killed;
     - a client child: a Runtime.Shm_session issuing open-loop paced
       calls (seeded exponential inter-arrivals from lib/workload) to
       an Add2 entry point it binds by name, recovering from whatever
       the scheduler does to its peer;
     - a seed-scheduled event plan: at thresholds on call progress,
       SIGKILL the server (the supervisor must respawn it and the
       client must reattach) or the client (the server must sweep its
       cells and release the session, and the parent forks a
       successor that picks up the remaining call budget).

   Every count that crosses a kill lives in a separate mmap'd *ledger*
   segment that is never regenerated, written with fetch-adds, so it
   survives any child's death.  A call is claimed by fetch-adding the
   ledger's started counter and resolved by fetch-adding exactly one
   verdict counter; the parent snapshots the ledger immediately after
   reaping a killed client, when nothing can move it, so the calls
   that died unresolved with that client are known exactly.  At
   quiesce the books must balance to zero slack:

     started            = the call budget (claims balanced)
     started - resolved = calls lost to client kills (each surviving
                          call got exactly one verdict)
     respawns           = injected server kills
     session releases   = injected client kills
     client reattaches  = injected server kills
     leaked slab cells  = 0 (every cell state_free, submit ring dry)

   plus: zero verdicts outside {ok, handler_fault, retry}, zero
   handler faults at all (Add2 cannot raise — a fault here is a
   containment code leaking through recovery), correct arithmetic in
   every ok reply, clean exits for the final client and the server.

   The whole schedule — thresholds, victims, pacing — is a pure
   function of the seed; wall-clock only decides interleavings, which
   is exactly what the invariants are meant to survive. *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Segment = Runtime.Segment
module Ch = Runtime.Shm_channel
module Session = Runtime.Shm_session
module Sup = Runtime.Proc_supervisor

(* --- the ledger ------------------------------------------------------------ *)

let l_started = 0 (* claimed call slots (client fetch-add) *)
let l_ok = 1 (* verdict: reply, arithmetic checked *)
let l_faults = 2 (* verdict: handler_fault surfaced *)
let l_gave_up = 3 (* verdict: Errc.retry after exhausted recovery budget *)
let l_other = 4 (* verdict: anything else, or a wrong ok result *)
let l_reattaches = 5 (* successful session reattaches (server deaths healed) *)
let l_releases = 6 (* sessions the server released (client deaths healed) *)
let l_done = 7 (* the call budget drained and the client shut down cleanly *)
let l_attached = 8 (* client incarnations that have attached and bound *)
let ledger_words = 16

(* --- the two children ------------------------------------------------------ *)

let server_main ~seg_path ~ledger_path () =
  let ledger = Segment.open_file ~path:ledger_path in
  let srv = Ch.attach_file ~role:Ch.Server seg_path in
  let fast = Runtime.Fastcall.create () in
  let ctl = Runtime.Control.install fast in
  let dispatch = Ch.fastcall_dispatch fast ctl in
  ignore
    (Ch.serve_sessions srv ~dispatch ~on_release:(fun () ->
         ignore (Segment.fetch_add ledger l_releases 1 : int))
      : int);
  0

let client_main ~seed ~incarnation ~calls ~pace_us ~seg_path ~ledger_path () =
  let ledger = Segment.open_file ~path:ledger_path in
  (* Each incarnation paces from its own split of the seed; the claim
     counter, not the rng, decides which calls it issues. *)
  let rng = Sim.Rng.create ~seed:(seed + (incarnation * 0x9E3779B9)) in
  let sampler = Workload.Sampler.Exponential { mean = pace_us } in
  let sess =
    Session.connect ~path:seg_path
      ~on_reattach:(fun () ->
        ignore (Segment.fetch_add ledger l_reattaches 1 : int))
      ()
  in
  let b = Session.bind sess ~name:"chaos/adder" ~spec:Ipc_intf.Sigs.Add2 in
  ignore (Segment.fetch_add ledger l_attached 1 : int);
  let args = Array.make 8 0 in
  let next_at = ref (Runtime.Doorbell.now_ns ()) in
  let continue_ = ref true in
  while !continue_ do
    let i = Segment.fetch_add ledger l_started 1 in
    if i >= calls then begin
      (* Overshot the budget: give the claim back and finish. *)
      ignore (Segment.fetch_add ledger l_started (-1) : int);
      continue_ := false
    end
    else begin
      (* Open-loop arrivals: the schedule advances by the drawn
         inter-arrival whether or not the previous call is late, so a
         recovery stall is answered with a dispatch burst, not a
         quietly slowed load. *)
      next_at :=
        !next_at + int_of_float (Workload.Sampler.draw sampler rng *. 1_000.);
      let now = Runtime.Doorbell.now_ns () in
      if !next_at > now then Runtime.Doorbell.nap_ns (!next_at - now);
      Array.fill args 0 (Array.length args) 0;
      args.(0) <- i;
      args.(1) <- i + 1;
      let rc = Session.call sess b args in
      let verdict =
        if rc = Errc.ok then
          if args.(0) = (2 * i) + 1 then l_ok else l_other
        else if rc = Errc.handler_fault then l_faults
        else if rc = Errc.retry then l_gave_up
        else l_other
      in
      ignore (Segment.fetch_add ledger verdict 1 : int)
    end
  done;
  (* Order matters: the done flag first, so the parent disarms the
     supervisor before the shutdown announcement can let the server
     exit (an armed check would respawn a cleanly-exiting server and
     unbalance the respawn ledger). *)
  Segment.set ledger l_done 1;
  Session.close sess;
  0

(* --- the report ------------------------------------------------------------ *)

type report = {
  seed : int;
  calls : int;
  events : int;
  injected_server_kills : int;
  injected_client_kills : int;
  respawns : int;
  releases : int;
  reattaches : int;
  started : int;
  ok_calls : int;
  handler_faults : int;
  gave_up : int;
  other_rc : int;
  lost : int;  (** calls that died unresolved with a killed client *)
  leaked_cells : int;
  violations : string list;
}

let ok r = r.violations = []

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>chaos seed %d: %d calls, %d events (%d server kills, %d client \
     kills)@,\
     respawns %d  releases %d  reattaches %d@,\
     started %d = ok %d + faults %d + gave-up %d + other %d + lost %d@,\
     leaked cells %d@,\
     %s@]"
    r.seed r.calls r.events r.injected_server_kills r.injected_client_kills
    r.respawns r.releases r.reattaches r.started r.ok_calls r.handler_faults
    r.gave_up r.other_rc r.lost r.leaked_cells
    (if ok r then "PASS"
     else "FAIL:\n  " ^ String.concat "\n  " r.violations)

(* The per-seed verdict-reconciliation artifact CI uploads on failure. *)
let to_markdown r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "## chaos seed %d — %s" r.seed (if ok r then "PASS" else "FAIL");
  line "";
  line "| ledger entry | injected / claimed | observed |";
  line "|---|---:|---:|";
  line "| server kills vs supervisor respawns | %d | %d |"
    r.injected_server_kills r.respawns;
  line "| server kills vs client reattaches | %d | %d |"
    r.injected_server_kills r.reattaches;
  line "| client kills vs session releases | %d | %d |"
    r.injected_client_kills r.releases;
  line "| call budget vs claims | %d | %d |" r.calls r.started;
  line "| claims vs verdicts+lost | %d | %d |" r.started
    (r.ok_calls + r.handler_faults + r.gave_up + r.other_rc + r.lost);
  line "";
  line "| verdict | count |";
  line "|---|---:|";
  line "| ok (arithmetic checked) | %d |" r.ok_calls;
  line "| handler_fault | %d |" r.handler_faults;
  line "| retry (budget exhausted) | %d |" r.gave_up;
  line "| outside the verdict set | %d |" r.other_rc;
  line "| lost with a killed client | %d |" r.lost;
  line "| leaked slab cells at quiesce | %d |" r.leaked_cells;
  if not (ok r) then begin
    line "";
    line "violations:";
    List.iter (fun v -> line "- %s" v) r.violations
  end;
  Buffer.contents b

(* --- the parent ------------------------------------------------------------ *)

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s

(* Poll for [cond], running [drive] (the supervisor check — which is
   also the reaper) between polls.  False on timeout: every wait in the
   harness is bounded, so a wedged run reports instead of hanging CI. *)
let wait_until ~timeout_ns ~drive cond =
  let deadline = Runtime.Doorbell.now_ns () + timeout_ns in
  let rec go () =
    if cond () then true
    else if Runtime.Doorbell.now_ns () > deadline then false
    else begin
      drive ();
      Runtime.Doorbell.nap_ns 1_000_000;
      go ()
    end
  in
  go ()

let run ?(calls = 4_000) ?(events = 6) ?(pace_us = 60.) ~seed () =
  let seg_path = Filename.temp_file "ppc_chaos_seg" ".bin" in
  let ledger_path = Filename.temp_file "ppc_chaos_ledger" ".bin" in
  let ledger = Segment.create_file ~path:ledger_path ~words:ledger_words in
  for i = 0 to ledger_words - 1 do
    Segment.set ledger i 0
  done;
  let sup =
    Sup.start ~path:seg_path ~capacity:32
      ~server:(server_main ~seg_path ~ledger_path)
      ()
  in
  (* The event plan is a pure function of the seed: thresholds on the
     claim counter in [15%, 85%] of the budget (so recovery always has
     load left to prove itself on), victim drawn per event. *)
  let rng = Sim.Rng.create ~seed in
  let plan =
    List.sort compare
      (List.init events (fun _ ->
           let frac = 0.15 +. Sim.Rng.float rng 0.70 in
           let victim = if Sim.Rng.bool rng then `Server else `Client in
           (int_of_float (frac *. float_of_int calls), victim)))
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := !violations @ [ s ]) fmt
  in
  let client_pid = ref 0 in
  let incarnation = ref 0 in
  let fork_client () =
    incr incarnation;
    let inc = !incarnation in
    match Unix.fork () with
    | 0 ->
        let code =
          try client_main ~seed ~incarnation:inc ~calls ~pace_us ~seg_path
                ~ledger_path ()
          with _ -> 120
        in
        Unix._exit code
    | pid -> client_pid := pid
  in
  fork_client ();
  let drive () = ignore (Sup.check sup : Sup.status) in
  let get o = Segment.get ledger o in
  let resolved () = get l_ok + get l_faults + get l_gave_up + get l_other in
  let injected_server = ref 0 in
  let injected_client = ref 0 in
  let lost = ref 0 in
  let step_timeout_ns = 20_000_000_000 in
  List.iter
    (fun (threshold, victim) ->
      (* A plan entry is skipped (not counted as injected) only when
         the load finished before its threshold — possible under an
         extreme scheduler, never silent: the report carries the
         realized injection counts. *)
      if get l_done = 0 then begin
        if
          not
            (wait_until ~timeout_ns:step_timeout_ns ~drive (fun () ->
                 get l_started >= threshold || get l_done = 1))
        then violate "event at %d: load never reached the threshold" threshold
        else if get l_done = 0 then begin
          match victim with
          | `Server ->
              let before_respawns = Sup.respawns sup in
              let before_reatt = get l_reattaches in
              Sup.kill9 sup;
              incr injected_server;
              if
                not
                  (wait_until ~timeout_ns:step_timeout_ns ~drive (fun () ->
                       Sup.respawns sup > before_respawns))
              then violate "server kill at %d: no respawn" threshold
              else if
                not
                  (wait_until ~timeout_ns:step_timeout_ns ~drive (fun () ->
                       get l_reattaches > before_reatt || get l_done = 1))
              then violate "server kill at %d: client never reattached" threshold
          | `Client ->
              let pid = !client_pid in
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (* Reap before reading the ledger: frozen now, and the
                 server's pid probe cannot see the death while the
                 child is an unreaped zombie. *)
              (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
               with Unix.Unix_error _ -> ());
              incr injected_client;
              (* The unresolved gap at this frozen instant is every call
                 lost so far (earlier kills included — dead claims never
                 resolve), so this snapshot is already cumulative. *)
              lost := get l_started - resolved ();
              if
                not
                  (wait_until ~timeout_ns:step_timeout_ns ~drive (fun () ->
                       get l_releases >= !injected_client))
              then
                violate "client kill at %d: session never released" threshold;
              fork_client ();
              (* A client killed before it attaches leaves the server
                 nothing to release: when the next event is already
                 due, it must wait for the successor to attach. *)
              if
                not
                  (wait_until ~timeout_ns:step_timeout_ns ~drive (fun () ->
                       get l_attached >= !incarnation))
              then violate "client after kill at %d never attached" threshold
        end
      end)
    plan;
  (* Drain the rest of the budget.  No more kills are scheduled, so
     disarm: any server death past this point is a bug to report, not
     an event to heal. *)
  Sup.disarm sup;
  let server_exit = ref None in
  let drive_tail () =
    match Sup.check sup with
    | Sup.Exited st -> if !server_exit = None then server_exit := Some st
    | Sup.Running | Sup.Respawned -> ()
  in
  if
    not
      (wait_until ~timeout_ns:60_000_000_000 ~drive:drive_tail (fun () ->
           get l_done = 1))
  then begin
    violate "the final client never reached clean shutdown";
    (try Unix.kill !client_pid Sys.sigkill with Unix.Unix_error _ -> ())
  end;
  (match Unix.waitpid [] !client_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st -> violate "final client: %s (want exit 0)" (status_str st)
  | exception Unix.Unix_error _ -> violate "final client unreapable");
  (match
     match !server_exit with
     | Some st -> Some st
     | None -> Sup.wait_exit ~timeout_ns:10_000_000_000 sup
   with
  | Some (Unix.WEXITED 0) -> ()
  | Some st -> violate "server: %s (want exit 0)" (status_str st)
  | None ->
      violate "server never exited after the shutdown announcement";
      Sup.kill9 sup;
      ignore (Sup.wait_exit ~timeout_ns:2_000_000_000 sup
               : Unix.process_status option));
  (* Quiesce: remap the segment fresh and audit the slab. *)
  let leaked =
    let seg = Segment.open_file ~path:seg_path in
    let capacity = Segment.get seg W.off_capacity in
    let arg_words = Segment.get seg W.off_arg_words in
    let n = ref 0 in
    for i = 0 to capacity - 1 do
      if Segment.get seg (W.cell_state ~capacity ~arg_words i) <> W.state_free
      then incr n
    done;
    if Ch.queued seg ~capacity then
      violate "submission ring not drained at quiesce";
    !n
  in
  (* The double entry. *)
  let started = get l_started in
  let okc = get l_ok in
  let faults = get l_faults in
  let gave = get l_gave_up in
  let other = get l_other in
  let resolved = okc + faults + gave + other in
  if started <> calls then
    violate "claim imbalance: %d claimed, budget %d" started calls;
  if started - resolved <> !lost then
    violate "verdict imbalance: %d claimed, %d resolved, %d known lost"
      started resolved !lost;
  if other <> 0 then
    violate "%d verdicts outside the set (or wrong ok results)" other;
  if faults <> 0 then
    violate "%d handler faults from a handler that cannot raise" faults;
  if leaked <> 0 then violate "%d slab cells leaked at quiesce" leaked;
  if Sup.respawns sup <> !injected_server then
    violate "respawns %d, injected server kills %d" (Sup.respawns sup)
      !injected_server;
  if get l_releases <> !injected_client then
    violate "session releases %d, injected client kills %d" (get l_releases)
      !injected_client;
  if get l_reattaches <> !injected_server then
    violate "client reattaches %d, injected server kills %d"
      (get l_reattaches) !injected_server;
  if get l_done = 0 then violate "the done flag never rose";
  (try Unix.unlink seg_path with Unix.Unix_error _ -> ());
  (try Unix.unlink ledger_path with Unix.Unix_error _ -> ());
  {
    seed;
    calls;
    events;
    injected_server_kills = !injected_server;
    injected_client_kills = !injected_client;
    respawns = Sup.respawns sup;
    releases = get l_releases;
    reattaches = get l_reattaches;
    started;
    ok_calls = okc;
    handler_faults = faults;
    gave_up = gave;
    other_rc = other;
    lost = !lost;
    leaked_cells = leaked;
    violations = !violations;
  }
