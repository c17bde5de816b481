(* Deterministic fault scenarios for the *runtime* (real OCaml domains),
   the companion of {!Fault}'s simulator plans.  Each scenario builds a
   live Fastcall table / channel server, injects one class of fault
   through the runtime's own injectors (raise-in-handler, kill-shard,
   stall-reply, delay-doorbell, full-pool backpressure, a killed copy
   engine), drives calls against it, and self-checks the containment
   contract: faults come back as [Errc] codes, shards survive or are
   revived, no client wedges, no cell is recycled twice.  A scenario's
   verdict is its [violations] list — empty means the contract held.

   Scenarios are named and enumerable like the simulator plans
   ({!Fault.of_name}/{!Fault.names}), so the CLI and CI can drive them
   by name. *)

module F = Runtime.Fastcall
module Errc = Ipc_intf.Errc

type report = {
  name : string;
  attempted : int;  (** calls issued *)
  ok_calls : int;  (** calls that returned [Errc.ok] *)
  handler_faults : int;  (** contained handler exceptions (table-wide) *)
  timed_out : int;  (** deadline calls that abandoned their cell *)
  retries : int;  (** calls bounced with [Errc.retry] *)
  breaker_trips : int;
  respawns : int;  (** shard domains [Fastcall.revive_shard] restarted *)
  reclaimed : int;  (** abandoned cells recycled through the slab *)
  violations : string list;  (** empty = scenario passed *)
}

let ok r = r.violations = []

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>scenario %-16s %s@,\
    \  attempted=%d ok=%d handler_faults=%d timed_out=%d retries=%d@,\
    \  breaker_trips=%d respawns=%d reclaimed=%d@]"
    r.name
    (if ok r then "PASS" else "FAIL")
    r.attempted r.ok_calls r.handler_faults r.timed_out r.retries
    r.breaker_trips r.respawns r.reclaimed;
  List.iter (fun v -> Fmt.pf ppf "@,  violation: %s" v) (List.rev r.violations)

exception Boom

let words = F.arg_words
let rc_slot = words - 1
let mk_args () = Array.make words 0

(* The scenarios fault the shard domains, so their calls take the queued
   path: a deadline call, [max_int] for none.  [in_ns] is an absolute
   deadline [ns] from now. *)
let queued cl ~ep a = F.channel_call_deadline cl ~ep ~deadline:max_int a
let in_ns ns = Runtime.Doorbell.now_ns () + ns

(* Mutable scenario scratch: counters plus the violation accumulator. *)
type scratch = {
  mutable s_attempted : int;
  mutable s_ok : int;
  mutable s_bad : string list;
}

let scratch () = { s_attempted = 0; s_ok = 0; s_bad = [] }

let check sc cond msg = if not cond then sc.s_bad <- msg :: sc.s_bad

let count sc rc =
  sc.s_attempted <- sc.s_attempted + 1;
  if rc = Errc.ok then sc.s_ok <- sc.s_ok + 1

let finish ~name sc ~table ?server ?client () =
  {
    name;
    attempted = sc.s_attempted;
    ok_calls = sc.s_ok;
    handler_faults = F.handler_faults table;
    timed_out = (match client with Some c -> F.client_timeouts c | None -> 0);
    retries = (match client with Some c -> F.client_rejected c | None -> 0);
    breaker_trips = F.breaker_trips table;
    respawns = (match server with Some s -> F.channel_respawns s | None -> 0);
    reclaimed =
      (match client with Some c -> F.client_slab_reclaimed c | None -> 0);
    violations = sc.s_bad;
  }

(* --- raise-in-handler: containment without the breaker ----------------- *)

(* A handler that raises must neither kill the shard domain nor leak the
   exception to any caller: bad calls answer [handler_fault], good calls
   keep succeeding, before, between and after the faults. *)
let raise_in_handler () =
  let sc = scratch () in
  let t = F.create ~breaker_threshold:max_int () in
  let ep_good = F.register t (fun _ a -> a.(1) <- a.(0) + 1) in
  let ep_bad = F.register t (fun _ _ -> raise Boom) in
  let srv = F.spawn_channel_server ~shards:1 t in
  let cl = F.connect srv in
  let rounds = 50 in
  for i = 1 to rounds do
    let a = mk_args () in
    let rc = queued cl ~ep:ep_bad a in
    count sc rc;
    check sc (rc = Errc.handler_fault)
      (Printf.sprintf "bad call %d: expected handler_fault, got %s" i
         (Errc.to_string rc));
    let a = mk_args () in
    a.(0) <- i;
    let rc = queued cl ~ep:ep_good a in
    count sc rc;
    check sc
      (rc = Errc.ok && a.(1) = i + 1)
      (Printf.sprintf "good call %d after a fault: got %s" i
         (Errc.to_string rc))
  done;
  check sc
    (F.handler_faults t = rounds)
    (Printf.sprintf "handler_faults: expected %d, got %d" rounds
       (F.handler_faults t));
  check sc (F.breaker_trips t = 0) "breaker tripped below threshold";
  let r = finish ~name:"raise-in-handler" sc ~table:t ~server:srv ~client:cl () in
  F.shutdown_channel_server srv;
  r

(* --- breaker-trip: consecutive faults soft-kill the entry point -------- *)

(* Deterministic trip with the lifecycle observed mid-drain: the outer
   activation of the faulty entry point holds an in-flight reference
   while its inner (raising) activations trip the breaker, so the slot
   must read Soft_killed — draining, not freed — at that instant.  Once
   the outer call retires, the drained slot frees and the ID answers
   no_entry. *)
let breaker_trip () =
  let sc = scratch () in
  let threshold = 4 in
  let t = F.create ~breaker_threshold:threshold () in
  let ep_ref = ref (-1) in
  let handler _ a =
    if a.(0) = 1 then raise Boom
    else begin
      (* Outer mode: fault the entry point to its threshold from inside
         an activation of the same entry point. *)
      let inner = mk_args () in
      for k = 1 to threshold do
        inner.(0) <- 1;
        inner.(rc_slot) <- 0;
        let rc = F.call t ~ep:!ep_ref inner in
        (* Faults up to the threshold answer handler_fault; the trip
           happens on the last one, under our in-flight hold. *)
        if k < threshold then
          check sc (rc = Errc.handler_fault)
            (Printf.sprintf "inner fault %d: got %s" k (Errc.to_string rc))
        else
          check sc (rc = Errc.handler_fault)
            (Printf.sprintf "tripping fault: got %s" (Errc.to_string rc))
      done;
      a.(1) <-
        (match F.lifecycle t ~ep:!ep_ref with
        | Some Ipc_intf.Lifecycle.Soft_killed -> 1
        | Some Ipc_intf.Lifecycle.Active -> 2
        | Some Ipc_intf.Lifecycle.Hard_killed -> 3
        | None -> 0)
    end
  in
  let ep = F.register t handler in
  ep_ref := ep;
  let a = mk_args () in
  let rc = F.call t ~ep a in
  count sc rc;
  check sc (rc = Errc.ok)
    (Printf.sprintf "outer call: expected ok (soft kill drains), got %s"
       (Errc.to_string rc));
  check sc (a.(1) = 1)
    (Printf.sprintf
       "lifecycle under the outer in-flight hold: expected Soft_killed, \
        observed code %d"
       a.(1));
  check sc
    (F.breaker_trips t = 1)
    (Printf.sprintf "breaker_trips: expected 1, got %d" (F.breaker_trips t));
  check sc
    (F.handler_faults t = threshold)
    (Printf.sprintf "handler_faults: expected %d, got %d" threshold
       (F.handler_faults t));
  (* Outer call retired: the drained slot must now be freed. *)
  check sc
    (F.lifecycle t ~ep = None)
    "slot not freed after the tripped entry point drained";
  (match F.call t ~ep (mk_args ()) with
  | rc when rc = Errc.no_entry -> ()
  | rc -> check sc false (Printf.sprintf "freed ID answered %d" rc));
  finish ~name:"breaker-trip" sc ~table:t ()

(* --- kill-shard: a killed shard times out, then revives explicitly ---- *)

(* A shard dies only through [kill_shard], so the scenario revives it
   itself: kill, a bounded call that must time out against the dead
   shard, [revive_shard], then exactly one respawn and a call that must
   succeed.  One shard, so no sibling can steal the dead shard's work. *)
let kill_shard () =
  let sc = scratch () in
  let t = F.create () in
  let ep = F.register t (fun _ a -> a.(1) <- a.(0) * 2) in
  let srv = F.spawn_channel_server ~shards:1 t in
  let cl = F.connect srv in
  let a = mk_args () in
  a.(0) <- 21;
  let rc = queued cl ~ep a in
  count sc rc;
  check sc (rc = Errc.ok && a.(1) = 42) "warm call before the kill failed";
  F.kill_shard srv ~shard:0;
  let a = mk_args () in
  a.(0) <- 1;
  let rc = F.channel_call_deadline cl ~ep ~deadline:(in_ns 200_000) a in
  count sc rc;
  check sc (rc = Errc.timed_out)
    (Printf.sprintf "call against the dead shard: expected timed_out, got %s"
       (Errc.to_string rc));
  F.revive_shard srv ~shard:0;
  check sc
    (F.channel_respawns srv = 1)
    (Printf.sprintf "respawns after one revival: expected 1, got %d"
       (F.channel_respawns srv));
  (* A deadline a second out, so a revival that failed reports instead
     of wedging the scenario. *)
  let a = mk_args () in
  a.(0) <- 5;
  let rc = F.channel_call_deadline cl ~ep ~deadline:(in_ns 1_000_000_000) a in
  count sc rc;
  check sc
    (rc = Errc.ok && a.(1) = 10)
    (Printf.sprintf "call after the revival: got %s" (Errc.to_string rc));
  let r = finish ~name:"kill-shard" sc ~table:t ~server:srv ~client:cl () in
  F.shutdown_channel_server srv;
  r

(* --- stall-reply: deadline abandonment against a wedged handler -------- *)

let stall_reply () =
  let sc = scratch () in
  let gate = Atomic.make false in
  let t = F.create () in
  let ep_stall =
    F.register t (fun _ a ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        a.(1) <- 42)
  in
  let srv = F.spawn_channel_server ~shards:1 t in
  let cl = F.connect srv in
  let a = mk_args () in
  let rc =
    F.channel_call_deadline cl ~ep:ep_stall ~deadline:(in_ns 500_000) a
  in
  count sc rc;
  check sc (rc = Errc.timed_out)
    (Printf.sprintf "stalled call: expected timed_out, got %s"
       (Errc.to_string rc));
  check sc (F.client_timeouts cl = 1) "timeout not counted";
  (* Unwedge the handler: the shard finishes, must discard the reply
     and return the cell through the reclaim ring (never signal the
     long-gone client). *)
  Atomic.set gate true;
  let spins = ref 0 in
  while F.client_slab_reclaimed cl < 1 && !spins < 50_000_000 do
    incr spins;
    Domain.cpu_relax ()
  done;
  check sc
    (F.client_slab_reclaimed cl = 1)
    "abandoned cell was not reclaimed after the stall cleared";
  (* The channel is healthy again; the reclaimed cell serves this call. *)
  let a = mk_args () in
  let rc = queued cl ~ep:ep_stall a in
  count sc rc;
  check sc
    (rc = Errc.ok && a.(1) = 42)
    (Printf.sprintf "call after the stall cleared: got %s" (Errc.to_string rc));
  let r = finish ~name:"stall-reply" sc ~table:t ~server:srv ~client:cl () in
  F.shutdown_channel_server srv;
  r

(* --- delay-doorbell: widened park/ring race loses no wakeups ----------- *)

let delay_doorbell () =
  let sc = scratch () in
  let t = F.create () in
  let ep = F.register t (fun _ a -> a.(1) <- a.(0) + 7) in
  (* Tiny server spin so the shard parks constantly — every call then
     exercises the delayed ring against a parking consumer. *)
  let srv = F.spawn_channel_server ~shards:1 ~server_spin:8 t in
  let cl = F.connect srv in
  F.inject_doorbell_delay srv ~shard:0 300;
  (* The shard's park is bounded, so a lost wakeup would cost a call one
     bound rather than hang it: a call that slow fails the scenario. *)
  let slow = Runtime.Doorbell.park_bound_ns / 10 in
  for i = 1 to 200 do
    let a = mk_args () in
    a.(0) <- i;
    let t0 = Runtime.Doorbell.now_ns () in
    let rc = queued cl ~ep a in
    let dt = Runtime.Doorbell.now_ns () - t0 in
    count sc rc;
    check sc
      (rc = Errc.ok && a.(1) = i + 7)
      (Printf.sprintf "delayed-doorbell call %d: got %s" i (Errc.to_string rc));
    check sc (dt <= slow)
      (Printf.sprintf "delayed-doorbell call %d took %d ns (a lost wakeup?)" i
         dt)
  done;
  F.inject_doorbell_delay srv ~shard:0 0;
  let r = finish ~name:"delay-doorbell" sc ~table:t ~server:srv ~client:cl () in
  F.shutdown_channel_server srv;
  r

(* --- backpressure: a full cell pool answers retry, Backoff reports truth *)

let backpressure () =
  let sc = scratch () in
  let t = F.create () in
  let ep = F.register t (fun _ a -> a.(1) <- 1) in
  let srv = F.spawn_channel_server ~shards:1 t in
  let cl = F.connect ~capacity:2 srv in
  (* Kill the only shard and never revive it: every cell the client
     abandons stays in flight, so the 2-cell pool exhausts after two
     timeouts and the third call must bounce with retry. *)
  F.kill_shard srv ~shard:0;
  for i = 1 to 2 do
    let a = mk_args () in
    let rc = F.channel_call_deadline cl ~ep ~deadline:(in_ns 200_000) a in
    count sc rc;
    check sc (rc = Errc.timed_out)
      (Printf.sprintf "abandoning call %d: expected timed_out, got %s" i
         (Errc.to_string rc))
  done;
  let a = mk_args () in
  let rc =
    Runtime.Backoff.with_retry ~attempts:3 ~min_spin:16 ~max_spin:64 (fun () ->
        let rc = F.channel_call_deadline cl ~ep ~deadline:(in_ns 50_000) a in
        count sc rc;
        rc)
  in
  check sc (rc = Errc.retry)
    (Printf.sprintf
       "exhausted slab behind a dead shard: expected retry, got %s"
       (Errc.to_string rc));
  check sc (F.client_rejected cl >= 1) "rejected calls not counted";
  let r = finish ~name:"backpressure" sc ~table:t ~server:srv ~client:cl () in
  F.shutdown_channel_server srv;
  r

(* --- kill-engine: bulk engine strands descriptors, fail sweep ---------- *)

(* Kill the copy engine mid-copy: completions already posted win,
   everything still in flight must be failed by the client's next reap
   with [handler_fault], exactly once per descriptor (tags never
   duplicated), and submits after the death must answer [killed].

   Two phases.  First a warm batch is flushed and reaped to completion
   (the engine under its production driver, the client's own flush).
   Then a second batch is staged without flushing, exactly half of it
   drained by one budgeted pass, and the engine killed — the split
   between completed and swept descriptors is deterministic, so CI can
   re-run this scenario verbatim. *)
let kill_engine () =
  let sc = scratch () in
  let module E = Transfer.Copy_engine in
  let seen = Hashtbl.create 64 in
  let completed = ref 0 and swept = ref 0 and submitted = ref 0 in
  let on_complete ~tag ~rc =
    check sc (not (Hashtbl.mem seen tag))
      (Printf.sprintf "tag %d completed twice" tag);
    Hashtbl.replace seen tag rc;
    if rc = Errc.ok then incr completed
    else begin
      check sc (rc = Errc.handler_fault)
        (Printf.sprintf "tag %d failed with %s, expected handler_fault" tag
           (Errc.to_string rc));
      incr swept
    end
  in
  let setup () =
    let eng, store = E.create_with_buffers () in
    let reg = function
      | Ok id -> id
      | Error rc -> failwith (Errc.to_string rc)
    in
    let bytes = 256 * 1024 in
    let src = reg (E.Buffers.add store ~owner:0 (Bytes.create bytes)) in
    let dst = reg (E.Buffers.add store ~owner:0 (Bytes.create bytes)) in
    let cl = E.connect ~on_complete eng in
    (eng, cl, src, dst)
  in
  let submit_one cl ~src ~dst tag =
    match
      E.submit cl ~op:Ipc_intf.Wellknown.bulk_copy ~src ~src_off:0 ~dst
        ~dst_off:0 ~len:4096 ~tag
    with
    | rc when rc = Errc.ok -> incr submitted
    | rc ->
        check sc false
          (Printf.sprintf "submit tag %d answered %s" tag (Errc.to_string rc))
  in
  (* Phase 1: a batch of 24 flushed and reaped clean — the engine under
     its production driver, before any fault. *)
  let _, cl1, src1, dst1 = setup () in
  for tag = 0 to 23 do
    submit_one cl1 ~src:src1 ~dst:dst1 tag
  done;
  ignore (E.flush cl1);
  ignore (E.reap cl1);
  check sc (!completed = 24)
    (Printf.sprintf "warm batch: %d of 24 completed" !completed);
  check sc (!swept = 0) "warm batch produced spurious sweep failures";
  (* Phase 2: a fresh engine killed exactly halfway — 32 staged, 16
     drained, then the kill; the stranded 16 must come back
     handler_fault on the next reap. *)
  let eng2, cl2, src2, dst2 = setup () in
  for tag = 100 to 131 do
    submit_one cl2 ~src:src2 ~dst:dst2 tag
  done;
  let executed = E.drain eng2 ~budget:16 in
  check sc (executed = 16)
    (Printf.sprintf "budgeted drain executed %d of 16" executed);
  ignore (E.reap cl2);
  check sc (!completed = 24 + 16)
    (Printf.sprintf "mid-copy completions: %d, expected 40" !completed);
  E.kill eng2;
  (* [kill] returned with the engine stopped: one reap must deliver the
     fail sweep for everything still in flight. *)
  ignore (E.reap cl2);
  sc.s_attempted <- !submitted;
  sc.s_ok <- !completed;
  check sc (!swept = 16)
    (Printf.sprintf "sweep failed %d descriptors, expected 16" !swept);
  check sc
    (!completed + !swept = !submitted)
    (Printf.sprintf "completions %d + swept %d <> submitted %d" !completed
       !swept !submitted);
  check sc (E.outstanding cl2 = 0) "descriptors still outstanding after sweep";
  check sc
    (Hashtbl.length seen = !submitted)
    "some submitted tag never completed";
  (match
     E.submit cl2 ~op:Ipc_intf.Wellknown.bulk_copy ~src:src2 ~src_off:0
       ~dst:dst2 ~dst_off:0 ~len:64 ~tag:999
   with
  | rc when rc = Errc.killed -> ()
  | rc ->
      check sc false
        (Printf.sprintf "submit after engine death answered %s"
           (Errc.to_string rc)));
  let cs = E.client_stats cl2 in
  check sc
    (cs.E.cs_failed_swept = !swept)
    (Printf.sprintf "sweep counter %d <> observed %d" cs.E.cs_failed_swept
       !swept);
  {
    name = "kill-engine";
    attempted = sc.s_attempted;
    ok_calls = sc.s_ok;
    handler_faults = !swept;
    timed_out = 0;
    retries = cs.E.cs_rejected;
    breaker_trips = 0;
    respawns = 0;
    reclaimed = 0;
    violations = sc.s_bad;
  }

(* --- registry ---------------------------------------------------------- *)

let scenarios =
  [
    ("raise-in-handler", raise_in_handler);
    ("breaker-trip", breaker_trip);
    ("kill-shard", kill_shard);
    ("stall-reply", stall_reply);
    ("delay-doorbell", delay_doorbell);
    ("backpressure", backpressure);
    ("kill-engine", kill_engine);
  ]

let names = List.map fst scenarios

let run name =
  match List.assoc_opt name scenarios with
  | Some f -> Some (f ())
  | None -> None

let run_all () = List.map (fun (_, f) -> f ()) scenarios
