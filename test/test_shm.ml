(* The shared-segment substrate: Wire_abi layout invariants, Segment
   backends (in-heap and mmap'd file), and the Shm_channel call path —
   round trips, deadline abandonment, peer-death containment and the
   zero-allocation pin — all inside one process, where domains stand in
   for the two OS processes.  The genuinely cross-process side (fork,
   kill -9) lives in `ppc_sim shm` and runs from CI. *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Seg = Runtime.Segment
module Ch = Runtime.Shm_channel

(* --- Wire_abi: the layout is the contract ---------------------------------- *)

(* The whole point of the ABI module is that these numbers never move
   silently: pin the header offsets, the region arithmetic and the
   encodings verbatim, so any relayout forces an [abi_version] bump to
   show up in the same diff. *)
let test_abi_layout () =
  Alcotest.(check int) "abi version" 4 W.abi_version;
  Alcotest.(check bool) "magic is a positive immediate" true (W.magic > 0);
  Alcotest.(check string) "magic spells PPC_ABI" "PPC_ABI"
    (String.init 7 (fun i -> Char.chr ((W.magic lsr (8 * (6 - i))) land 0xff)));
  Alcotest.(check int) "header words" 16 W.header_words;
  List.iteri
    (fun want (name, got) ->
      Alcotest.(check int) ("header offset " ^ name) want got)
    [
      ("magic", W.off_magic);
      ("version", W.off_version);
      ("generation", W.off_generation);
      ("total_words", W.off_total_words);
      ("capacity", W.off_capacity);
      ("arg_words", W.off_arg_words);
      ("server_pid", W.off_server_pid);
      ("client_pid", W.off_client_pid);
      ("server_heartbeat", W.off_server_heartbeat);
      ("client_heartbeat", W.off_client_heartbeat);
      ("server_state", W.off_server_state);
      ("client_state", W.off_client_state);
      ("doorbell", W.off_doorbell);
      ("reclaimed", W.off_reclaimed);
      ("peer_faults", W.off_peer_faults);
      ("sessions", W.off_sessions);
    ];
  (* Regions tile the segment exactly: header | published position +
     submit slots | reclaim slots | cells, no gaps, no overlap, for
     several geometries. *)
  List.iter
    (fun (capacity, arg_words) ->
      Alcotest.(check int) "submit ring after header" W.header_words
        W.submit_base;
      Alcotest.(check int) "published position heads the submit ring"
        W.submit_base W.submit_head;
      Alcotest.(check int) "submit slots after the position"
        (W.submit_base + 1)
        (W.submit_slot ~capacity 0);
      Alcotest.(check int) "reclaim ring after submit ring"
        (W.submit_base + 1 + capacity)
        (W.reclaim_base ~capacity);
      Alcotest.(check int) "reclaim slots start the reclaim ring"
        (W.reclaim_base ~capacity)
        (W.reclaim_slot ~capacity 0);
      Alcotest.(check int) "cells after reclaim ring"
        (W.reclaim_base ~capacity + capacity)
        (W.cells_base ~capacity);
      Alcotest.(check int) "total covers the last cell word"
        (W.cell_arg ~capacity ~arg_words (capacity - 1) (arg_words - 1) + 1)
        (W.total_words ~capacity ~arg_words);
      (* Slot indices wrap by masking: a full lap lands back on slot 0. *)
      Alcotest.(check int) "submit slot wraps"
        (W.submit_slot ~capacity 0)
        (W.submit_slot ~capacity capacity);
      Alcotest.(check int) "reclaim slot wraps"
        (W.reclaim_slot ~capacity 3)
        (W.reclaim_slot ~capacity (capacity + 3));
      (* ...and the tag tells the laps apart: the slot a lap later
         holds a tag one capacity higher, which the consumer waiting
         for the earlier position does not take. *)
      let w0 = W.pack_slot ~pos:3 ~cell:0
      and w1 = W.pack_slot ~pos:(capacity + 3) ~cell:0 in
      Alcotest.(check int) "a lap adds capacity to the tag" capacity
        (W.slot_seq w1 - W.slot_seq w0))
    [ (1, 1); (16, 8); (64, 8); (256, 4) ];
  (* Slot words: tag = position + 1 above a 16-bit cell index. *)
  Alcotest.(check int) "slot cell bits" 16 W.slot_cell_bits;
  Alcotest.(check int) "max capacity" 65536 W.max_capacity;
  Alcotest.(check int) "slot encoding" ((1 lsl 16) lor 5)
    (W.pack_slot ~pos:0 ~cell:5);
  List.iter
    (fun (pos, cell) ->
      let w = W.pack_slot ~pos ~cell in
      Alcotest.(check int) "slot tag round-trips" (pos + 1) (W.slot_seq w);
      Alcotest.(check int) "slot cell round-trips" cell (W.slot_cell w))
    [ (0, 0); (1, 1); (63, 63); (64, 0); (1 lsl 40, W.max_capacity - 1) ];
  Alcotest.(check int) "a zeroed slot has tag 0 (no position's)" 0
    (W.slot_seq 0);
  Alcotest.check_raises "layout refuses a capacity the cell field cannot name"
    (Invalid_argument "Shm_channel.layout: capacity 131072 exceeds 65536")
    (fun () ->
      Ch.layout ~capacity:(2 * W.max_capacity) ~arg_words:1
        (Seg.create_heap ~words:1));
  (* The doorbell word: the server-waiting flag in bit 0 (inside the
     32 bits a futex compares), rings counted in steps of 2 above it. *)
  Alcotest.(check int) "doorbell waiting flag" 1 W.doorbell_waiting;
  Alcotest.(check int) "doorbell step" 2 W.doorbell_step;
  Alcotest.(check int) "rings ignore the flag" 5
    (W.doorbell_rings ((5 * W.doorbell_step) lor W.doorbell_waiting));
  Alcotest.(check int) "rings of a clear word" 5
    (W.doorbell_rings (5 * W.doorbell_step));
  (* Cell states are frozen wire values. *)
  Alcotest.(check (list int)) "cell states" [ 0; 1; 2; 3; 4 ]
    [ W.state_free; W.state_pending; W.state_parked; W.state_done;
      W.state_abandoned ]

let test_abi_ep_word () =
  (* Versioned handles round-trip and match Fastcall's own packing. *)
  List.iter
    (fun (slot, gen) ->
      let w = W.pack_handle ~slot ~gen in
      Alcotest.(check bool) "handles are non-negative" true (w >= 0);
      Alcotest.(check int) "slot round-trips" slot (W.handle_slot w);
      Alcotest.(check int) "gen round-trips" gen (W.handle_gen w))
    [ (0, 0); (1, 1); (1023, 0); (0, 999_999); (512, 12345) ];
  Alcotest.check_raises "slot beyond handle_bits rejected"
    (Invalid_argument "Wire_abi.pack_handle: slot out of range") (fun () ->
      ignore (W.pack_handle ~slot:1024 ~gen:0));
  (* The three variants of the entry-point word are disjoint. *)
  Alcotest.(check bool) "ctl_ep is not a raw call" false (W.is_raw_call W.ctl_ep);
  Alcotest.(check bool) "ctl_ep is negative" true (W.ctl_ep < 0);
  List.iter
    (fun id ->
      let w = W.pack_raw_call id in
      Alcotest.(check bool) "raw calls are recognizable" true (W.is_raw_call w);
      Alcotest.(check int) "raw id round-trips" id (W.raw_call_id w))
    [ 0; 1; 7; 1023 ];
  (* Specs serialize to two words and back; every constructor survives. *)
  List.iter
    (fun spec ->
      let code, param = W.spec_to_wire spec in
      Alcotest.(check bool) "spec round-trips" true
        (W.spec_of_wire ~code ~param = Some spec))
    Ipc_intf.Sigs.
      [ Stamp 42; Add2; Kill_self_soft 9; Kill_self_hard 3; Nap_ms 25 ];
  Alcotest.(check bool) "unknown spec code refused" true
    (W.spec_of_wire ~code:77 ~param:0 = None);
  (* Names pack into two 7-byte words. *)
  List.iter
    (fun s ->
      match W.pack_name s with
      | None -> Alcotest.failf "pack_name %S refused a legal name" s
      | Some pair ->
          Alcotest.(check string) "name round-trips" s (W.unpack_name pair))
    [ "a"; "console"; "sys/batch"; "abcdefghijklmn" ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "pack_name %S refused" s)
        true
        (W.pack_name s = None))
    [ ""; "abcdefghijklmno" (* 15 bytes *); "nul\000byte" ]

(* --- Segment: both backends ------------------------------------------------ *)

let exercise_words seg =
  let n = Seg.length seg in
  Seg.set seg 0 42;
  Alcotest.(check int) "set/get" 42 (Seg.get seg 0);
  Seg.set seg (n - 1) (-7);
  Alcotest.(check int) "negative words survive" (-7) (Seg.get seg (n - 1));
  Alcotest.(check bool) "cas hit" true
    (Seg.cas seg 0 ~expected:42 ~desired:43);
  Alcotest.(check bool) "cas miss" false
    (Seg.cas seg 0 ~expected:42 ~desired:99);
  Alcotest.(check int) "cas stored the desired value" 43 (Seg.get seg 0);
  Alcotest.(check int) "fetch_add returns prior" 43 (Seg.fetch_add seg 0 5);
  Alcotest.(check int) "fetch_add added" 48 (Seg.get seg 0);
  (* A large word exercising the full 63-bit immediate range. *)
  let big = (1 lsl 62) - 1 in
  Seg.set seg 1 big;
  Alcotest.(check int) "62-bit word round-trips" big (Seg.get seg 1);
  (* Multi-word copies: exactly [n] words move, on both sides. *)
  Seg.set_words seg 8 [| 1; -2; big; 99 |] 3;
  Alcotest.(check (list int)) "set_words stores n words" [ 1; -2; big; 0 ]
    (List.init 4 (fun j -> Seg.get seg (8 + j)));
  let dst = Array.make 4 7 in
  Seg.get_words seg 8 dst 3;
  Alcotest.(check (array int)) "get_words loads n words" [| 1; -2; big; 7 |] dst;
  Alcotest.check_raises "a copy longer than the array is refused"
    (Invalid_argument "Segment: array shorter than the copy")
    (fun () -> Seg.get_words seg 8 dst 5);
  Alcotest.check_raises "checked get catches out of range"
    (Invalid_argument (Printf.sprintf "Segment: word %d out of bounds" n))
    (fun () -> ignore (Seg.get_checked seg n))

let test_segment_heap () =
  let seg = Seg.create_heap ~words:32 in
  Alcotest.(check int) "length" 32 (Seg.length seg);
  Alcotest.(check bool) "no backing path" true (Seg.path seg = None);
  Alcotest.(check int) "msync is a no-op" 0 (Seg.msync seg);
  exercise_words seg

let with_temp_path f =
  let path = Filename.temp_file "ppc_seg" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_segment_shm () =
  with_temp_path (fun path ->
      let seg = Seg.map_file ~path ~words:32 ~create:true () in
      Alcotest.(check int) "length" 32 (Seg.length seg);
      Alcotest.(check bool) "backing path recorded" true
        (Seg.path seg = Some path);
      exercise_words seg;
      Alcotest.(check int) "msync flushes" 0 (Seg.msync seg);
      (* A second independent mapping of the same file sees the same
         words — the property the cross-process path depends on. *)
      let seg2 = Seg.map_file ~path ~words:32 ~create:false () in
      Alcotest.(check int) "second mapping reads first's write" 48
        (Seg.get seg2 0);
      Seg.set seg2 5 1234;
      Alcotest.(check int) "first mapping reads second's write" 1234
        (Seg.get seg 5));
  (* Our own pid is alive; pid 0 is never probed by the channel, but
     the raw probe on a free pid must answer false.  Hunt down from a
     big number to find one that is genuinely unused. *)
  Alcotest.(check bool) "self is alive" true (Seg.pid_alive (Unix.getpid ()))

(* --- Shm_channel: layout + attach validation ------------------------------- *)

let test_channel_validation () =
  Alcotest.check_raises "capacity 6 rejected"
    (Invalid_argument
       "Shm_channel.layout: capacity must be a positive power of two (got 6)")
    (fun () -> Ch.layout ~capacity:6 (Seg.create_heap ~words:4096));
  Alcotest.check_raises "undersized segment rejected"
    (Invalid_argument "Shm_channel.layout: segment holds 8 words, need 65")
    (fun () ->
      Ch.layout ~capacity:4 ~arg_words:8 (Seg.create_heap ~words:8));
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  (* Corrupt each identification word in turn; attach must refuse. *)
  let expect_bad msg f =
    match f () with
    | (_ : Ch.t) -> Alcotest.failf "attach accepted a bad segment (%s)" msg
    | exception Ch.Bad_segment _ -> ()
  in
  let magic = Seg.get seg W.off_magic in
  Seg.set seg W.off_magic 0xBAD;
  expect_bad "magic" (fun () -> Ch.attach ~role:Ch.Client seg);
  Seg.set seg W.off_magic magic;
  Seg.set seg W.off_version (W.abi_version + 1);
  expect_bad "version" (fun () -> Ch.attach ~role:Ch.Client seg);
  Seg.set seg W.off_version W.abi_version;
  Seg.set seg W.off_generation 3 (* odd: mid-construction *);
  expect_bad "odd generation" (fun () -> Ch.attach ~role:Ch.Client seg);
  Seg.set seg W.off_generation 2;
  let t = Ch.attach ~role:Ch.Client seg in
  Alcotest.(check int) "geometry read back" 4 (Ch.capacity t);
  Alcotest.(check int) "arg words read back" 8 (Ch.arg_words t)

(* --- Shm_channel: round trips over both backends --------------------------- *)

(* args.(2) <- args.(0) + args.(1), and echo the ep word into slot 3 so
   routing is observable. *)
let adder_dispatch ~ep_word args =
  args.(2) <- args.(0) + args.(1);
  args.(3) <- ep_word;
  Errc.ok

let round_trip seg =
  let server = Ch.attach ~role:Ch.Server seg in
  let client = Ch.attach ~role:Ch.Client seg in
  Alcotest.(check bool) "client sees server ready" true
    (Ch.wait_peer_ready client);
  Alcotest.(check int) "peer pid is this process" (Unix.getpid ())
    (Ch.peer_pid client);
  let srv = Domain.spawn (fun () -> Ch.serve server ~dispatch:adder_dispatch) in
  let args = Array.make 8 0 in
  let calls = 2000 in
  for i = 1 to calls do
    args.(0) <- i;
    args.(1) <- 3 * i;
    let rc = Ch.call client ~ep:(W.pack_raw_call 5) args in
    if rc <> Errc.ok || args.(2) <> 4 * i then
      Alcotest.failf "call %d: rc=%s sum=%d" i (Errc.to_string rc) args.(2)
  done;
  Alcotest.(check int) "ep word reached the dispatcher" (W.pack_raw_call 5)
    args.(3);
  Ch.announce_shutdown client;
  let served = Domain.join srv in
  Alcotest.(check int) "server saw every call" calls served;
  Alcotest.(check int) "client counted every submit" calls
    (Ch.submitted client);
  Alcotest.(check int) "every cell is home" (Ch.capacity client)
    (Ch.free_cells client);
  Alcotest.(check int) "doorbell rung once per call" calls
    (Ch.doorbell_rings client)

let test_round_trip_heap () =
  round_trip (Ch.create_heap ~capacity:8 ~arg_words:8 ())

let test_round_trip_file () =
  with_temp_path (fun path ->
      (* Two independent mappings of one file: as close to two processes
         as a single test process gets. *)
      let seg_server = Ch.create_file ~path ~capacity:8 ~arg_words:8 () in
      let server = Ch.attach ~role:Ch.Server seg_server in
      let srv =
        Domain.spawn (fun () -> Ch.serve server ~dispatch:adder_dispatch)
      in
      let client = Ch.attach_file ~role:Ch.Client path in
      Alcotest.(check int) "geometry travels through the header" 8
        (Ch.capacity client);
      let args = Array.make 8 0 in
      for i = 1 to 500 do
        args.(0) <- i;
        args.(1) <- i;
        let rc = Ch.call client ~ep:(W.pack_raw_call 1) args in
        if rc <> Errc.ok || args.(2) <> 2 * i then
          Alcotest.failf "file call %d: rc=%s sum=%d" i (Errc.to_string rc)
            args.(2)
      done;
      Ch.announce_shutdown client;
      Alcotest.(check int) "server saw every call" 500 (Domain.join srv))

(* Saturate the submission window: with every cell in flight and no
   server draining, the next submit answers [retry], not a block. *)
let test_backpressure () =
  let seg = Ch.create_heap ~capacity:2 ~arg_words:8 () in
  let client = Ch.attach ~role:Ch.Client seg in
  let args = Array.make 8 0 in
  let i1 = Ch.submit_raw client ~ep:(W.pack_raw_call 0) args in
  let i2 = Ch.submit_raw client ~ep:(W.pack_raw_call 0) args in
  Alcotest.(check bool) "two cells granted" true (i1 >= 0 && i2 >= 0 && i1 <> i2);
  Alcotest.(check int) "third submit answers retry" Errc.retry
    (Ch.submit_raw client ~ep:(W.pack_raw_call 0) args);
  Alcotest.(check int) "in flight" 2 (Ch.in_flight client)

(* --- deadline abandonment + §4.5.6 reclaim --------------------------------- *)

let test_deadline_abandon_reclaim () =
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  let client = Ch.attach ~role:Ch.Client seg in
  let server = Ch.attach ~role:Ch.Server seg in
  let args = Array.make 8 0 in
  (* No server loop running: the deadline always wins the CAS. *)
  let rc =
    Ch.call_deadline client ~ep:(W.pack_raw_call 0)
      ~deadline:(Runtime.Doorbell.now_ns () + 200_000)
      args
  in
  Alcotest.(check int) "deadline answers timed_out" Errc.timed_out rc;
  Alcotest.(check int) "rc slot carries the verdict" Errc.timed_out args.(7);
  Alcotest.(check int) "one timeout counted" 1 (Ch.timeouts client);
  Alcotest.(check int) "cell is stranded" 3 (Ch.free_cells client);
  (* The server drains the ring, finds the abandoned cell, and recycles
     it through the reclaim ring — exactly once. *)
  Alcotest.(check int) "ring drained the abandoned entry" 1
    (Ch.serve_once server ~dispatch:adder_dispatch);
  Alcotest.(check int) "reclaim counted once" 1 (Ch.reclaimed client);
  Alcotest.(check int) "cell came home" 4 (Ch.free_cells client);
  (* The recycled cell works again end to end. *)
  let srv = Domain.spawn (fun () -> Ch.serve server ~dispatch:adder_dispatch) in
  args.(0) <- 20;
  args.(1) <- 22;
  Alcotest.(check int) "recycled cell calls fine" Errc.ok
    (Ch.call client ~ep:(W.pack_raw_call 0) args);
  Alcotest.(check int) "sum" 42 args.(2);
  Ch.announce_shutdown client;
  ignore (Domain.join srv : int)

(* --- peer-death containment ------------------------------------------------ *)

(* A pid no live process owns: probe downward from a large pid.  (The
   true fork/kill -9 version of this scenario lives in `ppc_sim shm
   --scenario kill9`.) *)
let dead_pid () =
  let rec hunt p = if p < 2 then 2 else if Seg.pid_alive p then hunt (p - 1) else p in
  hunt 99_999

let test_peer_death_containment () =
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  (* Tight probe window so the test converges in microseconds.  While
     the server pid word is still 0 the probe is inert, so the first
     (deadline) call below cannot be short-circuited by a death
     verdict. *)
  let client = Ch.attach ~probe_window_ns:1_000 ~role:Ch.Client seg in
  let args = Array.make 8 0 in
  (* One stranded abandoned cell (deadline fired, server never
     reclaimed it)... *)
  let rc =
    Ch.call_deadline client ~ep:(W.pack_raw_call 0)
      ~deadline:(Runtime.Doorbell.now_ns () + 100_000)
      args
  in
  Alcotest.(check int) "abandoned first" Errc.timed_out rc;
  (* Now forge a server that "attached" and died: pid recorded, ready
     state set, heartbeat forever frozen. *)
  Seg.set seg W.off_server_pid (dead_pid ());
  Seg.set seg W.off_server_state W.peer_ready;
  (* ...and two calls in flight when the death verdict lands. *)
  let i1 = Ch.submit_raw client ~ep:(W.pack_raw_call 0) args in
  let i2 = Ch.submit_raw client ~ep:(W.pack_raw_call 0) args in
  Alcotest.(check bool) "both submitted" true (i1 >= 0 && i2 >= 0);
  (* await discovers the frozen heartbeat, probes the pid, sweeps, and
     fails the in-flight call with handler_fault. *)
  let rc1 = Ch.await client i1 args in
  Alcotest.(check int) "in-flight call 1 fails with handler_fault"
    Errc.handler_fault rc1;
  let rc2 = Ch.await client i2 args in
  Alcotest.(check int) "in-flight call 2 fails with handler_fault"
    Errc.handler_fault rc2;
  Alcotest.(check bool) "verdict is sticky" true (Ch.peer_dead client);
  Alcotest.(check int) "both faults counted" 2 (Ch.peer_faults client);
  (* Every cell recycled exactly once: the stranded abandoned cell came
     back in the sweep, the two faulted cells through their awaits. *)
  Alcotest.(check int) "every cell is home" 4 (Ch.free_cells client);
  Alcotest.(check int) "a second sweep finds nothing" 0
    (Ch.sweep_dead_peer client);
  Alcotest.(check int) "submits after the verdict answer peer_dead"
    Errc.peer_dead
    (Ch.submit_raw client ~ep:(W.pack_raw_call 0) args)

(* Server-side, single session: [serve] probes a dead client's frozen
   heartbeat, confirms the pid is gone, fails its pending call and
   reclaims its abandoned cell exactly once, then exits with the
   shutdown announcement — without releasing the session (that is
   [serve_sessions]' policy). *)
let test_serve_exits_on_dead_client () =
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  let server = Ch.attach ~probe_window_ns:1_000 ~role:Ch.Server seg in
  (* Forge a client that attached, staged two cells and died: a pid
     nobody owns, a heartbeat that never moves, one call still pending
     and one abandoned on its deadline, neither left in the ring. *)
  let cell i = W.cell_state ~capacity:4 ~arg_words:8 i in
  Seg.set seg W.off_client_pid (dead_pid ());
  Seg.set seg W.off_client_state W.peer_ready;
  Seg.set seg (cell 0) W.state_pending;
  Seg.set seg (cell 1) W.state_abandoned;
  Alcotest.(check int) "nothing served" 0
    (Ch.serve server ~dispatch:adder_dispatch);
  Alcotest.(check bool) "verdict reached" true (Ch.peer_dead server);
  Alcotest.(check int) "pending call failed once" 1 (Ch.peer_faults server);
  Alcotest.(check int) "its rc is handler_fault" Errc.handler_fault
    (Seg.get seg (W.cell_arg ~capacity:4 ~arg_words:8 0 7));
  Alcotest.(check int) "pending cell completed" W.state_done
    (Seg.get seg (cell 0));
  Alcotest.(check int) "abandoned cell reclaimed once" 1
    (Ch.reclaimed server);
  Alcotest.(check int) "abandoned cell is free" W.state_free
    (Seg.get seg (cell 1));
  Alcotest.(check int) "server announced shutdown" W.peer_shutdown
    (Seg.get seg W.off_server_state);
  Alcotest.(check int) "session not released" 0 (Ch.sessions_released server)

(* --- session recovery: regeneration, release, reconnect -------------------- *)

module Sess = Runtime.Shm_session

(* Bounded poll for a cross-domain condition. *)
let wait_for ?(timeout_ns = 5_000_000_000) cond =
  let deadline = Runtime.Doorbell.now_ns () + timeout_ns in
  let rec go () =
    if cond () then true
    else if Runtime.Doorbell.now_ns () > deadline then false
    else begin
      Runtime.Doorbell.nap_ns 200_000;
      go ()
    end
  in
  go ()

(* A second independent mapping of the segment file, sized from its own
   header — the supervisor's view of the world. *)
let remap_file path =
  let hdr = Seg.map_file ~path ~words:W.header_words ~create:false () in
  let words = Seg.get hdr W.off_total_words in
  Seg.map_file ~path ~words ~create:false ()

(* An occupied endpoint slot (a pid that is not ours) refuses a second
   attachment: two writers on single-writer words would tear the
   session.  The slot opens again once the holder is released. *)
let test_attach_occupied_slot () =
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  let expect_held name off =
    Seg.set seg off 1 (* pid 1: alive and certainly not us *);
    (match Ch.attach ~role:(if off = W.off_server_pid then Ch.Server else Ch.Client) seg with
    | (_ : Ch.t) -> Alcotest.failf "%s attach accepted an occupied slot" name
    | exception Ch.Bad_segment _ -> ());
    Seg.set seg off 0
  in
  expect_held "server" W.off_server_pid;
  expect_held "client" W.off_client_pid;
  (* both slots open again: attach succeeds *)
  ignore (Ch.attach ~role:Ch.Server seg : Ch.t);
  ignore (Ch.attach ~role:Ch.Client seg : Ch.t)

(* Regeneration under a live mapping: the stale endpoint fails closed on
   every path — in-flight awaits, new submits, whole calls — with
   [stale_generation], never reading the rebuilt session's state; a
   reattach that refuses the fled generation lands on the new one, and a
   reattach demanding a generation that has not happened yet times out
   instead of latching onto the old mapping. *)
let test_regeneration_fails_closed () =
  with_temp_path (fun path ->
      ignore (Ch.create_file ~path ~capacity:4 ~arg_words:8 () : Seg.t);
      let client = Ch.attach_file ~role:Ch.Client path in
      let g0 = Ch.generation client in
      Alcotest.(check int) "construction generation" 2 g0;
      let args = Array.make 8 0 in
      let i1 = Ch.submit_raw client ~ep:(W.pack_raw_call 0) args in
      Alcotest.(check bool) "call in flight" true (i1 >= 0);
      (* The supervisor's mapping rebuilds the segment in place. *)
      let seg2 = remap_file path in
      Ch.regenerate seg2;
      Alcotest.(check int) "generation is monotonic across rebuilds" (g0 + 2)
        (Seg.get seg2 W.off_generation);
      Alcotest.(check bool) "old endpoint is stale" true (Ch.stale client);
      Alcotest.(check int) "in-flight await fails closed" Errc.stale_generation
        (Ch.await client i1 args);
      Alcotest.(check int) "rc slot carries the verdict" Errc.stale_generation
        args.(7);
      Alcotest.(check int) "submit fails closed" Errc.stale_generation
        (Ch.submit_raw client ~ep:(W.pack_raw_call 0) args);
      Alcotest.(check int) "whole call fails closed" Errc.stale_generation
        (Ch.call client ~ep:(W.pack_raw_call 0) args);
      (* The rebuilt session is virgin — the stale client's in-flight
         cell did not leak into it. *)
      Alcotest.(check int) "fresh submit slot is zeroed" 0
        (Seg.get seg2 (W.submit_slot ~capacity:4 0));
      Alcotest.(check int) "fresh cell 0 is free" W.state_free
        (Seg.get seg2 (W.cell_state ~capacity:4 ~arg_words:8 0));
      (* Reattach refusing the fled generation gets the new one... *)
      let c2 = Ch.attach_file ~after_generation:g0 ~role:Ch.Client path in
      Alcotest.(check int) "reattach lands on the new generation" (g0 + 2)
        (Ch.generation c2);
      Alcotest.(check int) "new endpoint has every cell" 4 (Ch.free_cells c2);
      (* ...and demanding a generation that has not happened yet refuses
         in bounded time rather than accepting the current build. *)
      Ch.announce_shutdown c2 (* open the slot for hygiene *);
      match
        Ch.attach_file ~timeout_ns:50_000_000 ~after_generation:(g0 + 2)
          ~role:Ch.Client path
      with
      | (_ : Ch.t) ->
          Alcotest.fail "attach accepted a generation it was told to refuse"
      | exception Ch.Bad_segment _ -> ())

(* Server-side client-death containment: a multi-session server probes
   the frozen heartbeat, confirms the pid is gone, sweeps and releases
   the session — once — and the segment is immediately reusable by a
   successor client, with the cumulative counters intact. *)
let test_release_session_reuse () =
  let seg = Ch.create_heap ~capacity:4 ~arg_words:8 () in
  let server = Ch.attach ~probe_window_ns:1_000 ~role:Ch.Server seg in
  let released = Atomic.make 0 in
  let srv =
    Domain.spawn (fun () ->
        Ch.serve_sessions server
          ~on_release:(fun () -> Atomic.incr released)
          ~dispatch:adder_dispatch)
  in
  let client = Ch.attach ~role:Ch.Client seg in
  let args = Array.make 8 0 in
  for i = 1 to 50 do
    args.(0) <- i;
    args.(1) <- i;
    if Ch.call client ~ep:(W.pack_raw_call 0) args <> Errc.ok then
      Alcotest.failf "warm call %d failed" i
  done;
  (* Forge this client's death: its recorded pid becomes one nobody
     owns, and its heartbeat freezes because it stops calling. *)
  Seg.set seg W.off_client_pid (dead_pid ());
  Alcotest.(check bool) "server released the dead session" true
    (wait_for (fun () -> Ch.sessions_released client >= 1));
  Alcotest.(check int) "released exactly once" 1 (Ch.sessions_released client);
  Alcotest.(check int) "on_release fired exactly once" 1 (Atomic.get released);
  Alcotest.(check bool) "the dead client's endpoint is stale" true
    (Ch.stale client);
  (* The slot is open again: a successor attaches the same segment and
     round-trips against the same server loop. *)
  let c2 = Ch.attach ~role:Ch.Client seg in
  args.(0) <- 19;
  args.(1) <- 23;
  Alcotest.(check int) "successor call rc" Errc.ok
    (Ch.call c2 ~ep:(W.pack_raw_call 0) args);
  Alcotest.(check int) "successor sum" 42 args.(2);
  Alcotest.(check int) "every cell is home for the new session" 4
    (Ch.free_cells c2);
  Ch.announce_shutdown c2;
  let served = Domain.join srv in
  Alcotest.(check bool) "server served across both sessions" true (served >= 51)

(* The reconnecting client end to end (single process, so only the
   generation-based path is exercised — pid probes see ourselves
   alive): a session survives a server restart over a regenerated
   segment, re-resolving its named binding against the fresh registry
   and retrying the interrupted call, with exactly one reattach
   counted. *)
let test_session_reconnect () =
  with_temp_path (fun path ->
      ignore (Ch.create_file ~path ~capacity:8 ~arg_words:8 () : Seg.t);
      let spawn_server () =
        Domain.spawn (fun () ->
            let server = Ch.attach_file ~role:Ch.Server path in
            let fast = Runtime.Fastcall.create () in
            let ctl = Runtime.Control.install fast in
            Ch.serve_sessions server ~dispatch:(Ch.fastcall_dispatch fast ctl))
      in
      let srv1 = spawn_server () in
      let reattached = ref 0 in
      let sess =
        Sess.connect ~on_reattach:(fun () -> incr reattached) ~path ()
      in
      let b = Sess.bind sess ~name:"t/adder" ~spec:Ipc_intf.Sigs.Add2 in
      let args = Array.make 8 0 in
      args.(0) <- 19;
      args.(1) <- 23;
      Alcotest.(check int) "first-incarnation call" Errc.ok
        (Sess.call sess b args);
      Alcotest.(check int) "sum" 42 args.(0);
      let g1 = Sess.generation sess in
      (* The supervisor regenerates under everyone; server 1 notices the
         stale generation and exits its loop. *)
      Ch.regenerate (remap_file path);
      ignore (Domain.join srv1 : int);
      let srv2 = spawn_server () in
      args.(0) <- 1;
      args.(1) <- 2;
      Alcotest.(check int) "healed call after the restart" Errc.ok
        (Sess.call sess b args);
      Alcotest.(check int) "healed sum" 3 args.(0);
      Alcotest.(check int) "exactly one reattach" 1 (Sess.reattaches sess);
      Alcotest.(check int) "the hook mirrored it" 1 !reattached;
      Alcotest.(check int) "exactly one death-triggered retry" 1
        (Sess.retried sess);
      Alcotest.(check bool) "generation advanced" true
        (Sess.generation sess > g1);
      (* Steady state again: no further recovery on later calls. *)
      args.(0) <- 4;
      args.(1) <- 5;
      Alcotest.(check int) "steady call" Errc.ok (Sess.call sess b args);
      Alcotest.(check int) "steady sum" 9 args.(0);
      Alcotest.(check int) "still one reattach" 1 (Sess.reattaches sess);
      Sess.close sess;
      ignore (Domain.join srv2 : int))

(* --- the full dispatcher over a file-backed segment ------------------------ *)

let test_fastcall_dispatch_file () =
  with_temp_path (fun path ->
      let seg = Ch.create_file ~path ~capacity:16 ~arg_words:8 () in
      let server = Ch.attach ~role:Ch.Server seg in
      let fast = Runtime.Fastcall.create () in
      let ctl = Runtime.Control.install fast in
      let dispatch = Ch.fastcall_dispatch fast ctl in
      let srv = Domain.spawn (fun () -> Ch.serve server ~dispatch) in
      let client = Ch.attach_file ~role:Ch.Client path in
      let args = Array.make 8 0 in
      let ctl_call () = Ch.call client ~ep:W.ctl_ep args in
      (* register Add2 by spec; the handle comes back in word 0 *)
      let code, param = W.spec_to_wire Ipc_intf.Sigs.Add2 in
      args.(0) <- W.ctl_register;
      args.(1) <- code;
      args.(2) <- param;
      Alcotest.(check int) "register rc" Errc.ok (ctl_call ());
      let handle = args.(0) in
      (* call through the versioned wire handle *)
      args.(0) <- 19;
      args.(1) <- 23;
      Alcotest.(check int) "handle call rc" Errc.ok
        (Ch.call client ~ep:handle args);
      Alcotest.(check int) "Add2 ran server-side" 42 args.(0);
      (* publish under a name, look it up, call by raw ID *)
      let w0, w1 =
        match W.pack_name "adder" with Some p -> p | None -> assert false
      in
      args.(0) <- W.ctl_publish;
      args.(1) <- handle;
      args.(2) <- w0;
      args.(3) <- w1;
      Alcotest.(check int) "publish rc" Errc.ok (ctl_call ());
      args.(0) <- W.ctl_lookup;
      args.(1) <- w0;
      args.(2) <- w1;
      Alcotest.(check int) "lookup rc" Errc.ok (ctl_call ());
      let raw_id = args.(0) in
      Alcotest.(check int) "lookup returns the slot" (W.handle_slot handle)
        raw_id;
      args.(0) <- 1;
      args.(1) <- 2;
      Alcotest.(check int) "raw-ID call rc" Errc.ok
        (Ch.call client ~ep:(W.pack_raw_call raw_id) args);
      Alcotest.(check int) "raw-ID call ran" 3 args.(0);
      (* exchange to Stamp 7: same handle, new behavior *)
      let scode, sparam = W.spec_to_wire (Ipc_intf.Sigs.Stamp 7) in
      args.(0) <- W.ctl_exchange;
      args.(1) <- handle;
      args.(2) <- scode;
      args.(3) <- sparam;
      Alcotest.(check int) "exchange rc" Errc.ok (ctl_call ());
      args.(0) <- 0;
      Alcotest.(check int) "exchanged behavior rc" Errc.ok
        (Ch.call client ~ep:handle args);
      Alcotest.(check int) "stamp visible" 7 args.(0);
      (* idle entry point: nothing in flight *)
      args.(0) <- W.ctl_in_flight;
      args.(1) <- handle;
      Alcotest.(check int) "in_flight rc" Errc.ok (ctl_call ());
      Alcotest.(check int) "in_flight count" 0 args.(0);
      (* soft-kill; the dead handle then refuses calls *)
      args.(0) <- W.ctl_soft_kill;
      args.(1) <- handle;
      Alcotest.(check int) "soft kill rc" Errc.ok (ctl_call ());
      Alcotest.(check int) "dead handle refuses" Errc.no_entry
        (Ch.call client ~ep:handle args);
      (* unknown ctl op and malformed spec are bad_request, contained *)
      args.(0) <- 999;
      Alcotest.(check int) "unknown op" Errc.bad_request (ctl_call ());
      args.(0) <- W.ctl_register;
      args.(1) <- 777 (* no such spec code *);
      Alcotest.(check int) "bad spec refused" Errc.bad_request (ctl_call ());
      Ch.announce_shutdown client;
      ignore (Domain.join srv : int);
      Seg.unlink seg)

(* --- parked server wake-up -------------------------------------------------- *)

(* Calls spaced far past the server's spin and yield rungs find it
   parked on the doorbell: every one must still answer, and the counters
   must show the server parking and the client waking it. *)
let test_parked_server_wakes () =
  let seg = Ch.create_heap ~capacity:8 ~arg_words:8 () in
  let server = Ch.attach ~role:Ch.Server seg in
  let client = Ch.attach ~role:Ch.Client seg in
  let srv = Domain.spawn (fun () -> Ch.serve server ~dispatch:adder_dispatch) in
  let args = Array.make 8 0 in
  let calls = 50 in
  for i = 1 to calls do
    Runtime.Doorbell.nap_ns 2_000_000;
    args.(0) <- i;
    args.(1) <- i;
    let rc = Ch.call client ~ep:(W.pack_raw_call 1) args in
    if rc <> Errc.ok || args.(2) <> 2 * i then
      Alcotest.failf "call %d: rc=%s sum=%d" i (Errc.to_string rc) args.(2)
  done;
  Ch.announce_shutdown client;
  Alcotest.(check int) "server saw every call" calls (Domain.join srv);
  Alcotest.(check int) "doorbell rung once per call" calls
    (Ch.doorbell_rings client);
  Alcotest.(check bool) "server parked" true (Ch.parks server > 0);
  Alcotest.(check bool) "client woke it" true (Ch.wakes client > 0);
  Alcotest.(check int) "flag clear at rest" 0
    (Seg.get seg W.off_doorbell land W.doorbell_waiting)

(* --- hostile slot words ------------------------------------------------------ *)

(* A client process can write any word of the segment.  Fill the
   published position and every slot of both rings with arbitrary
   words — half of them well-formed tags for positions the server is
   about to expect, naming any cell the 16-bit field can hold — and give
   the cells arbitrary states, each cell's entry-point word naming the
   cell.  In half the runs the client also keeps feeding the server
   while it serves: slot 0 starts as a live call, and each dispatch
   re-arms every cell and tags the slots for the next [capacity]
   positions with another cell (with one cell the server's own reply
   ends the feed).  One [serve_once] must not raise, must dispatch at
   most [capacity] calls and only cells in [state_pending], and must
   store nothing past the laid-out segment: the segment is followed by
   guard words reading [state_pending], so a decoded index that escaped
   the cells would be served (and written) there. *)
let hostile_arg_words = 1
let hostile_guard = 3 * W.max_capacity

let hostile_seg =
  lazy
    (Seg.create_heap
       ~words:
         (W.total_words ~capacity:8 ~arg_words:hostile_arg_words
         + hostile_guard))

let prop_hostile_slots =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 2; 8 ] >>= fun capacity ->
      let slot =
        oneof
          [
            int;
            map2
              (fun pos cell -> W.pack_slot ~pos ~cell)
              (int_bound (2 * capacity))
              (int_bound (W.max_capacity - 1));
          ]
      in
      quad (return capacity)
        (list_repeat ((2 * capacity) + 1) slot)
        (list_repeat capacity (oneof [ int_bound 5; int ]))
        bool)
  in
  let print = QCheck.Print.(quad int (list int) (list int) bool) in
  QCheck.Test.make ~name:"hostile slot words" ~count:200
    (QCheck.make ~print gen)
    (fun (capacity, words, states, feed) ->
      let arg_words = hostile_arg_words in
      let seg = Lazy.force hostile_seg in
      Ch.layout ~capacity ~arg_words seg;
      let total = W.total_words ~capacity ~arg_words in
      for off = total to Seg.length seg - 1 do
        Seg.set seg off W.state_pending
      done;
      let server = Ch.attach ~role:Ch.Server seg in
      (* The published position, the submit slots and the reclaim slots
         are contiguous: one list covers them. *)
      List.iteri (fun k w -> Seg.set seg (W.submit_base + k) w) words;
      List.iteri
        (fun i st ->
          Seg.set seg (W.cell_state ~capacity ~arg_words i) st;
          Seg.set seg (W.cell_ep ~capacity ~arg_words i) i)
        states;
      if feed then begin
        Seg.set seg (W.submit_slot ~capacity 0) (W.pack_slot ~pos:0 ~cell:0);
        Seg.set seg (W.cell_state ~capacity ~arg_words 0) W.state_pending
      end;
      let calls = ref 0 and only_pending = ref true in
      let dispatch ~ep_word _ =
        incr calls;
        if
          ep_word < 0 || ep_word >= capacity
          || Seg.get seg (W.cell_state ~capacity ~arg_words ep_word)
             <> W.state_pending
        then only_pending := false;
        (* Fed, the server has dispatched every slot it took, so it
           expects position [!calls] next.  Stop a lap past the bound
           so a server without one still returns. *)
        if feed && !calls <= capacity then begin
          for i = 0 to capacity - 1 do
            Seg.set seg (W.cell_state ~capacity ~arg_words i) W.state_pending
          done;
          let cell = (ep_word + 1) land (capacity - 1) in
          for pos = !calls to !calls + capacity - 1 do
            Seg.set seg (W.submit_slot ~capacity pos) (W.pack_slot ~pos ~cell)
          done
        end;
        Errc.ok
      in
      ignore (Ch.pending server : bool);
      let served = Ch.serve_once server ~dispatch in
      let guard_intact = ref true in
      for off = total to Seg.length seg - 1 do
        if Seg.get seg off <> W.state_pending then guard_intact := false
      done;
      !only_pending && !guard_intact && !calls <= capacity
      && served <= capacity)

(* --- zero-allocation pin --------------------------------------------------- *)

(* [Gc.minor_words] is per-domain, so the busy server domain cannot
   pollute the client's delta.  Same discipline as the Fastcall pins in
   test_runtime.ml: warm up outside the window, then demand exactly
   zero. *)
let minor_words_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* With [flag], the server-waiting flag is raised by hand before every
   submit, so each [submit_raw] also takes the wake branch. *)
let zero_alloc_on ?(flag = false) seg name =
  let bell = Runtime.Doorbell.on_word seg W.off_doorbell in
  let server = Ch.attach ~role:Ch.Server seg in
  let client = Ch.attach ~role:Ch.Client seg in
  let srv = Domain.spawn (fun () -> Ch.serve server ~dispatch:adder_dispatch) in
  let args = Array.make 8 0 in
  let ep = W.pack_raw_call 0 in
  let loop () =
    for i = 1 to 500 do
      if flag then while Runtime.Doorbell.set_waiting bell < 0 do () done;
      args.(0) <- i;
      args.(1) <- 1;
      ignore (Ch.call client ~ep args : int)
    done
  in
  loop ();
  (* warm-up *)
  let delta = minor_words_delta loop in
  Ch.announce_shutdown client;
  ignore (Domain.join srv : int);
  Alcotest.(check (float 0.0)) name 0.0 delta;
  if flag then
    (* The server may clear a raised flag itself before the ring sees
       it, but not on every one of the 1000 calls. *)
    Alcotest.(check bool) "submits took the wake branch" true
      (Ch.wakes client > 0)

let test_zero_alloc_heap () =
  zero_alloc_on
    (Ch.create_heap ~capacity:8 ~arg_words:8 ())
    "warm heap-segment calls allocate zero minor words"

let test_zero_alloc_file () =
  with_temp_path (fun path ->
      zero_alloc_on ~flag:true
        (Ch.create_file ~path ~capacity:8 ~arg_words:8 ())
        "warm file-segment calls allocate zero minor words")

let suites =
  [
    ( "shm.wire_abi",
      [
        Alcotest.test_case "layout is pinned" `Quick test_abi_layout;
        Alcotest.test_case "entry-point word encodings" `Quick
          test_abi_ep_word;
      ] );
    ( "shm.segment",
      [
        Alcotest.test_case "heap backend words" `Quick test_segment_heap;
        Alcotest.test_case "mmap backend words + sharing" `Quick
          test_segment_shm;
      ] );
    ( "shm.channel",
      [
        Alcotest.test_case "layout/attach validation" `Quick
          test_channel_validation;
        Alcotest.test_case "round trip (heap)" `Quick test_round_trip_heap;
        Alcotest.test_case "round trip (file, two mappings)" `Quick
          test_round_trip_file;
        Alcotest.test_case "backpressure is explicit" `Quick test_backpressure;
        Alcotest.test_case "deadline abandon + reclaim" `Quick
          test_deadline_abandon_reclaim;
        Alcotest.test_case "peer death containment" `Quick
          test_peer_death_containment;
        Alcotest.test_case "fastcall dispatcher over a file" `Quick
          test_fastcall_dispatch_file;
        Alcotest.test_case "zero-alloc warm path (heap)" `Quick
          test_zero_alloc_heap;
        Alcotest.test_case "zero-alloc warm path (file)" `Quick
          test_zero_alloc_file;
        Alcotest.test_case "parked server is woken by submit" `Quick
          test_parked_server_wakes;
        QCheck_alcotest.to_alcotest prop_hostile_slots;
      ] );
    ( "shm.recovery",
      [
        Alcotest.test_case "occupied slots refuse attach" `Quick
          test_attach_occupied_slot;
        Alcotest.test_case "regeneration fails stale endpoints closed" `Quick
          test_regeneration_fails_closed;
        Alcotest.test_case "dead-client release + segment reuse" `Quick
          test_release_session_reuse;
        Alcotest.test_case "session reconnect across a server restart" `Quick
          test_session_reconnect;
        Alcotest.test_case "serve exits on a dead client" `Quick
          test_serve_exits_on_dead_client;
      ] );
  ]
