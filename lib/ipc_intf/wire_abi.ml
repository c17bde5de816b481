(* The position-independent wire ABI of the fast call path.

   Everything the PPC fast path used to keep in OCaml record fields —
   request-cell state machines, SPSC ring slots, the doorbell
   word, the pid and channel lifecycle words — is laid out here as
   *word offsets into a flat segment of 64-bit little-endian words*, so
   the same protocol runs over an in-heap array (one process, the
   existing zero-alloc path) and over an mmap'd file shared by two OS
   processes (the "CXL fabric" backend).  This module is the single
   source of truth: `Runtime.Segment`/`Runtime.Shm_channel` compute
   every address from these functions, ARCHITECTURE §13 renders the
   same table for humans, and the magic/version words below are how an
   attaching process refuses a segment built by an incompatible
   revision.

   Units and width.  One word = 8 bytes, stored little-endian (the ABI
   is only defined on little-endian hosts; the magic word doubles as a
   byte-order canary, since a big-endian reader sees it byte-swapped
   and refuses to attach).  Values are OCaml immediates (63-bit), so
   bit 63 of every stored word is always a sign extension — never
   payload.

   Whole-segment layout, for a segment of [capacity] cells with
   [arg_words] argument words per cell (capacity a power of two from 1
   to [max_capacity]; both recorded in the header so the two sides can
   cross-check):

     word 0                      header           (header_words = 16)
     word 16                     submission ring  (1 + capacity words)
     word 17+capacity            reclaim ring     (capacity words)
     word 17+2*capacity          cells            (capacity * cell_words)

   Rings are single-producer single-consumer queues of sequence-tagged
   slots (FastForward's discipline): each side keeps its own position
   in process-private memory, and a slot word says by itself whether it
   holds new work — the producer stores [pack_slot ~pos ~cell] into
   slot [pos land (capacity - 1)], and the consumer takes slot [pos]
   only when its [slot_seq] equals [pos + 1].  Tags start at 1, so a
   zeroed slot is never work, and neither side reads an index the
   other writes on the hot path.  The submission ring flows client ->
   server and is preceded by one word, the server's consumer position
   as published after each batch (for [Shm_channel.pending] and for
   audits from a third process); the reclaim ring returns abandoned
   cells server -> client (the §4.5.6 CD-reclamation side stack,
   re-hosted).

   Cells are request descriptors flattened: one state word, one entry-
   point word, then [arg_words] argument words, the last of which is
   the return-code slot carrying an [Errc] code.  There is no mutex or
   condvar in the segment: processes cannot share OCaml condvars.  A
   client awaiting a reply spins, yields and naps on its cell's state
   word; an idle server parks in a timed futex wait on the doorbell
   word, and the submit that finds it parked wakes it (see
   [off_doorbell]). *)

(* --- identification -------------------------------------------------------- *)

let magic = 0x50_50_43_5F_41_42_49
(* "PPC_ABI" in ASCII, little-endian, 7 bytes so it stays a 63-bit
   immediate.  Also the endianness canary: byte-swapped it has bit 63
   set and cannot round-trip through an OCaml int. *)

let abi_version = 4
(* Bump on ANY layout or encoding change below.  Attach refuses a
   mismatch; there is no in-place migration — a segment is as cheap to
   rebuild as to reinterpret.  v2: word 15 became the sessions-released
   counter (was reserved/zero) and the generation seqlock is reused for
   in-place regeneration, not just first construction.  v3: the doorbell
   word carries the server-waiting flag in bit 0 and counts rings in
   steps of 2.  v4: ring slots carry sequence tags ([pack_slot]); the
   submission tail and the reclaim head and tail words are gone.

   Words 8 and 9 held the two heartbeats and are now unused and zero,
   without a bump.  A v4 peer from before that change still bumps its
   heartbeat there, and nothing reads it.  It also still waits for ours
   to move before it probes our pid, so our silence only makes it probe
   at most twice per its probe window.  Its verdict, like ours, comes
   from the pid probe alone, so mixed builds keep working. *)

(* --- header ---------------------------------------------------------------- *)

let header_words = 16

let off_magic = 0
let off_version = 1

let off_generation = 2
(* Seqlock for segment construction AND regeneration: a builder reads
   the current value, writes the next odd value, (re)initialises every
   mutable word, then stores the even successor.  An attacher spins
   until it reads an even, nonzero generation — after which the layout
   words are immutable (only pids, states and counters move) —
   and records it; any later mismatch between the recorded and the
   live value means the segment was rebuilt underneath the mapping and
   the session must fail closed with [Errc.stale_generation] and
   reattach.  Monotonic across rebuilds: 0 -> 1 -> 2 (first build),
   2 -> 3 -> 4 (first regeneration), and so on. *)

let off_total_words = 3
let off_capacity = 4
let off_arg_words = 5

let off_server_pid = 6
let off_client_pid = 7
(* Written by each side when it attaches in that role; 0 = not yet
   attached.  The peer-liveness probe needs a pid to poke: each side
   runs kill(pid, 0) on its peer's at most once per probe interval
   (Shm_channel.probe_interval_ns), and that probe alone declares the
   peer dead. *)

(* Words 8 and 9 are unused: every layout zeroes them and nothing
   writes them (see [abi_version]). *)

let off_server_state = 10
let off_client_state = 11

(* Lifecycle values for the two state words. *)
let peer_absent = 0
let peer_ready = 1
let peer_shutdown = 2

let off_doorbell = 12
(* The cross-process doorbell, a Runtime.Doorbell word (the runtime's
   one wakeup protocol; the lost-wakeup argument is in doorbell.ml).
   Bit 0 is the server-waiting flag; the rest counts rings, and the
   client fetch-adds [doorbell_step] after publishing a slot.  An idle
   server raises the flag and sleeps in a timed FUTEX_WAIT on the
   word's low 32 bits, where the flag sits, so every ring and every
   clear changes the compared value. *)

let doorbell_waiting = 1
let doorbell_step = 2
let doorbell_rings w = w lsr 1

let off_reclaimed = 13
(* Abandoned cells the server has pushed through the reclaim ring —
   observability for the exactly-once recycling contract. *)

let off_peer_faults = 14
(* In-flight calls a surviving side failed with [Errc.handler_fault]
   after detecting peer death. *)

let off_sessions = 15
(* Sessions the server has released after confirming client death (or
   clean departure): fetch-added once per [release_session], so the
   supervisor and the chaos harness can reconcile injected client
   kills against observed releases by double entry. *)

(* --- rings ----------------------------------------------------------------- *)

(* A slot word packs the position it was published at, plus one (the
   sequence tag), above the cell index.  The cell field is
   [slot_cell_bits] wide, which bounds the capacity; the tag gets the
   remaining 47 bits, so a session wraps it only after 2^47 calls (over
   four years at a million calls a second). *)
let slot_cell_bits = 16
let max_capacity = 1 lsl slot_cell_bits
let pack_slot ~pos ~cell = ((pos + 1) lsl slot_cell_bits) lor cell
let slot_seq w = w lsr slot_cell_bits
let slot_cell w = w land (max_capacity - 1)

let submit_base = header_words
let submit_head = submit_base
let submit_slot ~capacity i = submit_base + 1 + (i land (capacity - 1))

let reclaim_base ~capacity = submit_base + 1 + capacity
let reclaim_slot ~capacity i = reclaim_base ~capacity + (i land (capacity - 1))

(* --- cells ----------------------------------------------------------------- *)

(* Completion states, as wire values: these numbers mean the same thing
   on both sides of a process boundary.  [state_parked] never appears in
   a segment — nobody parks on a cell — but the code point stays
   reserved so the encodings never move. *)
let state_free = 0
let state_pending = 1
let state_parked = 2
let state_done = 3
let state_abandoned = 4

let cell_words ~arg_words = 2 + arg_words
let cells_base ~capacity = reclaim_base ~capacity + capacity

let cell_base ~capacity ~arg_words i =
  cells_base ~capacity + (i * cell_words ~arg_words)

let cell_state ~capacity ~arg_words i = cell_base ~capacity ~arg_words i
let cell_ep ~capacity ~arg_words i = cell_base ~capacity ~arg_words i + 1
let cell_arg ~capacity ~arg_words i j = cell_base ~capacity ~arg_words i + 2 + j

let total_words ~capacity ~arg_words =
  cells_base ~capacity + (capacity * cell_words ~arg_words)

(* --- entry-point word ------------------------------------------------------ *)

(* The cell's entry-point word is a small sum type in one integer:

     >= 0                 handle: (generation << handle_bits) | slot
     ctl_ep (-1)          control-plane call (see the op vocabulary)
     <= raw_call_base     raw-call word: handle = raw_call_base - word

   A handle packs the slot in the low [handle_bits] bits (1024 entry
   points fit in 10) and the slot generation above; it is the very int
   Fastcall names an entry point by, so this is the handle format's one
   home.  A handle minted before its slot was freed and re-registered
   decodes to the same slot but a stale generation — dead across the
   wire as in-process.  A raw-call word is a second encoding of the
   same name, kept decodable for existing clients: it decodes to the
   same handle and meets the same admission. *)

let handle_bits = 10

let pack_handle ~slot ~gen =
  if slot < 0 || slot >= 1 lsl handle_bits then
    invalid_arg "Wire_abi.pack_handle: slot out of range";
  (gen lsl handle_bits) lor slot

let handle_slot w = w land ((1 lsl handle_bits) - 1)
let handle_gen w = w lsr handle_bits

let ctl_ep = -1
let raw_call_base = -16
let pack_raw_call id = raw_call_base - id
let raw_call_id w = raw_call_base - w
let is_raw_call w = w <= raw_call_base

(* --- control-plane ops ----------------------------------------------------- *)

(* The management vocabulary a client speaks to the server process by
   calling [ctl_ep].  Op code in argument word 0; operands follow;
   results come back in word 0 with the [Errc] code in the RC slot.

     ctl_register   a1=spec code  a2=spec param      -> a0 = handle
     ctl_publish    a1=handle     a2,a3=packed name  -> rc
     ctl_lookup     a1,a2=packed name                -> a0 = handle
     ctl_exchange   a1=handle  a2=spec code  a3=param-> rc
     ctl_soft_kill  a1=handle                        -> rc
     ctl_hard_kill  a1=handle                        -> rc
     ctl_in_flight  a1=handle                        -> a0 = count *)

let ctl_register = 1
let ctl_publish = 2
let ctl_lookup = 3
let ctl_exchange = 4
let ctl_soft_kill = 5
let ctl_hard_kill = 6
let ctl_in_flight = 7

(* --- behavior specs on the wire -------------------------------------------- *)

let spec_to_wire : Sigs.spec -> int * int = function
  | Sigs.Stamp tag -> (1, tag)
  | Sigs.Add2 -> (2, 0)
  | Sigs.Kill_self_soft tag -> (3, tag)
  | Sigs.Kill_self_hard tag -> (4, tag)
  | Sigs.Nap_ms ms -> (5, ms)

let spec_of_wire ~code ~param : Sigs.spec option =
  match code with
  | 1 -> Some (Sigs.Stamp param)
  | 2 -> Some Sigs.Add2
  | 3 -> Some (Sigs.Kill_self_soft param)
  | 4 -> Some (Sigs.Kill_self_hard param)
  | 5 -> Some (Sigs.Nap_ms param)
  | _ -> None

(* --- names on the wire ----------------------------------------------------- *)

(* Service names ride publish/lookup ops as two words of 7 bytes each
   (7, not 8, so a packed chunk stays a 63-bit immediate): up to 14
   bytes, no NUL (NUL pads the tail).  Names the registry accepts are
   shorter than that, so the bound costs nothing. *)

let name_bytes_per_word = 7
let max_name_bytes = 2 * name_bytes_per_word

let pack_name s =
  let n = String.length s in
  if n = 0 || n > max_name_bytes then None
  else if String.contains s '\000' then None
  else begin
    let word off =
      let w = ref 0 in
      for i = name_bytes_per_word - 1 downto 0 do
        let c = if off + i < n then Char.code s.[off + i] else 0 in
        w := (!w lsl 8) lor c
      done;
      !w
    in
    Some (word 0, word name_bytes_per_word)
  end

let unpack_name (w0, w1) =
  let b = Buffer.create max_name_bytes in
  let emit w =
    let w = ref w in
    for _ = 1 to name_bytes_per_word do
      let c = !w land 0xff in
      if c <> 0 then Buffer.add_char b (Char.chr c);
      w := !w lsr 8
    done
  in
  emit w0;
  emit w1;
  Buffer.contents b
