(* The asynchronous bulk-data engine (the tentpole of the "Bulk data
   plane", ARCHITECTURE.md).

   Control-plane PPCs stay on the 8-register path; bulk payloads ride
   descriptors.  Each client owns a preallocated descriptor slab, and
   the slab is its ring: position [p] is slot [p land (capacity - 1)],
   and each descriptor's atomic [state] word says whether the slot
   holds work — the same slot rule as Shm_channel's tagged rings.  Each
   side keeps its positions private:

     client   sub_pos   fill, then store Submitted          (submit)
     drainer  run_pos   execute Submitted, store Completed  (drain)
     client   reap_pos  take Completed in order, store Free (reap)

   The ring is full when [outstanding = capacity]: reaping in order
   frees slots in order, so the slot at [sub_pos] is always free below
   that.  [submit] only stages descriptors; [reap] never blocks.

   There is no engine thread.  Like every PPC in the paper, a copy runs
   on its caller's processor: [flush] takes the engine's one-word
   ticket and, holding it, runs round-robin drain passes over every
   client until its own client has nothing Submitted — so a flusher
   also executes its neighbours' staged work, as a shard ticket's
   holder serves the whole shard.  The ticket makes the drain
   single-consumer; [kill] takes it and never gives it back, so no
   drain touches a descriptor once [stopped] is set.  The warm
   submit→flush→reap path allocates nothing.

   The engine core is substrate-neutral: what a descriptor *means* is
   supplied as an [exec] callback.  The runtime substrate executes
   real [Bytes.blit]s over the bounded {!Buffers} store; the simulator
   charges cycle costs through the CopyServer shim (see
   [Copy_server]). *)

module Errc = Ipc_intf.Errc
module Wellknown = Ipc_intf.Wellknown

type exec = Copy_desc.t -> int
(* Executes one descriptor, returns its Errc completion code.  Runs on
   whichever client holds the ticket; a raise is contained to
   copy_fault. *)

type client = {
  cid : int;
  descs : Copy_desc.t array;  (* the ring; capacity is a power of two *)
  mutable sub_pos : int;  (* client: next slot to fill *)
  mutable reap_pos : int;  (* client: next slot to reap *)
  mutable run_pos : int;  (* ticket holder: next slot to execute *)
  mutable staged : int;  (* submitted since the last flush *)
  mutable outstanding : int;  (* submitted, not yet reaped *)
  on_complete : tag:int -> rc:int -> unit;
  mutable submitted : int;
  mutable reaped : int;
  mutable rejected : int;  (* submit refused: ring full *)
  mutable failed_swept : int;  (* failed by the post-death sweep *)
  eng : t;
}

and t = {
  exec : exec;
  clients : client option array;
  n_clients : int Atomic.t;
  connect_mu : Mutex.t;
  ticket : bool Atomic.t;  (* held by the one drainer; kill keeps it *)
  stopped : bool Atomic.t;  (* killed; set under the ticket *)
  served : int Atomic.t;
  bytes_copied : int Atomic.t;
  grants_completed : int Atomic.t;
  copy_faults : int Atomic.t;
}

let default_on_complete ~tag:_ ~rc:_ = ()

(* Table bounds: see [connect] and [Buffers.add]. *)
let max_clients = 16
let max_regions = 64

let create exec =
  {
    exec;
    clients = Array.make max_clients None;
    n_clients = Atomic.make 0;
    connect_mu = Mutex.create ();
    ticket = Atomic.make false;
    stopped = Atomic.make false;
    served = Atomic.make 0;
    bytes_copied = Atomic.make 0;
    grants_completed = Atomic.make 0;
    copy_faults = Atomic.make 0;
  }

let connect ?(capacity = 64) ?(on_complete = default_on_complete) eng =
  Runtime.Shm_channel.validate_capacity "Copy_engine.connect" capacity;
  Mutex.lock eng.connect_mu;
  let cid = Atomic.get eng.n_clients in
  if cid >= Array.length eng.clients then begin
    Mutex.unlock eng.connect_mu;
    invalid_arg "Copy_engine.connect: client table full"
  end;
  let c =
    {
      cid;
      descs = Array.init capacity (fun index -> Copy_desc.make ~index);
      sub_pos = 0;
      reap_pos = 0;
      run_pos = 0;
      staged = 0;
      outstanding = 0;
      on_complete;
      submitted = 0;
      reaped = 0;
      rejected = 0;
      failed_swept = 0;
      eng;
    }
  in
  eng.clients.(cid) <- Some c;
  (* Publish the slot before the count: a drainer iterates [0, n). *)
  Atomic.incr eng.n_clients;
  Mutex.unlock eng.connect_mu;
  c

(* ---- client side (producer) ----------------------------------------- *)

let slot c pos = c.descs.(pos land (Array.length c.descs - 1))

let submit c ~op ~src ~src_off ~dst ~dst_off ~len ~tag =
  if Atomic.get c.eng.stopped then Errc.killed
  else if c.outstanding = Array.length c.descs then begin
    c.rejected <- c.rejected + 1;
    Errc.retry
  end
  else begin
    let d = slot c c.sub_pos in
    d.op <- op;
    d.src <- src;
    d.src_off <- src_off;
    d.dst <- dst;
    d.dst_off <- dst_off;
    d.len <- len;
    d.tag <- tag;
    d.rc <- Errc.ok;
    d.client <- c.cid;
    Atomic.set d.state Copy_desc.st_submitted;
    c.sub_pos <- c.sub_pos + 1;
    c.staged <- c.staged + 1;
    c.outstanding <- c.outstanding + 1;
    c.submitted <- c.submitted + 1;
    Errc.ok
  end

let rec drain_cq c n =
  let d = slot c c.reap_pos in
  if Atomic.get d.state <> Copy_desc.st_completed then n
  else begin
    let tag = d.tag and rc = d.rc in
    Atomic.set d.state Copy_desc.st_free;
    c.reap_pos <- c.reap_pos + 1;
    c.outstanding <- c.outstanding - 1;
    c.reaped <- c.reaped + 1;
    c.on_complete ~tag ~rc;
    drain_cq c (n + 1)
  end

(* Once the engine is killed ([stopped] is set under the ticket, which
   is never released, so no drain touches a descriptor after it),
   everything still in flight is stranded: fail it here, exactly once
   per descriptor, with [handler_fault] — same code a crashed
   in-register handler answers with.  Drains execute in ring order, so
   after a final [drain_cq] the [outstanding] slots from [reap_pos] on
   are exactly the stranded ones. *)
let sweep_dead c n0 =
  let n = ref n0 in
  while c.outstanding > 0 do
    let d = slot c c.reap_pos in
    let tag = d.tag in
    d.rc <- Errc.handler_fault;
    Atomic.set d.state Copy_desc.st_free;
    c.reap_pos <- c.reap_pos + 1;
    c.outstanding <- c.outstanding - 1;
    c.failed_swept <- c.failed_swept + 1;
    c.on_complete ~tag ~rc:Errc.handler_fault;
    incr n
  done;
  !n

let reap c =
  let n = drain_cq c 0 in
  if c.outstanding > 0 && Atomic.get c.eng.stopped then
    (* Drain once more: completions posted before death win over the
       sweep. *)
    sweep_dead c (drain_cq c n)
  else n

let outstanding c = c.outstanding

type client_stats = {
  cs_submitted : int;
  cs_reaped : int;
  cs_rejected : int;
  cs_failed_swept : int;
}

let client_stats c =
  {
    cs_submitted = c.submitted;
    cs_reaped = c.reaped;
    cs_rejected = c.rejected;
    cs_failed_swept = c.failed_swept;
  }

let client_id c = c.cid

(* ---- the drain, under the engine ticket ---------------------------- *)

(* Spin for the ticket, as Fastcall's [take_ticket] spins for a shard's;
   [false] once the engine is killed, whose ticket never comes back. *)
let rec take eng =
  if (not (Atomic.get eng.ticket)) && Atomic.compare_and_set eng.ticket false true
  then true
  else if Atomic.get eng.stopped then false
  else begin
    Domain.cpu_relax ();
    take eng
  end

let release eng = Atomic.set eng.ticket false

let exec_one eng (d : Copy_desc.t) =
  let rc = try eng.exec d with _ -> Errc.copy_fault in
  d.rc <- rc;
  Atomic.incr eng.served;
  if rc = Errc.ok then begin
    if d.op = Wellknown.bulk_grant then Atomic.incr eng.grants_completed
    else ignore (Atomic.fetch_and_add eng.bytes_copied d.len)
  end
  else Atomic.incr eng.copy_faults

(* One pass: up to [budget] descriptors per client, round-robin, each
   client's in ring order.  Returns how many were executed.  Only the
   ticket holder calls this. *)
let drain_pass eng ~budget =
  let total = ref 0 in
  for i = 0 to Atomic.get eng.n_clients - 1 do
    match eng.clients.(i) with
    | None -> ()
    | Some c ->
        let k = ref 0 in
        let continue = ref true in
        while !continue && !k < budget do
          let d = slot c c.run_pos in
          if Atomic.get d.state <> Copy_desc.st_submitted then continue := false
          else begin
            exec_one eng d;
            Atomic.set d.state Copy_desc.st_completed;
            c.run_pos <- c.run_pos + 1;
            incr k
          end
        done;
        total := !total + !k
  done;
  !total

let drain eng ~budget =
  if take eng then begin
    let n = drain_pass eng ~budget in
    release eng;
    n
  end
  else 0

(* Whether [c] has a descriptor not yet executed.  Client-side: drains
   run in ring order, so that is exactly when its newest descriptor
   still reads Submitted. *)
let unexecuted c =
  c.outstanding > 0
  && Atomic.get (slot c (c.sub_pos - 1)).state = Copy_desc.st_submitted

(* Descriptors drained per client per pass. *)
let batch = 32

(* Each pass executes at least one of [c]'s own descriptors, and only
   [c]'s owner submits to it, so the loop ends. *)
let flush c =
  let n = c.staged in
  c.staged <- 0;
  if unexecuted c && take c.eng then begin
    while unexecuted c do
      ignore (drain_pass c.eng ~budget:batch)
    done;
    release c.eng
  end;
  n

let kill eng = if take eng then Atomic.set eng.stopped true

type stats = {
  served : int;
  bytes_copied : int;
  grants_completed : int;
  copy_faults : int;
}

let stats (eng : t) =
  {
    served = Atomic.get eng.served;
    bytes_copied = Atomic.get eng.bytes_copied;
    grants_completed = Atomic.get eng.grants_completed;
    copy_faults = Atomic.get eng.copy_faults;
  }

(* ---- the runtime substrate's region store --------------------------- *)

(* A bounded table of byte regions with atomic owner words: the
   real-domain analogue of the simulator's granted address ranges.
   [exec] interprets descriptors over it:

     bulk_copy   range-check src/dst, then one [Bytes.blit]
     bulk_grant  the submitting client must own [src]; ownership flips
                 to the client named by [dst] and the drainer touches one
                 byte per 4 KiB page — the honest stand-in for the
                 map/remap cost a real ownership transfer pays, so the
                 grant-vs-copy crossover in the bench is not a freebie.

   The table is bounded like every other pool in the runtime:
   exhaustion answers [Errc.retry] (PR5 backpressure taxonomy), never
   unbounded growth. *)
module Buffers = struct
  let page = 4096

  type store = {
    bufs : Bytes.t array;
    owners : int Atomic.t array;
    b_lens : int array;
    n : int Atomic.t;
    mu : Mutex.t;
    mutable touch : int;  (* page-touch sink; defeats dead-code removal *)
  }

  let create () =
    {
      bufs = Array.make max_regions Bytes.empty;
      owners = Array.init max_regions (fun _ -> Atomic.make (-1));
      b_lens = Array.make max_regions 0;
      n = Atomic.make 0;
      mu = Mutex.create ();
      touch = 0;
    }

  let add st ~owner bytes =
    Mutex.lock st.mu;
    let id = Atomic.get st.n in
    if id >= Array.length st.bufs then begin
      Mutex.unlock st.mu;
      Error Errc.retry
    end
    else begin
      st.bufs.(id) <- bytes;
      st.b_lens.(id) <- Bytes.length bytes;
      Atomic.set st.owners.(id) owner;
      Atomic.incr st.n;
      Mutex.unlock st.mu;
      Ok id
    end

  let get st id = st.bufs.(id)
  let owner st id = Atomic.get st.owners.(id)
  let regions st = Atomic.get st.n

  let in_range st id off len =
    id >= 0
    && id < Atomic.get st.n
    && off >= 0 && len >= 0
    && off + len <= st.b_lens.(id)

  let exec st (d : Copy_desc.t) =
    if d.op = Wellknown.bulk_copy then
      if in_range st d.src d.src_off d.len && in_range st d.dst d.dst_off d.len
      then begin
        Bytes.blit st.bufs.(d.src) d.src_off st.bufs.(d.dst) d.dst_off d.len;
        Errc.ok
      end
      else Errc.copy_fault
    else if d.op = Wellknown.bulk_grant then begin
      if not (in_range st d.src 0 0) then Errc.copy_fault
      else if Atomic.get st.owners.(d.src) <> d.client then Errc.copy_fault
      else begin
        (* Touch one byte per page of the region being handed over. *)
        let b = st.bufs.(d.src) and len = st.b_lens.(d.src) in
        let acc = ref 0 in
        let off = ref 0 in
        while !off < len do
          acc := !acc + Char.code (Bytes.unsafe_get b !off);
          off := !off + page
        done;
        st.touch <- st.touch + !acc;
        Atomic.set st.owners.(d.src) d.dst;
        Errc.ok
      end
    end
    else Errc.bad_request
end

(* Convenience: an engine whose descriptors execute over a fresh
   bounded region store. *)
let create_with_buffers () =
  let st = Buffers.create () in
  let eng = create (Buffers.exec st) in
  (eng, st)
