(* The runtime substrate's copy service (the host half of the "Bulk
   data plane", ARCHITECTURE.md §11).

   "CopyTo and CopyFrom are normal PPC requests made to the
   CopyServer": a copy or a grant is one Fastcall call whose 8
   argument words name where the bytes live (see the .mli's table), and
   [handler] executes it on the caller's domain.  Fastcall supplies the
   rest — admission, kill (hard or soft), and containment of a raise as
   [Errc.handler_fault].

   The store is a bounded table of byte regions with atomic owner
   words: the real-domain analogue of the simulator's granted address
   ranges.

     bulk_copy   range-check src/dst, then one [Bytes.blit]
     bulk_grant  touch one byte per 4 KiB page of [src] — the honest
                 stand-in for the map/remap cost a real ownership
                 transfer pays, so the grant-vs-copy crossover in the
                 bench is not a freebie — then flip its owner from the
                 caller to [dst] by CAS: calls run concurrently on
                 their callers' domains, so the owner check and the
                 flip must be one step.

   The table is bounded like every other pool in the runtime:
   exhaustion answers [Errc.retry], never unbounded growth. *)

module Errc = Ipc_intf.Errc
module Wellknown = Ipc_intf.Wellknown

let page = 4096
let max_regions = 64

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

let grant st ~src ~dst ~caller =
  if not (in_range st src 0 0) then Errc.copy_fault
  else begin
    (* Touch one byte per page of the region being handed over. *)
    let b = st.bufs.(src) and len = st.b_lens.(src) in
    let acc = ref 0 in
    let off = ref 0 in
    while !off < len do
      acc := !acc + Char.code (Bytes.unsafe_get b !off);
      off := !off + page
    done;
    st.touch <- st.touch + !acc;
    if Atomic.compare_and_set st.owners.(src) caller dst then Errc.ok
    else Errc.copy_fault
  end

let exec st args =
  let op = args.(0) and src = args.(1) and src_off = args.(2) in
  let dst = args.(3) and dst_off = args.(4) and len = args.(5) in
  if op = Wellknown.bulk_copy then
    if in_range st src src_off len && in_range st dst dst_off len then begin
      Bytes.blit st.bufs.(src) src_off st.bufs.(dst) dst_off len;
      Errc.ok
    end
    else Errc.copy_fault
  else if op = Wellknown.bulk_grant then grant st ~src ~dst ~caller:args.(6)
  else Errc.bad_request

let handler st : Runtime.Fastcall.handler =
 fun _ args -> args.(Runtime.Fastcall.arg_words - 1) <- exec st args
