(* The runtime's one wakeup protocol: a SPINNING/PARKED machine in one
   Segment word, with the parker's waiting flag in bit 0 and the ring
   count above it (Wire_abi.doorbell_waiting and doorbell_step), parked
   on with a shared futex.

   The paper's hand-off discipline keeps the common case free of shared
   synchronisation; this is the same idea applied to notification.  A
   ringer that finds the flag clear pays one fetch-add — no lock, no
   syscall — and a parked peer costs exactly one FUTEX_WAKE, the one
   kernel wakeup per message that pipes and sockets pay.  A futex, unlike
   a condvar, can be shared by processes, so the same word serves the
   shm server (its segment's doorbell word, Shm_channel) and each
   Fastcall shard (a private bell each):

     parker:  v := word;  CAS v -> v|1;  recheck for news;
              futex_wait(word, v|1, ns);  CAS the flag off
     ringer:  publish work;  prev := fetch_add(word, 2);
              if prev has the flag:  CAS the flag off;
                                     if that CAS won, futex_wake(word)

   No wakeup is lost, because each side does a seq_cst RMW on the word
   before its recheck, and RMWs on one word are totally ordered.  If
   the ring comes first, the parker's CAS reads the ring's write, so it
   also sees the work published before it and the recheck finds it.  If
   the flag comes first, the ring's fetch-add returns it set and the
   ringer wakes the parker.  The ring also moved the low 32 bits the
   futex compares, so a parker that has not yet entered its wait
   returns from it at once, and one already asleep gets the wake.  Each
   set flag is cleared exactly once, by whichever CAS wins, and only a
   ringer whose CAS won issues the wake — a parker that cleared it first
   has seen the work or timed out.  News that is not a ring (a kill, a
   shutdown, a quiesce) is published the same way with a fetch-add of 0
   as its RMW ([wake]), and the parker's recheck covers it.

   The wait is timed.  The shm server times it by its nap schedule, so
   its liveness probe step and staleness check run as often as they
   would if it napped; a Fastcall shard waits at most
   [park_bound_ns].  Without Linux futexes the wait sleeps out its
   timeout and a wake is a no-op, so there the timeout is what ends
   every park. *)

module W = Ipc_intf.Wire_abi

(* The counters are padded ({!Padded_atomic}): ringers on other domains
   bump [wakes] while the parker counts [parks]. *)
type t = {
  seg : Segment.t;
  off : int;
  wakes : int Atomic.t;  (** futex wakes issued to a waiting parker *)
  parks : int Atomic.t;  (** waits entered *)
  delay : int Atomic.t;
      (** fault injector: cpu_relax iterations inserted before a ring's
          fetch-add, widening the park/ring race window *)
}

let on_word seg off =
  {
    seg;
    off;
    wakes = Padded_atomic.make 0;
    parks = Padded_atomic.make 0;
    delay = Padded_atomic.make 0;
  }

(* Word 8 of 16: a cache line holding it holds no other live word. *)
let create () = on_word (Segment.create_heap ~words:16) 8

let park_bound_ns = 1_000_000_000

(* --- the steps (the protocol is in the header) ---------------------------- *)

let ring_word t = Segment.fetch_add t.seg t.off W.doorbell_step

let set_waiting t =
  let v = Segment.get t.seg t.off in
  let w = v lor W.doorbell_waiting in
  if Segment.cas t.seg t.off ~expected:v ~desired:w then w else -1

let rec clear_waiting t =
  let v = Segment.get t.seg t.off in
  v land W.doorbell_waiting <> 0
  && (Segment.cas t.seg t.off ~expected:v
        ~desired:(v land lnot W.doorbell_waiting)
     || clear_waiting t)

(* A ring or a wake found the flag: take it off and wake the parker,
   unless the parker took it off first (its recheck saw the news, or
   its wait ended), in which case nobody is asleep.  Kept out of line so
   a ring that finds the parker awake costs one bit test. *)
let[@inline never] wake_parker t =
  if clear_waiting t then begin
    Segment.wake t.seg t.off;
    Atomic.incr t.wakes
  end

let rec stall n = if n > 0 then (Domain.cpu_relax (); stall (n - 1))

let ring t =
  (let d = Atomic.get t.delay in
   if d > 0 then stall d);
  if ring_word t land W.doorbell_waiting <> 0 then wake_parker t

let wake t =
  if Segment.fetch_add t.seg t.off 0 land W.doorbell_waiting <> 0 then
    wake_parker t

(* A flag CAS that loses to a ring skips the wait: the caller finds the
   work on its next pass. *)
let park t ~ns ~nonempty =
  let v = set_waiting t in
  if v >= 0 then begin
    if not (nonempty ()) then begin
      Atomic.incr t.parks;
      Segment.wait t.seg t.off ~expected:v ~ns
    end;
    ignore (clear_waiting t : bool)
  end

let inject_delay t n = Atomic.set t.delay (max 0 n)
let is_parked t = Segment.get t.seg t.off land W.doorbell_waiting <> 0
let rings t = W.doorbell_rings (Segment.get t.seg t.off)
let wakes t = Atomic.get t.wakes
let parks t = Atomic.get t.parks

(* --- clock and waiting primitives ----------------------------------------

   The channel's spin -> yield -> nap wait ladder (Shm_channel.await)
   needs a boxing-free monotonic clock, a yield and a timed sleep, none
   of which the stdlib offers allocation-free — so they are three C
   stubs (see runtime_stubs.c).  Everything here is an immediate int: a
   wait that completes warm allocates nothing. *)

external now_ns : unit -> int = "ppc_runtime_now_ns" [@@noalloc]
external yield : unit -> unit = "ppc_runtime_yield" [@@noalloc]
external nap_ns : int -> unit = "ppc_runtime_nap_ns"
