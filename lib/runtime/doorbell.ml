(* The server wakeup protocol: a two-state (SPINNING / PARKED) machine
   in one atomic word, backed by a mutex/condvar that is only touched
   when the server is actually asleep.

   The paper's hand-off discipline keeps the common case free of shared
   synchronisation; this is the same idea applied to notification.  A
   producer that finds the bell in SPINNING state pays one atomic load —
   no lock, no syscall.  The mutex and condvar exist solely for the
   PARKED case, and the park path is lost-wakeup-free because both the
   final "is there work?" recheck and the condvar wait happen under the
   mutex, while ringers flip the state back to SPINNING under that same
   mutex before signalling:

     server:  state := PARKED;  lock;  recheck work;  wait;  unlock
     ringer:  publish work;  if state = PARKED then
                lock;  state := SPINNING;  signal;  unlock

   If the ringer publishes work before the server's recheck, the server
   sees it and never sleeps.  If the ringer publishes after, it must
   have read state = PARKED (the server stored it first), so it takes
   the slow path; the mutex then serialises it against the wait. *)

let spinning = 0
let parked = 1

(* Every atomic is padded ({!Padded_atomic}): ringers on other domains
   bump [rings] while the server reads [state]. *)
type t = {
  state : int Atomic.t;
  mutex : Mutex.t;
  cond : Condition.t;
  rings : int Atomic.t;  (** ring calls that found the bell SPINNING *)
  wakes : int Atomic.t;  (** ring calls that had to lock and signal *)
  parks : int Atomic.t;  (** times the server actually went to sleep *)
  delay : int Atomic.t;
      (** fault injector: cpu_relax iterations inserted between a ring's
          publish and its state read, widening the park/ring race window *)
}

let create () =
  {
    state = Padded_atomic.make spinning;
    mutex = Mutex.create ();
    cond = Condition.create ();
    rings = Padded_atomic.make 0;
    wakes = Padded_atomic.make 0;
    parks = Padded_atomic.make 0;
    delay = Padded_atomic.make 0;
  }

let inject_delay t n = Atomic.set t.delay (max 0 n)

let rec stall n = if n > 0 then (Domain.cpu_relax (); stall (n - 1))

(* Producer side.  Call only after the work item is visible (e.g. after
   the ring-buffer push).  Warm path: two atomic loads + one atomic
   increment, no lock. *)
let ring t =
  (let d = Atomic.get t.delay in
   if d > 0 then stall d);
  if Atomic.get t.state = parked then begin
    Mutex.lock t.mutex;
    Atomic.set t.state spinning;
    Condition.signal t.cond;
    Mutex.unlock t.mutex;
    Atomic.incr t.wakes
  end
  else Atomic.incr t.rings

(* Server side.  [nonempty] is the "is there work?" recheck; it runs
   under the mutex.  Returns once rung (or immediately, if work arrived
   during the publish window). *)
let park t ~nonempty =
  Atomic.set t.state parked;
  Mutex.lock t.mutex;
  if nonempty () then Atomic.set t.state spinning
  else begin
    Atomic.incr t.parks;
    while Atomic.get t.state = parked do
      Condition.wait t.cond t.mutex
    done
  end;
  Mutex.unlock t.mutex

(* Unconditional wake, for shutdown. *)
let wake t =
  Mutex.lock t.mutex;
  Atomic.set t.state spinning;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let is_parked t = Atomic.get t.state = parked
let rings t = Atomic.get t.rings
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
