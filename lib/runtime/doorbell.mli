(** The runtime's one wakeup protocol: a waiting flag and a ring count
    in one {!Segment} word, parked on with a futex.  A ringer that finds
    the flag clear pays one atomic fetch-add — no lock, no syscall; one
    that finds it set issues one [FUTEX_WAKE].  No wakeup is lost (see
    the implementation header for the argument).  The shm server parks
    on its segment's doorbell word, each Fastcall shard on a private
    bell. *)

type t

val on_word : Segment.t -> int -> t
(** The bell on word [off] of a segment (the shared segment's
    {!Ipc_intf.Wire_abi.off_doorbell}).  Counters other than {!rings}
    are this value's own. *)

val create : unit -> t
(** A private bell: one word alone on its cache line of a heap
    segment. *)

val ring : t -> unit
(** Producer side: count one ring and wake the parker if it is
    waiting.  Call only {e after} the work item is visible. *)

val wake : t -> unit
(** Wake the parker, if it is waiting, for news that is not a ring
    (kill, shutdown, quiesce): publish the news first. *)

val park : t -> ns:int -> nonempty:(unit -> bool) -> unit
(** Parker side: raise the flag, recheck [nonempty], and wait at most
    [ns] nanoseconds unless it answered [true]; returns once rung or
    woken, or on the timeout.  One parker per bell. *)

val park_bound_ns : int
(** The wait of a parker that nothing else times (a Fastcall shard):
    1 s.  With futexes no wake is lost and the bound only costs
    an idle parker one wakeup per second.  Without them (non-Linux
    builds) a ring cannot wake a parker, which then sees new work only
    when its wait times out. *)

val is_parked : t -> bool
(** The waiting flag is up. *)

val rings : t -> int
(** Every ring since the word was zeroed, read from the word. *)

val wakes : t -> int
(** Futex wakes this value issued to a waiting parker. *)

val parks : t -> int
(** Waits this value entered: parks whose recheck found nothing. *)

val inject_delay : t -> int -> unit
(** Fault injector: make every subsequent {!ring} stall for [n]
    cpu-relax iterations before its fetch-add, widening the park/ring
    race window.  [0] (the default) disables it. *)

(** {1 Protocol steps}

    The atomic steps {!ring}, {!wake} and {!park} compose, exposed so a
    model can interleave them one at a time. *)

val ring_word : t -> int
(** Add one ring (seq_cst fetch-add); returns the prior word, whose
    [doorbell_waiting] bit says whether the parker was waiting. *)

val set_waiting : t -> int
(** Raise the flag by one CAS.  Returns the word with the flag set —
    the value to {!Segment.wait} on — or [-1] if the word moved between
    the read and the CAS. *)

val clear_waiting : t -> bool
(** Take the flag off (CAS loop).  [true] iff this call cleared it: a
    ringer that clears owes the wake. *)

(** {1 Clock and waiting primitives}

    Building blocks for the channel's spin -> yield -> nap wait ladder
    and its deadlines ({!Shm_channel.await}).  All three traffic in
    immediate ints — a wait that completes warm allocates nothing. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds.  Allocation-free. *)

val yield : unit -> unit
(** [sched_yield(2)]: hand the core to another runnable thread (on a
    single-core host, the server domain that owes the reply). *)

val nap_ns : int -> unit
(** [nanosleep(2)] for at most the given nanoseconds, with the domain
    lock released so a sleeper never stalls a stop-the-world section. *)
