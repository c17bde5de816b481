(** Server wakeup protocol: a SPINNING/PARKED state machine in one
    atomic word.  Producers that find the bell SPINNING pay one atomic
    load — no lock; the backing mutex/condvar are touched only when the
    server is actually asleep.  The park path is lost-wakeup-free (see
    the implementation header for the interleaving argument). *)

type t

val create : unit -> t

val ring : t -> unit
(** Producer side.  Call only {e after} the work item is visible to the
    consumer. *)

val park : t -> nonempty:(unit -> bool) -> unit
(** Server side.  Publishes PARKED, rechecks [nonempty] under the mutex,
    and sleeps only if it returns [false].  Returns once rung. *)

val wake : t -> unit
(** Unconditional wake (shutdown). *)

val is_parked : t -> bool

val rings : t -> int
(** Rings that took the lock-free fast path. *)

val wakes : t -> int
(** Rings that had to lock and signal a parked server. *)

val parks : t -> int
(** Times the server actually slept. *)

val inject_delay : t -> int -> unit
(** Fault injector: make every subsequent {!ring} stall for [n]
    cpu-relax iterations before reading the bell state, widening the
    park/ring race window.  [0] (the default) disables it. *)

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
