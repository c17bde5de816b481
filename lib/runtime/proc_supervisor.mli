(** A process supervisor for the shm server: fork it over a segment
    file, detect its death by waitpid, regenerate the segment in place
    (next generation — surviving clients fail closed with
    [Errc.stale_generation] and reattach) and fork a replacement.

    {b Fork safety:} the supervising process must be single-domain
    when [start] (and every respawn inside {!check}) runs — forking a
    multi-domain OCaml runtime wedges the child's GC.  The supervisor
    is poll-driven for exactly that reason: drive {!check} from your
    loop, and drive it {e promptly} — it is also the reaper, and a
    SIGKILLed child stays an alive-looking zombie to the client's
    liveness probe until it is reaped. *)

type t

type status =
  | Running  (** the child is alive *)
  | Respawned
      (** the child was found dead; the segment was regenerated and a
          replacement forked *)
  | Exited of Unix.process_status
      (** the child exited while disarmed (or was already reaped) *)

val start : path:string -> ?capacity:int -> server:(unit -> int) -> unit -> t
(** Create and lay out the segment file, then fork the first child.
    The child runs [server] (attach the segment, serve) and exits with
    its return value; an escaping exception exits 120. *)

val check : t -> status
(** One poll: reap a dead child and — while armed — regenerate the
    segment and respawn.  Cheap when the child is alive (one
    [waitpid(WNOHANG)]). *)

val kill9 : t -> unit
(** SIGKILL the current child (the chaos injector).  The death is
    observed — and the replacement forked — by the next {!check}. *)

val disarm : t -> unit
(** Stop respawning: the next death is reported as [Exited]. *)

val wait_exit : ?timeout_ns:int -> t -> Unix.process_status option
(** {!disarm}, then wait (default bound 10 s) for the current child to
    exit cleanly; [None] on timeout with the child still running. *)

val pid : t -> int
(** The current child's pid; 0 after a disarmed exit. *)

val respawns : t -> int
(** Deaths healed so far — the chaos harness reconciles this against
    the kills it injected. *)
