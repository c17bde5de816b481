(** Deterministic fault scenarios for the real-domain runtime — the
    companion of {!Fault}'s simulator plans.  Each named scenario builds
    a live Fastcall table / channel server, injects one fault class
    (raise-in-handler, breaker-trip, kill-shard, stall-reply,
    delay-doorbell, backpressure, kill-copy-service) through the
    runtime's own injectors, and self-checks the containment contract.
    An empty [violations] list means the contract held. *)

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

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val names : string list
(** Scenario names, runnable by {!run} and the [ppc_sim faults
    --runtime] CLI. *)

val run : string -> report option
(** Run one scenario by name; [None] for an unknown name. *)

val run_all : unit -> report list
