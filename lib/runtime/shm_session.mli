(** A reconnecting client over a {!Shm_channel} segment file: the
    client half of cross-process session recovery.

    {!Shm_channel} fails closed once its peer dies
    ([Ipc_intf.Errc.peer_dead]) or the segment is regenerated
    underneath it ([Errc.stale_generation]); this module owns the
    recovery policy above that line.  Bindings carry the entry point's
    {e name and behavior spec}, so after a server restart the session
    reattaches through the header-first remap path (refusing the
    generation it fled), re-resolves every binding through the ctl
    plane (lookup, or register + publish against a fresh registry),
    and retries the interrupted call — backing off under
    {!Runtime.Backoff} on transient backpressure.  Both recovery
    budgets are bounded and exhaustion answers [Errc.retry]: callers
    never hang, and never see a transport-level death code.

    Delivery for a call interrupted by a server death is
    at-least-once: the dead server may have executed it before the
    sweep failed it.  Route only idempotent behaviors through a
    session, or dedup above it. *)

type t

type binding
(** A named entry point this session keeps resolved across server
    incarnations. *)

val connect :
  ?probe_window_ns:int -> ?on_reattach:(unit -> unit) -> path:string -> unit -> t
(** Attach to the segment file at [path] as its client, waiting (at
    most 5 s) for a laid-out segment with a ready server — and for the
    previous client's session to be released, when the slot is still
    held.  One call spends at most 8 channel rebuilds and 64 backoff
    rounds.  [on_reattach] fires once per {e successful} reattach — exactly
    once per regeneration this session healed, so the chaos harness
    can mirror it into its ledger and reconcile it against injected
    deaths.  [probe_window_ns] passes through to
    {!Shm_channel.attach}.
    @raise Shm_channel.Bad_segment if nothing serviceable appears in
    time. *)

val bind : t -> name:string -> spec:Ipc_intf.Sigs.spec -> binding
(** Declare (idempotently, by name) an entry point the session keeps
    resolved: looked up by [name] when the server already serves it,
    registered from [spec] and published under [name] when it does
    not.  Resolution failures here are retried by the next {!call}.
    @raise Invalid_argument if [name] cannot ride the wire. *)

val call : ?deadline:int -> t -> binding -> int array -> int
(** One call under the full recovery policy: returns the RC slot, with
    server death / regeneration healed by reattach + re-resolve +
    retry, and backpressure backed off — or [Errc.retry] when a
    bounded budget runs out.  [deadline] (absolute CLOCK_MONOTONIC ns)
    surfaces [Errc.timed_out] exactly like {!Shm_channel.await}.
    Genuine handler faults (server alive) surface as
    [Errc.handler_fault]. *)

val close : t -> unit
(** Announce clean shutdown to the server (its session loop exits) and
    forget the channel. *)

val reattaches : t -> int
(** Successful or attempted channel rebuilds over this session's
    lifetime. *)

val retried : t -> int
(** Calls that went through at least one death-triggered retry. *)

val generation : t -> int
(** The segment generation of the current attachment. *)

val channel : t -> Shm_channel.t option
(** The live transport, for observability; [None] between a recovery
    code and the reattach that heals it. *)
