(* Module types for the IPC control plane: the contract every
   embodiment of the facility (the cycle-accurate simulator and the
   real-domain runtime) implements.

   Behaviors are expressed over the 8-word register-argument convention
   alone — an [int array] mutated in place, last word carrying the
   return code — so one conformance suite (see {!Conformance}) can
   drive both stacks without knowing anything about simulated CPUs or
   OCaml domains. *)

(** A service behavior: mutates the 8-word argument block in place.
    The embodiment wraps it in its own handler type (adding simulated
    cost charging, frame contexts, ...). *)
type behavior = int array -> unit

(** A portable behavior {e specification}.  The conformance suite used
    to register raw closures, which confined it to embodiments living in
    the registering process; a spec is a value, so it can be serialised
    (two wire words — see {!Wire_abi}) and compiled into a native
    handler on the far side of a process boundary.  Each embodiment owns
    the compilation: the simulator charges simulated cost, the runtime
    wraps a frame context, the shared-memory server builds the handler
    inside the server process. *)
type spec =
  | Stamp of int  (** write the tag into slot 0, return [Errc.ok] *)
  | Add2  (** slot 0 <- slot 0 + slot 1, return [Errc.ok] *)
  | Kill_self_soft of int
      (** soft-kill the entry point this behavior is registered under
          (from inside the running call), then stamp the tag *)
  | Kill_self_hard of int  (** likewise with a hard kill *)
  | Nap_ms of int
      (** hold the call for that many milliseconds, then return
          [Errc.ok] — the "server is busy right now" behavior the
          peer-death scenarios park calls behind *)

(** Compile a spec against an embodiment's own lifecycle hooks.
    [kill_soft]/[kill_hard] must target the entry point the compiled
    handler ends up registered under (the usual shape is a ref cell
    filled in right after registration); [nap_ms] is the embodiment's
    blocking sleep (the simulator charges cost instead of sleeping). *)
let compile ~kill_soft ~kill_hard ~nap_ms (s : spec) : behavior =
 fun a ->
  let rc = Array.length a - 1 in
  match s with
  | Stamp tag ->
      a.(0) <- tag;
      a.(rc) <- Errc.ok
  | Add2 ->
      a.(0) <- a.(0) + a.(1);
      a.(rc) <- Errc.ok
  | Kill_self_soft tag ->
      ignore (kill_soft () : int);
      a.(0) <- tag;
      a.(rc) <- Errc.ok
  | Kill_self_hard tag ->
      ignore (kill_hard () : int);
      a.(0) <- tag;
      a.(rc) <- Errc.ok
  | Nap_ms ms ->
      nap_ms ms;
      a.(rc) <- Errc.ok

(** Naming (Section 4.5.5): bind string names to entry-point IDs at the
    well-known Name Server.  All results are {!Errc} return codes. *)
module type NAMING = sig
  type t
  type principal

  val publish : t -> name:string -> owner:principal -> ep_id:int -> int
  val lookup : t -> name:string -> (int, int) result
  val unpublish : t -> name:string -> owner:principal -> int
  (** Only the publishing owner may unbind ([Errc.denied] otherwise). *)

  val bindings : t -> int
end

(** Entry-point lifecycle management (Sections 4.5.2 and 4.5.6): what
    Frank does in the paper — allocation, the two deallocation
    strategies, and on-line handler exchange. *)
module type CONTROL = sig
  type t
  type handler

  val alloc : t -> handler -> (int, int) result
  val soft_kill : t -> ep_id:int -> int
  (** Stop new calls; the entry point is freed once calls in progress
      have drained.  Never blocks. *)

  val hard_kill : t -> ep_id:int -> int
  (** Also abort calls in progress (the embodiment defines "abort": the
      simulator cancels blocked workers, the runtime turns the completed
      call's return code into [Errc.killed]). *)

  val exchange : t -> ep_id:int -> handler -> int
  (** Same ID, new routine; calls already in progress finish with the
      old one. *)
end

(** Server-side authentication (Section 4.1). *)
module type AUTH = sig
  type t
  type principal

  val grant : t -> principal -> Auth.perm list -> unit
  val revoke : t -> principal -> unit
  val check : t -> principal -> Auth.perm -> bool
end

(** What the functorized conformance suite needs from an embodiment.

    [ep] is an opaque service handle as returned by registration; it
    must detect staleness across deallocation and ID reuse ([call] on a
    stale handle returns an error rather than reaching whatever service
    now owns the ID).  [call_id] is the raw small-integer path a client
    would take after a Name-Server lookup. *)
module type SUBJECT = sig
  type t
  type ep

  val name : string
  (** For failure messages: which embodiment violated the contract. *)

  val setup : unit -> t
  val teardown : t -> unit

  val register : t -> spec -> ep
  (** Register a compiled form of the spec.  Specs rather than closures
      so the subject may live in another OS process (the shared-memory
      embodiment ships the two wire words and compiles server-side). *)

  val id : t -> ep -> int

  val publish : t -> name:string -> ep -> int
  val lookup : t -> name:string -> (int, int) result

  val call : t -> ep -> int array -> int
  (** Call through the handle; [Errc] code on rejection (including
      stale handles), never an exception. *)

  val call_id : t -> id:int -> int array -> int
  (** Call by entry-point ID (what {!id} and {!lookup} answer);
      [Errc.no_entry] when unbound or once its service is freed. *)

  val exchange : t -> ep -> spec -> int
  val soft_kill : t -> ep -> int
  val hard_kill : t -> ep -> int

  val in_flight : t -> ep -> int
  (** Calls currently executing on the entry point (0 when idle or
      freed). *)
end
