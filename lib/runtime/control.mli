(** The runtime's IPC control plane: the Name Server at well-known entry
    point [Ipc_intf.Wellknown.name_server_ep] (0) and the resource
    manager at [Ipc_intf.Wellknown.resource_manager_ep] (1) — the same
    pair the simulator installs as [Naming.Name_server] and [Ppc.Frank],
    over the shared {!Ipc_intf} vocabulary.

    Both are ordinary entry points, so every stub below can run either
    directly on the caller's domain (default) or cross-domain over the
    channel path by passing [~via:(Fastcall.channel_call client)].
    Stubs return {!Ipc_intf.Errc} codes.

    Every [ep] here is a {!Fastcall} handle, the table's one name for an
    entry point: {!alloc_ep} returns one, {!publish} binds a name to it
    and {!lookup} answers it unchanged.  Once its service is killed the
    looked-up handle answers [Errc.no_entry], even after another service
    takes the freed slot.

    Authentication is the control plane's own (Section 4.1: servers
    authenticate callers themselves, by program ID).  The ACL is open
    until the first {!grant}; after that, Name-Server writes require
    [Write] and manager operations require [Admin].  The caller's
    principal travels in argument slot 6. *)

type t

val install : Fastcall.t -> t
(** Register the two well-known services.  Entry points 0 and 1 must
    still be free: install the control plane first thing after
    [Fastcall.create], as the simulator does during boot.
    @raise Invalid_argument otherwise. *)

val table : t -> Fastcall.t

type path = ep:int -> int array -> int
(** How a stub reaches the table: [Fastcall.call table] (the default) or
    [Fastcall.channel_call client]. *)

(** {1 Naming (Section 4.5.5)} *)

val publish : ?via:path -> t -> principal:int -> name:string -> ep:int -> int
(** Bind [name] (hashed client-side, {!Ipc_intf.Name_hash}) to [ep].
    [Errc.bad_request] if the name is already bound. *)

val lookup : ?via:path -> t -> name:string -> (int, int) result
val unpublish : ?via:path -> t -> principal:int -> name:string -> int
(** Only the publishing owner may unbind ([Errc.denied] otherwise). *)

val bindings : t -> int

(** {1 Resource management (Section 4.5.6)}

    The manager answers the four lifecycle operations below.  The two
    pool-sizing operations of [Ipc_intf.Wellknown] are the simulator's
    only: a runtime handler runs on its caller's stack, with no pool to
    size, so the manager answers them [Errc.bad_request]. *)

val stage : t -> Fastcall.handler -> int
(** Stage a handler for a subsequent [alloc_ep]/[exchange] call; the
    token stands in for "the routine's address in the caller's space". *)

val alloc_ep :
  ?via:path -> t -> principal:int -> Fastcall.handler -> (int, int) result
val soft_kill : ?via:path -> t -> principal:int -> ep:int -> int
val hard_kill : ?via:path -> t -> principal:int -> ep:int -> int
val exchange : ?via:path -> t -> principal:int -> ep:int -> Fastcall.handler -> int

(** {1 Authentication (Section 4.1)} *)

val grant : t -> principal:int -> perms:Ipc_intf.Auth.perm list -> unit
val revoke : t -> principal:int -> unit
val check : t -> principal:int -> perm:Ipc_intf.Auth.perm -> bool
