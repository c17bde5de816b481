(** Address-space access grants for bulk transfer (Section 4.2).

    The grant table is bounded: {!try_grant} answers [Errc.retry] at the
    cap instead of growing without limit.  {!handoff} consumes a grant
    whole — ownership transfers to the grantee, revoke-on-complete —
    the zero-copy path for large payloads. *)

type access = Read_only | Write_only | Read_write

type grant = {
  grant_id : int;
  owner : Kernel.Program.id;
  grantee : Kernel.Program.id;
  base : int;
  len : int;
  access : access;
}

type t

val create : ?max_grants:int -> unit -> t
(** A grant table holding at most [max_grants] live grants (default
    256). *)

val try_grant :
  t ->
  owner:Kernel.Program.id ->
  grantee:Kernel.Program.id ->
  base:int ->
  len:int ->
  access:access ->
  (int, int) result
(** The grant ID, or [Error Errc.retry] when the table is at its cap. *)

val grant :
  t ->
  owner:Kernel.Program.id ->
  grantee:Kernel.Program.id ->
  base:int ->
  len:int ->
  access:access ->
  int
(** {!try_grant} for callers that treat exhaustion as fatal
    ([Failure]).  Returns the grant ID. *)

val revoke : t -> grant_id:int -> bool

val check :
  t ->
  owner:Kernel.Program.id ->
  grantee:Kernel.Program.id ->
  base:int ->
  len:int ->
  dir:[ `Read | `Write ] ->
  bool

val find : t -> grant_id:int -> grant option

val covering :
  t ->
  owner:Kernel.Program.id ->
  grantee:Kernel.Program.id ->
  base:int ->
  len:int ->
  grant option
(** The grant (if any) under which [grantee] may touch [owner]'s
    range, ignoring direction. *)

val handoff : t -> grant_id:int -> grant option
(** Consume a grant whole: ownership of the range transfers to the
    grantee, and the grant is revoked on completion.  [None] if the
    grant no longer exists. *)

val active_grants : t -> int
val max_grants : t -> int
val revocations : t -> int
val handoffs : t -> int
