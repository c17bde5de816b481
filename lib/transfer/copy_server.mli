(** The CopyServer: bulk data transfer as normal PPC requests, validated
    against region grants (Section 4.2).  The handler validates grants
    in registers, then moves the bytes (or hands the range over) on the
    calling worker before the PPC returns. *)

val max_bytes_per_call : int
(** Per-call ceiling for CopyTo/CopyFrom; larger requests answer
    [Errc.too_big] (nothing moved — chunk and retry).  CopyGrant
    ([Ipc_intf.Wellknown.op_copy_grant]: consume a covering grant whole,
    ownership of the range transfers to the caller, revoke-on-complete)
    is exempt: no bytes cross. *)

type t

val install : Ppc.t -> t
(** Register the CopyServer as a kernel-level PPC server. *)

val regions : t -> Region.t
(** The grant table callers populate before transferring. *)

val ep_id : t -> int
val bytes_copied : t -> int
val denied : t -> int
val handoffs : t -> int

val copy_to :
  t ->
  Ppc.t ->
  client:Kernel.Process.t ->
  peer:Kernel.Program.id ->
  src:int ->
  dst:int ->
  len:int ->
  int
(** Push [len] bytes from the caller's [src] into the peer's granted
    [dst]; returns the RC. *)

val copy_from :
  t ->
  Ppc.t ->
  client:Kernel.Process.t ->
  peer:Kernel.Program.id ->
  src:int ->
  dst:int ->
  len:int ->
  int

val grant_handoff :
  t ->
  Ppc.t ->
  client:Kernel.Process.t ->
  peer:Kernel.Program.id ->
  base:int ->
  len:int ->
  int
(** Take ownership of the peer's granted range \[[base], [base]+[len])
    without copying; the covering grant is revoked on completion. *)
