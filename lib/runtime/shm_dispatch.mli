(** The Fastcall-backed server side of a shared segment.  Re-exported by
    the library interface as [Shm_channel.fastcall_dispatch]. *)

val fastcall_dispatch :
  ?principal:int -> Fastcall.t -> Control.t -> Shm_channel.dispatch
(** A dispatcher over a Fastcall table and its control plane: versioned
    wire handles and raw-ID calls reach the table, [Wire_abi.ctl_ep]
    carries the management vocabulary (register-by-spec, publish,
    lookup, exchange, kills, in-flight) — everything the cross-process
    conformance subject needs. *)
