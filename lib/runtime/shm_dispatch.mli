(** The Fastcall-backed server side of a shared segment.  Re-exported by
    the library interface as [Shm_channel.fastcall_dispatch]. *)

val fastcall_dispatch :
  ?principal:int -> Fastcall.t -> Control.t -> Shm_channel.dispatch
(** A dispatcher over a Fastcall table and its control plane: a handle
    word and a raw-call word both decode to the same Fastcall handle and
    reach the table, [Wire_abi.ctl_ep] carries the management vocabulary
    (register-by-spec, publish, lookup, exchange, kills, in-flight) —
    everything the cross-process conformance subject needs.  The ctl
    plane publishes and looks up full handles, so a looked-up name whose
    service was killed answers [Errc.no_entry].  Management ops run
    through {!Control} as [principal] (default 7) and answer
    [Errc.denied] where its ACL says so; a data call naming Control's
    own slots 0 and 1 answers [Errc.denied] unrun. *)
