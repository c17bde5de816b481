(* Library interface: the PPC design principles on real OCaml 5
   multicore — a lock-free service table and one cell-and-ring channel
   protocol ([Shm_channel] over a [Segment]) that carries both
   Fastcall's cross-domain channel servers and cross-process calls.
   Only shipping code lives here; the baselines they are measured
   against (the legacy MPSC path, the mutex-guarded registry) are in
   [lib/baseline]. *)

module Padded_atomic = Padded_atomic
module Doorbell = Doorbell
module Backoff = Backoff
module Fastcall = Fastcall
module Segment = Segment

(* Fastcall runs on Shm_channel, so the Fastcall-backed dispatcher is
   defined after both (Shm_dispatch) and re-exported here under the
   channel it serves. *)
module Shm_channel = struct
  include Shm_channel

  let fastcall_dispatch = Shm_dispatch.fastcall_dispatch
end

module Shm_session = Shm_session
module Proc_supervisor = Proc_supervisor
module Control = Control
module Striped_counter = Striped_counter
