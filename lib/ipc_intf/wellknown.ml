(* Well-known entry points and operation codes, shared by both stacks.

   The paper's discipline (Sections 4.5.5-4.5.6): the Name Server lives
   at a well-known entry point, and PPC resources are managed by calls
   to Frank, who also has a well-known service ID.  Operations travel in
   the high half of the last argument word (see {!Opfield}). *)

let name_server_ep = 0
let resource_manager_ep = 1

(* Name Server operations (Section 4.5.5). *)
let op_register = 1
let op_lookup = 2
let op_unregister = 3

(* Resource-manager operations (Sections 4.5.2 and 4.5.6).  The last
   two are management conveniences only the simulator implements; the
   runtime manager answers them with [Errc.bad_request]. *)
let op_alloc_ep = 1
let op_soft_kill = 2
let op_hard_kill = 3
let op_exchange = 4
let op_grow_pool = 5
let op_reclaim = 6

(* CopyServer operations (Section 4.2).  [op_copy_to]/[op_copy_from] move bytes under a region
   grant; [op_copy_grant] skips the copy entirely — ownership of the
   granted range is handed to the grantee and the grant is revoked on
   completion (zero-copy handoff for large payloads). *)
let op_copy_to = 1
let op_copy_from = 2
let op_copy_grant = 3

(* Bulk-transfer operation codes: argument word 0 of a call to the host
   copy service ([Transfer.Buffers]), and the step the simulated
   CopyServer executes for each of its own operations. *)
let bulk_copy = 1
let bulk_grant = 2
