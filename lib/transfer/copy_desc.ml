(* The fixed-width copy descriptor: the bulk-data analogue of the
   paper's 8-register argument block.

   Control-plane PPCs carry their whole payload in eight registers;
   bulk data instead rides a descriptor naming where the bytes live.
   A descriptor is eight words, mirroring the register convention:

     word 0  op        bulk_copy | bulk_grant (Ipc_intf.Wellknown)
     word 1  src       source region id (engine-defined namespace)
     word 2  src_off   byte offset into the source
     word 3  dst       destination region id (or, for a grant, the
                       receiving client id)
     word 4  dst_off   byte offset into the destination
     word 5  len       bytes to move (a grant moves ownership, not
                       bytes; len records the region length)
     word 6  tag       caller's completion cookie, echoed on reap
     word 7  rc        completion status (Ipc_intf.Errc), the analogue
                       of the register block's RC slot

   Descriptors are preallocated in a per-client slab that is the
   client's ring (see Copy_engine), so they are reused FIFO, one lap at
   a time, and the submit->reap warm path never allocates.  [client]
   and [state] are engine bookkeeping, not part of the eight-word wire
   shape. *)

(* Lifecycle states, stored in [state] after the plain fields they
   publish: the client stores Submitted after filling the descriptor,
   the engine ticket's holder Completed after writing [rc], and the
   client Free when it reaps the descriptor or fails it in the
   post-death sweep. *)
let st_free = 0
let st_submitted = 1
let st_completed = 2

type t = {
  index : int;  (** slot in the owning client's slab *)
  mutable op : int;
  mutable src : int;
  mutable src_off : int;
  mutable dst : int;
  mutable dst_off : int;
  mutable len : int;
  mutable tag : int;
  mutable rc : int;
  mutable client : int;  (** submitting client id (ownership checks) *)
  state : int Atomic.t;
}

let make ~index =
  {
    index;
    op = 0;
    src = 0;
    src_off = 0;
    dst = 0;
    dst_off = 0;
    len = 0;
    tag = 0;
    rc = 0;
    client = -1;
    state = Atomic.make st_free;
  }

let words = 8

let pp ppf d =
  Fmt.pf ppf "desc[%d] op=%d src=%d+%d dst=%d+%d len=%d tag=%d rc=%d" d.index
    d.op d.src d.src_off d.dst d.dst_off d.len d.tag d.rc
