(** The runtime substrate's copy service: a bounded table of byte
    regions with atomic owner words, served as one
    {!Runtime.Fastcall} handler.  A copy or a grant is one
    [Fastcall.call] on the handle [Fastcall.register fast (handler
    store)] returns, so it runs on its caller's domain like every other
    PPC, and killing the service is [Fastcall.hard_kill] or
    [soft_kill] on that handle.

    The argument table (the 8 register words):
{v
      a0  op       Ipc_intf.Wellknown.bulk_copy | bulk_grant
      a1  src      source region id
      a2  src_off  byte offset into the source
      a3  dst      destination region id (a grant: the new owner id)
      a4  dst_off  byte offset into the destination
      a5  len      bytes to move (a grant ignores it)
      a6  caller   the caller's owner id (a grant's ownership check)
      a7  rc       the Ipc_intf.Errc code, written on every path
v} *)

type store

val page : int
(** 4096: a grant touches one byte per page of the region it hands
    over. *)

val create : unit -> store

val add : store -> owner:int -> Bytes.t -> (int, int) result
(** Register a region; [Error Errc.retry] once the table holds its 64
    regions (bounded-pool backpressure, never unbounded growth). *)

val get : store -> int -> Bytes.t
val owner : store -> int -> int
val regions : store -> int

val handler : store -> Runtime.Fastcall.handler
(** [bulk_copy]: range-checked [Bytes.blit].  [bulk_grant]: touches one
    byte per page of [src] (the stand-in for real map/remap cost), then
    flips its owner from [caller] to [dst] with one
    [Atomic.compare_and_set], so of two racing grants of one region
    exactly one wins.  A bad range, or a [src] that [caller] does not
    own, answers [Errc.copy_fault]; an unknown op [Errc.bad_request]. *)
