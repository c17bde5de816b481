(* The CopyServer (paper Section 4.2): bulk transfer as ordinary PPCs.

   "The actual transfer of data is done by a separate CopyTo or CopyFrom
   request.  CopyTo and CopyFrom are normal PPC requests made to the
   CopyServer."

   The handler validates the caller's grant (control plane, in
   registers), then executes the transfer on the calling worker with
   [sim_exec], which charges it as real cached memory traffic on the
   worker's CPU.  The host runtime's copy service ({!Buffers}) has the
   same shape: one PPC per copy or grant, run on its caller.

   Register slots (CopyTo/CopyFrom):

     0: grant owner's program id (the peer for CopyFrom, self for CopyTo)
     1: source address    2: destination address    3: length in bytes

   CopyGrant (the zero-copy path) consumes a covering grant whole:
   ownership of the range is handed to the caller and the grant is
   revoked on completion.  Slots: 0 = owner's program id, 1 = range
   base, 3 = length; no bytes cross — [sim_exec] charges one page-walk
   per 4 KiB, the stand-in for real map/remap cost. *)

module Errc = Ipc_intf.Errc
module Wellknown = Ipc_intf.Wellknown

type t = {
  regions : Region.t;
  mutable ep_id : int;
  mutable bytes_copied : int;
  mutable denied : int;
}

let regions t = t.regions
let ep_id t = t.ep_id
let bytes_copied t = t.bytes_copied
let denied t = t.denied
let handoffs t = Region.handoffs t.regions

(* The copy loop: realistic cached word-at-a-time traffic, bounded per
   call so a single transfer cannot monopolise a processor for ever.
   Oversized requests answer [Errc.too_big] — callers chunk. *)
let max_bytes_per_call = 64 * 1024

let do_copy cpu ~src ~dst ~len =
  let words = (len + 3) / 4 in
  for i = 0 to words - 1 do
    Machine.Cpu.load cpu (src + (4 * i));
    Machine.Cpu.store cpu (dst + (4 * i))
  done

(* Simulated cost of consuming a grant: revoking the grant and moving
   the pages between address spaces costs a table walk, the remap, and
   a TLB shootdown across processors — thousands of cycles of fixed
   overhead — plus a page-map update per 4 KiB.  Cheap per byte, so
   the handoff wins for large payloads; the heavy fixed part keeps it
   honest for small ones. *)
let grant_fixed_instrs = 5000
let grant_page_instrs = 24

(* Setting a bulk transfer up is not free either (on hardware: a DMA
   descriptor write, a doorbell, a completion reap).  This fixed charge
   is why tiny payloads stay in the registers — the classic crossover
   the sweep locates. *)
let dma_setup_instrs = 250

(* One transfer on the sim substrate, on the worker running the PPC
   whose transfer this is: its costs land on that worker's CPU. *)
let sim_exec t (ctx : Ppc.Call_ctx.t) ~op ~src ~dst ~len =
  let cpu = ctx.Ppc.Call_ctx.cpu in
  if op = Wellknown.bulk_copy then begin
    Machine.Cpu.instr ~code:ctx.Ppc.Call_ctx.server_code cpu dma_setup_instrs;
    do_copy cpu ~src ~dst ~len;
    Errc.ok
  end
  else if op = Wellknown.bulk_grant then begin
    match Region.handoff t.regions ~grant_id:src with
    | None -> Errc.copy_fault
    | Some g ->
        let pages = (g.Region.len + 4095) / 4096 in
        Machine.Cpu.instr ~code:ctx.Ppc.Call_ctx.server_code cpu
          (grant_fixed_instrs + (grant_page_instrs * pages));
        Errc.ok
  end
  else Errc.bad_request

let handler t : Ppc.Call_ctx.handler =
 fun ctx args ->
  let open Ppc in
  Machine.Cpu.instr ~code:ctx.Call_ctx.server_code ctx.Call_ctx.cpu 40;
  Null_server.touch_stack ctx ~words:6;
  let peer = Reg_args.get args 0 in
  let src = Reg_args.get args 1 in
  let dst = Reg_args.get args 2 in
  let len = Reg_args.get args 3 in
  let op = Reg_args.op args in
  let caller = ctx.Call_ctx.caller_program in
  if op = Wellknown.op_copy_grant then begin
    (* Zero-copy: hand the covering grant's range over whole.  The
       length is unbounded — nothing is copied. *)
    if len <= 0 then Reg_args.set_rc args Reg_args.err_bad_request
    else
      match Region.covering t.regions ~owner:peer ~grantee:caller ~base:src ~len with
      | None ->
          t.denied <- t.denied + 1;
          Reg_args.set_rc args Reg_args.err_denied
      | Some g ->
          let rc =
            sim_exec t ctx ~op:Wellknown.bulk_grant ~src:g.Region.grant_id
              ~dst:caller ~len:g.Region.len
          in
          if rc = Errc.ok then Reg_args.set args 0 g.Region.len;
          Reg_args.set_rc args rc
  end
  else if len <= 0 then Reg_args.set_rc args Reg_args.err_bad_request
  else if len > max_bytes_per_call then begin
    (* Distinct wire code: the caller's request was well-formed but too
       large for one call — chunk and retry, nothing was moved. *)
    Reg_args.set_rc args Reg_args.err_too_big
  end
  else begin
    (* CopyTo writes into the peer's granted range; CopyFrom reads from
       it.  The caller's own range needs no grant. *)
    let permitted =
      if op = Wellknown.op_copy_to then
        Region.check t.regions ~owner:peer ~grantee:caller ~base:dst ~len
          ~dir:`Write
      else if op = Wellknown.op_copy_from then
        Region.check t.regions ~owner:peer ~grantee:caller ~base:src ~len
          ~dir:`Read
      else false
    in
    if not permitted then begin
      t.denied <- t.denied + 1;
      Reg_args.set_rc args Reg_args.err_denied
    end
    else begin
      let rc = sim_exec t ctx ~op:Wellknown.bulk_copy ~src ~dst ~len in
      if rc = Errc.ok then begin
        t.bytes_copied <- t.bytes_copied + len;
        Reg_args.set args 0 len
      end;
      Reg_args.set_rc args rc
    end
  end

let install ppc =
  let t =
    { regions = Region.create (); ep_id = -1; bytes_copied = 0; denied = 0 }
  in
  let server = Ppc.make_kernel_server ppc ~name:"copy-server" () in
  let ep = Ppc.register_direct ppc ~server ~handler:(handler t) in
  t.ep_id <- Ppc.Entry_point.id ep;
  t

(* Client-side stubs. *)

let copy_call t ppc ~client ~op ~peer ~src ~dst ~len =
  let open Ppc in
  let args = Reg_args.make () in
  Reg_args.set args 0 peer;
  Reg_args.set args 1 src;
  Reg_args.set args 2 dst;
  Reg_args.set args 3 len;
  Reg_args.set_op args ~op ~flags:0;
  Ppc.call ppc ~client ~opflags:(Reg_args.op_flags ~op ~flags:0) ~ep_id:t.ep_id
    args

let copy_to t ppc ~client ~peer ~src ~dst ~len =
  copy_call t ppc ~client ~op:Wellknown.op_copy_to ~peer ~src ~dst ~len

let copy_from t ppc ~client ~peer ~src ~dst ~len =
  copy_call t ppc ~client ~op:Wellknown.op_copy_from ~peer ~src ~dst ~len

let grant_handoff t ppc ~client ~peer ~base ~len =
  copy_call t ppc ~client ~op:Wellknown.op_copy_grant ~peer ~src:base ~dst:0 ~len
