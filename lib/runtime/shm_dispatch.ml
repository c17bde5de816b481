(* A dispatcher over a Fastcall table + control plane: the thing that
   makes a shared segment a full IPC endpoint.  Decodes the cell's
   entry-point word (control plane, or a Fastcall handle in either of
   its two encodings: the handle word itself or a raw-call word) and
   speaks the Wire_abi management vocabulary — registration ships
   behavior *specs* (two words) that are compiled against this very
   table, so self-killing behaviors target the entry point they were
   registered under, exactly like the in-process subjects.  Management
   ops run through Control as the dispatcher's principal, so its ACL
   binds the wire too; a data call may not name Control's own slots,
   whose handlers trust the principal the client wrote in slot 6.

   It lives beside Shm_channel rather than in it because Fastcall's
   channel servers run on Shm_channel, so Shm_channel cannot depend on
   Fastcall.  The library interface re-exports it as
   [Shm_channel.fastcall_dispatch]. *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Wk = Ipc_intf.Wellknown

let fastcall_dispatch ?(principal = 7) fast ctl : Shm_channel.dispatch =
  let nap_ms ms = Doorbell.nap_ns (ms * 1_000_000) in
  let compile ~self spec =
    let kill k () =
      match !self with Some ep -> k ep | None -> Errc.no_entry
    in
    let b =
      Ipc_intf.Sigs.compile
        ~kill_soft:(kill (fun ep -> Fastcall.soft_kill fast ~ep))
        ~kill_hard:(kill (fun ep -> Fastcall.hard_kill fast ~ep))
        ~nap_ms spec
    in
    fun (_ : Fastcall.ctx) args -> b args
  in
  fun ~ep_word args ->
    let rc_slot = Array.length args - 1 in
    if ep_word = W.ctl_ep then begin
      let ret rc =
        args.(rc_slot) <- rc;
        rc
      in
      let op = args.(0) in
      if op = W.ctl_register then (
        match W.spec_of_wire ~code:args.(1) ~param:args.(2) with
        | None -> ret Errc.bad_request
        | Some spec -> (
            let self = ref None in
            match Control.alloc_ep ctl ~principal (compile ~self spec) with
            | Ok ep ->
                self := Some ep;
                args.(0) <- ep;
                ret Errc.ok
            | Error rc -> ret rc))
      else if op = W.ctl_publish then
        let name = W.unpack_name (args.(2), args.(3)) in
        ret (Control.publish ctl ~principal ~name ~ep:args.(1))
      else if op = W.ctl_lookup then (
        match Control.lookup ctl ~name:(W.unpack_name (args.(1), args.(2))) with
        | Ok id ->
            args.(0) <- id;
            ret Errc.ok
        | Error rc -> ret rc)
      else if op = W.ctl_exchange then (
        match W.spec_of_wire ~code:args.(2) ~param:args.(3) with
        | None -> ret Errc.bad_request
        | Some spec ->
            let ep = args.(1) in
            ret
              (Control.exchange ctl ~principal ~ep
                 (compile ~self:(ref (Some ep)) spec)))
      else if op = W.ctl_soft_kill then
        ret (Control.soft_kill ctl ~principal ~ep:args.(1))
      else if op = W.ctl_hard_kill then
        ret (Control.hard_kill ctl ~principal ~ep:args.(1))
      else if op = W.ctl_in_flight then begin
        args.(0) <- Fastcall.in_flight fast ~ep:args.(1);
        ret Errc.ok
      end
      else ret Errc.bad_request
    end
    else
      let ep = if W.is_raw_call ep_word then W.raw_call_id ep_word else ep_word in
      if ep >= 0 && W.handle_slot ep <= Wk.resource_manager_ep then begin
        args.(rc_slot) <- Errc.denied;
        Errc.denied
      end
      else Fastcall.call fast ~ep args
