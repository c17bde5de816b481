(* A reconnecting client endpoint over a Shm_channel segment file.

   Shm_channel deliberately stops at the transport: once a peer-death
   verdict lands or the segment is regenerated underneath the mapping,
   every operation fails closed ([Errc.peer_dead] /
   [Errc.stale_generation]) and the channel value is defunct.  This
   module owns the policy above that line — the client half of session
   recovery:

     - bindings carry the *name and behavior spec* of each entry point,
       not just the wire handle, so after a server restart the session
       can re-resolve (lookup, or register + publish when the fresh
       registry has never heard the name) through the ctl plane;
     - a call that hits a recovery code forgets the channel, reattaches
       via the header-first remap path — waiting out the rebuild with
       [after_generation], so it cannot re-latch onto the generation it
       fled — re-resolves every binding, and retries the interrupted
       call;
     - transient backpressure ([Errc.retry]) backs off under
       [Runtime.Backoff]; both budgets are bounded, and an exhausted
       budget answers [Errc.retry] rather than hanging — the caller
       always learns the truth and owns the next move.

   A retried call may have executed on the server before it died:
   delivery across a restart is at-least-once for the interrupted call
   (exactly-once would need server-side dedup state that dies with the
   server).  Handlers crossing this path should be idempotent, like
   every conformance behavior is. *)

module W = Ipc_intf.Wire_abi
module Errc = Ipc_intf.Errc
module Ch = Shm_channel

type binding = {
  name : string;
  spec : Ipc_intf.Sigs.spec;
  mutable ep : int;
  mutable valid : bool;
      (* [ep] resolves against the *current* server incarnation; a
         reattach invalidates every binding until re-resolution *)
}

(* The recovery budgets: how long one attach waits for a serviceable
   segment, and how many channel rebuilds and backoff rounds one call
   may spend. *)
let attach_timeout_ns = 5_000_000_000
let reattach_limit = 8
let retry_limit = 64

type t = {
  path : string;
  probe_window_ns : int option;
  on_reattach : unit -> unit;
  bo : Backoff.t;
  mutable ch : Ch.t option;
  mutable last_gen : int;
  mutable bindings : binding list;
  mutable reattaches : int;
  mutable retried : int;
  mutable scratch : int array;  (* ctl-plane staging *)
}

(* Resolve one binding against the live server: lookup by name; a
   registry that has never heard it (fresh incarnation) gets the spec
   registered and published under that name.  Single client per
   segment, so lookup-miss -> register cannot race another resolver. *)
let resolve t ch b =
  let a = t.scratch in
  let w0, w1 =
    match W.pack_name b.name with
    | Some p -> p
    | None -> invalid_arg ("Shm_session: unpackable name " ^ b.name)
  in
  Array.fill a 0 (Array.length a) 0;
  a.(0) <- W.ctl_lookup;
  a.(1) <- w0;
  a.(2) <- w1;
  let rc = Ch.call ch ~ep:W.ctl_ep a in
  if rc = Errc.ok then begin
    b.ep <- W.pack_raw_call a.(0);
    b.valid <- true;
    rc
  end
  else if rc = Errc.no_entry then begin
    let code, param = W.spec_to_wire b.spec in
    Array.fill a 0 (Array.length a) 0;
    a.(0) <- W.ctl_register;
    a.(1) <- code;
    a.(2) <- param;
    let rc = Ch.call ch ~ep:W.ctl_ep a in
    if rc <> Errc.ok then rc
    else begin
      let handle = a.(0) in
      Array.fill a 0 (Array.length a) 0;
      a.(0) <- W.ctl_publish;
      a.(1) <- handle;
      a.(2) <- w0;
      a.(3) <- w1;
      let rc = Ch.call ch ~ep:W.ctl_ep a in
      if rc = Errc.ok then begin
        b.ep <- handle;
        b.valid <- true
      end;
      rc
    end
  end
  else rc

(* Attach (or reattach) the underlying channel: wait out any rebuild in
   progress, refuse the generation we fled, wait for a ready server,
   then re-resolve every binding.  An occupied client slot (the server
   has not yet released our predecessor's session) reads as
   Bad_segment from [attach]; keep napping until the release, bounded
   by the attach deadline. *)
let attach_now t =
  let deadline = Doorbell.now_ns () + attach_timeout_ns in
  let remaining () = max 1_000_000 (deadline - Doorbell.now_ns ()) in
  let rec go () =
    match
      Ch.attach_file ?probe_window_ns:t.probe_window_ns
        ~timeout_ns:(remaining ()) ~after_generation:t.last_gen
        ~role:Ch.Client t.path
    with
    | ch ->
        if not (Ch.wait_peer_ready ~timeout_ns:(remaining ()) ch) then
          raise (Ch.Bad_segment (t.path ^ ": no server became ready in time"));
        let aw = Ch.arg_words ch in
        if Array.length t.scratch <> aw then t.scratch <- Array.make aw 0;
        t.ch <- Some ch;
        t.last_gen <- Ch.generation ch;
        List.iter
          (fun b ->
            b.valid <- false;
            (* Best effort here: a failure (server died again already)
               leaves the binding invalid and the call path re-resolves
               under its own recovery budget. *)
            ignore (resolve t ch b : int))
          t.bindings
    | exception Ch.Bad_segment _ when Doorbell.now_ns () < deadline ->
        Doorbell.nap_ns 1_000_000;
        go ()
  in
  go ()

let connect ?probe_window_ns ?(on_reattach = fun () -> ()) ~path () =
  let t =
    {
      path;
      probe_window_ns;
      on_reattach;
      bo = Backoff.create ();
      ch = None;
      last_gen = 0;
      bindings = [];
      reattaches = 0;
      retried = 0;
      scratch = [||];
    }
  in
  attach_now t;
  t

let bind t ~name ~spec =
  match List.find_opt (fun b -> b.name = name) t.bindings with
  | Some b -> b
  | None ->
      (match W.pack_name name with
      | Some _ -> ()
      | None -> invalid_arg ("Shm_session.bind: unpackable name " ^ name));
      let b = { name; spec; ep = W.ctl_ep; valid = false } in
      t.bindings <- b :: t.bindings;
      (match t.ch with
      | Some ch -> ignore (resolve t ch b : int)
      | None -> ());
      b

(* One call under the full recovery policy.  [retries] bounds backoff
   rounds on [Errc.retry]; [reattaches] bounds channel rebuilds;
   [rere] is the once-per-call re-resolution allowance for a handle
   the server killed or exchanged without dying. *)
let rec run t b args deadline retries reattaches rere =
  match t.ch with
  | None ->
      if reattaches <= 0 then Errc.retry
      else begin
        t.reattaches <- t.reattaches + 1;
        match attach_now t with
        | () ->
            (* Fires on success only: one firing per healed regeneration,
               so a ledger mirroring it reconciles exactly against
               injected deaths even when an attempt times out first. *)
            t.on_reattach ();
            run t b args deadline retries (reattaches - 1) rere
        | exception Ch.Bad_segment _ -> Errc.retry
        | exception Unix.Unix_error _ -> Errc.retry
      end
  | Some ch ->
      let rc = if b.valid then Errc.ok else resolve t ch b in
      let rc =
        if rc = Errc.ok then Ch.call_deadline ch ~ep:b.ep ~deadline args
        else rc
      in
      if
        rc = Errc.peer_dead || rc = Errc.stale_generation
        || ((rc = Errc.handler_fault || rc = Errc.killed) && Ch.peer_dead ch)
      then begin
        (* The server is gone (a handler_fault with the verdict set is
           the sweep's answer for an in-flight call, not a real fault):
           forget the channel and retry through a fresh attach. *)
        t.ch <- None;
        t.retried <- t.retried + 1;
        run t b args deadline retries reattaches rere
      end
      else if rc = Errc.retry && retries > 0 then begin
        Backoff.once t.bo;
        run t b args deadline (retries - 1) reattaches rere
      end
      else if rc = Errc.no_entry && rere then begin
        b.valid <- false;
        run t b args deadline retries reattaches false
      end
      else rc

let call ?(deadline = max_int) t b args =
  Backoff.reset t.bo;
  run t b args deadline retry_limit reattach_limit true

let close t =
  (match t.ch with Some ch -> Ch.announce_shutdown ch | None -> ());
  t.ch <- None

let reattaches t = t.reattaches
let retried t = t.retried
let generation t = t.last_gen
let channel t = t.ch
