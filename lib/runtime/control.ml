(* The runtime's IPC control plane: the Name Server at well-known entry
   point 0 and the resource manager at entry point 1, over the shared
   {!Ipc_intf} vocabulary — the same two services the simulator installs
   as [Naming.Name_server] and [Ppc.Frank].

   Both are ordinary entry points in the Fastcall table, so they are
   reachable two ways:
   - *directly*, by the embedding program ([Fastcall.call] from any
     domain, or the stub functions below with their default path);
   - over the *channel path*, by passing [~via:(Fastcall.channel_call
     client)] to the stubs — a client domain then manages services with
     ordinary PPCs, exactly as the paper's clients talk to Frank and the
     Name Server.

   Handlers cannot travel through eight registers, so — like Frank —
   callers first {!stage} the handler and pass the staging token in the
   call.

   Entry points are named by their Fastcall handles, the one name the
   table has: the registry stores the handle it was given and a lookup
   answers it unchanged, so a name whose service was killed stays dead
   even after another service takes the freed slot.

   Register-argument convention (8 words, [Ipc_intf.Opfield] packed
   op/flags in slot 7 on the way in, [Ipc_intf.Errc] return code on the
   way out):
   - Name Server ops: slots 0-1 carry the two {!Ipc_intf.Name_hash}
     words, slot 2 the handle (register) or the answer (lookup);
   - manager ops: slot 0 carries the handle or staging token,
     slot 1 the exchange token;
   - slot 6 always carries the caller's principal (the paper's program
     ID: Section 4.1 makes authentication the server's job, so the
     control plane checks its own ACL — open until the first {!grant}).
*)

module Errc = Ipc_intf.Errc
module Wk = Ipc_intf.Wellknown
module Opfield = Ipc_intf.Opfield

let rc_slot = Fastcall.arg_words - 1
let principal_slot = 6

type binding = { b_ep : int; b_owner : int }

type t = {
  table : Fastcall.t;
  mu : Mutex.t;  (** registry, staging and ACL: management path only *)
  names : (int * int, binding) Hashtbl.t;
  acl : (int, Ipc_intf.Auth.perm list) Hashtbl.t;
  mutable staging : (int * Fastcall.handler) list;
  mutable next_token : int;
}

(* --- server-side authentication (Section 4.1) -------------------------- *)

let grant t ~principal ~perms =
  Mutex.lock t.mu;
  Hashtbl.replace t.acl principal perms;
  Mutex.unlock t.mu

let revoke t ~principal =
  Mutex.lock t.mu;
  Hashtbl.remove t.acl principal;
  Mutex.unlock t.mu

(* Callers are checked against the control plane's own ACL; an empty ACL
   means authentication is not configured and everything is permitted.
   Call with [t.mu] held. *)
let permitted_locked t ~principal ~perm =
  Hashtbl.length t.acl = 0
  ||
  match Hashtbl.find_opt t.acl principal with
  | Some perms -> List.mem perm perms
  | None -> false

let check t ~principal ~perm =
  Mutex.lock t.mu;
  let ok = permitted_locked t ~principal ~perm in
  Mutex.unlock t.mu;
  ok

(* --- staging (Frank's pattern: the token stands in for "the routine's
   address inside the caller's space") ----------------------------------- *)

let stage t handler =
  Mutex.lock t.mu;
  let token = t.next_token in
  t.next_token <- token + 1;
  t.staging <- (token, handler) :: t.staging;
  Mutex.unlock t.mu;
  token

let take_staged_locked t token =
  match List.assoc_opt token t.staging with
  | None -> None
  | Some h ->
      t.staging <- List.remove_assoc token t.staging;
      Some h

(* --- the two well-known handlers --------------------------------------- *)

let ns_handler t : Fastcall.handler =
 fun _ctx args ->
  let op = Opfield.op_of args.(rc_slot) in
  let key = (args.(0), args.(1)) in
  let principal = args.(principal_slot) in
  Mutex.lock t.mu;
  (if op = Wk.op_register then begin
     if not (permitted_locked t ~principal ~perm:Ipc_intf.Auth.Write) then
       args.(rc_slot) <- Errc.denied
     else
       match Hashtbl.find_opt t.names key with
       | Some _ -> args.(rc_slot) <- Errc.bad_request
       | None ->
           Hashtbl.replace t.names key { b_ep = args.(2); b_owner = principal };
           args.(rc_slot) <- Errc.ok
   end
   else if op = Wk.op_lookup then begin
     (* Lookup is open to everyone, as in the paper. *)
     match Hashtbl.find_opt t.names key with
     | Some b ->
         args.(2) <- b.b_ep;
         args.(rc_slot) <- Errc.ok
     | None -> args.(rc_slot) <- Errc.no_entry
   end
   else if op = Wk.op_unregister then begin
     (* Only the publishing owner may unbind. *)
     match Hashtbl.find_opt t.names key with
     | Some b when b.b_owner = principal ->
         Hashtbl.remove t.names key;
         args.(rc_slot) <- Errc.ok
     | Some _ -> args.(rc_slot) <- Errc.denied
     | None -> args.(rc_slot) <- Errc.no_entry
   end
   else args.(rc_slot) <- Errc.bad_request);
  Mutex.unlock t.mu

let mgr_handler t : Fastcall.handler =
 fun _ctx args ->
  let op = Opfield.op_of args.(rc_slot) in
  let principal = args.(principal_slot) in
  (* Taken whatever the verdict, so a refused call leaves nothing staged. *)
  let staged =
    if op = Wk.op_alloc_ep || op = Wk.op_exchange then
      Mutex.protect t.mu (fun () ->
          take_staged_locked t args.(if op = Wk.op_alloc_ep then 0 else 1))
    else None
  in
  if not (check t ~principal ~perm:Ipc_intf.Auth.Admin) then
    args.(rc_slot) <- Errc.denied
  else if op = Wk.op_alloc_ep then begin
    match staged with
    | None -> args.(rc_slot) <- Errc.bad_request
    | Some h ->
        args.(0) <- Fastcall.register t.table h;
        args.(rc_slot) <- Errc.ok
  end
  else if op = Wk.op_soft_kill then
    args.(rc_slot) <- Fastcall.soft_kill t.table ~ep:args.(0)
  else if op = Wk.op_hard_kill then
    args.(rc_slot) <- Fastcall.hard_kill t.table ~ep:args.(0)
  else if op = Wk.op_exchange then begin
    match staged with
    | None -> args.(rc_slot) <- Errc.bad_request
    | Some h -> args.(rc_slot) <- Fastcall.exchange t.table ~ep:args.(0) h
  end
  else args.(rc_slot) <- Errc.bad_request

(* Install the control plane at its well-known IDs.  Must run against a
   table with entry points 0 and 1 still free — i.e. first thing after
   [Fastcall.create], the way the simulator installs Frank and the Name
   Server during boot. *)
let install table =
  let t =
    {
      table;
      mu = Mutex.create ();
      names = Hashtbl.create 64;
      acl = Hashtbl.create 16;
      staging = [];
      next_token = 1;
    }
  in
  if Fastcall.register table (ns_handler t) <> Wk.name_server_ep then
    invalid_arg "Control.install: entry point 0 already taken";
  if Fastcall.register table (mgr_handler t) <> Wk.resource_manager_ep then
    invalid_arg "Control.install: entry point 1 already taken";
  t

let table t = t.table
let bindings t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.names in
  Mutex.unlock t.mu;
  n

(* --- client stubs ------------------------------------------------------- *)

(* Each stub is one PPC to a well-known entry point.  [via] selects the
   path: the default goes straight through [Fastcall.call] on the
   caller's domain; pass [~via:(Fastcall.channel_call client)] to issue
   the same call cross-domain over the channel path. *)

type path = ep:int -> int array -> int

let direct t : path = fun ~ep args -> Fastcall.call t.table ~ep args

let stub ?via t ~ep ~op ~fill =
  let call = match via with Some c -> c | None -> direct t in
  let args = Array.make Fastcall.arg_words 0 in
  fill args;
  args.(rc_slot) <- Opfield.pack ~op ~flags:0;
  let rc = call ~ep args in
  (rc, args)

let publish ?via t ~principal ~name ~ep =
  let h1, h2 = Ipc_intf.Name_hash.hash_name name in
  fst
    (stub ?via t ~ep:Wk.name_server_ep ~op:Wk.op_register ~fill:(fun a ->
         a.(0) <- h1;
         a.(1) <- h2;
         a.(2) <- ep;
         a.(principal_slot) <- principal))

let lookup ?via t ~name =
  let h1, h2 = Ipc_intf.Name_hash.hash_name name in
  let rc, args =
    stub ?via t ~ep:Wk.name_server_ep ~op:Wk.op_lookup ~fill:(fun a ->
        a.(0) <- h1;
        a.(1) <- h2)
  in
  if rc = Errc.ok then Ok args.(2) else Error rc

let unpublish ?via t ~principal ~name =
  let h1, h2 = Ipc_intf.Name_hash.hash_name name in
  fst
    (stub ?via t ~ep:Wk.name_server_ep ~op:Wk.op_unregister ~fill:(fun a ->
         a.(0) <- h1;
         a.(1) <- h2;
         a.(principal_slot) <- principal))

let alloc_ep ?via t ~principal handler =
  let token = stage t handler in
  let rc, args =
    stub ?via t ~ep:Wk.resource_manager_ep ~op:Wk.op_alloc_ep ~fill:(fun a ->
        a.(0) <- token;
        a.(principal_slot) <- principal)
  in
  if rc = Errc.ok then Ok args.(0) else Error rc

let kill_stub ?via t ~principal ~op ~ep =
  fst
    (stub ?via t ~ep:Wk.resource_manager_ep ~op ~fill:(fun a ->
         a.(0) <- ep;
         a.(principal_slot) <- principal))

let soft_kill ?via t ~principal ~ep =
  kill_stub ?via t ~principal ~op:Wk.op_soft_kill ~ep

let hard_kill ?via t ~principal ~ep =
  kill_stub ?via t ~principal ~op:Wk.op_hard_kill ~ep

let exchange ?via t ~principal ~ep handler =
  let token = stage t handler in
  fst
    (stub ?via t ~ep:Wk.resource_manager_ep ~op:Wk.op_exchange ~fill:(fun a ->
         a.(0) <- ep;
         a.(1) <- token;
         a.(principal_slot) <- principal))
