(* Address-space regions and access grants (paper Section 4.2).

   Bulk data does not ride on the PPC itself: "a caller may give
   permission to the server to read and write selected portions of its
   address space", V-system style.  A grant names the owner program, the
   grantee program, a byte range in the owner's space, and the allowed
   direction(s).  The CopyServer validates every transfer against the
   grant table.

   The table is bounded, like every pool in the runtime: [try_grant]
   answers [Errc.retry] at the cap (PR5 backpressure taxonomy) instead
   of growing without limit.  For payloads big enough that copying is a
   waste, a grant can be consumed whole by [handoff]: ownership of the
   range moves to the grantee and the grant is revoked on completion —
   zero bytes cross, one table walk. *)

type access = Read_only | Write_only | Read_write

type grant = {
  grant_id : int;
  owner : Kernel.Program.id;
  grantee : Kernel.Program.id;
  base : int;
  len : int;
  access : access;
}

type t = {
  max_grants : int;
  mutable grants : grant list;
  mutable n_grants : int;
  mutable next_id : int;
  mutable revocations : int;
  mutable handoffs : int;
}

let create ?(max_grants = 256) () =
  if max_grants <= 0 then invalid_arg "Region.create: max_grants must be > 0";
  { max_grants; grants = []; n_grants = 0; next_id = 1; revocations = 0;
    handoffs = 0 }

let try_grant t ~owner ~grantee ~base ~len ~access =
  if len <= 0 then invalid_arg "Region.try_grant: empty range";
  if t.n_grants >= t.max_grants then Error Ipc_intf.Errc.retry
  else begin
    let g = { grant_id = t.next_id; owner; grantee; base; len; access } in
    t.next_id <- t.next_id + 1;
    t.grants <- g :: t.grants;
    t.n_grants <- t.n_grants + 1;
    Ok g.grant_id
  end

let grant t ~owner ~grantee ~base ~len ~access =
  match try_grant t ~owner ~grantee ~base ~len ~access with
  | Ok id -> id
  | Error _ -> failwith "Region.grant: grant table full"

let revoke t ~grant_id =
  let before = t.n_grants in
  t.grants <- List.filter (fun g -> g.grant_id <> grant_id) t.grants;
  t.n_grants <- List.length t.grants;
  if t.n_grants < before then begin
    t.revocations <- t.revocations + 1;
    true
  end
  else false

let allows access dir =
  match (access, dir) with
  | (Read_only | Read_write), `Read -> true
  | (Write_only | Read_write), `Write -> true
  | Read_only, `Write | Write_only, `Read -> false

(* May [grantee] perform [dir] on [base,base+len) of [owner]'s space? *)
let check t ~owner ~grantee ~base ~len ~dir =
  List.exists
    (fun g ->
      g.owner = owner && g.grantee = grantee
      && allows g.access dir
      && base >= g.base
      && base + len <= g.base + g.len)
    t.grants

let find t ~grant_id = List.find_opt (fun g -> g.grant_id = grant_id) t.grants

(* The grant (if any) under which [grantee] may touch [owner]'s range. *)
let covering t ~owner ~grantee ~base ~len =
  List.find_opt
    (fun g ->
      g.owner = owner && g.grantee = grantee
      && base >= g.base
      && base + len <= g.base + g.len)
    t.grants

(* Consume a grant whole: ownership of the range transfers to the
   grantee and the grant is revoked on completion.  Returns the grant
   just consumed, or [None] if it does not exist (already handed off,
   revoked, or never made). *)
let handoff t ~grant_id =
  match find t ~grant_id with
  | None -> None
  | Some g ->
      ignore (revoke t ~grant_id);
      t.handoffs <- t.handoffs + 1;
      Some g

let active_grants t = t.n_grants
let max_grants t = t.max_grants
let revocations t = t.revocations
let handoffs t = t.handoffs
