(* The shared PPC error taxonomy: the return codes the last argument
   word carries back to the caller, identical across the simulator
   (`Ppc.Reg_args`) and the real-domain runtime (`Runtime.Fastcall`).
   Values are part of the wire convention — do not renumber. *)

let ok = 0
let no_entry = -1 (* no such entry point (never bound, or fully freed) *)
let killed = -2 (* entry point soft/hard-killed, or server quiescing *)
let denied = -3 (* caller failed the server's authentication *)
let bad_request = -4 (* malformed operation *)
let no_resources = -5 (* the resource manager could not satisfy the call *)
let handler_fault = -6 (* the handler raised; contained, shard survives *)
let timed_out = -7 (* the caller's deadline expired; cell abandoned *)
let retry = -8 (* transient backpressure (ring full / pool capped) *)
let too_big = -9 (* bulk payload exceeds the per-call copy limit *)
let copy_fault = -10 (* copy service: bad range, region or ownership *)
let peer_dead = -11 (* the peer process is confirmed dead; reattach the session *)
let stale_generation = -12 (* the segment was regenerated under this mapping *)

(* Every code, for exhaustive round-trip tests.  Append-only, like the
   wire values themselves. *)
let all =
  [ ok; no_entry; killed; denied; bad_request; no_resources;
    handler_fault; timed_out; retry; too_big; copy_fault;
    peer_dead; stale_generation ]

let to_string rc =
  if rc = ok then "ok"
  else if rc = no_entry then "err_no_entry"
  else if rc = killed then "err_killed"
  else if rc = denied then "err_denied"
  else if rc = bad_request then "err_bad_request"
  else if rc = no_resources then "err_no_resources"
  else if rc = handler_fault then "err_handler_fault"
  else if rc = timed_out then "err_timed_out"
  else if rc = retry then "err_retry"
  else if rc = too_big then "err_too_big"
  else if rc = copy_fault then "err_copy_fault"
  else if rc = peer_dead then "err_peer_dead"
  else if rc = stale_generation then "err_stale_generation"
  else Printf.sprintf "rc(%d)" rc
