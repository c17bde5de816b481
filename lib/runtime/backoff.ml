(* Caller-side discipline for [Errc.retry]: bounded exponential backoff.

   The channel path answers transient backpressure (every request cell
   in flight) with an explicit return code instead of
   spinning inside the call — the *caller* owns the retry policy, the
   way the paper pushes policy out of the PPC mechanism.  This module is
   that policy's default shape: double the pause between attempts from
   [min_spin] up to [max_spin] cpu-relax iterations, give up after
   [attempts] tries, and let any non-[retry] code through untouched.

   Pure spinning, no clock, no allocation: deterministic under the test
   harness and warm-path-safe for callers that retry inside a
   latency-sensitive loop. *)

type t = {
  min_spin : int;
  max_spin : int;
  mutable cur : int;  (** next pause length *)
  mutable spun : int;  (** total iterations paused since reset *)
}

let create ?(min_spin = 32) ?(max_spin = 8192) () =
  if min_spin <= 0 then invalid_arg "Backoff.create: min_spin must be > 0";
  if max_spin < min_spin then
    invalid_arg "Backoff.create: max_spin must be >= min_spin";
  { min_spin; max_spin; cur = min_spin; spun = 0 }

let reset t =
  t.cur <- t.min_spin;
  t.spun <- 0

let rec stall n = if n > 0 then (Domain.cpu_relax (); stall (n - 1))

(* One pause at the current length, then double (saturating). *)
let once t =
  stall t.cur;
  t.spun <- t.spun + t.cur;
  t.cur <- min t.max_spin (2 * t.cur)

let spun t = t.spun

(* Run [f] until it answers something other than [Errc.retry], backing
   off between attempts; at most [attempts] runs.  Returns the last
   return code — still [Errc.retry] if the budget ran out, so the caller
   always learns the truth. *)
let with_retry ?(attempts = 10) ?min_spin ?max_spin f =
  if attempts <= 0 then invalid_arg "Backoff.with_retry: attempts must be > 0";
  let b = create ?min_spin ?max_spin () in
  let rec go left =
    let rc = f () in
    if rc <> Ipc_intf.Errc.retry || left <= 1 then rc
    else begin
      once b;
      go (left - 1)
    end
  in
  go attempts
