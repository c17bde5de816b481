(* A striped counter: the runtime analogue of the simulator's sharded
   counter server.

   Increments touch one stripe selected by the calling domain, so
   unrelated domains never contend on one cache line; reads gather all
   stripes (rare, more expensive) — exactly the locality split the paper
   prescribes for server state.  Each stripe is a {!Padded_atomic}, alone
   on its cache line. *)

type t = {
  stripes : int Atomic.t array;
  mask : int;
}

let create ?(stripes = 16) () =
  if stripes <= 0 || stripes land (stripes - 1) <> 0 then
    invalid_arg "Striped_counter.create: stripes must be a power of two";
  { stripes = Array.init stripes (fun _ -> Padded_atomic.make 0);
    mask = stripes - 1 }

let stripe_for t = t.stripes.((Domain.self () :> int) land t.mask)

let incr t = Atomic.incr (stripe_for t)

let add t n = ignore (Atomic.fetch_and_add (stripe_for t) n)

(* Gather: one read per stripe.  Concurrent increments may or may not be
   included — the usual weak-snapshot semantics of striped counters. *)
let value t =
  let total = ref 0 in
  for i = 0 to t.mask do
    total := !total + Atomic.get t.stripes.(i)
  done;
  !total
