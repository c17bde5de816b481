(* The mover: the engine's single consumer.

   On the real substrate it is a dedicated domain — the software DMA
   controller — that runs each client's submitted descriptors in
   batches and parks on the engine's doorbell when none is left (the
   futex protocol every parker in the runtime uses, so an idle mover
   sleeps, waking once per [Doorbell.park_bound_ns] to recheck).
   On the simulated substrate there is no second scheduler: the DMA
   device is [step]ped explicitly, either from a handler or from an
   engine step hook, and its cycle cost is charged by the [exec]
   callback itself.

   Two ways down:

     [shutdown]  quiesce — drain everything already submitted, then
                 exit.  No descriptor is abandoned.
     [kill]      fault injection — exit *now*, stranding in-flight
                 descriptors.  The victim clients discover this on
                 their next [reap]: the engine's post-death sweep fails
                 every stranded descriptor with [Errc.handler_fault],
                 exactly once each (see the kill-mover fault scenario
                 and the qcheck model test).

   Both set the engine's [stopped] flag only after the mover's last
   touch of any descriptor, so the client-side sweep never races the
   drain loop. *)

type t = {
  eng : Copy_engine.t;
  dom : unit Domain.t option;  (* None for a manually stepped mover *)
}

let nonempty eng () =
  Copy_engine.pending eng > 0
  || Copy_engine.killed eng || Copy_engine.quiescing eng

(* Descriptors drained per client per pass. *)
let batch = 32

let rec loop eng =
  if Copy_engine.killed eng then ()
  else begin
    let n = Copy_engine.drain eng ~budget:batch in
    if n > 0 then loop eng
    else if Copy_engine.quiescing eng then ()
    else begin
      Runtime.Doorbell.park (Copy_engine.doorbell eng)
        ~ns:Runtime.Doorbell.park_bound_ns ~nonempty:(nonempty eng);
      loop eng
    end
  end

let spawn eng =
  let dom =
    Domain.spawn (fun () ->
        (try loop eng with _ -> ());
        Copy_engine.mark_stopped eng)
  in
  { eng; dom = Some dom }

(* A mover that never runs on its own: the sim substrate's DMA device,
   and the deterministic driver for the model tests. *)
let manual eng = { eng; dom = None }

(* Pump a manual mover: execute up to [budget] descriptors now.
   Harmless on a spawned mover (the drain is consumer-side only if
   nobody else is draining — do not mix step with a live domain). *)
let step t ~budget = Copy_engine.drain t.eng ~budget

let join t =
  match t.dom with Some d -> Domain.join d | None -> Copy_engine.mark_stopped t.eng

(* Graceful: drain dry, then stop. *)
let shutdown t =
  Copy_engine.request_quiesce t.eng;
  Runtime.Doorbell.wake (Copy_engine.doorbell t.eng);
  join t

(* Fault injection: stop now, strand in-flight work.  Deterministic —
   returns only after the mover has exited and [stopped] is visible,
   so a subsequent [reap] is guaranteed to run the fail sweep. *)
let kill t =
  Copy_engine.request_kill t.eng;
  Runtime.Doorbell.wake (Copy_engine.doorbell t.eng);
  join t
