(* The original cross-domain embodiment of Runtime.Fastcall, kept as the
   benchmark baseline: a server domain drains one allocating MPSC queue,
   every call builds a fresh request record with its own mutex/condvar,
   and ringing the server always takes its lock.  Fastcall's channel
   path removes all three costs; ablation A5 measures the difference.

   The server runs each request through the public [Runtime.Fastcall.call],
   so the only thing measured here is the hand-off.

   The waiting discipline is hybrid: a short spin (wins when the server
   runs on another core), then a mutex/condvar block (necessary when
   cores are scarce — a pure spin-wait livelocks a single-core box). *)

module Fastcall = Runtime.Fastcall

type request = {
  req_ep : int;
  req_args : int array;
  done_ : bool Atomic.t;
  req_mutex : Mutex.t;
  req_cond : Condition.t;
}

type t = {
  queue : request Mpsc_queue.t;
  stop : bool Atomic.t;
  served : int Atomic.t;
  sd_mutex : Mutex.t;
  sd_cond : Condition.t;  (** signalled on every push and on stop *)
  domain : unit Domain.t;
}

let rc_slot = Fastcall.arg_words - 1

let spawn fast =
  let queue = Mpsc_queue.create () in
  let stop = Atomic.make false in
  let served = Atomic.make 0 in
  let sd_mutex = Mutex.create () in
  let sd_cond = Condition.create () in
  let domain =
    Domain.spawn (fun () ->
        let rec loop () =
          match Mpsc_queue.pop queue with
          | Some req ->
              ignore (Fastcall.call fast ~ep:req.req_ep req.req_args : int);
              Atomic.set req.done_ true;
              Mutex.lock req.req_mutex;
              Condition.signal req.req_cond;
              Mutex.unlock req.req_mutex;
              Atomic.incr served;
              loop ()
          | None ->
              if Atomic.get stop then ()
              else begin
                Mutex.lock sd_mutex;
                while Mpsc_queue.is_empty queue && not (Atomic.get stop) do
                  Condition.wait sd_cond sd_mutex
                done;
                Mutex.unlock sd_mutex;
                loop ()
              end
        in
        loop ())
  in
  { queue; stop; served; sd_mutex; sd_cond; domain }

let cross_call sd ~ep args =
  let req =
    {
      req_ep = ep;
      req_args = args;
      done_ = Atomic.make false;
      req_mutex = Mutex.create ();
      req_cond = Condition.create ();
    }
  in
  Mpsc_queue.push sd.queue req;
  Mutex.lock sd.sd_mutex;
  Condition.signal sd.sd_cond;
  Mutex.unlock sd.sd_mutex;
  (* Brief spin for the multi-core fast case... *)
  let spins = ref 0 in
  while (not (Atomic.get req.done_)) && !spins < 256 do
    incr spins;
    Domain.cpu_relax ()
  done;
  (* ...then block. *)
  if not (Atomic.get req.done_) then begin
    Mutex.lock req.req_mutex;
    while not (Atomic.get req.done_) do
      Condition.wait req.req_cond req.req_mutex
    done;
    Mutex.unlock req.req_mutex
  end;
  args.(rc_slot)

let shutdown sd =
  Atomic.set sd.stop true;
  Mutex.lock sd.sd_mutex;
  Condition.broadcast sd.sd_cond;
  Mutex.unlock sd.sd_mutex;
  Domain.join sd.domain

let served sd = Atomic.get sd.served
