(* Bounded single-producer single-consumer ring buffer.

   Head and tail are owned by one side each; the opposite side only reads
   the other's counter.  Power-of-two capacity, no locks, no allocation
   after creation — the runtime analogue of a preallocated, serially
   reused stack page. *)

(* One validation, one message shape, shared with [Shm_channel.layout]:
   tooling that pattern-matches the error does it once. *)
let validate_capacity fn capacity =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "%s: capacity must be a positive power of two (got %d)"
         fn capacity)

(* Slots store elements directly (no [Some] box): the producer supplies
   a distinguished [dummy] value that marks empty slots, so a push
   performs no allocation at all — the cost the paper's
   recycled-descriptor discipline exists to avoid. *)
module Raw = struct
  type 'a t = {
    buffer : 'a array;
    dummy : 'a;
    mask : int;
    head : int Atomic.t;  (** next slot to read (consumer-owned) *)
    tail : int Atomic.t;  (** next slot to write (producer-owned) *)
  }

  let create ~capacity ~dummy =
    validate_capacity "Spsc_ring.Raw.create" capacity;
    {
      buffer = Array.make capacity dummy;
      dummy;
      mask = capacity - 1;
      head = Atomic.make 0;
      tail = Atomic.make 0;
    }

  let capacity t = t.mask + 1
  let length t = Atomic.get t.tail - Atomic.get t.head
  let is_empty t = length t = 0
  let is_full t = length t > t.mask

  (* Producer only.  The slot write is published by the tail store. *)
  let try_push t v =
    let tail = Atomic.get t.tail in
    let head = Atomic.get t.head in
    if tail - head > t.mask then false
    else begin
      t.buffer.(tail land t.mask) <- v;
      Atomic.set t.tail (tail + 1);
      true
    end

  (* Consumer only. *)
  let try_pop t =
    let head = Atomic.get t.head in
    let tail = Atomic.get t.tail in
    if tail = head then t.dummy
    else begin
      let slot = head land t.mask in
      let v = t.buffer.(slot) in
      t.buffer.(slot) <- t.dummy;
      (* drop the reference *)
      Atomic.set t.head (head + 1);
      v
    end
end
