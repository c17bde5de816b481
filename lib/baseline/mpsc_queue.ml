(* Lock-free multi-producer single-consumer queue (Vyukov's algorithm)
   on OCaml 5 atomics.

   The request queue of the legacy cross-domain path ({!Mpsc_server}):
   producers exchange the tail pointer (one atomic RMW, no CAS loop, no
   locks) and the single consumer walks the linked list privately — the
   same "only the owner touches it" discipline as the simulator's
   per-processor pools.  Each push still allocates a node, which is one
   of the costs the channel path removes. *)

type 'a node = { mutable value : 'a option; next : 'a node option Atomic.t }

type 'a t = {
  mutable head : 'a node;  (** consumer-private *)
  tail : 'a node Atomic.t;  (** producers swap this *)
}

let create () =
  let stub = { value = None; next = Atomic.make None } in
  { head = stub; tail = Atomic.make stub }

(* Producers: wait-free except for the single [exchange]. *)
let push t v =
  let node = { value = Some v; next = Atomic.make None } in
  let prev = Atomic.exchange t.tail node in
  Atomic.set prev.next (Some node)

(* Consumer only. *)
let pop t =
  match Atomic.get t.head.next with
  | None -> None
  | Some node ->
      let v = node.value in
      node.value <- None;
      (* drop the reference for GC *)
      t.head <- node;
      v

let is_empty t = Atomic.get t.head.next = None
