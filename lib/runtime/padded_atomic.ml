(* OCaml 5.1 stand-in for 5.2's [Atomic.make_contended].  Every [Atomic]
   operation reads and writes field 0 of its block, so an 8-field block
   whose field 0 holds the value is an ordinary atomic with seven words
   of padding after it ([caml_alloc] fills them with [()]).  Two such
   atomics never share a 64-byte line: their value fields are at least
   nine words apart. *)

let make (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 8 in
  Obj.set_field b 0 (Obj.repr v);
  Obj.obj b
