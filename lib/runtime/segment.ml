(* The fast-path memory substrate: a flat, offset-addressed array of
   64-bit words with atomic access, behind which the call-path layout
   (Ipc_intf.Wire_abi) is position-independent.

   One representation: a Bigarray of int64, with atomicity supplied by
   C11 __atomic stubs on the data pointer.  The Bigarray is either
   malloc'd in-process ([create_heap]: tests, Fastcall's channel
   servers) or an mmap'd file ([create_file], [open_file]), which two
   OS processes see as one coherent word array — the modern "CXL
   fabric" shape of the paper's shared-memory call path.  Accessors
   never look at where the words came from.

   Words hold OCaml immediates (63-bit), stored sign-extended in 64
   bits, little-endian (see Wire_abi's endianness canary).  All
   accessors are allocation-free. *)

type map = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { map : map }

external load : map -> int -> int = "ppc_seg_load" [@@noalloc]
external store : map -> int -> int -> unit = "ppc_seg_store" [@@noalloc]

external cas_word : map -> int -> int -> int -> bool = "ppc_seg_cas"
  [@@noalloc]

external fetch_add_word : map -> int -> int -> int = "ppc_seg_fetch_add"
  [@@noalloc]

external blit_in : map -> int -> int array -> int -> unit = "ppc_seg_blit_in"
  [@@noalloc]

external blit_out : map -> int -> int array -> int -> unit = "ppc_seg_blit_out"
  [@@noalloc]

external futex_wait : map -> int -> int -> int -> unit = "ppc_seg_wait"
external futex_wake : map -> int -> unit = "ppc_seg_wake" [@@noalloc]
external pid_alive : int -> bool = "ppc_pid_alive" [@@noalloc]

let length t = Bigarray.Array1.dim t.map

let get t i = load t.map i
let set t i v = store t.map i v
let cas t i ~expected ~desired = cas_word t.map i expected desired
let fetch_add t i d = fetch_add_word t.map i d

(* Futex wait and wake on the low 32 bits of word [i]: shared futexes,
   so they meet across processes on a file mapping and within one on a
   heap segment.  [wait] returns on a wake, after [ns], or at once if
   the bits no longer equal [expected]; callers recheck either way.
   [wake] wakes every waiter on the word. *)
let wait t i ~expected ~ns = futex_wait t.map i expected ns
let wake t i = futex_wake t.map i

(* Payload copies: [n] words at [i] to or from the first [n] slots of an
   int array, in one stub call.  The array side is checked (it is the
   caller's); the segment side is unchecked like [get] and [set]. *)
let check_words a n =
  if n > Array.length a then invalid_arg "Segment: array shorter than the copy"

let get_words t i dst n =
  check_words dst n;
  blit_out t.map i dst n

let set_words t i src n =
  check_words src n;
  blit_in t.map i src n

(* --- construction ---------------------------------------------------------- *)

let create_heap ~words =
  if words <= 0 then invalid_arg "Segment.create_heap: words must be > 0";
  let map = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout words in
  Bigarray.Array1.fill map 0L;
  { map }

let map_fd path flags words_of =
  let fd = Unix.openfile path flags 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let words = words_of fd in
      let g =
        Unix.map_file fd Bigarray.Int64 Bigarray.C_layout true [| words |]
      in
      { map = Bigarray.array1_of_genarray g })

let create_file ~path ~words =
  if words <= 0 then invalid_arg "Segment.create_file: words must be > 0";
  map_fd path Unix.[ O_RDWR; O_CREAT; O_TRUNC ] (fun fd ->
      Unix.ftruncate fd (words * 8);
      words)

(* The size comes from the file, never from its contents: a header that
   claims more words cannot grow the file through this mapping. *)
let open_file ~path =
  map_fd path Unix.[ O_RDWR ] (fun fd -> (Unix.fstat fd).st_size / 8)
