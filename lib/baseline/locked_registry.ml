(* The anti-pattern baseline: one mutex guards a shared handler table and
   a shared frame pool.

   This is the runtime analogue of the uniprocessor-IPC-translated-
   directly design the paper warns about: every call takes a global lock
   twice and bounces the shared pool between cores.  Benchmarked against
   [Runtime.Fastcall] in ablation A5, whose call takes no frame at all:
   its handler runs on the calling domain's own stack. *)

type frame = { scratch : Bytes.t; mutable frame_calls : int }

type handler = frame -> int array -> unit

type t = {
  lock : Mutex.t;
  handlers : (int, handler) Hashtbl.t;
  mutable pool : frame list;
  mutable next_ep : int;
  mutable calls : int;
}

let scratch_bytes = 4096

let make_frame () = { scratch = Bytes.create scratch_bytes; frame_calls = 0 }

let create ?(frames = 4) () =
  {
    lock = Mutex.create ();
    handlers = Hashtbl.create 64;
    pool = List.init frames (fun _ -> make_frame ());
    next_ep = 0;
    calls = 0;
  }

let register t handler =
  Mutex.lock t.lock;
  let ep = t.next_ep in
  t.next_ep <- ep + 1;
  Hashtbl.replace t.handlers ep handler;
  Mutex.unlock t.lock;
  ep

exception No_entry of int

let call t ~ep args =
  (* Lock to look up the handler and take a frame... *)
  Mutex.lock t.lock;
  let handler =
    match Hashtbl.find_opt t.handlers ep with
    | Some h -> h
    | None ->
        Mutex.unlock t.lock;
        raise (No_entry ep)
  in
  let frame =
    match t.pool with
    | f :: rest ->
        t.pool <- rest;
        f
    | [] -> make_frame ()
  in
  t.calls <- t.calls + 1;
  Mutex.unlock t.lock;
  frame.frame_calls <- frame.frame_calls + 1;
  Fun.protect
    ~finally:(fun () ->
      (* ...and lock again to return it. *)
      Mutex.lock t.lock;
      t.pool <- frame :: t.pool;
      Mutex.unlock t.lock)
    (fun () -> handler frame args);
  args.(Array.length args - 1)

let calls t = t.calls
