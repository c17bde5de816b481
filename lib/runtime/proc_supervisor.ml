(* A process supervisor for the shm server: PR 5's shard supervisor
   (detect a dead worker, respawn it) extended across the process
   boundary.  The supervised unit is a forked child running the
   caller's server function over a segment file; on its death the
   supervisor reaps it, regenerates the segment in place (next
   generation under the seqlock — surviving clients fail closed and
   reattach) and forks a replacement.

   Polling, not a watcher domain, on purpose: forking a multi-domain
   OCaml 5 process leaves the child's GC waiting on a stop-the-world
   rendezvous with domains that do not exist in the child.  Keeping
   the supervisor (and everything it forks from) single-domain is the
   fork-safety discipline the bench's shm section already follows;
   the caller drives [check] from its event loop instead.  [check]
   also doubles as the reaper — a SIGKILLed child stays a zombie until
   it runs, and zombies answer kill(pid, 0), so prompt checking is
   what lets the client's liveness probe see the death at all. *)

type t = {
  path : string;
  server_main : unit -> int;
  mutable pid : int;  (* 0 = no live child *)
  mutable respawns : int;
  mutable armed : bool;
}

type status = Running | Respawned | Exited of Unix.process_status

let fork_child t =
  match Unix.fork () with
  | 0 ->
      let code = try t.server_main () with _ -> 120 in
      (* _exit, not exit: the child shares the parent's at_exit stack
         and buffered channels, and must not run them. *)
      Unix._exit code
  | pid -> t.pid <- pid

let start ~path ?(capacity = 64) ~server () =
  ignore (Shm_channel.create_file ~path ~capacity () : Segment.t);
  let t = { path; server_main = server; pid = 0; respawns = 0; armed = true } in
  fork_child t;
  t

(* Map the file fresh, at its own size, and rebuild it in place.  A new
   mapping, not a cached one: the supervisor may outlive many segment
   incarnations and holds no channel of its own. *)
let regenerate_segment t =
  Shm_channel.regenerate (Segment.open_file ~path:t.path)

let check t =
  if t.pid = 0 then Exited (Unix.WEXITED 0)
  else
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> Running
    | _, st ->
        if t.armed then begin
          regenerate_segment t;
          t.respawns <- t.respawns + 1;
          fork_child t;
          Respawned
        end
        else begin
          t.pid <- 0;
          Exited st
        end
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        t.pid <- 0;
        Exited (Unix.WEXITED 0)

let kill9 t = if t.pid > 0 then (try Unix.kill t.pid Sys.sigkill with _ -> ())
let disarm t = t.armed <- false
let pid t = t.pid
let respawns t = t.respawns

(* Wait (bounded) for the current child to exit without respawning it —
   the clean-shutdown path after the last client announced shutdown.
   Disarms.  [None] on timeout, with the child still running. *)
let wait_exit ?(timeout_ns = 10_000_000_000) t =
  disarm t;
  let deadline = Doorbell.now_ns () + timeout_ns in
  let rec go () =
    match check t with
    | Exited st -> Some st
    | Respawned -> assert false (* disarmed *)
    | Running ->
        if Doorbell.now_ns () > deadline then None
        else begin
          Doorbell.nap_ns 1_000_000;
          go ()
        end
  in
  go ()
