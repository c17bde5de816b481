(* The PPC design pattern on real OCaml 5 domains: a lock-free service
   table whose handlers run on the calling domain's own stack (no locks,
   no allocation) versus a mutex-guarded shared registry.  Every section
   checks its replies; a wrong sum exits 1.

     dune exec examples/multicore_fastcall.exe *)

let calls = 200_000

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let args = Array.make 8 0

(* Run [n] calls of the adder below through [call], summing the replies,
   and exit 1 unless every call answered 0 with [i + 1]. *)
let run_checked name n call =
  let sum = ref 0 and bad_rc = ref 0 in
  let s =
    time (fun () ->
        for i = 1 to n do
          args.(0) <- i;
          args.(1) <- 1;
          if call args <> 0 then incr bad_rc;
          sum := !sum + args.(0)
        done)
  in
  let want = (n * (n + 1) / 2) + n in
  if !sum <> want || !bad_rc <> 0 then begin
    Fmt.epr "%s: sum of replies %d, want %d; %d calls failed@." name !sum want
      !bad_rc;
    exit 1
  end;
  s

let () =
  (* Lock-free local path. *)
  let fast = Runtime.Fastcall.create () in
  let ep =
    Runtime.Fastcall.register fast (fun _ctx args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let fast_s =
    run_checked "fastcall" calls (fun args ->
        Runtime.Fastcall.call fast ~ep args)
  in
  Fmt.pr "fastcall (caller's own stack): %d calls in %.3fs (%.0f ns/call)@."
    calls fast_s
    (1e9 *. fast_s /. float_of_int calls);

  (* Mutex-guarded shared-pool baseline. *)
  let locked = Baseline.Locked_registry.create () in
  let lep =
    Baseline.Locked_registry.register locked (fun _frame args ->
        args.(0) <- args.(0) + args.(1);
        args.(7) <- 0)
  in
  let locked_s =
    run_checked "locked registry" calls (fun args ->
        Baseline.Locked_registry.call locked ~ep:lep args)
  in
  Fmt.pr "locked registry (shared pool): %d calls in %.3fs (%.0f ns/call)@."
    calls locked_s
    (1e9 *. locked_s /. float_of_int calls);
  Fmt.pr "single-domain overhead ratio: %.2fx@." (locked_s /. fast_s);

  (* Cross-domain calls through the MPSC channel. *)
  let sd = Baseline.Mpsc_server.spawn fast in
  let n_cross = 2_000 in
  let cross_s =
    run_checked "cross-domain MPSC" n_cross (fun args ->
        Baseline.Mpsc_server.cross_call sd ~ep args)
  in
  Baseline.Mpsc_server.shutdown sd;
  Fmt.pr "cross-domain MPSC (legacy):   %d calls in %.3fs (%.0f ns/call)@."
    n_cross cross_s
    (1e9 *. cross_s /. float_of_int n_cross);

  (* The zero-allocation channel path: request cells + SPSC ring on an
     in-heap Shm_channel segment, a doorbell, a batching server.  An
     uncontended call runs inline on the caller's domain under the shard
     ticket — the paper's PPC discipline — so it costs about as much as
     a local call. *)
  let srv = Runtime.Fastcall.spawn_channel_server fast in
  let cl = Runtime.Fastcall.connect srv in
  let n_chan = 50_000 in
  let chan_s =
    run_checked "cross-domain channel" n_chan (fun args ->
        Runtime.Fastcall.channel_call cl ~ep args)
  in
  Fmt.pr "cross-domain channel:         %d calls in %.3fs (%.0f ns/call)@."
    n_chan chan_s
    (1e9 *. chan_s /. float_of_int n_chan);
  Fmt.pr "  of which inline on the caller's domain: %d;  served by shard: %d@."
    (Runtime.Fastcall.client_inlined cl)
    (Runtime.Fastcall.channel_served srv);
  let rings, wakes, parks = Runtime.Fastcall.channel_doorbell_stats srv in
  Fmt.pr "  doorbell: %d rings, %d wakes of a parked shard, %d sleeps@."
    rings wakes parks;
  Runtime.Fastcall.shutdown_channel_server srv;
  Fmt.pr
    "@.Local and uncontended cross-domain calls stay on the caller's domain@.\
     and its own stack, with preallocated request cells — the paper's@.\
     per-processor locality discipline, three decades later.@."
