(* What the OS offers for free, measured the same way as [pingpong]: a
   64-byte echo to a forked child over a Unix-domain socketpair and over
   a pair of pipes, one message in flight.  Reference numbers only,
   never gated. *)

let msg = 64

(* Read exactly [msg] bytes; false at end of file. *)
let read_full fd b =
  let rec go off =
    off = msg
    ||
    match Unix.read fd b off (msg - off) with 0 -> false | k -> go (off + k)
  in
  go 0

(* Round trips for [ns] over [(rd, wr)] on this side and [(crd, cwr)] in
   the child; returns the p50 in ns. *)
let rtt_p50 ~ns ~mine:(rd, wr) ~child:(crd, cwr) (acc : Rows.acc) =
  let close_all fds = List.iter Unix.close (List.sort_uniq compare fds) in
  match Unix.fork () with
  | 0 ->
      close_all [ rd; wr ];
      let b = Bytes.create msg in
      while read_full crd b do
        ignore (Unix.write cwr b 0 msg : int)
      done;
      Unix._exit 0
  | pid ->
      close_all [ crd; cwr ];
      let b = Bytes.create msg in
      let hist = Workload.Hist.create () in
      let t_stop = Runtime.Doorbell.now_ns () + ns in
      let i = ref 0 in
      while Runtime.Doorbell.now_ns () < t_stop do
        Bytes.set_int64_le b 0 (Int64.of_int !i);
        let t = Runtime.Doorbell.now_ns () in
        let sent = Unix.write wr b 0 msg = msg in
        let ok = sent && read_full rd b && Int64.to_int (Bytes.get_int64_le b 0) = !i in
        Workload.Hist.record hist (Runtime.Doorbell.now_ns () - t);
        Rows.op acc ok;
        incr i
      done;
      close_all [ rd; wr ];
      ignore (Unix.waitpid [] pid);
      Workload.Hist.p50 hist

let uds_p50 ~ns acc =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  rtt_p50 ~ns ~mine:(a, a) ~child:(b, b) acc

let pipe_p50 ~ns acc =
  let up_rd, up_wr = Unix.pipe () and down_rd, down_wr = Unix.pipe () in
  rtt_p50 ~ns ~mine:(down_rd, up_wr) ~child:(up_rd, down_wr) acc
