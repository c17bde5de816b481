(* [ppcbench compare]'s verdict on synthetic run sets, and the
   quartiles it shares with Python's statistics.quantiles. *)

let host = [ ("nproc", "2"); ("cpu_model", "test cpu") ]
let other_host = [ ("nproc", "4"); ("cpu_model", "test cpu") ]

let runs ?(host = host) ?(fail_share = 0.) values =
  List.map
    (fun v -> { Verdict.workload = "pingpong"; host; metrics = [ ("lat_p50_us", v) ]; fail_share })
    values

let spec = { Verdict.name = "lat_p50_us"; better = Verdict.Lower; bound = 0.10 }

let verdict a b =
  match Verdict.compare_sets [ spec ] a b with
  | [ lat; fail ] -> (lat.verdict, fail.verdict)
  | _ -> failwith "expected one gated row and one fail_share row"

let failures = ref 0

let expect name got want =
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: got %s, want %s\n" name (Verdict.to_string got)
      (Verdict.to_string want)
  end
  else Printf.printf "ok   %s\n" name

let () =
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02 ] in
  (* within the bound, either way *)
  expect "ok: 5% slower" (fst (verdict (runs base) (runs (List.map (( *. ) 1.05) base)))) Verdict.Ok;
  expect "ok: faster" (fst (verdict (runs base) (runs (List.map (( *. ) 0.7) base)))) Verdict.Ok;
  (* median 20% worse with tight spreads *)
  expect "worse: 20% slower" (fst (verdict (runs base) (runs (List.map (( *. ) 1.2) base))))
    Verdict.Worse;
  (* spread wider than the bound *)
  let wide = [ 0.7; 1.0; 1.3; 0.8; 1.25 ] in
  expect "unresolved: wide spread" (fst (verdict (runs base) (runs wide))) Verdict.Unresolved;
  (* wide spread, but every B run beats every A run *)
  expect "ok: wide but B wins every run"
    (fst (verdict (runs base) (runs [ 0.5; 0.6; 0.9; 0.55; 0.8 ])))
    Verdict.Ok;
  (* different fingerprints are never judged, even when clearly worse *)
  let cross = verdict (runs base) (runs ~host:other_host (List.map (( *. ) 2.) base)) in
  expect "info: cross-host" (fst cross) Verdict.Info;
  expect "info: cross-host fail_share" (snd cross) Verdict.Info;
  (* fail_share: absolute bound of zero *)
  expect "worse: new failures" (snd (verdict (runs base) (runs ~fail_share:0.001 base)))
    Verdict.Worse;
  expect "ok: no failures" (snd (verdict (runs base) (runs base))) Verdict.Ok;
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, med, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  if (q1, med, q3) <> (2.75, 5.5, 8.25) then begin
    incr failures;
    Printf.printf "FAIL quartiles of 1..10: %g %g %g\n" q1 med q3
  end
  else print_endline "ok   quartiles match statistics.quantiles";
  if !failures > 0 then exit 1
