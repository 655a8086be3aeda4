(* Bench regression gate: diff two BENCH_lp.json files and hold the
   observability overhead budgets of a BENCH_obs.json.

   Usage: regress.exe [--threshold FRAC] [--obs BENCH_obs.json]
                      [BASELINE CANDIDATE]

   Compares the per-population create_s and eval_s timings of the
   candidate run against the committed baseline and exits nonzero when
   either

   - any matching (population, solver, field) timing regressed by more
     than the threshold (default 0.15 = 15%), or
   - a sweep total (warm or cold end-to-end wall time of the
     cross-population sweep section) regressed by more than the
     threshold, or
   - the candidate reports any LP certificate failure, or
   - the candidate's fleet section reports non-bit-identical parallel
     results, or a 4-domain speedup below 2.0x on a machine with >= 4
     cores (single- and dual-core runners report but never gate the
     speedup), or
   - the [--obs] telemetry reports run-ledger overhead above 2% (with a
     2 ms absolute floor, so clock-resolution noise on a sub-second
     workload cannot flake the gate) or trace overhead above 10% on
     their respective bench workloads.

   With [--obs] alone the timing comparison is skipped and only the
   overhead budgets gate.

   Timings for populations, solvers or fields present in only one file
   are reported but never gate (a new population or a newly recorded
   field is growth, not a regression; "skipped (timeout)" dense entries
   match nothing). The same applies to whole sections: a baseline
   without a "certificates" or "phases" block — written before that
   machinery existed — only warns. Old baselines must not turn the gate
   off, but must not fail it retroactively either. *)

module J = Mapqn_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> die "regress: cannot read %s: %s" path msg
  in
  match J.parse contents with
  | Ok v -> v
  | Error msg -> die "regress: %s is not valid JSON: %s" path msg

(* (population, solver, field) -> seconds for field in {create_s,
   eval_s}, for every result entry whose solver field is an object with
   that numeric field (so the explicit "skipped (timeout)" strings, and
   baselines predating a field, simply contribute nothing). *)
let timings doc =
  let results =
    match J.member "results" doc with
    | Some (J.List l) -> l
    | _ -> []
  in
  List.concat_map
    (fun entry ->
      match J.member "population" entry with
      | Some (J.Number n) ->
        List.concat_map
          (fun solver ->
            match J.member solver entry with
            | Some obj ->
              List.filter_map
                (fun field ->
                  match Option.bind (J.member field obj) J.get_float with
                  | Some seconds ->
                    Some ((int_of_float n, solver, field), seconds)
                  | None -> None)
                [ "create_s"; "eval_s" ]
            | None -> [])
          [ "revised"; "dense" ]
      | _ -> [])
    results

(* ("warm"|"cold") -> total_s of the sweep section, when present.  The
   per-population sweep entries are deliberately not gated: individual
   step timings at small populations are single-digit milliseconds and
   flap far beyond any sensible threshold; the totals are the claim. *)
let sweep_totals doc =
  match J.member "sweep" doc with
  | None -> []
  | Some sweep ->
    List.filter_map
      (fun variant ->
        Option.bind (J.member variant sweep) (fun obj ->
            Option.map
              (fun total -> (variant, total))
              (Option.bind (J.member "total_s" obj) J.get_float)))
      [ "warm"; "cold" ]

(* The numeric value of a named counter/gauge sample in a BENCH_obs.json
   telemetry dump ({"metrics": [{"name"; "type"; "value"; ...}; ...]}).
   Histograms carry no "value" field and match nothing. *)
let obs_metric doc name =
  match J.member "metrics" doc with
  | Some (J.List l) ->
    List.find_map
      (fun m ->
        match Option.bind (J.member "name" m) J.get_string with
        | Some n when n = name -> Option.bind (J.member "value" m) J.get_float
        | _ -> None)
      l
  | _ -> None

let provenance doc =
  let field name =
    match Option.bind (J.member name doc) J.get_string with
    | Some s -> s
    | None -> "?"
  in
  Printf.sprintf "%s @ %s" (field "git_sha") (field "timestamp")

let () =
  let threshold = ref 0.15 in
  let obs = ref None in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f when f > 0. -> threshold := f
      | _ -> die "regress: --threshold expects a positive number, got %S" v);
      parse rest
    | "--threshold" :: [] -> die "regress: --threshold expects a value"
    | "--obs" :: v :: rest ->
      obs := Some v;
      parse rest
    | "--obs" :: [] -> die "regress: --obs expects a file"
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      die "regress: unknown option %s" arg
    | arg :: rest ->
      positional := arg :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let pair =
    match (List.rev !positional, !obs) with
    | [ b; c ], _ -> Some (b, c)
    | [], Some _ -> None
    | _ ->
      die
        "usage: regress.exe [--threshold FRAC] [--obs BENCH_obs.json] \
         [BASELINE.json CANDIDATE.json]"
  in
  let failures = ref 0 in
  (match pair with
  | None -> ()
  | Some (baseline_path, candidate_path) ->
  let baseline = read_json baseline_path in
  let candidate = read_json candidate_path in
  Printf.printf "baseline:  %s (%s)\ncandidate: %s (%s)\n" baseline_path
    (provenance baseline) candidate_path (provenance candidate);
  let base = timings baseline and cand = timings candidate in
  List.iter
    (fun ((n, solver, field), cand_s) ->
      match List.assoc_opt (n, solver, field) base with
      | None ->
        Printf.printf
          "  N=%-4d %-8s %-8s %8.3fs  (no baseline entry, not gated)\n" n
          solver field cand_s
      | Some base_s ->
        let ratio = if base_s > 0. then cand_s /. base_s -. 1. else 0. in
        let gated = ratio > !threshold in
        if gated then incr failures;
        Printf.printf "  N=%-4d %-8s %-8s %8.3fs vs %8.3fs  %+6.1f%%%s\n" n
          solver field cand_s base_s (100. *. ratio)
          (if gated then "  REGRESSION" else ""))
    cand;
  List.iter
    (fun ((n, solver, field), _) ->
      if not (List.mem_assoc (n, solver, field) cand) then
        Printf.printf "  N=%-4d %-8s %-8s dropped from candidate (not gated)\n"
          n solver field)
    base;
  let sweep_base = sweep_totals baseline
  and sweep_cand = sweep_totals candidate in
  List.iter
    (fun (variant, cand_s) ->
      match List.assoc_opt variant sweep_base with
      | None ->
        Printf.printf "  sweep %-8s total %8.3fs  (no baseline entry, not gated)\n"
          variant cand_s
      | Some base_s ->
        let ratio = if base_s > 0. then cand_s /. base_s -. 1. else 0. in
        let gated = ratio > !threshold in
        if gated then incr failures;
        Printf.printf "  sweep %-8s total %8.3fs vs %8.3fs  %+6.1f%%%s\n" variant
          cand_s base_s (100. *. ratio)
          (if gated then "  REGRESSION" else ""))
    sweep_cand;
  if sweep_cand = [] && sweep_base <> [] then
    Printf.printf "  sweep section dropped from candidate (not gated)\n";
  (* [sweep_totals], not [member]: pre-sweep baselines used "sweep" for a
     string label naming the benchmark, which is not a gateable section. *)
  if sweep_base = [] then
    Printf.printf
      "  note: baseline has no sweep block (pre-sweep format, not gated)\n";
  (match J.member "certificates" candidate with
  | Some certs -> (
    match Option.bind (J.member "failures" certs) J.get_float with
    | Some f when f > 0. ->
      incr failures;
      Printf.printf "  certificate failures in candidate: %.0f  REGRESSION\n" f
    | Some _ ->
      let worst name =
        match Option.bind (J.member name certs) J.get_float with
        | Some v -> Printf.sprintf "%.2e" v
        | None -> "?"
      in
      Printf.printf
        "  certificates: all passed (worst primal %s, dual %s, comp-slack %s)\n"
        (worst "worst_primal_residual")
        (worst "worst_dual_violation")
        (worst "worst_comp_slack")
    | None -> Printf.printf "  certificates: block present but unreadable\n")
  | None ->
    Printf.printf
      "  warning: candidate has no certificate block (pre-certificate \
       format?)\n");
  if J.member "certificates" baseline = None then
    Printf.printf
      "  note: baseline has no certificate block (pre-certificate format)\n";
  if J.member "phases" baseline = None then
    Printf.printf
      "  note: baseline has no phases block (pre-profiling format, not \
       gated)\n";
  (* Fleet scaling gate: the candidate's 4-domain Table-1 bench slice
     must be >= 2x faster than sequential, with bit-identical results —
     but only on machines that can actually run 4 workers (the recorded
     core count refuses the demand on small CI runners, where the honest
     speedup is ~1x).  Baselines predating the fleet section only
     warn. *)
  (match J.member "fleet" candidate with
  | Some fleet -> (
    let num name = Option.bind (J.member name fleet) J.get_float in
    (match Option.bind (J.member "bit_identical" fleet) J.get_bool with
    | Some false ->
      incr failures;
      Printf.printf
        "  fleet: parallel results differ from sequential  REGRESSION\n"
    | Some true | None -> ());
    (* The failed-model count must be zero: the bench's hard slice
       includes models that historically failed their certificate, so
       any nonzero count is the rescue ladder regressing. Candidates
       without the field (pre-rescue bench binaries) only warn. *)
    (match num "failed" with
    | Some f when f > 0. ->
      incr failures;
      Printf.printf
        "  fleet: %.0f failed model(s) in the hard slice  REGRESSION (must \
         be 0)\n"
        f
    | Some _ ->
      Printf.printf "  fleet: hard slice failed-model count 0%s\n"
        (match num "rescued" with
        | Some r when r > 0. -> Printf.sprintf " (%.0f rescued)" r
        | _ -> "")
    | None ->
      Printf.printf
        "  warning: candidate fleet block has no failed-model count \
         (pre-rescue format?)\n");
    (* Blocks written before the worker count was recorded always ran 4. *)
    let jobs = Option.value ~default:4. (num "jobs") in
    match (num "speedup", num "cores") with
    | Some speedup, Some cores when cores >= 4. ->
      let gated = speedup < 2.0 in
      if gated then incr failures;
      Printf.printf "  fleet: --jobs %.0f speedup %.2fx on %.0f cores%s\n" jobs
        speedup cores
        (if gated then "  REGRESSION (must be >= 2.0x)" else "")
    | Some speedup, Some cores ->
      Printf.printf
        "  fleet: --jobs %.0f speedup %.2fx on %.0f core(s) (< 4 cores, \
         speedup not gated)\n"
        jobs speedup cores
    | _ -> Printf.printf "  fleet: block present but unreadable\n")
  | None ->
    Printf.printf
      "  warning: candidate has no fleet block (fleet section not run?)\n");
  if J.member "fleet" baseline = None then
    Printf.printf
      "  note: baseline has no fleet block (pre-fleet format, not gated)\n");
  (match !obs with
  | None -> ()
  | Some path ->
    let doc = read_json path in
    (* Run-ledger overhead budget (2% relative, 2 ms absolute floor) on
       the lp-smoke workload, and the 10% tracing budget on the fig4
       bound report.  A telemetry dump without the gauges — an older
       bench binary, or a run that skipped the overhead sections — only
       warns: missing sections must not turn the gate off silently, but
       must not fail it retroactively either. *)
    (match
       ( obs_metric doc "bench_ledger_overhead_ratio",
         obs_metric doc "bench_ledger_overhead_seconds" )
     with
    | Some ratio, seconds ->
      let seconds = Option.value seconds ~default:infinity in
      let gated = ratio > 0.02 && seconds > 0.002 in
      if gated then incr failures;
      Printf.printf "  ledger overhead %+.2f%% (%+.1fms)%s\n" (100. *. ratio)
        (1000. *. seconds)
        (if gated then "  REGRESSION (budget 2%)" else "")
    | None, _ ->
      Printf.printf
        "  warning: %s has no bench_ledger_overhead_ratio (ledger-overhead \
         section not run?)\n"
        path);
    (match obs_metric doc "bench_trace_overhead_ratio" with
    | Some ratio ->
      let gated = ratio > 0.10 in
      if gated then incr failures;
      Printf.printf "  trace overhead %+.2f%%%s\n" (100. *. ratio)
        (if gated then "  REGRESSION (budget 10%)" else "")
    | None ->
      Printf.printf
        "  warning: %s has no bench_trace_overhead_ratio (trace-overhead \
         section not run?)\n"
        path));
  if !failures > 0 then begin
    Printf.printf "regress: FAIL (%d regression%s, threshold %.0f%%)\n"
      !failures
      (if !failures = 1 then "" else "s")
      (100. *. !threshold);
    exit 1
  end
  else Printf.printf "regress: OK (threshold %.0f%%)\n" (100. *. !threshold)
