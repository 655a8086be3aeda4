(* Benchmark & reproduction harness.

   Running [dune exec bench/main.exe] does two things:

   1. Regenerates every table and figure of the paper's evaluation section
      at bench scale (scaled-down grids; the full-scale runs are available
      through [bin/mapqn <artifact> --paper-scale]):
        Figure 1  - ACF of the six TPC-W flows
        Figure 3  - TPC-W: measured vs ACF model vs no-ACF model
        Figure 4  - decomposition/ABA failure on the autocorrelated tandem
        Table 1   - bound accuracy statistics on random models
        Figure 8  - case-study bounds vs exact
   2. Runs Bechamel micro-benchmarks of the solver stages (one Test.make
      per paper artifact plus the individual solver components and an
      ablation across constraint-family configurations).

   Pass section names as arguments to run a subset, e.g.
   [dune exec bench/main.exe -- fig4 micro]. Pass [--verbose] to enable
   debug logging in the solver layers (simplex pivot traces etc.).

   The [lp] section compares the dense-tableau and revised-simplex LP
   backends on the Figure-4 tandem sweep (populations up to 500), runs
   the cross-population warm-started sweep against cold per-population
   creates over the same fine grid, and writes the timings to
   [BENCH_lp.json]; [lp-smoke] is the fast CI variant that exits
   nonzero if the two backends' intervals disagree.

   Every run also dumps the solver telemetry collected by Mapqn_obs
   (metric registry + timing spans, each section under a [bench.<name>]
   root span) to [BENCH_obs.json] in the working directory. *)

let args = List.tl (Array.to_list Sys.argv)
let verbose = List.mem "--verbose" args
let sections = List.filter (fun a -> a <> "--verbose") args
let wanted name = sections = [] || List.mem name sections

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let section name thunk =
  if wanted name then begin
    Printf.printf "==== %s ====\n%!" name;
    let t0 = Unix.gettimeofday () in
    Mapqn_obs.Span.with_ ("bench." ^ name) thunk;
    Printf.printf "(%s finished in %.1fs)\n\n%!" name (Unix.gettimeofday () -. t0)
  end

(* ------------------------------------------------------------------ *)
(* Paper artifacts (scaled)                                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let options =
    {
      Mapqn_experiments.Fig1.default_options with
      browsers = 128;
      horizon = 60_000.;
      max_lag = 300;
    }
  in
  Mapqn_experiments.Fig1.print ~lags:[ 1; 2; 5; 10; 20; 50; 100; 200; 300 ]
    (Mapqn_experiments.Fig1.run ~options ())

let fig3 () =
  Mapqn_experiments.Fig3.print
    (Mapqn_experiments.Fig3.run ~options:Mapqn_experiments.Fig3.bench_options ())

let fig4 () =
  let t = Mapqn_experiments.Fig4.run ~options:Mapqn_experiments.Fig4.bench_options () in
  Mapqn_experiments.Fig4.print t;
  Printf.printf "decomposition max |error|: %.4f\n"
    (Mapqn_experiments.Fig4.decomposition_max_error t)

let table1 () =
  Mapqn_experiments.Table1.print
    (Mapqn_experiments.Table1.run ~options:Mapqn_experiments.Table1.bench_options ())

let fig8 () =
  let t = Mapqn_experiments.Fig8.run ~options:Mapqn_experiments.Fig8.bench_options () in
  Mapqn_experiments.Fig8.print t;
  let lo, hi = Mapqn_experiments.Fig8.max_response_error t in
  Printf.printf "max relative response-time error: lower %.4f upper %.4f\n" lo hi

let trace_pipeline () =
  Mapqn_experiments.Trace_pipeline.print
    (Mapqn_experiments.Trace_pipeline.run
       ~options:
         {
           Mapqn_experiments.Trace_pipeline.default_options with
           browsers = [ 64; 128 ];
           trace_length = 100_000;
         }
       ())

let moment_order () =
  Mapqn_experiments.Moment_order.print
    (Mapqn_experiments.Moment_order.run
       ~options:Mapqn_experiments.Moment_order.bench_options ())

(* ------------------------------------------------------------------ *)
(* Ablation: constraint families vs tightness and LP size              *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline
    "Constraint-family ablation on the case-study network (N = 12): bound \
     width vs LP size (see DESIGN.md section 6).";
  let net = Mapqn_workloads.Case_study.network ~population:12 () in
  let exact = Mapqn_ctmc.Solution.solve net in
  let exact_r = Mapqn_ctmc.Solution.system_response_time exact in
  let rows =
    List.map
      (fun (name, config) ->
        let t0 = Unix.gettimeofday () in
        let b = Mapqn_core.Bounds.create_exn ~config net in
        let r = Mapqn_core.Bounds.response_time b in
        let dt = Unix.gettimeofday () -. t0 in
        let vars, nrows = Mapqn_core.Bounds.lp_size b in
        [
          name;
          string_of_int vars;
          string_of_int nrows;
          Mapqn_util.Table.float_cell ~decimals:3 r.Mapqn_core.Bounds.lower;
          Mapqn_util.Table.float_cell ~decimals:3 exact_r;
          Mapqn_util.Table.float_cell ~decimals:3 r.Mapqn_core.Bounds.upper;
          Mapqn_util.Table.float_cell ~decimals:3 (Mapqn_core.Bounds.width r);
          Printf.sprintf "%.2fs" dt;
        ])
      [
        ("minimal", Mapqn_core.Constraints.minimal);
        ("standard", Mapqn_core.Constraints.standard);
        ("full", Mapqn_core.Constraints.full);
      ]
  in
  Mapqn_util.Table.print
    ~header:[ "config"; "vars"; "rows"; "R lower"; "R exact"; "R upper"; "width"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* LP backend benchmark: dense tableau vs revised simplex              *)
(* ------------------------------------------------------------------ *)

(* The Figure-4 tandem sweep is the LP stress test of the paper's
   evaluation: the marginal-balance LP grows linearly with the
   population, and a bound report prices seven objectives out of the
   same feasible region.  [lp] times both backends on it (the dense
   tableau only up to the sizes where it is still tractable), checks
   that they bound the same intervals, and writes the numbers to
   [BENCH_lp.json].  [lp-smoke] is the fast CI variant: one small
   population, hard failure on any interval disagreement. *)

let lp_report =
  [
    Mapqn_core.Bounds.Utilization 0;
    Mapqn_core.Bounds.Utilization 1;
    Mapqn_core.Bounds.Throughput 0;
    Mapqn_core.Bounds.Throughput 1;
    Mapqn_core.Bounds.Mean_queue_length 0;
    Mapqn_core.Bounds.Mean_queue_length 1;
    Mapqn_core.Bounds.Response_time { reference = 0 };
  ]

let lp_metric_label = function
  | Mapqn_core.Bounds.Utilization k -> Printf.sprintf "utilization[%d]" k
  | Mapqn_core.Bounds.Throughput k -> Printf.sprintf "throughput[%d]" k
  | Mapqn_core.Bounds.Mean_queue_length k -> Printf.sprintf "queue-length[%d]" k
  | Mapqn_core.Bounds.Response_time { reference } ->
    Printf.sprintf "response-time[ref %d]" reference
  | Mapqn_core.Bounds.Queue_length_moment (k, r) ->
    Printf.sprintf "queue-moment[%d,%d]" k r
  | Mapqn_core.Bounds.Marginal_probability { station; level } ->
    Printf.sprintf "marginal[%d,%d]" station level

let lp_timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let lp_run solver n =
  let net = Mapqn_workloads.Tandem.network ~population:n () in
  let b, create_s =
    lp_timed (fun () -> Mapqn_core.Bounds.create_exn ~solver net)
  in
  let report, eval_s = lp_timed (fun () -> Mapqn_core.Bounds.eval b lp_report) in
  (report, create_s, eval_s)

(* Worst relative interval disagreement between two reports of the same
   metric list, and the metric it occurs on. *)
let lp_disagreement rev den =
  List.fold_left2
    (fun (worst, at) (m, (ri : Mapqn_core.Bounds.interval)) (_, di) ->
      let rel a b =
        Float.abs (a -. b) /. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
      in
      let d =
        Float.max
          (rel ri.Mapqn_core.Bounds.lower di.Mapqn_core.Bounds.lower)
          (rel ri.Mapqn_core.Bounds.upper di.Mapqn_core.Bounds.upper)
      in
      if d > worst then (d, lp_metric_label m) else (worst, at))
    (0., "-") rev den

(* Provenance for BENCH_lp.json: the commit the numbers were measured at
   and the (UTC) time of the run — what the regression gate
   [bench/regress.ml] prints when a comparison fails. *)
let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let sha = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when sha <> "" -> sha
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let metric_value name =
  match Mapqn_obs.Metrics.find name with
  | { Mapqn_obs.Metrics.value = Mapqn_obs.Metrics.Counter v; _ } :: _
  | { Mapqn_obs.Metrics.value = Mapqn_obs.Metrics.Gauge v; _ } :: _ ->
    v
  | _ -> 0.

(* Cross-population warm-started sweep vs cold per-population creates
   over the same fine population grid (the resolution at which basis
   seeding pays — coarser steps leave restoration with too stale a
   seed).  Each population's LP is stepped through [Bounds.Sweep] and
   then priced with the full bound report, so the totals compare
   end-to-end sweep cost, and the engine's own counters report how many
   steps actually seeded warm. *)
let sweep_grid = [ 20; 40; 60; 80; 100; 120; 140; 160; 180; 200 ]

let run_sweep ~warm_start =
  let sweep =
    Mapqn_core.Bounds.Sweep.create ~warm_start (fun population ->
        Mapqn_workloads.Tandem.network ~population ())
  in
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun n ->
        let b, step_s =
          lp_timed (fun () -> Mapqn_core.Bounds.Sweep.step_exn sweep n)
        in
        let _, eval_s =
          lp_timed (fun () -> Mapqn_core.Bounds.eval b lp_report)
        in
        (n, step_s, eval_s))
      sweep_grid
  in
  (entries, Unix.gettimeofday () -. t0, Mapqn_core.Bounds.Sweep.stats sweep)

let sweep_json entries total (stats : Mapqn_core.Bounds.Sweep.stats) =
  let module J = Mapqn_obs.Json in
  J.Object
    [
      ("total_s", J.Number total);
      ("steps", J.Number (float_of_int stats.Mapqn_core.Bounds.Sweep.steps));
      ("warm_steps", J.Number (float_of_int stats.Mapqn_core.Bounds.Sweep.warm));
      ("cold_steps", J.Number (float_of_int stats.Mapqn_core.Bounds.Sweep.cold));
      ( "refactorizations",
        J.Number
          (float_of_int stats.Mapqn_core.Bounds.Sweep.refactorizations) );
      ("pivots", J.Number (float_of_int stats.Mapqn_core.Bounds.Sweep.pivots));
      ( "per_population",
        J.List
          (List.map
             (fun (n, step_s, eval_s) ->
               J.Object
                 [
                   ("population", J.Number (float_of_int n));
                   ("step_s", J.Number step_s);
                   ("eval_s", J.Number eval_s);
                 ])
             entries) );
    ]

let lp () =
  let module J = Mapqn_obs.Json in
  let both = [ 40; 100 ] and revised_only = [ 250; 500 ] in
  let certs0 = metric_value "bounds_certificates_total" in
  let fails0 = metric_value "bounds_certificate_failures_total" in
  (* Phase-level attribution of the sweep: profile the whole run and
     diff against the spans recorded so far (the bench harness dumps all
     spans at exit, so the collector must not be reset here). *)
  let spans0 = Mapqn_obs.Span.snapshot () in
  Mapqn_obs.Prof.enable ();
  let rows = ref [] and json = ref [] in
  let solver_obj create_s eval_s =
    J.Object
      [ ("create_s", J.Number create_s); ("eval_s", J.Number eval_s) ]
  in
  List.iter
    (fun n ->
      let rev, rc, re = lp_run Mapqn_core.Bounds.Revised n in
      let den, dc, de = lp_run Mapqn_core.Bounds.Dense n in
      let worst, at = lp_disagreement rev den in
      let speedup = (dc +. de) /. (rc +. re) in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.2f + %.2f" rc re;
          Printf.sprintf "%.2f + %.2f" dc de;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.2e (%s)" worst at;
        ]
        :: !rows;
      json :=
        J.Object
          [
            ("population", J.Number (float_of_int n));
            ("revised", solver_obj rc re);
            ("dense", solver_obj dc de);
            ("speedup", J.Number speedup);
            ("max_rel_disagreement", J.Number worst);
          ]
        :: !json)
    both;
  List.iter
    (fun n ->
      let _, rc, re = lp_run Mapqn_core.Bounds.Revised n in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.2f + %.2f" rc re;
          "skipped (timeout)";
          "-";
          "-";
        ]
        :: !rows;
      json :=
        J.Object
          [
            ("population", J.Number (float_of_int n));
            ("revised", solver_obj rc re);
            (* The dense tableau is O(m·n) per pivot: at these
               populations a single report would run for hours, so it is
               skipped by design, not by accident — recorded explicitly
               so downstream diffing never mistakes absence for data
               loss. *)
            ("dense", J.String "skipped (timeout)");
          ]
        :: !json)
    revised_only;
  let warm_entries, warm_total, warm_stats = run_sweep ~warm_start:true in
  let cold_entries, cold_total, cold_stats = run_sweep ~warm_start:false in
  Mapqn_obs.Prof.disable ();
  let phase_rows =
    Mapqn_obs.Prof.attribution
      ~entries:
        (Mapqn_obs.Prof.diff ~baseline:spans0 (Mapqn_obs.Span.snapshot ()))
      ()
  in
  Mapqn_util.Table.print
    ~header:
      [
        "N";
        "revised create+eval (s)";
        "dense create+eval (s)";
        "speedup";
        "max rel disagreement";
      ]
    (List.rev !rows);
  Printf.printf
    "population sweep (N = %d..%d): warm %.1fs (%d/%d steps seeded, %d LUs, \
     %d pivots) vs cold %.1fs (%d LUs, %d pivots) — %.2fx\n"
    (List.hd sweep_grid)
    (List.nth sweep_grid (List.length sweep_grid - 1))
    warm_total warm_stats.Mapqn_core.Bounds.Sweep.warm
    warm_stats.Mapqn_core.Bounds.Sweep.steps
    warm_stats.Mapqn_core.Bounds.Sweep.refactorizations
    warm_stats.Mapqn_core.Bounds.Sweep.pivots cold_total
    cold_stats.Mapqn_core.Bounds.Sweep.refactorizations
    cold_stats.Mapqn_core.Bounds.Sweep.pivots
    (cold_total /. warm_total);
  (* Every optimization above ran under an optimality certificate
     (Mapqn_lp.Certificate, checked in Bounds); the gate in
     bench/regress.ml fails the build on any certificate failure. *)
  let certificates =
    J.Object
      [
        ("evals", J.Number (metric_value "bounds_certificates_total" -. certs0));
        ( "failures",
          J.Number (metric_value "bounds_certificate_failures_total" -. fails0)
        );
        ( "worst_primal_residual",
          J.Number (metric_value "bounds_certificate_primal_residual") );
        ( "worst_dual_violation",
          J.Number (metric_value "bounds_certificate_dual_violation") );
        ( "worst_comp_slack",
          J.Number (metric_value "bounds_certificate_comp_slack") );
      ]
  in
  let body =
    J.to_string
      (J.Object
         [
           ("benchmark", J.String "fig4-tandem-bound-report");
           ("git_sha", J.String (git_sha ()));
           ("timestamp", J.String (iso8601_utc ()));
           ("report_metrics", J.Number (float_of_int (List.length lp_report)));
           ("results", J.List (List.rev !json));
           (* Cross-population warm-started sweep vs cold creates over
              the same fine grid — the regression gate compares the two
              totals when its baseline has this section. *)
           ( "sweep",
             J.Object
               [
                 ( "populations",
                   J.List
                     (List.map
                        (fun n -> J.Number (float_of_int n))
                        sweep_grid) );
                 ("warm", sweep_json warm_entries warm_total warm_stats);
                 ("cold", sweep_json cold_entries cold_total cold_stats);
                 ("speedup", J.Number (cold_total /. warm_total));
               ] );
           ("certificates", certificates);
           (* Per-phase self-time breakdown of the whole sweep (top 25
              by self-time) — the measurement every perf PR is judged
              against. *)
           ("phases", Mapqn_obs.Prof.to_json ~limit:25 phase_rows);
         ])
    ^ "\n"
  in
  (try
     Mapqn_obs.Export.write_file "BENCH_lp.json" body;
     print_endline "bench: LP backend comparison written to BENCH_lp.json"
   with Sys_error msg ->
     Printf.eprintf "bench: cannot write BENCH_lp.json: %s\n" msg)

(* ------------------------------------------------------------------ *)
(* Trace overhead: the cost of iteration-level tracing                  *)
(* ------------------------------------------------------------------ *)

(* Two claims to keep honest (EXPERIMENTS.md records the measurements):
   enabled tracing costs < 5% on the Figure-4 N=100 bound report, and
   the disabled guard allocates nothing on the pivot path. *)
let trace_overhead () =
  let n = 100 in
  let reps = 5 in
  let run_once () =
    let net = Mapqn_workloads.Tandem.network ~population:n () in
    let b = Mapqn_core.Bounds.create_exn net in
    ignore (Mapqn_core.Bounds.eval b lp_report)
  in
  run_once () (* warm the allocator and code paths *);
  (* CPU time, not wall clock: the overhead of interest is the cycles the
     tracing hooks add, and processor time is immune to competing load —
     at ~1.5s per rep its coarse resolution costs well under 1%. *)
  let timed f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let traced () =
    Mapqn_obs.Trace.enable ~capacity:65_536 ();
    Fun.protect ~finally:Mapqn_obs.Trace.disable run_once
  in
  (* Interleave the two variants so slow drift of the machine (thermal,
     cache, competing load) hits both equally, and take the best of each:
     the minima compare the two code paths at their least-disturbed. *)
  let off = ref infinity and on_ = ref infinity in
  for _ = 1 to reps do
    off := Float.min !off (timed run_once);
    on_ := Float.min !on_ (timed traced)
  done;
  let off = !off and on_ = !on_ in
  Printf.printf
    "fig4 N=%d bound report: tracing off %.3fs, on %.3fs, overhead %+.1f%% \
     (best of %d)\n"
    n off on_
    ((on_ -. off) /. off *. 100.)
    reps;
  (* Exported through BENCH_obs.json so the regression gate can hold the
     <5% claim without re-measuring. *)
  Mapqn_obs.Metrics.set
    (Mapqn_obs.Metrics.gauge
       ~help:"Relative CPU overhead of enabled tracing on the fig4 bound report"
       "bench_trace_overhead_ratio")
    (if off > 0. then (on_ -. off) /. off else 0.);
  (* Zero-allocation check of the disabled guard, the exact idiom on the
     pivot path: a single boolean read, event construction only inside. *)
  assert (not (Mapqn_obs.Trace.is_enabled ()));
  let words0 = Gc.minor_words () in
  for i = 1 to 1_000_000 do
    if Mapqn_obs.Trace.is_enabled () then
      Mapqn_obs.Trace.record
        (Mapqn_obs.Trace.Sweep { solver = "bench"; iteration = i; delta = 0. })
  done;
  let words = Gc.minor_words () -. words0 in
  Printf.printf "disabled-guard allocation over 1e6 pivot-path checks: %.0f \
                 minor words\n"
    words;
  (* Same guarantee for the profiling guard: with Prof disabled the
     pivot loop must read one flag and never touch the clock (a clock
     read boxes a float). *)
  assert (not (Mapqn_obs.Prof.is_enabled ()));
  (* Measured against an empty control loop so that any constant cost of
     the measurement itself (boxing the baseline counter reading) cancels
     and only per-check allocation remains. *)
  let acc = ref 0. in
  let measure loop =
    let words0 = Gc.minor_words () in
    loop ();
    Gc.minor_words () -. words0
  in
  let control = measure (fun () -> for _ = 1 to 1_000_000 do () done) in
  let guarded =
    measure (fun () ->
        for _ = 1 to 1_000_000 do
          if Mapqn_obs.Prof.is_enabled () then begin
            let t0 = Mapqn_obs.Prof.now () in
            acc := !acc +. (Mapqn_obs.Prof.now () -. t0)
          end
        done)
  in
  ignore !acc;
  Printf.printf
    "profiling disabled-guard allocation over 1e6 pivot-path checks: %.0f \
     minor words\n"
    (guarded -. control)

(* ------------------------------------------------------------------ *)
(* Ledger overhead: the cost of per-eval provenance records            *)
(* ------------------------------------------------------------------ *)

(* The run ledger promises < 2% on the lp-smoke workload; the gauges set
   here land in BENCH_obs.json, where [bench/regress.exe --obs] holds the
   claim.  The ledger records themselves (BENCH_ledger.jsonl in the
   working directory) double as the CI run's provenance artifact. *)
let ledger_overhead () =
  let n = 20 in
  let reps = 5 in
  let run_once () =
    let net = Mapqn_workloads.Tandem.network ~population:n () in
    let b =
      Mapqn_core.Bounds.create_exn ~solver:Mapqn_core.Bounds.Revised net
    in
    ignore (Mapqn_core.Bounds.eval b lp_report)
  in
  run_once () (* warm the allocator and code paths *);
  (* CPU time, as in [trace_overhead]: the cost of interest is the record
     serialization and flush the ledger adds per eval. *)
  let timed f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let ledgered () =
    Mapqn_obs.Ledger.enable_exn ~path:"BENCH_ledger.jsonl" ();
    Fun.protect ~finally:Mapqn_obs.Ledger.disable run_once
  in
  (* Interleave the variants so machine drift hits both equally and take
     the best of each: minima compare the least-disturbed runs. *)
  let off = ref infinity and on_ = ref infinity in
  for _ = 1 to reps do
    off := Float.min !off (timed run_once);
    on_ := Float.min !on_ (timed ledgered)
  done;
  let off = !off and on_ = !on_ in
  let overhead = on_ -. off in
  let ratio = if off > 0. then overhead /. off else 0. in
  Printf.printf
    "lp-smoke N=%d bound eval: ledger off %.3fs, on %.3fs, overhead %+.1f%% \
     (best of %d; records in BENCH_ledger.jsonl)\n"
    n off on_ (ratio *. 100.) reps;
  Mapqn_obs.Metrics.set
    (Mapqn_obs.Metrics.gauge
       ~help:"Relative CPU overhead of the run ledger on the lp-smoke workload"
       "bench_ledger_overhead_ratio")
    ratio;
  Mapqn_obs.Metrics.set
    (Mapqn_obs.Metrics.gauge
       ~help:"Absolute CPU overhead in seconds of the run ledger on lp-smoke"
       "bench_ledger_overhead_seconds")
    overhead

(* ------------------------------------------------------------------ *)
(* Fleet scaling: sequential vs 4-domain Table-1 bench slice           *)
(* ------------------------------------------------------------------ *)

(* The scaling claim of the fleet runner, held by bench/regress.ml:
   [mapqn table1 --jobs 4] must be >= 2x faster than [--jobs 1] on a
   machine with >= 4 cores, with bit-identical per-model results.  The
   parallel run uses min 4 (recommended domain count) workers — more
   domains than cores only measures oversubscription — and records
   that count next to the core count, so the gate can refuse to demand
   parallel speedup from a small CI runner.  The section merges a
   "fleet" key into BENCH_lp.json (the [lp] section rewrites that file
   wholesale, so this one must read-modify-write). *)
let fleet () =
  let module J = Mapqn_obs.Json in
  let options = Mapqn_experiments.Table1.bench_options in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let t =
      Mapqn_experiments.Table1.run
        ~options:{ options with Mapqn_experiments.Table1.jobs } ()
    in
    (t, Unix.gettimeofday () -. t0)
  in
  let cores = Domain.recommended_domain_count () in
  let jobs = min 4 cores in
  let seq, seq_s = timed 1 in
  let par, par_s = timed jobs in
  let identical =
    seq.Mapqn_experiments.Table1.per_model
    = par.Mapqn_experiments.Table1.per_model
  in
  let speedup = if par_s > 0. then seq_s /. par_s else 0. in
  Printf.printf
    "table1 bench slice (%d models): --jobs 1 %.2fs, --jobs %d %.2fs — %.2fx \
     on %d core(s); per-model results %s\n"
    options.Mapqn_experiments.Table1.models seq_s jobs par_s speedup cores
    (if identical then "bit-identical" else "DIFFER");
  if not identical then begin
    Printf.eprintf
      "bench fleet: parallel per-model results differ from sequential\n";
    exit 1
  end;
  (* Hard-slice failed-model count, under the harvest config
     ([standard] constraints, the CLI default — the config the corpus's
     failures live under): the first 200 random models on the
     small-population grid include historically certificate-failing
     corpus models (indices 15, 63, 74), so a numerics regression that
     resurrects the failures shows up here as a nonzero count — which
     regress.exe gates to zero. *)
  let hard =
    Mapqn_experiments.Fleet_sweep.run
      ~options:
        {
          Mapqn_experiments.Fleet_sweep.default_options with
          Mapqn_experiments.Fleet_sweep.models = 200;
          populations = [ 1; 2; 4; 8 ];
          config = Mapqn_core.Constraints.standard;
        }
      ()
  in
  let hard_failed = List.length hard.Mapqn_experiments.Fleet_sweep.failed in
  let hard_rescued =
    List.length
      (List.filter
         (fun r -> r.Mapqn_experiments.Fleet_sweep.rescues <> [])
         hard.Mapqn_experiments.Fleet_sweep.rows)
  in
  Printf.printf
    "fleet hard slice (200 models, N<=8): %d failed, %d rescued in %.2fs\n"
    hard_failed hard_rescued hard.Mapqn_experiments.Fleet_sweep.wall_s;
  let fleet_json =
    J.Object
      [
        ("models", J.Number (float_of_int options.Mapqn_experiments.Table1.models));
        ("sequential_s", J.Number seq_s);
        ("jobs", J.Number (float_of_int jobs));
        ("parallel_s", J.Number par_s);
        ("speedup", J.Number speedup);
        ("cores", J.Number (float_of_int cores));
        ("bit_identical", J.Bool identical);
        ("hard_slice_models", J.Number 200.);
        ("failed", J.Number (float_of_int hard_failed));
        ("rescued", J.Number (float_of_int hard_rescued));
      ]
  in
  let base =
    match
      In_channel.with_open_text "BENCH_lp.json" In_channel.input_all
      |> J.parse
    with
    | Ok (J.Object kvs) -> List.filter (fun (k, _) -> k <> "fleet") kvs
    | Ok _ | Error _ -> []
    | exception Sys_error _ -> []
  in
  let body = J.to_string (J.Object (base @ [ ("fleet", fleet_json) ])) ^ "\n" in
  try
    Mapqn_obs.Export.write_file "BENCH_lp.json" body;
    print_endline "bench: fleet scaling merged into BENCH_lp.json"
  with Sys_error msg ->
    Printf.eprintf "bench: cannot write BENCH_lp.json: %s\n" msg

let lp_smoke () =
  let n = 20 in
  let rev, rc, re = lp_run Mapqn_core.Bounds.Revised n in
  let den, dc, de = lp_run Mapqn_core.Bounds.Dense n in
  let worst, at = lp_disagreement rev den in
  Printf.printf
    "N=%d revised %.2fs+%.2fs dense %.2fs+%.2fs max rel disagreement %.2e (%s)\n"
    n rc re dc de worst at;
  if worst > 1e-7 then begin
    Printf.eprintf
      "lp-smoke: solver backends disagree beyond 1e-7 on %s (%.3e)\n" at worst;
    exit 1
  end;
  print_endline "lp-smoke: dense and revised backends agree"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let case n = Mapqn_workloads.Case_study.network ~population:n () in
  let tandem n = Mapqn_workloads.Tandem.network ~population:n () in
  (* One Test.make per paper artifact (scaled to micro size) plus the
     solver stages they are built from. *)
  let tests =
    Test.make_grouped ~name:"mapqn"
      [
        Test.make ~name:"fig4/exact-tandem-N64"
          (Staged.stage (fun () -> ignore (Mapqn_ctmc.Solution.solve (tandem 64))));
        Test.make ~name:"fig4/decomposition-N64"
          (Staged.stage (fun () ->
               ignore (Mapqn_baselines.Decomposition.solve (tandem 64))));
        Test.make ~name:"fig8/exact-case-study-N16"
          (Staged.stage (fun () -> ignore (Mapqn_ctmc.Solution.solve (case 16))));
        Test.make ~name:"fig8/bounds-standard-N8"
          (Staged.stage (fun () ->
               let b = Mapqn_core.Bounds.create_exn (case 8) in
               ignore (Mapqn_core.Bounds.response_time b)));
        Test.make ~name:"table1/bounds-full-N4"
          (Staged.stage (fun () ->
               let b =
                 Mapqn_core.Bounds.create_exn ~config:Mapqn_core.Constraints.full
                   (case 4)
               in
               ignore (Mapqn_core.Bounds.response_time b)));
        Test.make ~name:"fig3/mva-tpcw-N512"
          (Staged.stage (fun () ->
               ignore
                 (Mapqn_baselines.Mva.solve
                    (Mapqn_workloads.Tpcw.network_no_acf ~browsers:512 ()))));
        Test.make ~name:"fig1/sim-tpcw-500s"
          (Staged.stage (fun () ->
               let options =
                 {
                   Mapqn_sim.Simulator.default_options with
                   warmup = 0.;
                   horizon = 500.;
                 }
               in
               ignore
                 (Mapqn_sim.Simulator.run ~options
                    (Mapqn_workloads.Tpcw.network ~browsers:64 ()))));
        Test.make ~name:"map/fit-map2"
          (Staged.stage (fun () ->
               ignore (Mapqn_map.Fit.map2_exn ~mean:1. ~scv:16. ~gamma2:0.5 ())));
        Test.make ~name:"sparse/gauss-seidel-case-N64"
          (Staged.stage (fun () ->
               let space = Mapqn_ctmc.State_space.create (case 64) in
               let q = Mapqn_ctmc.Generator.build space in
               ignore
                 (Mapqn_sparse.Stationary.solve
                    ~options:
                      {
                        Mapqn_sparse.Stationary.default_options with
                        method_ = Mapqn_sparse.Stationary.Gauss_seidel;
                      }
                    q)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:25 ~quota:(Time.second 1.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | Some [] | None -> Float.nan
      in
      rows := (name, time_ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Mapqn_util.Table.print
    ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let cell =
           if Float.is_nan ns then "-"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; cell ])
       rows)

let () =
  section "fig4" fig4;
  section "fig8" fig8;
  section "table1" table1;
  section "fig1" fig1;
  section "fig3" fig3;
  section "moment-order" moment_order;
  section "trace-pipeline" trace_pipeline;
  section "ablation" ablation;
  section "lp" lp;
  section "fleet" fleet;
  section "lp-smoke" lp_smoke;
  section "trace-overhead" trace_overhead;
  section "ledger-overhead" ledger_overhead;
  section "micro" micro;
  let telemetry =
    Mapqn_obs.Export.render Mapqn_obs.Export.Json
      ~metrics:(Mapqn_obs.Metrics.snapshot ())
      ~spans:(Mapqn_obs.Span.snapshot ())
  in
  (try
     Mapqn_obs.Export.write_file "BENCH_obs.json" telemetry;
     print_endline "bench: telemetry written to BENCH_obs.json"
   with Sys_error msg -> Printf.eprintf "bench: cannot write telemetry: %s\n" msg);
  print_endline "bench: done"
