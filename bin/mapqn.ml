(* Command-line interface to the MAP queueing network toolkit: per-model
   solvers (exact / bounds / mva / simulate / fit) and the paper's
   experiments (fig1, fig3, fig4, fig8, table1). *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable debug logging (including simplex pivot traces)." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry (Mapqn_obs): --metrics-out / --metrics-format and the      *)
(* event journal: --trace-out / --trace-format / --trace-capacity       *)
(* ------------------------------------------------------------------ *)

let metrics_format_conv = Arg.enum Mapqn_obs.Export.format_names

let metrics_out_arg =
  let doc =
    "Write solver telemetry (metrics and timing spans) to $(docv) after the \
     run; $(b,-) writes to standard output."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_format_arg =
  let doc =
    "Telemetry format: $(b,table) (human-readable), $(b,json) (one document), \
     $(b,jsonl) (one object per line) or $(b,prometheus) (text exposition)."
  in
  Arg.(
    value
    & opt metrics_format_conv Mapqn_obs.Export.Table
    & info [ "metrics-format" ] ~doc)

let trace_format_conv =
  Arg.enum
    (List.map
       (fun name ->
         (name, Result.get_ok (Mapqn_obs.Trace.format_of_string name)))
       Mapqn_obs.Trace.format_names)

let trace_out_arg =
  let doc =
    "Enable iteration-level solver tracing (simplex pivots, fixed-point \
     sweeps, simulator batches, bound certificates) and write the event \
     journal to $(docv) after the run; $(b,-) writes to standard output."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: $(b,jsonl) (one event per line) or $(b,chrome) \
     (Chrome trace-event JSON, loadable in Perfetto / chrome://tracing)."
  in
  Arg.(
    value
    & opt trace_format_conv Mapqn_obs.Trace.Chrome
    & info [ "trace-format" ] ~doc)

let trace_capacity_arg =
  let doc =
    "Ring-buffer capacity of the trace: the newest $(docv) events are \
     retained, older ones are dropped (the journal records how many)."
  in
  Arg.(value & opt int 65_536 & info [ "trace-capacity" ] ~docv:"EVENTS" ~doc)

let ledger_out_arg =
  let doc =
    "Append one JSONL run-ledger record per bound evaluation, sweep step and \
     simulator run to $(docv): provenance (git SHA, model fingerprint, seed), \
     solver work, certificate residuals and numerical-health gauges. The file \
     is flushed per record, so a killed run's ledger is intact; inspect it \
     with $(b,mapqn ledger) and $(b,mapqn doctor)."
  in
  Arg.(value & opt (some string) None & info [ "ledger-out" ] ~docv:"FILE" ~doc)

type obs_options = {
  metrics_out : string option;
  metrics_format : Mapqn_obs.Export.format;
  trace_out : string option;
  trace_format : Mapqn_obs.Trace.format;
  trace_capacity : int;
  ledger_out : string option;
}

let obs_args =
  Term.(
    const (fun metrics_out metrics_format trace_out trace_format trace_capacity
               ledger_out ->
        {
          metrics_out;
          metrics_format;
          trace_out;
          trace_format;
          trace_capacity;
          ledger_out;
        })
    $ metrics_out_arg $ metrics_format_arg $ trace_out_arg $ trace_format_arg
    $ trace_capacity_arg $ ledger_out_arg)

let render_telemetry fmt =
  Mapqn_obs.Export.render fmt
    ~metrics:(Mapqn_obs.Metrics.snapshot ())
    ~spans:(Mapqn_obs.Span.snapshot ())

let write_metrics path contents =
  try Mapqn_obs.Export.write_file path contents
  with Sys_error msg ->
    Printf.eprintf "mapqn: cannot write metrics: %s\n" msg;
    exit 1

let start_trace obs =
  if obs.trace_out <> None then
    Mapqn_obs.Trace.enable ~capacity:obs.trace_capacity ()

let start_ledger obs =
  match obs.ledger_out with
  | None -> ()
  | Some path -> (
    match Mapqn_obs.Ledger.enable ~path () with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "mapqn: %s\n" (Mapqn_obs.Ledger.enable_error_to_string e);
      exit 1
    | exception Sys_error msg ->
      Printf.eprintf "mapqn: cannot open ledger file: %s\n" msg;
      exit 1)

let finish_ledger () = Mapqn_obs.Ledger.disable ()

let finish_trace obs =
  match obs.trace_out with
  | None -> ()
  | Some path ->
    (match Mapqn_obs.Trace.current () with
    | None -> ()
    | Some trace -> (
      try Mapqn_obs.Trace.write obs.trace_format ~path trace
      with Sys_error msg ->
        Printf.eprintf "mapqn: cannot write trace: %s\n" msg));
    Mapqn_obs.Trace.disable ()

(* Every subcommand runs inside [with_telemetry]: the whole run is timed
   under a root span named after the subcommand, tracing is live for
   exactly the span of the run, and the registry and event journal are
   dumped to --metrics-out / --trace-out (if given) even when the
   command fails. *)
let with_telemetry name obs f =
  start_trace obs;
  start_ledger obs;
  Fun.protect
    (fun () -> Mapqn_obs.Span.with_ name f)
    ~finally:(fun () ->
      finish_trace obs;
      finish_ledger ();
      match obs.metrics_out with
      | None -> ()
      | Some path -> write_metrics path (render_telemetry obs.metrics_format))

(* ------------------------------------------------------------------ *)
(* Shared model arguments                                               *)
(* ------------------------------------------------------------------ *)

let population_arg =
  let doc = "Closed population (number of circulating jobs)." in
  Arg.(value & opt int 20 & info [ "n"; "population" ] ~docv:"N" ~doc)

let scv_arg =
  let doc = "Squared coefficient of variation of the MAP service." in
  Arg.(value & opt float 16. & info [ "scv" ] ~doc)

let gamma2_arg =
  let doc = "Geometric ACF decay rate of the MAP service (0 <= g < 1)." in
  Arg.(value & opt float 0.5 & info [ "gamma2" ] ~doc)

let model_arg =
  let doc =
    "Built-in model: $(b,case-study) (paper Fig. 5/8), $(b,tandem) (Fig. 4), \
     $(b,tpcw) (Fig. 2/3)."
  in
  Arg.(
    value
    & opt (enum [ ("case-study", `Case_study); ("tandem", `Tandem); ("tpcw", `Tpcw) ])
        `Case_study
    & info [ "model" ] ~doc)

let build_model model ~population ~scv ~gamma2 =
  match model with
  | `Case_study ->
    Mapqn_workloads.Case_study.network
      ~params:{ Mapqn_workloads.Case_study.default_params with scv; gamma2 }
      ~population ()
  | `Tandem ->
    Mapqn_workloads.Tandem.network
      ~params:{ Mapqn_workloads.Tandem.default_params with scv2 = scv; gamma2 }
      ~population ()
  | `Tpcw ->
    Mapqn_workloads.Tpcw.network
      ~params:
        { Mapqn_workloads.Tpcw.default_params with front_scv = scv; front_gamma2 = gamma2 }
      ~browsers:population ()

let config_arg =
  let doc = "Constraint families: $(b,minimal), $(b,standard) or $(b,full)." in
  Arg.(
    value
    & opt
        (enum
           [
             ("minimal", Mapqn_core.Constraints.minimal);
             ("standard", Mapqn_core.Constraints.standard);
             ("full", Mapqn_core.Constraints.full);
           ])
        Mapqn_core.Constraints.standard
    & info [ "config" ] ~doc)

let solver_arg =
  let doc =
    "LP backend: $(b,revised) (sparse columns, warm-started basis; the \
     default) or $(b,dense) (reference dense-tableau simplex)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("revised", Mapqn_core.Bounds.Revised);
             ("dense", Mapqn_core.Bounds.Dense);
           ])
        Mapqn_core.Bounds.Revised
    & info [ "solver" ] ~doc)

(* ------------------------------------------------------------------ *)
(* exact                                                               *)
(* ------------------------------------------------------------------ *)

let print_metrics_table rows =
  Mapqn_util.Table.print
    ~header:[ "metric"; "station"; "value" ]
    (List.concat_map
       (fun (name, values) ->
         List.mapi
           (fun k v -> [ name; string_of_int k; Mapqn_util.Table.float_cell v ])
           (Array.to_list values))
       rows)

let exact_cmd =
  let run verbose model population scv gamma2 obs =
    setup_logs verbose;
    with_telemetry "exact" obs @@ fun () ->
    let net = build_model model ~population ~scv ~gamma2 in
    let sol = Mapqn_ctmc.Solution.solve ~max_states:3_000_000 net in
    print_metrics_table (Mapqn_ctmc.Solution.metrics_table sol);
    Printf.printf "system response time (ref station 0): %.6f\n"
      (Mapqn_ctmc.Solution.system_response_time sol)
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact CTMC solution of a built-in MAP network")
    term

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

(* The report [bounds], [profile] and [trace] evaluate, as one
   warm-started batch: utilization, throughput and queue length per
   station, then the response time. *)
let report_metrics net =
  List.concat
    (List.init (Mapqn_model.Network.num_stations net) (fun k ->
         [
           Mapqn_core.Bounds.Utilization k;
           Mapqn_core.Bounds.Throughput k;
           Mapqn_core.Bounds.Mean_queue_length k;
         ]))
  @ [ Mapqn_core.Bounds.Response_time { reference = 0 } ]

let bounds_cmd =
  let sensitivity_arg =
    let doc = "Also print the binding constraints (largest |dual|) of the upper response-time bound." in
    Arg.(value & flag & info [ "sensitivity" ] ~doc)
  in
  let run verbose model population scv gamma2 config solver sensitivity obs =
    setup_logs verbose;
    with_telemetry "bounds" obs @@ fun () ->
    let net = build_model model ~population ~scv ~gamma2 in
    match Mapqn_core.Bounds.create ~solver ~config net with
    | Error e -> prerr_endline ("bounds: " ^ Mapqn_core.Bounds.error_to_string e)
    | Ok b ->
      let vars, rows = Mapqn_core.Bounds.lp_size b in
      Printf.printf "LP: %d variables, %d rows\n" vars rows;
      let name : Mapqn_core.Bounds.metric -> string = function
        | Utilization k -> Printf.sprintf "utilization[%d]" k
        | Throughput k -> Printf.sprintf "throughput[%d]" k
        | Mean_queue_length k -> Printf.sprintf "queue length[%d]" k
        | Response_time _ -> "response time"
        | m -> Mapqn_core.Bounds.metric_to_string m
      in
      let rows =
        List.map
          (fun (metric, (i : Mapqn_core.Bounds.interval)) ->
            [
              name metric;
              Mapqn_util.Table.float_cell i.Mapqn_core.Bounds.lower;
              Mapqn_util.Table.float_cell i.Mapqn_core.Bounds.upper;
            ])
          (Mapqn_core.Bounds.eval b (report_metrics net))
      in
      Mapqn_util.Table.print ~header:[ "metric"; "lower"; "upper" ] rows;
      if sensitivity then begin
        print_endline "binding constraints of the response-time upper bound (X min):";
        List.iter
          (fun (name, dual) -> Printf.printf "  %-28s %+.6f\n" name dual)
          (Mapqn_core.Bounds.sensitivity b Mapqn_lp.Simplex.Minimize
             (Mapqn_core.Bounds.Throughput 0))
      end
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ config_arg $ solver_arg $ sensitivity_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:"Marginal-balance LP bounds (the paper's method) for a built-in model")
    term

(* ------------------------------------------------------------------ *)
(* mva                                                                 *)
(* ------------------------------------------------------------------ *)

let mva_cmd =
  let run verbose model population scv gamma2 obs =
    setup_logs verbose;
    with_telemetry "mva" obs @@ fun () ->
    let net =
      Mapqn_model.Network.exponentialize (build_model model ~population ~scv ~gamma2)
    in
    let mva = Mapqn_baselines.Mva.solve net in
    print_metrics_table
      [
        ("utilization", mva.Mapqn_baselines.Mva.utilization);
        ("throughput", mva.Mapqn_baselines.Mva.throughput);
        ("queue length", mva.Mapqn_baselines.Mva.mean_queue_length);
      ];
    Printf.printf "system response time: %.6f\n"
      mva.Mapqn_baselines.Mva.system_response_time
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "mva"
       ~doc:"Exact MVA on the exponentialized (no-burstiness) model")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let horizon_arg =
    Arg.(value & opt float 100_000. & info [ "horizon" ] ~doc:"Measured simulated time.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run verbose model population scv gamma2 horizon seed obs =
    setup_logs verbose;
    with_telemetry "simulate" obs @@ fun () ->
    let net = build_model model ~population ~scv ~gamma2 in
    let options = { Mapqn_sim.Simulator.default_options with horizon; seed } in
    let r = Mapqn_sim.Simulator.run ~options net in
    print_metrics_table
      [
        ("utilization", Array.map (fun s -> s.Mapqn_sim.Simulator.utilization) r.Mapqn_sim.Simulator.stations);
        ("throughput", Array.map (fun s -> s.Mapqn_sim.Simulator.throughput) r.Mapqn_sim.Simulator.stations);
        ( "queue length",
          Array.map (fun s -> s.Mapqn_sim.Simulator.mean_queue_length) r.Mapqn_sim.Simulator.stations );
      ];
    Printf.printf "events: %d\nsystem response time: %.6f\n"
      r.Mapqn_sim.Simulator.total_events r.Mapqn_sim.Simulator.system_response_time
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ horizon_arg $ seed_arg $ obs_args)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Discrete-event simulation of a built-in model") term

(* ------------------------------------------------------------------ *)
(* fit                                                                 *)
(* ------------------------------------------------------------------ *)

let fit_cmd =
  let mean_arg = Arg.(value & opt float 1. & info [ "mean" ] ~doc:"Target mean.") in
  let skewness_arg =
    Arg.(value & opt (some float) None & info [ "skewness" ] ~doc:"Target skewness.")
  in
  let run verbose mean scv gamma2 skewness obs =
    setup_logs verbose;
    with_telemetry "fit" obs @@ fun () ->
    match Mapqn_map.Fit.map2 ~mean ~scv ~gamma2 ?skewness () with
    | Error msg -> prerr_endline ("fit: " ^ msg)
    | Ok p ->
      Format.printf "%a@." Mapqn_map.Process.pp p;
      Printf.printf "mean=%.6f scv=%.6f skewness=%.6f\n" (Mapqn_map.Process.mean p)
        (Mapqn_map.Process.scv p) (Mapqn_map.Process.skewness p);
      (match Mapqn_map.Process.acf_decay p with
      | Some g -> Printf.printf "acf decay gamma2=%.6f\n" g
      | None -> print_endline "acf decay: (complex)");
      List.iter
        (fun k -> Printf.printf "acf[%d]=%.6f\n" k (Mapqn_map.Process.acf p k))
        [ 1; 2; 5; 10 ];
      Printf.printf "IDC limit: %.4f (Poisson = 1)\n" (Mapqn_map.Counting.idc_limit p)
  in
  let term =
    Term.(
      const run $ verbose_arg $ mean_arg $ scv_arg $ gamma2_arg $ skewness_arg
      $ obs_args)
  in
  Cmd.v
    (Cmd.info "fit" ~doc:"Fit a MAP(2) to mean/SCV/gamma2 (and optional skewness)")
    term

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  let doc = "Run the full paper-scale experiment (slow) instead of the scaled default." in
  Arg.(value & flag & info [ "paper-scale" ] ~doc)

(* Sweep progress reporting (Mapqn_obs.Progress): --progress draws a
   status line with an ETA, --heartbeat-out appends one JSONL record per
   model/phase event; the heartbeat file doubles as the resume
   checkpoint for table1's and fleet's --resume-from. *)

let progress_arg =
  let doc =
    "Report sweep progress (per-model status and ETA) on standard error: a \
     live line on a terminal, one line per completed model otherwise."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let heartbeat_out_arg =
  let doc =
    "Append JSONL heartbeat records (model id, seed, phase, elapsed) to \
     $(docv) as the sweep runs; the file doubles as a checkpoint for \
     $(b,--resume-from)."
  in
  Arg.(value & opt (some string) None & info [ "heartbeat-out" ] ~docv:"FILE" ~doc)

let with_progress ~label ~total ~progress ~heartbeat_out f =
  if (not progress) && heartbeat_out = None then f None
  else begin
    let hb =
      match heartbeat_out with
      | None -> None
      | Some path -> (
        try Some (Mapqn_obs.Export.open_append path)
        with Sys_error msg ->
          Printf.eprintf "mapqn: cannot open heartbeat file: %s\n" msg;
          exit 1)
    in
    let p =
      Mapqn_obs.Progress.create ?heartbeat:hb ~quiet:(not progress) ~total label
    in
    Fun.protect
      (fun () -> f (Some p))
      ~finally:(fun () ->
        Mapqn_obs.Progress.close p;
        Option.iter close_out hb)
  end

let fig1_cmd =
  let run verbose paper_scale obs =
    setup_logs verbose;
    with_telemetry "fig1" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Fig1.default_options
      else
        { Mapqn_experiments.Fig1.default_options with browsers = 128; horizon = 60_000. }
    in
    Mapqn_experiments.Fig1.print (Mapqn_experiments.Fig1.run ~options ())
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Figure 1: ACF of the six TPC-W flows")
    Term.(const run $ verbose_arg $ scale_arg $ obs_args)

let fig3_cmd =
  let run verbose paper_scale obs =
    setup_logs verbose;
    with_telemetry "fig3" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Fig3.default_options
      else Mapqn_experiments.Fig3.bench_options
    in
    Mapqn_experiments.Fig3.print (Mapqn_experiments.Fig3.run ~options ())
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Figure 3: TPC-W model vs measurement bars")
    Term.(const run $ verbose_arg $ scale_arg $ obs_args)

let fig4_cmd =
  let run verbose paper_scale progress heartbeat_out obs =
    setup_logs verbose;
    with_telemetry "fig4" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Fig4.default_options
      else Mapqn_experiments.Fig4.bench_options
    in
    with_progress ~label:"fig4"
      ~total:(List.length options.Mapqn_experiments.Fig4.populations)
      ~progress ~heartbeat_out
    @@ fun p ->
    Mapqn_experiments.Fig4.print (Mapqn_experiments.Fig4.run ~options ?progress:p ())
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Figure 4: decomposition and ABA failure on the tandem")
    Term.(
      const run $ verbose_arg $ scale_arg $ progress_arg $ heartbeat_out_arg
      $ obs_args)

let fig8_cmd =
  let run verbose paper_scale progress heartbeat_out obs =
    setup_logs verbose;
    with_telemetry "fig8" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Fig8.default_options
      else Mapqn_experiments.Fig8.bench_options
    in
    with_progress ~label:"fig8"
      ~total:(List.length options.Mapqn_experiments.Fig8.populations)
      ~progress ~heartbeat_out
    @@ fun p ->
    let t = Mapqn_experiments.Fig8.run ~options ?progress:p () in
    Mapqn_experiments.Fig8.print t;
    let lo, hi = Mapqn_experiments.Fig8.max_response_error t in
    Printf.printf "max relative response-time error: lower %.4f upper %.4f\n" lo hi
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Figure 8: case-study bounds vs exact")
    Term.(
      const run $ verbose_arg $ scale_arg $ progress_arg $ heartbeat_out_arg
      $ obs_args)

let resume_from_arg =
  let doc =
    "Skip models recorded as done in the heartbeat JSONL file $(docv) (from \
     an earlier run's $(b,--heartbeat-out)); the summary statistics then \
     cover only the models evaluated this run."
  in
  Arg.(value & opt (some string) None & info [ "resume-from" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the per-model fleet (default: the machine's \
     recommended domain count). Per-model results, seeds and ledger record \
     bodies are bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some j when j >= 1 -> j
  | Some j ->
    Printf.eprintf "mapqn: --jobs must be >= 1 (got %d)\n" j;
    exit 1
  | None -> Mapqn_fleet.Fleet.default_jobs ()

(* Only the done ids that name a model of this run count: a heartbeat
   of another grid or id format resumes nothing, and says so. *)
let resume_skip ~label ~options resume_from =
  match resume_from with
  | None -> fun _ -> false
  | Some path ->
    let done_ = Mapqn_experiments.Fleet_sweep.completed options path in
    if done_ = [] then
      Printf.eprintf "%s: no completed models in %s, running all\n%!" label path
    else
      Printf.eprintf "%s: resuming, %d model(s) already done in %s\n%!" label
        (List.length done_) path;
    let tbl = Hashtbl.create (List.length done_) in
    List.iter (fun id -> Hashtbl.replace tbl id ()) done_;
    fun id -> Hashtbl.mem tbl id

(* [mapqn table1] and [mapqn fleet] share this run path: resume from a
   heartbeat file, stream rows to [out], report progress, print the
   summary. Returns whether any model failed; the caller exits 1 on it
   once the telemetry is written. *)
let run_fleet ~label ~options ~out ~progress ~heartbeat_out ~resume_from =
  let skip = resume_skip ~label ~options resume_from in
  (* Row writes come from worker domains; one mutex keeps the JSONL
     stream record-atomic (same contract as the ledger sink). *)
  let sink_mutex = Mutex.create () in
  let sink_oc =
    match out with
    | None -> None
    | Some path -> (
      try Some (Mapqn_obs.Export.open_append path)
      with Sys_error msg ->
        Printf.eprintf "mapqn: cannot open output file: %s\n" msg;
        exit 1)
  in
  let sink =
    Option.map
      (fun oc row ->
        Mutex.lock sink_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock sink_mutex)
          (fun () ->
            output_string oc
              (Mapqn_obs.Json.to_string
                 (Mapqn_experiments.Fleet_sweep.row_to_json row));
            output_char oc '\n';
            flush oc))
      sink_oc
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out sink_oc)
    (fun () ->
      with_progress ~label ~total:options.Mapqn_experiments.Fleet_sweep.models
        ~progress ~heartbeat_out
      @@ fun p ->
      let t =
        Mapqn_experiments.Fleet_sweep.run ~options ?progress:p ~skip ?sink ()
      in
      Mapqn_experiments.Fleet_sweep.print t;
      t.Mapqn_experiments.Fleet_sweep.failed <> [])

let table1_cmd =
  let models_arg =
    Arg.(value & opt (some int) None & info [ "models" ] ~doc:"Number of random models.")
  in
  let run verbose paper_scale models jobs progress heartbeat_out resume_from obs =
    setup_logs verbose;
    let preset =
      if paper_scale then Mapqn_experiments.Fleet_sweep.table1_paper
      else Mapqn_experiments.Fleet_sweep.table1_bench
    in
    let options =
      {
        preset with
        Mapqn_experiments.Fleet_sweep.models =
          Option.value models ~default:preset.Mapqn_experiments.Fleet_sweep.models;
        jobs = resolve_jobs jobs;
      }
    in
    let failed =
      with_telemetry "table1" obs @@ fun () ->
      run_fleet ~label:"table1" ~options ~out:None ~progress ~heartbeat_out
        ~resume_from
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Table 1: bound accuracy on random models")
    Term.(
      const run $ verbose_arg $ scale_arg $ models_arg $ jobs_arg $ progress_arg
      $ heartbeat_out_arg $ resume_from_arg $ obs_args)

(* Population grids for mapqn fleet: comma-separated items, each an
   integer or an inclusive "lo..hi" range ("1..100", "1,2,4,8",
   "1..8,16,32"). *)
let parse_populations s =
  try
    String.split_on_char ',' s
    |> List.concat_map (fun item ->
           let item = String.trim item in
           match String.index_opt item '.' with
           | Some i
             when i + 1 < String.length item && item.[i + 1] = '.' ->
             let lo = int_of_string (String.trim (String.sub item 0 i)) in
             let hi =
               int_of_string
                 (String.trim
                    (String.sub item (i + 2) (String.length item - i - 2)))
             in
             if lo > hi || lo < 0 then failwith "bad range";
             List.init (hi - lo + 1) (fun k -> lo + k)
           | _ ->
             let n = int_of_string item in
             if n < 0 then failwith "negative";
             [ n ])
    |> fun l -> if l = [] then Error "empty population list" else Ok l
  with _ ->
    Error
      (Printf.sprintf
         "cannot parse populations %S (expected e.g. \"1..100\" or \"1,2,4,8\")"
         s)

let fleet_cmd =
  let models_arg =
    let doc = "Number of random models (paper scale: 10000)." in
    Arg.(value & opt int 100 & info [ "models" ] ~doc)
  in
  let stations_arg =
    let doc = "Queues per model (paper: 3; beyond-paper: 4-5)." in
    Arg.(value & opt int 3 & info [ "stations" ] ~doc)
  in
  let map_stations_arg =
    let doc = "How many queues get MAP(2) service (the rest exponential)." in
    Arg.(value & opt int 1 & info [ "map-stations" ] ~doc)
  in
  let populations_arg =
    let doc =
      "Population grid: comma-separated integers and/or inclusive ranges \
       ($(b,1..100), $(b,1,2,4,8), $(b,1..8,16,32))."
    in
    Arg.(value & opt string "1,2,4,8,16,32,64,100" & info [ "populations" ] ~doc)
  in
  let seed_arg =
    let doc = "Model-generation master seed (per-model seeds derive from it)." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~doc)
  in
  let exact_upto_arg =
    let doc =
      "Also solve the exact CTMC and report bound errors for populations <= \
       $(docv) (0 disables; exact solves are what make paper-scale grids \
       infeasible, so keep this small)."
    in
    Arg.(value & opt int 0 & info [ "exact-upto" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc =
      "Append one JSONL row per evaluated model (bounds per population, \
       derived seed, fingerprint, timings) to $(docv), streamed as workers \
       finish."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run verbose models stations map_stations populations jobs seed config
      exact_upto out progress heartbeat_out resume_from obs =
    setup_logs verbose;
    let populations =
      match parse_populations populations with
      | Ok l -> l
      | Error msg ->
        Printf.eprintf "mapqn: %s\n" msg;
        exit 1
    in
    if stations < 1 || map_stations < 1 || map_stations > stations then begin
      Printf.eprintf
        "mapqn: need 1 <= --map-stations <= --stations (got %d of %d)\n"
        map_stations stations;
      exit 1
    end;
    let options =
      {
        Mapqn_experiments.Fleet_sweep.models;
        populations;
        seed;
        config;
        exact_upto;
        jobs = resolve_jobs jobs;
        spec =
          {
            Mapqn_workloads.Random_models.default_spec with
            Mapqn_workloads.Random_models.stations;
            map_stations;
          };
      }
    in
    let failed =
      with_telemetry "fleet" obs @@ fun () ->
      run_fleet ~label:"fleet" ~options ~out ~progress ~heartbeat_out
        ~resume_from
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale random-model bound sweeps (full Table 1 and beyond) on \
          a multicore domain pool")
    Term.(
      const run $ verbose_arg $ models_arg $ stations_arg $ map_stations_arg
      $ populations_arg $ jobs_arg $ seed_arg $ config_arg $ exact_upto_arg
      $ out_arg $ progress_arg $ heartbeat_out_arg $ resume_from_arg $ obs_args)

let pipeline_cmd =
  let run verbose paper_scale obs =
    setup_logs verbose;
    with_telemetry "pipeline" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Trace_pipeline.default_options
      else
        {
          Mapqn_experiments.Trace_pipeline.default_options with
          browsers = [ 64; 128 ];
          trace_length = 100_000;
        }
    in
    Mapqn_experiments.Trace_pipeline.print
      (Mapqn_experiments.Trace_pipeline.run ~options ())
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Measurement pipeline: fit the front server from a service trace and predict")
    Term.(const run $ verbose_arg $ scale_arg $ obs_args)

let moment_order_cmd =
  let run verbose paper_scale obs =
    setup_logs verbose;
    with_telemetry "moment-order" obs @@ fun () ->
    let options =
      if paper_scale then Mapqn_experiments.Moment_order.default_options
      else Mapqn_experiments.Moment_order.bench_options
    in
    Mapqn_experiments.Moment_order.print
      (Mapqn_experiments.Moment_order.run ~options ())
  in
  Cmd.v
    (Cmd.info "moment-order"
       ~doc:"Extension: second- vs third-order MAP parameterization accuracy")
    Term.(const run $ verbose_arg $ scale_arg $ obs_args)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let experiment_arg =
    let doc =
      "Workload to profile: $(b,fig4) (autocorrelated tandem) and $(b,fig8) \
       (case-study network) profile an LP bound evaluation; $(b,tpcw) \
       ($(b,--population) browsers) profiles the discrete-event simulation \
       (its stations include delay servers the bound analysis does not \
       support)."
    in
    Arg.(
      value
      & pos 0 (enum [ ("fig4", `Fig4); ("fig8", `Fig8); ("tpcw", `Tpcw) ]) `Fig4
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let folded_out_arg =
    let doc =
      "Write folded stacks ($(b,path;to;span self-µs) per line, consumable by \
       flamegraph.pl / inferno / speedscope) to $(docv); $(b,-) writes to \
       standard output."
    in
    Arg.(value & opt (some string) None & info [ "folded-out" ] ~docv:"FILE" ~doc)
  in
  let table_out_arg =
    let doc = "Also write the full (untruncated) attribution table to $(docv)." in
    Arg.(value & opt (some string) None & info [ "table-out" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Attribution rows printed (sorted by self-time)." in
    Arg.(value & opt int 30 & info [ "top" ] ~docv:"ROWS" ~doc)
  in
  let check_arg =
    let doc =
      "Exit non-zero unless the phase self-times cover at least 95% of the \
       measured wall time (the attribution's internal consistency check)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run verbose experiment population config solver top folded_out table_out
      metrics_out metrics_format check =
    setup_logs verbose;
    let name, net =
      match experiment with
      | `Fig4 -> ("fig4", Mapqn_workloads.Tandem.network ~population ())
      | `Fig8 -> ("fig8", Mapqn_workloads.Case_study.network ~population ())
      | `Tpcw -> ("tpcw", Mapqn_workloads.Tpcw.network ~browsers:population ())
    in
    Mapqn_obs.Metrics.reset ();
    Mapqn_obs.Span.reset ();
    Mapqn_obs.Prof.enable ();
    let wall0 = Mapqn_obs.Span.now () in
    (* Everything measurable happens inside the root span, so Σ self over
       all paths telescopes to (approximately) the measured wall time. *)
    (Mapqn_obs.Span.with_ "profile" @@ fun () ->
     match experiment with
     | `Tpcw ->
       (* TPC-W has delay stations the bound analysis rejects; the
          paper's experiment on it is the simulation, so that is what
          gets profiled (the event loop runs under the "events" span). *)
       ignore (Mapqn_sim.Simulator.run net)
     | `Fig4 | `Fig8 -> (
       match Mapqn_core.Bounds.create ~solver ~config net with
       | Error e ->
         Printf.eprintf "profile: %s\n" (Mapqn_core.Bounds.error_to_string e);
         exit 1
       | Ok b -> ignore (Mapqn_core.Bounds.eval b (report_metrics net))));
    let wall = Mapqn_obs.Span.now () -. wall0 in
    Mapqn_obs.Prof.disable ();
    let rows = Mapqn_obs.Prof.attribution () in
    let self = Mapqn_obs.Prof.self_total rows in
    let coverage = if wall > 0. then self /. wall else 1. in
    Printf.printf "profile %s: population %d, %d phases\n" name population
      (List.length rows);
    print_string (Mapqn_obs.Prof.render_table ~limit:top rows);
    Printf.printf "phase self-times sum to %.4fs of %.4fs wall (%.1f%% coverage)\n"
      self wall (100. *. coverage);
    Option.iter
      (fun path ->
        Mapqn_obs.Export.write_file path (Mapqn_obs.Prof.render_table rows))
      table_out;
    Option.iter
      (fun path -> Mapqn_obs.Export.write_file path (Mapqn_obs.Prof.folded ()))
      folded_out;
    (* Same --metrics-out/--metrics-format contract as every other
       subcommand: the registry and span snapshot of the profiled run. *)
    Option.iter
      (fun path -> write_metrics path (render_telemetry metrics_format))
      metrics_out;
    if check && coverage < 0.95 then begin
      Printf.eprintf
        "profile: self-time coverage %.1f%% below the 95%% consistency bar\n"
        (100. *. coverage);
      exit 1
    end
  in
  let term =
    Term.(
      const run $ verbose_arg $ experiment_arg $ population_arg $ config_arg
      $ solver_arg $ top_arg $ folded_out_arg $ table_out_arg $ metrics_out_arg
      $ metrics_format_arg $ check_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one LP bound evaluation with phase-level profiling on and print \
          the self-time attribution table (count / total / self / max / minor \
          words per phase); optionally export folded stacks for flamegraph \
          tooling")
    term

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let run verbose model population scv gamma2 config solver obs =
    setup_logs verbose;
    (* Solve the model through both pipelines (LP bounds and exact CTMC)
       so the telemetry covers the simplex, the constraint generator and
       the state-space layers in a single report. *)
    Mapqn_obs.Metrics.reset ();
    Mapqn_obs.Span.reset ();
    start_trace obs;
    start_ledger obs;
    let net = build_model model ~population ~scv ~gamma2 in
    let summary =
      Fun.protect ~finally:(fun () ->
          finish_trace obs;
          finish_ledger ())
      @@ fun () ->
      Mapqn_obs.Span.with_ "stats.solve" @@ fun () ->
      let bound =
        match Mapqn_core.Bounds.create ~solver ~config net with
        | Error e ->
          Printf.sprintf "bounds: %s" (Mapqn_core.Bounds.error_to_string e)
        | Ok b ->
          let r = Mapqn_core.Bounds.response_time b in
          let vars, rows = Mapqn_core.Bounds.lp_size b in
          Printf.sprintf "bounds: LP %d vars x %d rows, response time in [%.6f, %.6f]"
            vars rows r.Mapqn_core.Bounds.lower r.Mapqn_core.Bounds.upper
      in
      let sol = Mapqn_ctmc.Solution.solve ~max_states:3_000_000 net in
      Printf.sprintf "%s\nexact: response time %.6f" bound
        (Mapqn_ctmc.Solution.system_response_time sol)
    in
    let telemetry = render_telemetry obs.metrics_format in
    match obs.metrics_out with
    | Some path ->
      (* Telemetry goes to the file; the human summary to stdout. *)
      write_metrics path telemetry;
      print_endline summary
    | None ->
      (* No file: telemetry is the stdout payload. Keep machine-readable
         formats clean — only the table format gets the summary header. *)
      if obs.metrics_format = Mapqn_obs.Export.Table then begin
        print_endline summary;
        print_newline ()
      end;
      print_string telemetry
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ config_arg $ solver_arg $ obs_args)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Solve a built-in model (LP bounds + exact CTMC) and print the full \
          solver telemetry: simplex pivots, constraint rows, CTMC size, \
          timing spans")
    term

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let out_arg =
    let doc =
      "Write the event journal to $(docv); $(b,-) (the default) writes to \
       standard output."
    in
    Arg.(value & opt string "-" & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run verbose model population scv gamma2 config solver out fmt capacity =
    setup_logs verbose;
    Mapqn_obs.Trace.enable ~capacity ();
    Fun.protect ~finally:Mapqn_obs.Trace.disable @@ fun () ->
    let net = build_model model ~population ~scv ~gamma2 in
    Mapqn_obs.Trace.record
      (Mapqn_obs.Trace.Mark { name = "trace.start"; detail = "bounds eval" });
    (match Mapqn_core.Bounds.create ~solver ~config net with
    | Error e ->
      Printf.eprintf "trace: %s\n" (Mapqn_core.Bounds.error_to_string e);
      exit 1
    | Ok b -> ignore (Mapqn_core.Bounds.eval b (report_metrics net)));
    Mapqn_obs.Trace.record
      (Mapqn_obs.Trace.Mark { name = "trace.stop"; detail = "bounds eval" });
    match Mapqn_obs.Trace.current () with
    | None -> ()
    | Some t ->
      (try Mapqn_obs.Trace.write fmt ~path:out t
       with Sys_error msg ->
         Printf.eprintf "trace: cannot write trace: %s\n" msg;
         exit 1);
      Printf.eprintf "trace: %d events emitted, %d retained, %d dropped\n"
        (Mapqn_obs.Trace.emitted t) (Mapqn_obs.Trace.retained t)
        (Mapqn_obs.Trace.dropped t)
  in
  let term =
    Term.(
      const run $ verbose_arg $ model_arg $ population_arg $ scv_arg $ gamma2_arg
      $ config_arg $ solver_arg $ out_arg $ trace_format_arg $ trace_capacity_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a full LP bound evaluation with iteration-level tracing on and \
          dump the event journal (per-pivot simplex events, bound \
          certificates) as JSONL or a Perfetto-loadable Chrome trace")
    term

(* ------------------------------------------------------------------ *)
(* ledger / doctor                                                     *)
(* ------------------------------------------------------------------ *)

let load_ledger path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "mapqn: no such ledger file: %s\n" path;
    exit 2
  end;
  match Mapqn_obs.Ledger.load path with
  | [] ->
    Printf.eprintf "mapqn: %s contains no parsable ledger records\n" path;
    exit 2
  | records -> records

let event_filter_arg =
  let doc =
    "Only consider records of this event type ($(b,eval), $(b,sweep_step), \
     $(b,sim))."
  in
  Arg.(value & opt (some string) None & info [ "event" ] ~docv:"EVENT" ~doc)

let filter_events event records =
  match event with
  | None -> records
  | Some ev ->
    let kept =
      List.filter (fun r -> Mapqn_obs.Ledger.event r = ev) records
    in
    if kept = [] then begin
      Printf.eprintf "mapqn: no records with event %S\n" ev;
      exit 2
    end;
    kept

let ledger_cmd =
  let file_a_arg =
    let doc = "Ledger file to list (run with $(b,--ledger-out) to produce one)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER" ~doc)
  in
  let file_b_arg =
    let doc =
      "Optional second ledger: compare run $(i,LEDGER) (A) against $(docv) \
       (B) and report bound-value and performance drift per matched record."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"LEDGER_B" ~doc)
  in
  let run verbose file_a file_b event =
    setup_logs verbose;
    let a = filter_events event (load_ledger file_a) in
    match file_b with
    | None -> print_string (Mapqn_obs.Ledger.summarize a)
    | Some file_b ->
      let b = filter_events event (load_ledger file_b) in
      print_string (Mapqn_obs.Ledger.render_diff (Mapqn_obs.Ledger.diff a b))
  in
  Cmd.v
    (Cmd.info "ledger"
       ~doc:
         "List a run ledger (one row per recorded solve), or diff two ledgers \
          of the same experiment and report bound-value and performance drift")
    Term.(const run $ verbose_arg $ file_a_arg $ file_b_arg $ event_filter_arg)

let doctor_cmd =
  let file_arg =
    let doc = "Ledger file to diagnose." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER" ~doc)
  in
  let run verbose file =
    setup_logs verbose;
    let records = load_ledger file in
    let findings = Mapqn_obs.Ledger.doctor records in
    Printf.printf "doctor: %d record(s) in %s\n" (List.length records) file;
    print_string (Mapqn_obs.Ledger.render_findings findings);
    if List.exists (fun f -> f.Mapqn_obs.Ledger.severity = Mapqn_obs.Ledger.Fail)
         findings
    then exit 1
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Scan a run ledger for numerical-trust hazards: certificate rescues, \
          exhausted rescue ladders and near-misses, drift-triggered \
          reinversions, degeneracy stalls, and the \
          residual-peak-at-the-largest-population signature; exits non-zero \
          when any finding is a failure")
    Term.(const run $ verbose_arg $ file_arg)

let () =
  let doc = "MAP queueing networks: exact solution, LP bounds, baselines, simulation" in
  let info = Cmd.info "mapqn" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            exact_cmd;
            bounds_cmd;
            mva_cmd;
            simulate_cmd;
            fit_cmd;
            fig1_cmd;
            fig3_cmd;
            fig4_cmd;
            fig8_cmd;
            table1_cmd;
            fleet_cmd;
            pipeline_cmd;
            moment_order_cmd;
            profile_cmd;
            stats_cmd;
            trace_cmd;
            ledger_cmd;
            doctor_cmd;
          ]))
