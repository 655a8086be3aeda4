open Mapqn_experiments

(* Integration smoke tests: tiny instances of every paper artifact. Runtime
   matters here, so grids are minimal; the full-scale runs live in bench/
   and bin/. *)

let test_fig4_small () =
  let options =
    { Fig4.params = Mapqn_workloads.Tandem.default_params; populations = [ 1; 8; 24 ] }
  in
  let t = Fig4.run ~options () in
  Alcotest.(check int) "three rows" 3 (List.length t.Fig4.rows);
  List.iter
    (fun (r : Fig4.row) ->
      if r.Fig4.exact < 0. || r.Fig4.exact > 1. then Alcotest.fail "exact out of range";
      if r.Fig4.aba_lower > r.Fig4.exact +. 1e-9 then Alcotest.fail "ABA lower invalid";
      if r.Fig4.aba_upper < r.Fig4.exact -. 1e-9 then Alcotest.fail "ABA upper invalid")
    t.Fig4.rows;
  (* The headline: decomposition overshoots under autocorrelation. *)
  let last = List.nth t.Fig4.rows 2 in
  Alcotest.(check bool) "decomposition overshoots" true
    (last.Fig4.decomposition > last.Fig4.exact +. 0.1);
  Alcotest.(check bool) "max error reported" true (Fig4.decomposition_max_error t > 0.1)

let test_fig8_small () =
  let options =
    {
      Fig8.params = Mapqn_workloads.Case_study.default_params;
      populations = [ 2; 6 ];
      config = Mapqn_core.Constraints.full;
    }
  in
  let t = Fig8.run ~options () in
  List.iter
    (fun (r : Fig8.row) ->
      Alcotest.(check bool) "utilization bracketed" true
        (Mapqn_core.Bounds.contains r.Fig8.utilization r.Fig8.exact_utilization);
      Alcotest.(check bool) "response bracketed" true
        (Mapqn_core.Bounds.contains r.Fig8.response r.Fig8.exact_response))
    t.Fig8.rows;
  let lo, hi = Fig8.max_response_error t in
  (* The case study is the paper's hardest instance (Fig. 8 shows visible
     mid-range deviation); errors just need to be in that ballpark. *)
  Alcotest.(check bool)
    (Printf.sprintf "errors in range (lo=%.3f hi=%.3f)" lo hi)
    true
    (lo < 0.15 && hi < 0.2)

let test_table1_small () =
  let options =
    { Fleet_sweep.table1_bench with Fleet_sweep.models = 3; populations = [ 1; 3 ] }
  in
  let t = Fleet_sweep.run ~options () in
  Alcotest.(check int) "three models" 3 (List.length t.Fleet_sweep.rows);
  Alcotest.(check int) "no failures" 0 (List.length t.Fleet_sweep.failed);
  List.iter
    (fun (r : Fleet_sweep.model_row) ->
      Alcotest.(check int) "no violations" 0 r.Fleet_sweep.bracket_violations;
      if not (r.Fleet_sweep.max_err_lower <= 0.5 && r.Fleet_sweep.max_err_upper <= 0.5)
      then
        Alcotest.failf "errors unexpectedly large: %f %f"
          r.Fleet_sweep.max_err_lower r.Fleet_sweep.max_err_upper)
    t.Fleet_sweep.rows;
  let mean_up, _, _, _ = t.Fleet_sweep.rmax_stats in
  Alcotest.(check bool) "mean error sane" true (mean_up >= 0. && mean_up < 0.5)

let test_fig3_small () =
  let options =
    {
      Fig3.default_options with
      Fig3.browsers = [ 8; 24 ];
      sim_horizon = 30_000.;
      exact_model = true;
    }
  in
  let t = Fig3.run ~options () in
  List.iter
    (fun (r : Fig3.row) ->
      (* The exact MAP model and the DES of the same network must agree. *)
      let m = r.Fig3.measured and a = r.Fig3.acf_model in
      if Float.abs (m.Fig3.front_utilization -. a.Fig3.front_utilization) > 0.03 then
        Alcotest.failf "front util: sim %.3f vs exact %.3f" m.Fig3.front_utilization
          a.Fig3.front_utilization;
      (* The no-ACF model must not predict more queueing than the ACF one. *)
      if r.Fig3.no_acf_model.Fig3.response_time > a.Fig3.response_time +. 0.05 then
        Alcotest.fail "no-ACF model overestimates response")
    t.Fig3.rows

let test_fig1_small () =
  let options =
    { Fig1.default_options with Fig1.browsers = 64; horizon = 20_000.; max_lag = 50 }
  in
  let t = Fig1.run ~options () in
  Alcotest.(check int) "six flows" 6 (Array.length t.Fig1.flow_names);
  Array.iteri
    (fun i acf ->
      Alcotest.(check int) "lag count" 50 (Array.length acf);
      Array.iter
        (fun v ->
          if Float.is_nan v then
            Alcotest.failf "flow %d produced too few samples" i)
        acf)
    t.Fig1.acf;
  (* Burstiness shows up in the front-server departures (flow 4). *)
  Alcotest.(check bool) "front departures autocorrelated" true (t.Fig1.acf.(3).(0) > 0.02)

let test_trace_pipeline_small () =
  let t =
    Trace_pipeline.run
      ~options:
        {
          Trace_pipeline.default_options with
          browsers = [ 32; 64 ];
          trace_length = 60_000;
        }
      ()
  in
  (* Fitted statistics close to the ground truth. *)
  let p = Mapqn_workloads.Tpcw.default_params in
  Alcotest.(check (float 0.001)) "mean recovered"
    p.Mapqn_workloads.Tpcw.front_mean
    t.Trace_pipeline.estimated.Mapqn_map.Trace.mean;
  Alcotest.(check (float 0.05)) "gamma2 recovered"
    p.Mapqn_workloads.Tpcw.front_gamma2
    t.Trace_pipeline.estimated.Mapqn_map.Trace.gamma2;
  (* The pipeline's whole point. *)
  Alcotest.(check bool)
    (Printf.sprintf "fitted err %.3f << mean-only err %.3f"
       t.Trace_pipeline.max_err_fitted t.Trace_pipeline.max_err_mean_only)
    true
    (t.Trace_pipeline.max_err_fitted < 0.2
    && t.Trace_pipeline.max_err_mean_only > 2. *. t.Trace_pipeline.max_err_fitted)

let test_prints_run () =
  (* The print functions are part of the deliverable (they render the
     paper's tables); exercise them on tiny runs. *)
  let fig4 =
    Fig4.run
      ~options:
        { Fig4.params = Mapqn_workloads.Tandem.default_params; populations = [ 1; 4 ] }
      ()
  in
  Fig4.print fig4;
  let fig8 =
    Fig8.run
      ~options:
        {
          Fig8.params = Mapqn_workloads.Case_study.default_params;
          populations = [ 2 ];
          config = Mapqn_core.Constraints.standard;
        }
      ()
  in
  Fig8.print fig8

let () =
  Alcotest.run "experiments"
    [
      ( "artifacts",
        [
          Alcotest.test_case "fig4" `Slow test_fig4_small;
          Alcotest.test_case "fig8" `Slow test_fig8_small;
          Alcotest.test_case "table1" `Slow test_table1_small;
          Alcotest.test_case "fig3" `Slow test_fig3_small;
          Alcotest.test_case "fig1" `Slow test_fig1_small;
          Alcotest.test_case "trace pipeline" `Slow test_trace_pipeline_small;
          Alcotest.test_case "prints" `Slow test_prints_run;
        ] );
    ]
