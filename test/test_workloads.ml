open Mapqn_workloads
module Network = Mapqn_model.Network
module Station = Mapqn_model.Station

let check_float ?(tol = 1e-9) = Alcotest.(check (float tol))

(* ---------------- Tpcw ---------------- *)

let test_tpcw_shape () =
  let net = Tpcw.network ~browsers:100 () in
  Alcotest.(check int) "three stations" 3 (Network.num_stations net);
  Alcotest.(check int) "population" 100 (Network.population net);
  Alcotest.(check bool) "client is delay" true
    (Station.is_delay (Network.station net Tpcw.client));
  Alcotest.(check int) "front has 2 phases" 2
    (Station.phases (Network.station net Tpcw.front));
  Alcotest.(check bool) "db exponential" true
    (Station.is_exponential (Network.station net Tpcw.db))

let test_tpcw_visit_ratios () =
  (* v_client = 1; every front completion returns to the client with
     p_reply, so v_front = 1 / p_reply and v_db = (1 - p) / p. *)
  let p = Tpcw.default_params in
  let v = Network.visit_ratios (Tpcw.network ~browsers:10 ()) in
  check_float ~tol:1e-9 "client" 1. v.(Tpcw.client);
  check_float ~tol:1e-9 "front" (1. /. p.Tpcw.p_reply) v.(Tpcw.front);
  check_float ~tol:1e-9 "db" ((1. -. p.Tpcw.p_reply) /. p.Tpcw.p_reply) v.(Tpcw.db)

let test_tpcw_front_statistics () =
  let p = Tpcw.default_params in
  let net = Tpcw.network ~browsers:10 () in
  let front = Station.service_process (Network.station net Tpcw.front) in
  check_float ~tol:1e-8 "front mean" p.Tpcw.front_mean (Mapqn_map.Process.mean front);
  check_float ~tol:1e-6 "front scv" p.Tpcw.front_scv (Mapqn_map.Process.scv front);
  match Mapqn_map.Process.acf_decay front with
  | Some g -> check_float ~tol:1e-6 "front gamma2" p.Tpcw.front_gamma2 g
  | None -> Alcotest.fail "expected decay"

let test_tpcw_no_acf () =
  let net = Tpcw.network_no_acf ~browsers:10 () in
  Alcotest.(check bool) "product form" true (Network.is_product_form net);
  (* Demands preserved. *)
  let d1 = Network.demands (Tpcw.network ~browsers:10 ()) in
  let d2 = Network.demands net in
  Alcotest.(check bool) "demands equal" true
    (Mapqn_util.Tol.close_arrays ~rel:1e-8 ~abs:1e-10 d1 d2)

let test_tpcw_user_response () =
  let params = Tpcw.default_params in
  check_float "subtracts think" 3.
    (Tpcw.user_response_time ~network_response:10. ~params);
  check_float "clamps at zero" 0.
    (Tpcw.user_response_time ~network_response:5. ~params)

let test_tpcw_rejects_bad_params () =
  (try
     ignore
       (Tpcw.network
          ~params:{ Tpcw.default_params with Tpcw.p_reply = 0. }
          ~browsers:10 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ---------------- Case_study ---------------- *)

let test_case_study_demands_balanced () =
  let net = Case_study.network ~population:5 () in
  let d = Network.demands net in
  check_float ~tol:1e-8 "queue1 demand" 1.0 d.(0);
  check_float ~tol:1e-8 "queue2 demand" 1.0 d.(1);
  check_float ~tol:1e-8 "queue3 demand" 1.25 d.(2);
  Alcotest.(check int) "bottleneck index" 2 Case_study.bottleneck

let test_case_study_map_statistics () =
  let p = Case_study.default_params in
  let net = Case_study.network ~population:5 () in
  let map = Station.service_process (Network.station net Case_study.bottleneck) in
  check_float ~tol:1e-6 "scv" p.Case_study.scv (Mapqn_map.Process.scv map);
  match Mapqn_map.Process.acf_decay map with
  | Some g -> check_float ~tol:1e-6 "gamma2" p.Case_study.gamma2 g
  | None -> Alcotest.fail "expected decay"

let test_case_study_routing () =
  let net = Case_study.network ~population:2 () in
  check_float "p11" 0.2 (Network.routing_prob net 0 0);
  check_float "p12" 0.7 (Network.routing_prob net 0 1);
  check_float ~tol:1e-12 "p13" 0.1 (Network.routing_prob net 0 2)

let test_fig6_state_count () =
  let net = Case_study.fig6_network ~population:2 in
  let space = Mapqn_ctmc.State_space.create net in
  Alcotest.(check int) "12 states as drawn in the paper" 12
    (Mapqn_ctmc.State_space.num_states space)

(* ---------------- Tandem ---------------- *)

let test_tandem_shape () =
  let net = Tandem.network ~population:10 () in
  Alcotest.(check int) "two queues" 2 (Network.num_stations net);
  let d = Network.demands net in
  check_float ~tol:1e-8 "queue1 demand" 1.0 d.(0);
  check_float ~tol:1e-8 "queue2 demand" 0.95 d.(1);
  Alcotest.(check int) "observed queue" 0 Tandem.observed_queue

(* ---------------- Random_models ---------------- *)

let test_random_models_reproducible () =
  let same (x : Random_models.model) (y : Random_models.model) =
    Alcotest.(check (float 0.)) "same scv" x.Random_models.drawn_scv
      y.Random_models.drawn_scv;
    Alcotest.(check bool) "same routing" true
      (Mapqn_linalg.Mat.equal ~rel:0. ~abs:0.
         (Network.routing x.Random_models.network)
         (Network.routing y.Random_models.network))
  in
  List.iter2 same
    (Random_models.generate_many ~seed:5 3)
    (Random_models.generate_many ~seed:5 3);
  (* Prefix-stable: n models are the first n of any larger draw from the
     same seed, so a fleet's first models are those of a smaller one. *)
  let m = 8 in
  let long = Random_models.generate_many ~seed:5 m in
  List.iter
    (fun n ->
      List.iter2 same
        (Random_models.generate_many ~seed:5 n)
        (List.filteri (fun i _ -> i < n) long))
    [ 1; 3; m - 1 ]

let test_random_models_structure () =
  let models = Random_models.generate_many ~seed:42 20 in
  List.iter
    (fun (m : Random_models.model) ->
      let net = m.Random_models.network in
      Alcotest.(check int) "3 stations" 3 (Network.num_stations net);
      Alcotest.(check (list int)) "map at the end" [ 2 ] m.Random_models.map_indices;
      let lo, hi = Random_models.default_spec.Random_models.scv_range in
      if m.Random_models.drawn_scv < lo || m.Random_models.drawn_scv > hi then
        Alcotest.fail "scv out of range";
      let glo, ghi = Random_models.default_spec.Random_models.gamma2_range in
      if m.Random_models.drawn_gamma2 < glo || m.Random_models.drawn_gamma2 > ghi
      then Alcotest.fail "gamma2 out of range";
      (* The fitted MAP matches the drawn statistics. *)
      let map = Station.service_process (Network.station net 2) in
      check_float ~tol:1e-5 "fitted scv" m.Random_models.drawn_scv
        (Mapqn_map.Process.scv map))
    models

let test_random_models_distinct () =
  let models = Random_models.generate_many ~seed:42 5 in
  let scvs = List.map (fun m -> m.Random_models.drawn_scv) models in
  Alcotest.(check bool) "distinct draws" true
    (List.length (List.sort_uniq compare scvs) > 1)

let test_random_models_multi_map () =
  let spec = { Random_models.default_spec with Random_models.map_stations = 2 } in
  let m = List.hd (Random_models.generate_many ~spec ~seed:1 1) in
  Alcotest.(check (list int)) "two map stations" [ 1; 2 ] m.Random_models.map_indices;
  Alcotest.(check int) "joint phase space" 4
    (Network.total_phases m.Random_models.network)

let test_random_models_rejects_bad_spec () =
  let rng = Mapqn_prng.Rng.create ~seed:0 in
  (try
     ignore
       (Random_models.generate
          ~spec:{ Random_models.default_spec with Random_models.map_stations = 0 }
          rng);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let () =
  Alcotest.run "workloads"
    [
      ( "tpcw",
        [
          Alcotest.test_case "shape" `Quick test_tpcw_shape;
          Alcotest.test_case "visit ratios" `Quick test_tpcw_visit_ratios;
          Alcotest.test_case "front statistics" `Quick test_tpcw_front_statistics;
          Alcotest.test_case "no-acf projection" `Quick test_tpcw_no_acf;
          Alcotest.test_case "user response" `Quick test_tpcw_user_response;
          Alcotest.test_case "bad params" `Quick test_tpcw_rejects_bad_params;
        ] );
      ( "case_study",
        [
          Alcotest.test_case "balanced demands" `Quick test_case_study_demands_balanced;
          Alcotest.test_case "map statistics" `Quick test_case_study_map_statistics;
          Alcotest.test_case "routing" `Quick test_case_study_routing;
          Alcotest.test_case "fig6 states" `Quick test_fig6_state_count;
        ] );
      ( "tandem", [ Alcotest.test_case "shape" `Quick test_tandem_shape ] );
      ( "random_models",
        [
          Alcotest.test_case "reproducible" `Quick test_random_models_reproducible;
          Alcotest.test_case "structure" `Quick test_random_models_structure;
          Alcotest.test_case "distinct" `Quick test_random_models_distinct;
          Alcotest.test_case "multi map" `Quick test_random_models_multi_map;
          Alcotest.test_case "bad spec" `Quick test_random_models_rejects_bad_spec;
        ] );
    ]
