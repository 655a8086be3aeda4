open Mapqn_core
module Network = Mapqn_model.Network
module Station = Mapqn_model.Station
module Solution = Mapqn_ctmc.Solution

let exp_station rate = Station.exp ~rate ()

let bursty_station ?(mean = 1.) ?(scv = 16.) ?(gamma2 = 0.5) () =
  Station.map (Mapqn_map.Fit.map2_exn ~mean ~scv ~gamma2 ())

let mmpp_station () =
  Station.map (Mapqn_map.Builders.mmpp2 ~r01:0.15 ~r10:0.1 ~rate0:3. ~rate1:0.4)

(* The paper's Figure 5 network. *)
let fig5 ?(population = 4) ?(map_station = bursty_station ()) () =
  Network.make_exn
    ~stations:[| exp_station 2.; exp_station 1.; map_station |]
    ~routing:[| [| 0.2; 0.7; 0.1 |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |]
    ~population

let tandem_map population =
  Network.tandem [| exp_station 1.5; mmpp_station () |] ~population

let all_configs =
  [ ("minimal", Constraints.minimal); ("standard", Constraints.standard);
    ("full", Constraints.full) ]

(* ---------------- Marginal_space ---------------- *)

let test_space_dimensions () =
  let net = fig5 () in
  let ms = Marginal_space.create net in
  (* M=3, N=4, H=2: v = 3*5*2 = 30, w = 6*5*2 = 60. *)
  Alcotest.(check int) "vars without level2" 90 (Marginal_space.num_vars ms);
  let ms2 = Marginal_space.create ~level2:true net in
  Alcotest.(check int) "vars with level2" 150 (Marginal_space.num_vars ms2)

let test_space_scales_polynomially () =
  (* The paper's tractability claim: marginal variables grow like
     M²(N+1)H even when the exact state space explodes. *)
  let net = fig5 ~population:100 () in
  let ms = Marginal_space.create net in
  Alcotest.(check int) "M^2 (N+1) H" (9 * 101 * 2) (Marginal_space.num_vars ms)

let test_phase_subst () =
  let net = fig5 () in
  let ms = Marginal_space.create net in
  (* Station 2 is the only one with 2 phases; H = 2. *)
  Alcotest.(check int) "subst to phase 1" 1 (Marginal_space.phase_subst ms 0 2 1);
  Alcotest.(check int) "subst to phase 0" 0 (Marginal_space.phase_subst ms 1 2 0);
  Alcotest.(check int) "component" 1 (Marginal_space.phase_component ms 1 2);
  Alcotest.(check int) "exp station component" 0 (Marginal_space.phase_component ms 1 0)

let test_var_indices_distinct () =
  let net = fig5 () in
  let ms = Marginal_space.create ~level2:true net in
  let seen = Hashtbl.create 256 in
  let record i =
    if Hashtbl.mem seen i then Alcotest.failf "duplicate index %d" i;
    Hashtbl.add seen i ()
  in
  for k = 0 to 2 do
    for n = 0 to 4 do
      for h = 0 to 1 do
        record (Marginal_space.v ms ~station:k ~level:n ~phase:h);
        for j = 0 to 2 do
          if j <> k then begin
            record (Marginal_space.w ms ~busy:j ~station:k ~level:n ~phase:h);
            record (Marginal_space.z ms ~counted:j ~station:k ~level:n ~phase:h)
          end
        done
      done
    done
  done;
  Alcotest.(check int) "covers all vars" (Marginal_space.num_vars ms)
    (Hashtbl.length seen)

let test_describe () =
  let net = fig5 () in
  let ms = Marginal_space.create net in
  let idx = Marginal_space.v ms ~station:1 ~level:3 ~phase:1 in
  Alcotest.(check string) "v name" "v[1](n=3,h=1)" (Marginal_space.describe ms idx);
  let idx = Marginal_space.w ms ~busy:2 ~station:0 ~level:1 ~phase:0 in
  Alcotest.(check string) "w name" "w[2,0](n=1,h=0)" (Marginal_space.describe ms idx)

(* ---------------- exact feasibility (the key correctness theorem) ------- *)

(* Every constraint family must be satisfied by the aggregated exact
   solution: the constraints are exact consequences of global balance. *)
let exact_point_feasible net () =
  let sol = Solution.solve net in
  List.iter
    (fun (name, config) ->
      let ms, model = Constraints.build config net in
      let point = Marginal_space.aggregate_exact ms sol in
      match Mapqn_lp.Lp_model.check_feasible ~tol:1e-7 model point with
      | Ok () -> ()
      | Error e -> Alcotest.failf "[%s] exact point infeasible: %s" name e)
    all_configs

let test_cut_balance_residual_zero () =
  let net = fig5 ~population:3 () in
  let sol = Solution.solve net in
  let ms = Marginal_space.create net in
  let point = Marginal_space.aggregate_exact ms sol in
  let r = Constraints.cut_balance_residual ms point in
  Alcotest.(check bool) "paper eq (1) residual ~ 0" true (r < 1e-10)

let test_aggregate_normalized () =
  let net = fig5 ~population:3 () in
  let sol = Solution.solve net in
  let ms = Marginal_space.create net in
  let point = Marginal_space.aggregate_exact ms sol in
  for k = 0 to 2 do
    let acc = ref 0. in
    for n = 0 to 3 do
      for h = 0 to 1 do
        acc := !acc +. point.(Marginal_space.v ms ~station:k ~level:n ~phase:h)
      done
    done;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "station %d sums to 1" k) 1. !acc
  done

(* ---------------- bracketing ---------------- *)

let check_brackets ?(config = Constraints.standard) net =
  let sol = Solution.solve net in
  let b = Bounds.create_exn ~config net in
  let m = Network.num_stations net in
  for k = 0 to m - 1 do
    let check name interval exact =
      if not (Bounds.contains interval exact) then
        Alcotest.failf "%s[%d]: exact %.8f outside [%.8f, %.8f]" name k exact
          interval.Bounds.lower interval.Bounds.upper
    in
    check "utilization" (Bounds.utilization b k) (Solution.utilization sol k);
    check "throughput" (Bounds.throughput b k) (Solution.throughput sol k);
    check "queue length" (Bounds.mean_queue_length b k) (Solution.mean_queue_length sol k);
    check "2nd moment" (Bounds.queue_length_moment b k 2) (Solution.queue_length_moment sol k 2)
  done;
  let r = Bounds.response_time b in
  let exact_r = Solution.system_response_time sol in
  if not (Bounds.contains r exact_r) then
    Alcotest.failf "response time: exact %.8f outside [%.8f, %.8f]" exact_r
      r.Bounds.lower r.Bounds.upper

let test_brackets_fig5 () = check_brackets (fig5 ~population:5 ())
let test_brackets_tandem_mmpp () = check_brackets (tandem_map 6)
let test_brackets_full_config () =
  check_brackets ~config:Constraints.full (fig5 ~population:4 ())
let test_brackets_minimal_config () =
  check_brackets ~config:Constraints.minimal (fig5 ~population:4 ())

let test_brackets_two_map_stations () =
  (* Two MAP stations: exercises joint phase vectors with H = 4. *)
  let net =
    Network.make_exn
      ~stations:[| exp_station 2.; mmpp_station (); bursty_station ~scv:4. () |]
      ~routing:[| [| 0.; 0.5; 0.5 |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |]
      ~population:3
  in
  check_brackets net

let test_brackets_product_form () =
  (* On an exponential network the LP bounds must bracket (and be close to)
     the product-form solution. *)
  let net = Network.exponentialize (fig5 ~population:5 ()) in
  check_brackets net

let test_exponential_network_bounds_tight () =
  (* For a 2-station exponential tandem the marginal space essentially
     captures the full birth-death chain, so the bounds collapse. *)
  let net = Network.tandem [| exp_station 2.; exp_station 1. |] ~population:5 in
  let sol = Solution.solve net in
  let b = Bounds.create_exn net in
  let u = Bounds.utilization b 0 in
  (* Width is dominated by the solver's conservative validity margin. *)
  Alcotest.(check bool) "tight" true (Bounds.width u < 1e-4);
  Alcotest.(check (float 1e-4)) "equals exact" (Solution.utilization sol 0)
    (Bounds.midpoint u)

let test_tightness_improves_with_config () =
  let net = fig5 ~population:4 () in
  let width config =
    let b = Bounds.create_exn ~config net in
    Bounds.width (Bounds.response_time b)
  in
  let wmin = width Constraints.minimal in
  let wstd = width Constraints.standard in
  let wfull = width Constraints.full in
  Alcotest.(check bool)
    (Printf.sprintf "standard (%.4f) <= minimal (%.4f)" wstd wmin)
    true (wstd <= wmin +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "full (%.4f) <= standard (%.4f)" wfull wstd)
    true (wfull <= wstd +. 1e-9)

let test_interval_helpers () =
  let i = { Bounds.lower = 1.; upper = 3. } in
  Alcotest.(check (float 1e-12)) "width" 2. (Bounds.width i);
  Alcotest.(check (float 1e-12)) "midpoint" 2. (Bounds.midpoint i);
  Alcotest.(check bool) "contains inside" true (Bounds.contains i 2.);
  Alcotest.(check bool) "contains edge" true (Bounds.contains i 3.);
  Alcotest.(check bool) "excludes outside" false (Bounds.contains i 3.5)

let test_interval_infinite_endpoints () =
  (* Response-time bounds are infinite whenever the LP throughput lower
     bound is 0; the helpers must stay NaN-free on such intervals. *)
  let half = { Bounds.lower = 2.; upper = infinity } in
  Alcotest.(check bool) "half-infinite width" true (Bounds.width half = infinity);
  Alcotest.(check bool) "half-infinite midpoint" true
    (Bounds.midpoint half = infinity);
  Alcotest.(check bool) "contains large" true (Bounds.contains half 1e300);
  Alcotest.(check bool) "contains inf" true (Bounds.contains half infinity);
  Alcotest.(check bool) "excludes below" false (Bounds.contains half 1.);
  (* Both endpoints the same infinity: the degenerate point {+inf}. *)
  let point = { Bounds.lower = infinity; upper = infinity } in
  Alcotest.(check (float 1e-12)) "inf-point width" 0. (Bounds.width point);
  Alcotest.(check bool) "inf-point midpoint" true
    (Bounds.midpoint point = infinity);
  Alcotest.(check bool) "inf-point contains inf" true
    (Bounds.contains point infinity);
  Alcotest.(check bool) "inf-point excludes finite" false (Bounds.contains point 5.);
  (* Opposite infinities: the whole line. *)
  let line = { Bounds.lower = neg_infinity; upper = infinity } in
  Alcotest.(check (float 1e-12)) "line midpoint" 0. (Bounds.midpoint line);
  Alcotest.(check bool) "line width not NaN" false
    (Float.is_nan (Bounds.width line));
  Alcotest.(check bool) "line contains everything" true
    (Bounds.contains line (-1e12))

let test_typed_errors () =
  let b = Bounds.create_exn (fig5 ~population:3 ()) in
  (match Bounds.eval b [ Bounds.Throughput 17 ] with
  | exception Bounds.Solver_error (Bounds.Invalid_station 17) -> ()
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected Invalid_station 17");
  (match Bounds.queue_length_moment b 0 (-1) with
  | exception Bounds.Solver_error (Bounds.Invalid_objective _) -> ()
  | _ -> Alcotest.fail "expected Invalid_objective on negative moment order");
  (let delay_net =
     Network.make_exn
       ~stations:[| exp_station 1.; Station.delay ~rate:2. () |]
       ~routing:[| [| 0.; 1. |]; [| 1.; 0. |] |]
       ~population:2
   in
   match Bounds.create delay_net with
   | Error (Bounds.Unsupported_network _) -> ()
   | Error e ->
     Alcotest.fail ("expected Unsupported_network, got " ^ Bounds.error_to_string e)
   | Ok _ -> Alcotest.fail "expected Error on delay network");
  List.iter
    (fun e ->
      Alcotest.(check bool) "error_to_string nonempty" true
        (String.length (Bounds.error_to_string e) > 0))
    [
      Bounds.Unsupported_network "a delay station";
      Bounds.Infeasible_phase1;
      Bounds.Iteration_limit 42;
      Bounds.Invalid_station 3;
      Bounds.Invalid_objective "bad";
    ]

let test_eval_batch_matches_wrappers () =
  (* The wrappers ARE one-element eval calls over the same mutable warm-
     started state, so a batch eval and the wrapper sequence in the same
     order perform identical pivot sequences — results must be
     bit-identical, not merely close. The one exception is
     Response_time: a batch eval memoizes the Throughput solve it
     depends on, so when the batch already priced that throughput the
     reuse shifts the pivot trajectory relative to the wrapper (which
     re-solves it in place). Both endpoints are certified optima of the
     same LP, so they agree to certificate tolerance instead. *)
  let net = tandem_map 6 in
  let metrics =
    [
      Bounds.Utilization 0;
      Bounds.Throughput 0;
      Bounds.Mean_queue_length 0;
      Bounds.Utilization 1;
      Bounds.Throughput 1;
      Bounds.Mean_queue_length 1;
      Bounds.Queue_length_moment (1, 2);
      Bounds.Marginal_probability { station = 0; level = 2 };
      Bounds.Response_time { reference = 0 };
    ]
  in
  let batch = Bounds.eval (Bounds.create_exn net) metrics in
  let b2 = Bounds.create_exn net in
  let wrapper = function
    | Bounds.Utilization k -> Bounds.utilization b2 k
    | Bounds.Throughput k -> Bounds.throughput b2 k
    | Bounds.Mean_queue_length k -> Bounds.mean_queue_length b2 k
    | Bounds.Queue_length_moment (k, r) -> Bounds.queue_length_moment b2 k r
    | Bounds.Marginal_probability { station; level } ->
      Bounds.marginal_probability b2 ~station ~level
    | Bounds.Response_time { reference } -> Bounds.response_time ~reference b2
  in
  List.iter
    (fun (m, (i : Bounds.interval)) ->
      let w = wrapper m in
      let name = Bounds.metric_to_string m in
      match m with
      | Bounds.Response_time _ ->
        let close a b =
          Float.abs (a -. b)
          <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
        in
        Alcotest.(check bool)
          (name ^ " lower within certificate tolerance")
          true
          (close i.Bounds.lower w.Bounds.lower);
        Alcotest.(check bool)
          (name ^ " upper within certificate tolerance")
          true
          (close i.Bounds.upper w.Bounds.upper)
      | _ ->
        Alcotest.(check bool)
          (name ^ " lower bit-identical") true
          (i.Bounds.lower = w.Bounds.lower);
        Alcotest.(check bool)
          (name ^ " upper bit-identical") true
          (i.Bounds.upper = w.Bounds.upper))
    batch

let test_dense_revised_bounds_agree () =
  let metrics k_max =
    List.concat
      (List.init k_max (fun k ->
           [ Bounds.Utilization k; Bounds.Throughput k; Bounds.Mean_queue_length k ]))
    @ [ Bounds.Response_time { reference = 0 } ]
  in
  List.iter
    (fun net ->
      let bd = Bounds.create_exn ~solver:Bounds.Dense net in
      let br = Bounds.create_exn ~solver:Bounds.Revised net in
      let ms = metrics (Network.num_stations net) in
      let close x y =
        x = y || Float.abs (x -. y) <= 1e-7 *. Float.max 1. (Float.abs x)
      in
      List.iter2
        (fun (m, (a : Bounds.interval)) (_, (b : Bounds.interval)) ->
          Alcotest.(check bool)
            (Bounds.metric_to_string m ^ " backends agree")
            true
            (close a.Bounds.lower b.Bounds.lower
            && close a.Bounds.upper b.Bounds.upper))
        (Bounds.eval bd ms) (Bounds.eval br ms))
    [ fig5 ~population:3 (); tandem_map 5 ]

let test_population_zero_bounds () =
  let b = Bounds.create_exn (fig5 ~population:0 ()) in
  let u = Bounds.utilization b 0 in
  Alcotest.(check (float 1e-12)) "zero util lower" 0. u.Bounds.lower;
  Alcotest.(check (float 1e-12)) "zero util upper" 0. u.Bounds.upper;
  let r = Bounds.response_time b in
  Alcotest.(check (float 1e-12)) "zero response" 0. r.Bounds.upper

let test_custom_objective () =
  let net = fig5 ~population:3 () in
  let sol = Solution.solve net in
  let b = Bounds.create_exn net in
  let ms = Bounds.space b in
  (* P{n_2 = 0, phase = 1} as a custom objective. *)
  let obj = [ (Marginal_space.v ms ~station:2 ~level:0 ~phase:1, 1.) ] in
  let interval = Bounds.custom b obj in
  let point = Marginal_space.aggregate_exact ms sol in
  let exact = point.(Marginal_space.v ms ~station:2 ~level:0 ~phase:1) in
  Alcotest.(check bool) "custom brackets" true (Bounds.contains interval exact)

let test_marginal_probability_bounds () =
  let net = fig5 ~population:3 () in
  let sol = Solution.solve net in
  let b = Bounds.create_exn net in
  let exact = (Solution.queue_length_marginal sol 1).(2) in
  let interval = Bounds.marginal_probability b ~station:1 ~level:2 in
  Alcotest.(check bool) "marginal brackets" true (Bounds.contains interval exact)

let test_lp_size_reported () =
  let b = Bounds.create_exn (fig5 ~population:4 ()) in
  let vars, rows = Bounds.lp_size b in
  Alcotest.(check int) "vars" 90 vars;
  Alcotest.(check bool) "rows positive" true (rows > 0)

let test_flow_balance_implied () =
  (* DESIGN.md claims the traffic equations X_k = Σ_j p_jk X_j follow from
     the balance + busy-mass families: verify them at an arbitrary vertex
     of the feasible region (an LP optimum of an unrelated objective). *)
  let net = fig5 ~population:4 () in
  let ms, model = Constraints.build Constraints.minimal net in
  let prepared =
    match Mapqn_lp.Simplex.prepare model with
    | Ok p -> p
    | Error _ -> Alcotest.fail "prepare failed"
  in
  let objective =
    [ (Mapqn_lp.Lp_model.var_of_int model (Marginal_space.v ms ~station:1 ~level:2 ~phase:0), 1.) ]
  in
  let values =
    match Mapqn_lp.Simplex.optimize prepared Mapqn_lp.Simplex.Maximize objective with
    | Mapqn_lp.Simplex.Optimal s -> s.Mapqn_lp.Simplex.values
    | _ -> Alcotest.fail "optimize failed"
  in
  let throughput k =
    let rates =
      Mapqn_map.Process.completion_rates
        (Station.service_process (Network.station net k))
    in
    let acc = ref 0. in
    for n = 1 to 4 do
      for h = 0 to 1 do
        acc :=
          !acc
          +. rates.(Marginal_space.phase_component ms h k)
             *. values.(Marginal_space.v ms ~station:k ~level:n ~phase:h)
      done
    done;
    !acc
  in
  let xs = Array.init 3 throughput in
  for k = 0 to 2 do
    let arrivals = ref 0. in
    for j = 0 to 2 do
      arrivals := !arrivals +. (xs.(j) *. Network.routing_prob net j k)
    done;
    Alcotest.(check (float 1e-5))
      (Printf.sprintf "traffic equation at %d" k)
      xs.(k) !arrivals
  done

(* ---------------- properties ---------------- *)

let arb_random_network =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* population = int_range 1 4 in
      return (seed, population))

let random_network (seed, population) =
  let rng = Mapqn_prng.Rng.create ~seed in
  let m = 3 in
  let routing =
    Array.init m (fun _ ->
        let row = Array.init m (fun _ -> Mapqn_prng.Rng.float rng +. 0.05) in
        let s = Mapqn_util.Ksum.sum row in
        Array.map (fun x -> x /. s) row)
  in
  let scv = Mapqn_prng.Dist.uniform rng ~lo:1.5 ~hi:20. in
  let gamma2 = Mapqn_prng.Dist.uniform rng ~lo:0. ~hi:0.9 in
  let mean = Mapqn_prng.Dist.uniform rng ~lo:0.3 ~hi:3. in
  let stations =
    [|
      exp_station (Mapqn_prng.Dist.uniform rng ~lo:0.5 ~hi:3.);
      exp_station (Mapqn_prng.Dist.uniform rng ~lo:0.5 ~hi:3.);
      Station.map (Mapqn_map.Fit.map2_exn ~mean ~scv ~gamma2 ());
    |]
  in
  Network.make_exn ~stations ~routing ~population

let prop_exact_point_always_feasible =
  QCheck.Test.make ~name:"exact aggregation feasible on random networks" ~count:20
    arb_random_network (fun params ->
      let net = random_network params in
      let sol = Solution.solve net in
      let ms, model = Constraints.build Constraints.standard net in
      let point = Marginal_space.aggregate_exact ms sol in
      match Mapqn_lp.Lp_model.check_feasible ~tol:1e-7 model point with
      | Ok () -> true
      | Error _ -> false)

let prop_bounds_bracket_random =
  QCheck.Test.make ~name:"bounds bracket exact on random networks" ~count:15
    arb_random_network (fun params ->
      let net = random_network params in
      let sol = Solution.solve net in
      let b = Bounds.create_exn net in
      let ok = ref true in
      for k = 0 to 2 do
        if not (Bounds.contains (Bounds.throughput b k) (Solution.throughput sol k))
        then ok := false;
        if not (Bounds.contains (Bounds.utilization b k) (Solution.utilization sol k))
        then ok := false
      done;
      !ok)

(* ---------------- population sweeps ---------------- *)

(* The incremental constraint builder promises output byte-identical to a
   fresh [Constraints.build] — row order, names, senses, right-hand
   sides and term lists — both when creating and when extending from a
   smaller population. *)
let check_models_identical label fresh inc =
  let module Lp = Mapqn_lp.Lp_model in
  Alcotest.(check int)
    (label ^ ": row count") (Lp.num_rows fresh) (Lp.num_rows inc);
  for r = 0 to Lp.num_rows fresh - 1 do
    if
      not
        (Lp.row_name fresh r = Lp.row_name inc r
        && Lp.row_sense fresh r = Lp.row_sense inc r
        && Lp.row_rhs fresh r = Lp.row_rhs inc r
        && List.for_all2
             (fun (v1, c1) (v2, c2) ->
               (v1 : Mapqn_lp.Lp_model.var) = v2 && (c1 : float) = c2)
             (Lp.row_terms fresh r) (Lp.row_terms inc r))
    then
      Alcotest.failf "%s: row %d (%s) differs from fresh build" label r
        (Lp.row_name fresh r)
  done

let test_incremental_equals_build () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun n ->
          let net = fig5 ~population:n () in
          let _, fresh = Constraints.build config net in
          let inc, _, created = Constraints.Incremental.create config net in
          check_models_identical
            (Printf.sprintf "create %s N=%d" cname n)
            fresh created;
          let net' = Network.with_population net (n + 3) in
          let _, fresh' = Constraints.build config net' in
          let _, extended = Constraints.Incremental.extend inc net' in
          check_models_identical
            (Printf.sprintf "extend %s N=%d->%d" cname n (n + 3))
            fresh' extended)
        [ 1; 2; 4 ])
    all_configs

let test_incremental_rejects_other_network () =
  let inc, _, _ = Constraints.Incremental.create Constraints.standard (fig5 ()) in
  Alcotest.check_raises "different stations rejected"
    (Invalid_argument
       "Constraints.Incremental.extend: the network's stations or routing \
        differ from the one the builder was created for (only the population \
        may change)")
    (fun () -> ignore (Constraints.Incremental.extend inc (tandem_map 4)))

(* Warm-started sweeps must produce the same intervals as stepping every
   population cold — the warm start changes the pivot path, never the
   answer beyond solver tolerances. *)
let sweep_report =
  [
    Bounds.Utilization 0;
    Bounds.Throughput 0;
    Bounds.Mean_queue_length 1;
    Bounds.Response_time { reference = 0 };
  ]

let intervals_agree label (m1, (i1 : Bounds.interval)) (m2, (i2 : Bounds.interval)) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: same metric" label)
    true (m1 = m2);
  let close a b =
    Float.abs (a -. b) <= 1e-4 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  in
  if not (close i1.Bounds.lower i2.Bounds.lower && close i1.Bounds.upper i2.Bounds.upper)
  then
    Alcotest.failf "%s (%s): warm [%g, %g] vs cold [%g, %g]" label
      (Bounds.metric_to_string m1) i1.Bounds.lower i1.Bounds.upper
      i2.Bounds.lower i2.Bounds.upper

let check_sweep_agreement label ?config network_of populations =
  let warm = Bounds.Sweep.create ?config network_of in
  let cold = Bounds.Sweep.create ?config ~warm_start:false network_of in
  List.iter
    (fun population ->
      let bw = Bounds.Sweep.step_exn warm population in
      let bc = Bounds.Sweep.step_exn cold population in
      List.iter2
        (intervals_agree (Printf.sprintf "%s N=%d" label population))
        (Bounds.eval bw sweep_report) (Bounds.eval bc sweep_report))
    populations;
  let sw = Bounds.Sweep.stats warm and sc = Bounds.Sweep.stats cold in
  Alcotest.(check int)
    (label ^ ": all steps accounted") (List.length populations)
    (sw.Bounds.Sweep.warm + sw.Bounds.Sweep.cold);
  Alcotest.(check int)
    (label ^ ": cold sweep never warm-starts") 0 sc.Bounds.Sweep.warm

let prop_sweep_warm_matches_cold_fig4 =
  (* The Figure-4 configuration: autocorrelated tandem, standard
     constraint set. *)
  QCheck.Test.make ~name:"warm sweep = cold sweep (fig4 tandem)" ~count:8
    QCheck.(
      make
        Gen.(
          let* start = int_range 1 4 in
          let* len = int_range 2 4 in
          return (start, len)))
    (fun (start, len) ->
      let populations = List.init len (fun i -> start + (i * 2)) in
      check_sweep_agreement "tandem"
        (fun population ->
          Mapqn_workloads.Tandem.network ~population ())
        populations;
      true)

let prop_sweep_warm_matches_cold_fig8 =
  (* The Figure-8 configuration: case-study topology, full (level-2)
     constraint set. *)
  QCheck.Test.make ~name:"warm sweep = cold sweep (fig8 case study)" ~count:5
    QCheck.(
      make
        Gen.(
          let* start = int_range 1 3 in
          let* len = int_range 2 3 in
          return (start, len)))
    (fun (start, len) ->
      let populations = List.init len (fun i -> start + (i * 2)) in
      check_sweep_agreement "case-study" ~config:Constraints.full
        (fun population ->
          Mapqn_workloads.Case_study.network ~population ())
        populations;
      true)

let test_sweep_brackets_exact () =
  (* Stepped bounds still bracket the exact solution at every population
     (certificates run inside each step's optimizations). *)
  let sweep = Bounds.Sweep.create (fun population -> fig5 ~population ()) in
  List.iter
    (fun population ->
      let b = Bounds.Sweep.step_exn sweep population in
      let sol = Solution.solve (fig5 ~population ()) in
      for k = 0 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "U%d bracketed at N=%d" k population)
          true
          (Bounds.contains (Bounds.utilization b k) (Solution.utilization sol k))
      done)
    [ 1; 2; 3; 4; 5 ]

let test_sweep_run_progress () =
  (* [Sweep.run] owns the progress wiring: one task per population, id
     "N=<n>", with [f]'s phases and the lazy step's "bounds" phase in
     between its start and done heartbeats. *)
  let module Progress = Mapqn_obs.Progress in
  let module Json = Mapqn_obs.Json in
  let hb = Filename.temp_file "mapqn_sweep_hb" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove hb) @@ fun () ->
  let oc = open_out hb in
  let p = Progress.create ~quiet:true ~heartbeat:oc ~total:3 "sweep" in
  let sweep = Bounds.Sweep.create (fun population -> fig5 ~population ()) in
  let results =
    Bounds.Sweep.run ~progress:p sweep ~populations:[ 1; 2; 3 ]
      ~f:(fun ~phase ~bounds _ ->
        phase "exact";
        Bounds.utilization (bounds ()) 0)
  in
  Progress.close p;
  close_out oc;
  Alcotest.(check (list int)) "every population" [ 1; 2; 3 ]
    (List.map fst results);
  Alcotest.(check int) "completed" 3 (Progress.completed p);
  let event l =
    let j = Json.parse_exn l in
    let field k =
      Option.value ~default:"" (Option.bind (Json.member k j) Json.get_string)
    in
    Printf.sprintf "%s %s:%s" (field "event") (field "model") (field "phase")
  in
  let events =
    In_channel.with_open_text hb In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map event
  in
  Alcotest.(check (list string)) "heartbeats per population"
    (List.concat_map
       (fun n ->
         let id = Printf.sprintf "N=%d" n in
         [
           "start " ^ id ^ ":";
           "phase " ^ id ^ ":exact";
           "phase " ^ id ^ ":bounds";
           "done " ^ id ^ ":";
         ])
       [ 1; 2; 3 ])
    events

let test_sweep_ledger_records () =
  (* With a ledger enabled, every sweep step and every eval appends
     exactly one record carrying the provenance the doctor needs:
     fingerprint, solver work deltas, certificate triple, health
     snapshot and the evaluated bounds. *)
  let module Ledger = Mapqn_obs.Ledger in
  let module Json = Mapqn_obs.Json in
  let tmp = Filename.temp_file "mapqn_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Ledger.disable ();
      Sys.remove tmp)
  @@ fun () ->
  Ledger.enable_exn ~context:[ ("seed", Json.Number 11.) ] ~path:tmp ();
  let sweep = Bounds.Sweep.create (fun population -> fig5 ~population ()) in
  List.iter
    (fun population ->
      let b = Bounds.Sweep.step_exn sweep population in
      ignore (Bounds.response_time b))
    [ 2; 3 ];
  Ledger.disable ();
  let records = Ledger.load tmp in
  Alcotest.(check (list string)) "one record per unit of work"
    [ "sweep_step"; "eval"; "sweep_step"; "eval" ]
    (List.map Ledger.event records);
  Alcotest.(check (list int)) "populations recorded" [ 2; 2; 3; 3 ]
    (List.map Ledger.population records);
  let fingerprints =
    List.map
      (fun r ->
        match Option.bind (Json.member "fingerprint" r) Json.get_string with
        | Some fp -> fp
        | None -> Alcotest.fail "record lacks a model fingerprint")
      records
  in
  Alcotest.(check bool) "populations fingerprint differently" true
    (List.nth fingerprints 0 <> List.nth fingerprints 2);
  List.iter
    (fun r ->
      Alcotest.(check (option (float 0.))) "seed from context" (Some 11.)
        (Option.bind (Json.member "seed" r) Json.get_float);
      List.iter
        (fun key ->
          if Json.member key r = None then
            Alcotest.failf "record lacks %S" key)
        [ "ts"; "git_sha"; "solver"; "duration_s"; "pivots"; "certificate";
          "health" ])
    records;
  (* The second step was warm-started off the first's basis, and the eval
     records carry the bound interval for the queried metric. *)
  (match List.nth records 2 with
  | r -> (
    match Option.bind (Json.member "warm" r) Json.get_bool with
    | Some warm -> Alcotest.(check bool) "second step warm" true warm
    | None -> Alcotest.fail "sweep_step lacks warm flag"));
  match Json.member "metrics" (List.nth records 1) with
  | Some (Json.List [ m ]) ->
    Alcotest.(check bool) "eval bound finite and ordered" true
      (match
         ( Option.bind (Json.member "lower" m) Json.get_float,
           Option.bind (Json.member "upper" m) Json.get_float )
       with
      | Some lo, Some hi -> Float.is_finite lo && lo <= hi
      | _ -> false)
  | _ -> Alcotest.fail "eval record lacks its metrics list"

let test_sweep_unsupported_network () =
  let sweep =
    Bounds.Sweep.create (fun population ->
        Network.make_exn
          ~stations:[| exp_station 1.; Station.delay ~rate:1. () |]
          ~routing:[| [| 0.; 1. |]; [| 1.; 0. |] |]
          ~population)
  in
  match Bounds.Sweep.step sweep 2 with
  | Error (Bounds.Unsupported_network _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Bounds.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Unsupported_network"

let () =
  Alcotest.run "core"
    [
      ( "marginal_space",
        [
          Alcotest.test_case "dimensions" `Quick test_space_dimensions;
          Alcotest.test_case "polynomial scaling" `Quick test_space_scales_polynomially;
          Alcotest.test_case "phase subst" `Quick test_phase_subst;
          Alcotest.test_case "distinct indices" `Quick test_var_indices_distinct;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "fig5 exact point feasible" `Quick
            (exact_point_feasible (fig5 ()));
          Alcotest.test_case "mmpp tandem exact point feasible" `Quick
            (exact_point_feasible (tandem_map 4));
          Alcotest.test_case "cut balance residual" `Quick test_cut_balance_residual_zero;
          Alcotest.test_case "aggregate normalized" `Quick test_aggregate_normalized;
          QCheck_alcotest.to_alcotest prop_exact_point_always_feasible;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "brackets fig5" `Quick test_brackets_fig5;
          Alcotest.test_case "brackets mmpp tandem" `Quick test_brackets_tandem_mmpp;
          Alcotest.test_case "brackets full config" `Quick test_brackets_full_config;
          Alcotest.test_case "brackets minimal config" `Quick test_brackets_minimal_config;
          Alcotest.test_case "brackets two MAP stations" `Quick
            test_brackets_two_map_stations;
          Alcotest.test_case "brackets product form" `Quick test_brackets_product_form;
          Alcotest.test_case "exponential tandem tight" `Quick
            test_exponential_network_bounds_tight;
          Alcotest.test_case "tightness ordering" `Quick test_tightness_improves_with_config;
          Alcotest.test_case "interval helpers" `Quick test_interval_helpers;
          Alcotest.test_case "interval infinite endpoints" `Quick
            test_interval_infinite_endpoints;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "eval batch = wrapper sequence" `Quick
            test_eval_batch_matches_wrappers;
          Alcotest.test_case "dense vs revised agree" `Quick
            test_dense_revised_bounds_agree;
          Alcotest.test_case "population zero" `Quick test_population_zero_bounds;
          Alcotest.test_case "custom objective" `Quick test_custom_objective;
          Alcotest.test_case "marginal probability" `Quick test_marginal_probability_bounds;
          Alcotest.test_case "lp size" `Quick test_lp_size_reported;
          Alcotest.test_case "flow balance implied" `Quick test_flow_balance_implied;
          QCheck_alcotest.to_alcotest prop_bounds_bracket_random;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "incremental = fresh build" `Quick
            test_incremental_equals_build;
          Alcotest.test_case "incremental rejects other network" `Quick
            test_incremental_rejects_other_network;
          Alcotest.test_case "stepped bounds bracket exact" `Quick
            test_sweep_brackets_exact;
          Alcotest.test_case "run progress" `Quick test_sweep_run_progress;
          Alcotest.test_case "unsupported network" `Quick
            test_sweep_unsupported_network;
          Alcotest.test_case "ledger records per step and eval" `Quick
            test_sweep_ledger_records;
          QCheck_alcotest.to_alcotest prop_sweep_warm_matches_cold_fig4;
          QCheck_alcotest.to_alcotest prop_sweep_warm_matches_cold_fig8;
        ] );
    ]
