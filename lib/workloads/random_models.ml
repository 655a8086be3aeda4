module Rng = Mapqn_prng.Rng
module Dist = Mapqn_prng.Dist

type spec = {
  stations : int;
  map_stations : int;
  mean_range : float * float;
  scv_range : float * float;
  gamma2_range : float * float;
  skewness : bool;
}

let default_spec =
  {
    stations = 3;
    map_stations = 1;
    mean_range = (0.25, 4.);
    scv_range = (1.5, 20.);
    gamma2_range = (0., 0.9);
    skewness = true;
  }

type model = {
  network : Mapqn_model.Network.t;
  map_indices : int list;
  drawn_scv : float;
  drawn_gamma2 : float;
}

let log_uniform rng ~lo ~hi = exp (Dist.uniform rng ~lo:(log lo) ~hi:(log hi))

let random_routing rng m =
  Array.init m (fun _ ->
      (* Entries bounded away from zero keep the chain irreducible. *)
      let row = Array.init m (fun _ -> Rng.float rng +. 0.05) in
      let total = Mapqn_util.Ksum.sum row in
      Array.map (fun x -> x /. total) row)

let random_map rng spec =
  let lo_m, hi_m = spec.mean_range in
  let lo_s, hi_s = spec.scv_range in
  let lo_g, hi_g = spec.gamma2_range in
  let mean = log_uniform rng ~lo:lo_m ~hi:hi_m in
  let scv = Dist.uniform rng ~lo:lo_s ~hi:hi_s in
  let gamma2 = Dist.uniform rng ~lo:lo_g ~hi:hi_g in
  let skewness =
    if not spec.skewness then None
    else begin
      (* Draw the third moment log-uniformly within the H2-feasible range
         above the balanced-means lower endpoint. *)
      let m2 = (scv +. 1.) *. mean *. mean in
      match Mapqn_map.Fit.m3_feasible_range ~m1:mean ~m2 with
      | None -> None
      | Some (lo3, _) ->
        let m3 = lo3 *. log_uniform rng ~lo:1.05 ~hi:8. in
        let var = m2 -. (mean *. mean) in
        let sigma = sqrt var in
        Some ((m3 -. (3. *. mean *. var) -. (mean ** 3.)) /. (sigma ** 3.))
    end
  in
  let fit = Mapqn_map.Fit.map2 ~mean ~scv ~gamma2 ?skewness () in
  let process =
    match fit with
    | Ok p -> p
    | Error _ ->
      (* Skewed fit infeasible: fall back to balanced means. *)
      Mapqn_map.Fit.map2_exn ~mean ~scv ~gamma2 ()
  in
  (process, scv, gamma2)

let generate ?(spec = default_spec) rng =
  if spec.stations < 2 then invalid_arg "Random_models: need >= 2 stations";
  if spec.map_stations < 1 || spec.map_stations > spec.stations then
    invalid_arg "Random_models: bad map_stations";
  let m = spec.stations in
  let routing = random_routing rng m in
  (* MAP stations occupy the last [map_stations] slots: deterministic
     placement keeps experiments reproducible and the reference station
     exponential. *)
  let first_map = m - spec.map_stations in
  let drawn = ref [] in
  let lo_m, hi_m = spec.mean_range in
  let stations =
    Array.init m (fun k ->
        if k < first_map then
          Mapqn_model.Station.exp
            ~name:(Printf.sprintf "exp%d" k)
            ~rate:(1. /. log_uniform rng ~lo:lo_m ~hi:hi_m)
            ()
        else begin
          let process, scv, gamma2 = random_map rng spec in
          drawn := (scv, gamma2) :: !drawn;
          Mapqn_model.Station.map ~name:(Printf.sprintf "map%d" k) process
        end)
  in
  let scv, gamma2 = match !drawn with [] -> (1., 0.) | d :: _ -> d in
  {
    network = Mapqn_model.Network.make_exn ~stations ~routing ~population:0;
    map_indices = List.init spec.map_stations (fun i -> first_map + i);
    drawn_scv = scv;
    drawn_gamma2 = gamma2;
  }

let generate_many ?spec ~seed count =
  let rng = Rng.create ~seed in
  List.init count (fun _ -> generate ?spec rng)

let near_degenerate ~seed ~tie_exp population =
  let rng = Rng.create ~seed in
  let eps = if tie_exp = 0 then 0. else 10. ** float_of_int (-tie_exp) in
  let rate = Dist.uniform rng ~lo:0.5 ~hi:2. in
  let scv = Dist.uniform rng ~lo:1.5 ~hi:4. in
  let gamma2 = Dist.uniform rng ~lo:0. ~hi:0.9 in
  let stations =
    [|
      Mapqn_model.Station.exp ~rate ();
      Mapqn_model.Station.exp ~rate:(rate *. (1. +. eps)) ();
      (* The MAP station's mean ties to the exponential rate, so all
         three demands coincide (uniform routing gives equal visits). *)
      Mapqn_model.Station.map
        (Mapqn_map.Fit.map2_exn ~mean:(1. /. rate) ~scv ~gamma2 ());
    |]
  in
  let third = 1. /. 3. in
  let routing = Array.make 3 [| third; third; third |] in
  Mapqn_model.Network.make_exn ~stations ~routing ~population
