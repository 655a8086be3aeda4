(* Hard-model regression corpus (test/corpus/hard_models.jsonl).

   The corpus pins the 108 random Table-1 models (of the first 10,000,
   master seed 2008) that failed their LP optimality certificate before
   the certificate rescue ladder existed: primal residuals up to ~1e-2
   against a 1e-5 tolerance, all at populations <= 8. Each record names
   the model's generation index, derived task seed, network fingerprint
   and the first population of the 1,2,4,8 grid whose certificate
   failed. The fixture was produced by tools/harvest_corpus.ml from a
   pre-rescue fleet run; the fingerprints pin the generator so the suite
   detects drift in model generation as loudly as a solver regression.

   Every corpus model must now certify — and the near-degenerate
   generator below must keep producing fresh models of the same species
   that the revised and dense solvers agree on. *)

module Network = Mapqn_model.Network
module Random_models = Mapqn_workloads.Random_models
module Bounds = Mapqn_core.Bounds
module Constraints = Mapqn_core.Constraints
module Solution = Mapqn_ctmc.Solution
module Health = Mapqn_obs.Health
module Json = Mapqn_obs.Json
module Ledger = Mapqn_obs.Ledger
module Metrics = Mapqn_obs.Metrics

open Corpus_fixture

(* ---------------- every corpus model certifies ---------------- *)

(* An optional ledger sink lets CI run `mapqn doctor` over exactly
   this suite's solver records (the corpus CI job sets the variable;
   local runs skip it). *)
let open_corpus_ledger () =
  match Sys.getenv_opt "MAPQN_CORPUS_LEDGER" with
  | Some path when not (Ledger.is_enabled ()) ->
    Ledger.enable_exn ~path ();
    Ledger.set_context "experiment" (Json.String "corpus")
  | _ -> ()

let test_corpus_certifies () =
  open_corpus_ledger ();
  let causes = Hashtbl.create 8 in
  List.iter
    (fun (e, model) ->
      (* [standard] constraints: the config the harvest ran under (the
         CLI's --config default), hence the config these models failed
         under — [full] solves a different, larger LP. *)
      let sweep =
        Bounds.Sweep.create ~config:Constraints.standard (fun population ->
            Network.with_population model.Random_models.network population)
      in
      List.iter
        (fun population ->
          if population <= e.fail_population then begin
            (* [step_exn] raises [Bounds.Solver_error] on a certificate
               failure the rescue ladder cannot repair — exactly the
               pre-rescue failure mode this corpus pins. *)
            let b =
              try Bounds.Sweep.step_exn sweep population
              with ex ->
                Alcotest.failf "%s N=%d no longer certifies: %s" e.id
                  population (Printexc.to_string ex)
            in
            (* [Sweep.step] and each [Bounds.eval] begin a fresh health
               snapshot: a prepare-time rescue must be read before the
               evals wipe it, the eval-time certificate rescue after. *)
            let step_rescue = (Health.current ()).Health.rescue in
            ignore (Bounds.response_time b : Bounds.interval);
            if population = e.fail_population then begin
              (* Classify what fixed the historical failure: a rescue
                 rung, the post-solve refinement correcting a
                 certificate-scale residual, or — for models the
                 row-scaled anti-degeneracy perturbation now steers
                 around the bad basis entirely — a clean solve whose
                 pre-refinement residual is already far below
                 tolerance. *)
              let h = Health.current () in
              let rescue = Health.deeper_rescue step_rescue h.Health.rescue in
              let cause =
                match rescue with
                | Some rung -> Health.rescue_to_string rung
                | None when h.Health.refine_residual > 1e-9 -> "refinement"
                | None -> "adaptive-perturbation"
              in
              Hashtbl.replace causes cause
                (1 + Option.value ~default:0 (Hashtbl.find_opt causes cause));
              if rescue = Some Health.Uncertified then
                Alcotest.failf "%s N=%d accepted uncertified" e.id population
            end
          end)
        grid)
    (Lazy.force corpus_models);
  (* What fixed each historical failure is part of the solver's
     trajectory: a change that moves it updates these counts and says
     why. *)
  Alcotest.(check (list (pair string int)))
    "corpus rescue causes"
    [ ("adaptive-perturbation", 98); ("cold_resolve", 1); ("reperturbed", 12) ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq causes)))

(* ---------------- work accounting across a backend swap ---------------- *)

(* A rescue swaps a fresh backend into the bounds handle mid-life; the
   ledger's per-record work deltas must stay nonnegative across the swap
   and add up to the sweep's own totals. The three models cover the
   three ways a backend is replaced: a cold re-solve and a reperturb
   rescue of a failed certificate, and a rescued prepare. The expected
   rung is asserted so a trajectory change that stops exercising the
   swap shows up here instead of silently weakening the test. *)
let swap_models =
  [
    ("model-05828", Health.Cold_resolve);
    ("model-00748", Health.Reperturbed);
    ("model-00700", Health.Reperturbed);
  ]

(* Every pivot the process performed: the simplex phases' counter plus
   the seeded preparations' restoration pivots. A record's pivot delta
   must equal this delta over the call that wrote it — the work of
   states the solver dropped on the way (a rescue rung whose certificate
   failed too, a perturbation draw that failed, a seed that fell back
   cold) included. *)
let pivots_performed () =
  let value name =
    match Metrics.find name with
    | [ { Metrics.value = Metrics.Counter v; _ } ] -> v
    | [ { Metrics.value = Metrics.Histogram h; _ } ] -> h.Metrics.sum
    | _ -> Alcotest.failf "metric %s not registered" name
  in
  value "revised_pivots_total" +. value "revised_restoration_pivots"

(* The record pivots a known rescue must show: model-05828's N=8 eval
   climbs past a reperturbed state whose certificate failed to the cold
   re-solve, and those pivots count too. *)
let known_record_pivots = [ (("model-05828", 8, "eval"), 820) ]

let test_work_accounting_across_swaps () =
  let models = Lazy.force corpus_models in
  (* This test owns the process ledger while it runs; a sink that was
     already live (the corpus CI ledger) is closed and reopened after. *)
  let previous = Ledger.path () in
  Ledger.disable ();
  let path = Filename.temp_file "mapqn-work" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Ledger.disable ();
      Sys.remove path;
      Option.iter (fun path -> Ledger.enable_exn ~path ()) previous)
  @@ fun () ->
  List.iter
    (fun (id, rung) ->
      let e, model =
        match List.find_opt (fun (e, _) -> e.id = id) models with
        | Some em -> em
        | None -> Alcotest.failf "%s is not in the corpus" id
      in
      Ledger.disable ();
      (let oc = open_out path in
       close_out oc);
      Ledger.enable_exn ~path ();
      let sweep =
        Bounds.Sweep.create ~config:Constraints.standard (fun population ->
            Network.with_population model.Random_models.network population)
      in
      (* The pivots performed during each ledger-writing call, in record
         order. *)
      let performed = ref [] in
      let counted f =
        let p0 = pivots_performed () in
        let r = f () in
        performed := (pivots_performed () -. p0) :: !performed;
        r
      in
      List.iter
        (fun population ->
          if population <= e.fail_population then begin
            let b = counted (fun () -> Bounds.Sweep.step_exn sweep population) in
            ignore (counted (fun () -> Bounds.response_time b) : Bounds.interval)
          end)
        grid;
      Ledger.disable ();
      let records = Ledger.load path in
      if List.length records <> List.length !performed then
        Alcotest.failf "%s: %d records for %d ledger-writing calls" id
          (List.length records) (List.length !performed);
      let num r name =
        match Option.bind (Json.member name r) Json.get_float with
        | Some v -> v
        | None -> Alcotest.failf "%s: record without %s" id name
      in
      let pivots = ref 0. and refactors = ref 0. and rescued = ref false in
      List.iter2
        (fun r performed ->
          let p = num r "pivots" and f = num r "refactorizations" in
          if p < 0. || f < 0. then
            Alcotest.failf "%s N=%d %s: negative work delta (%g pivots, %g \
                            refactorizations)"
              id (Ledger.population r) (Ledger.event r) p f;
          let causes =
            match Json.member "refactor_causes" r with
            | Some causes -> causes
            | None -> Alcotest.failf "%s: record without refactor_causes" id
          in
          (* Each triggered reinversion is also counted in the total. *)
          let attributed =
            List.fold_left
              (fun sum cause ->
                let v = num causes cause in
                if v < 0. then
                  Alcotest.failf "%s N=%d %s: negative %s refactor delta" id
                    (Ledger.population r) (Ledger.event r) cause;
                sum +. v)
              0.
              [ "stability"; "growth"; "drift"; "backstop" ]
          in
          if attributed > f then
            Alcotest.failf "%s N=%d %s: %g refactorizations by cause of %g" id
              (Ledger.population r) (Ledger.event r) attributed f;
          (match
             Option.bind (Json.member "health" r) (fun h ->
                 Option.bind (Json.member "rescue" h) Json.get_string)
           with
          | Some s when Health.rescue_of_string s = Some rung -> rescued := true
          | _ -> ());
          let where =
            Printf.sprintf "%s N=%d %s" id (Ledger.population r) (Ledger.event r)
          in
          Alcotest.(check int)
            (where ^ " pivots = pivots performed")
            (int_of_float performed) (int_of_float p);
          (match
             List.assoc_opt (id, Ledger.population r, Ledger.event r)
               known_record_pivots
           with
          | Some expected ->
            Alcotest.(check int) (where ^ " pivots") expected (int_of_float p)
          | None -> ());
          pivots := !pivots +. p;
          refactors := !refactors +. f)
        records (List.rev !performed);
      if not !rescued then
        Alcotest.failf "%s: no record shows its %s rescue" id
          (Health.rescue_to_string rung);
      let st = Bounds.Sweep.stats sweep in
      Alcotest.(check int)
        (id ^ " pivots") st.Bounds.Sweep.pivots (int_of_float !pivots);
      Alcotest.(check int)
        (id ^ " refactorizations") st.Bounds.Sweep.refactorizations
        (int_of_float !refactors))
    swap_models

(* A seeded sweep step whose seed does not take falls back to a cold
   phase 1; the abandoned attempt's restoration pivots and
   refactorizations count toward the step. Model 24 of the 4-queue
   fleet (two MAP stations, master seed 2008) falls back at N=2. *)
let test_fallback_work () =
  let spec =
    { Random_models.default_spec with stations = 4; map_stations = 2 }
  in
  let model = List.nth (Random_models.generate_many ~spec ~seed:2008 25) 24 in
  let sweep =
    Bounds.Sweep.create ~config:Constraints.standard (fun population ->
        Network.with_population model.Random_models.network population)
  in
  ignore (Bounds.response_time (Bounds.Sweep.step_exn sweep 1) : Bounds.interval);
  let fallbacks () =
    match Metrics.find "revised_seeded_prepare_fallbacks_total" with
    | [ { Metrics.value = Metrics.Counter v; _ } ] -> v
    | _ -> Alcotest.fail "fallback counter not registered"
  in
  let f0 = fallbacks () and p0 = pivots_performed () in
  let before = (Bounds.Sweep.stats sweep).Bounds.Sweep.pivots in
  ignore (Bounds.Sweep.step_exn sweep 2 : Bounds.t);
  let performed = pivots_performed () -. p0 in
  Alcotest.(check (float 0.)) "the N=2 seed falls back" 1. (fallbacks () -. f0);
  Alcotest.(check int)
    "step pivots = pivots performed, the abandoned attempt's included"
    (int_of_float performed)
    ((Bounds.Sweep.stats sweep).Bounds.Sweep.pivots - before)

(* ---------------- exact-CTMC containment ---------------- *)

(* For corpus models small enough to solve exactly (fail population
   <= 6), the rescued bounds must still bracket the exact CTMC
   response time at every grid population up to the failure — a rescue
   that certified a wrong optimum would show up here. *)
let test_corpus_ctmc_containment () =
  let small =
    List.filter (fun (e, _) -> e.fail_population <= 6) (Lazy.force corpus_models)
  in
  if small = [] then Alcotest.fail "corpus: no models with fail population <= 6";
  List.iter
    (fun (e, model) ->
      let sweep =
        Bounds.Sweep.create ~config:Constraints.standard (fun population ->
            Network.with_population model.Random_models.network population)
      in
      List.iter
        (fun population ->
          if population <= e.fail_population then begin
            let b = Bounds.Sweep.step_exn sweep population in
            let r = Bounds.response_time b in
            let net =
              Network.with_population model.Random_models.network population
            in
            let exact = Solution.system_response_time (Solution.solve net) in
            if not (Bounds.contains r exact) then
              Alcotest.failf
                "%s N=%d: exact R=%.9g outside rescued bounds [%.9g, %.9g]"
                e.id population exact r.Bounds.lower r.Bounds.upper
          end)
        grid)
    small;
  Printf.printf "corpus CTMC containment: %d model(s) checked\n%!"
    (List.length small)

(* ---------------- near-degenerate generator ---------------- *)

(* Fresh models of the corpus species: tied service rates, uniform
   routing (so visit ratios — and with tied means, demands — repeat),
   tiny populations. [tie_exp] controls how exactly the rates tie:
   0 is an exact tie, k > 0 splits them by 10^-k. The built-in
   [int_range] shrinkers walk a failure toward (seed 0, population 1,
   exact tie) — the smallest, most degenerate reproduction. *)
let arb_degenerate =
  QCheck.(triple (int_range 0 99_999) (int_range 1 3) (int_range 0 12))

let degenerate_network (seed, population, tie_exp) =
  Random_models.near_degenerate ~seed ~tie_exp population

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs a)

let revised_matches_dense params =
  let net = degenerate_network params in
  (* Every endpoint is valid, an exhausted rescue ladder included, so
     agreement to 1e-8 is what shows both solvers reached the LP
     optimum: a loose safe bound accepted on its gap alone would miss
     it. *)
  let bd = Bounds.create_exn ~solver:Bounds.Dense net in
  let br = Bounds.create_exn ~solver:Bounds.Revised net in
  let check name { Bounds.lower = l1; upper = u1 }
      { Bounds.lower = l2; upper = u2 } =
    if not (close ~tol:1e-8 l1 l2 && close ~tol:1e-8 u1 u2) then
      QCheck.Test.fail_reportf
        "%s disagrees: dense [%.12g, %.12g] vs revised [%.12g, %.12g]" name
        l1 u1 l2 u2
  in
  check "R" (Bounds.response_time bd) (Bounds.response_time br);
  for k = 0 to 2 do
    check
      (Printf.sprintf "X[%d]" k)
      (Bounds.throughput bd k) (Bounds.throughput br k)
  done;
  true

let prop_degenerate_revised_matches_dense =
  QCheck.Test.make
    ~name:"revised = dense on near-degenerate models (both certify)"
    ~count:25 arb_degenerate revised_matches_dense

(* Draws of the generator on which the dense tableau once failed: the
   first three ended its phase 1 with artificial mass on the first
   perturbation salt, (69325, 2, 7) certified phase 1 but failed its
   certificate (dual violation 7.0e-2) with no rescue rung for a dense
   backend, and (16609, 2, 6) certified a point with primal residual
   8.5e-8 that missed the revised bound by 1.1e-7 (relative) before
   the dense solution was refined. On (80163, 3, 7) the revised
   solver's first throughput minimum sits on a dual-feasible,
   primal-infeasible basis: its safe bound 0.800211 lies 6.1e-9 from
   its objective, yet the LP minimum is 0.808873, where dense and the
   rescued revised solve agree. Only the primal residual sends it up
   the ladder; accepting on the gap alone would report a bound 1%
   loose. *)
let pinned =
  List.map
    (fun ((seed, population, tie_exp) as params) ->
      Alcotest.test_case
        (Printf.sprintf "pinned draw (%d, %d, %d)" seed population tie_exp)
        `Quick
        (fun () -> ignore (revised_matches_dense params : bool)))
    [
      (41215, 2, 6);
      (50686, 2, 6);
      (1670, 2, 6);
      (69325, 2, 7);
      (16609, 2, 6);
      (22331, 2, 7);
      (89355, 2, 7);
      (80163, 3, 7);
    ]

(* Model 2 of [generate_many ~seed:2008] at N=100, cold, [standard]: the
   rescue ladder is exhausted (the dense rung is ruled out by size), so
   the interval is the tightest safe bound seen at the failing end. It
   must still contain the exact response time, 307.9329628061 —
   [Solution.system_response_time (Solution.solve net)] for this
   network, about 3 s by Gauss–Seidel. Its eval is uncertified by
   design, which `mapqn doctor` rightly fails, so the corpus ledger is
   held closed while it runs. *)
let test_exhausted_ladder_brackets () =
  let model = List.nth (Random_models.generate_many ~seed:2008 3) 2 in
  let net = Network.with_population model.Random_models.network 100 in
  let exact = 307.9329628061 in
  Ledger.disable ();
  let r =
    Fun.protect ~finally:open_corpus_ledger (fun () ->
        Bounds.response_time (Bounds.create_exn net))
  in
  Alcotest.(check bool) "the ladder was exhausted" true
    ((Health.current ()).Health.rescue = Some Health.Uncertified);
  if not (Bounds.contains r exact) then
    Alcotest.failf "exact R=%.10g outside [%.10g, %.10g]" exact r.Bounds.lower
      r.Bounds.upper

let () =
  Alcotest.run "corpus"
    [
      ( "hard-models",
        [
          Alcotest.test_case "work deltas add up across backend swaps" `Slow
            test_work_accounting_across_swaps;
          Alcotest.test_case "every corpus model certifies" `Slow
            test_corpus_certifies;
          Alcotest.test_case "exact CTMC within rescued bounds" `Slow
            test_corpus_ctmc_containment;
          Alcotest.test_case "a seed that falls back keeps its work" `Slow
            test_fallback_work;
          Alcotest.test_case "an exhausted ladder still brackets (N=100)"
            `Slow test_exhausted_ladder_brackets;
        ] );
      ( "near-degenerate",
        QCheck_alcotest.to_alcotest prop_degenerate_revised_matches_dense
        :: pinned );
    ]
