module Ms = Marginal_space
module Lp = Mapqn_lp.Lp_model
module Simplex = Mapqn_lp.Simplex
module Revised = Mapqn_lp.Revised
module Certificate = Mapqn_lp.Certificate
module Trace = Mapqn_obs.Trace
module Health = Mapqn_obs.Health
module Ledger = Mapqn_obs.Ledger
module Json = Mapqn_obs.Json

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Unsupported_network of string
  | Infeasible_phase1
  | Iteration_limit of int
  | Invalid_station of int
  | Invalid_objective of string

let error_to_string = function
  | Unsupported_network what -> what ^ " is not supported by the bound analysis"
  | Infeasible_phase1 ->
    "marginal-balance LP is infeasible — this indicates a constraint \
     generation bug, since the exact solution is always feasible"
  | Iteration_limit k -> Printf.sprintf "simplex iteration limit (%d pivots)" k
  | Invalid_station k -> Printf.sprintf "station index %d is out of range" k
  | Invalid_objective what -> "invalid objective: " ^ what

exception Solver_error of error

let () =
  Printexc.register_printer (function
    | Solver_error e -> Some ("Bounds.Solver_error: " ^ error_to_string e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

type interval = { lower : float; upper : float }

(* The interval arithmetic must survive infinite endpoints: response-time
   bounds are [infinity] whenever the LP throughput lower bound is 0
   (which is common — weak constraint configs cannot exclude starvation),
   and naive float arithmetic turns those into NaN ([inf - inf],
   [0.5 * (-inf + inf)], [1e-7 * inf] tolerances). *)

let width i = if i.lower = i.upper then 0. else i.upper -. i.lower

let midpoint i =
  if i.lower = i.upper then i.lower
  else if i.lower = neg_infinity && i.upper = infinity then 0.
  else 0.5 *. (i.lower +. i.upper)

let contains i x =
  let finite_mag v = if Float.is_finite v then Float.abs v else 0. in
  let tol =
    1e-7 *. Float.max 1. (Float.max (finite_mag i.lower) (finite_mag i.upper))
  in
  x >= i.lower -. tol && x <= i.upper +. tol

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type solver = Dense | Revised

type backend = B_dense of Simplex.prepared | B_revised of Revised.t

type t = {
  network : Mapqn_model.Network.t;
  ms : Ms.t;
  model : Lp.t;
  upper : float array;
      (* each variable's implied upper bound (Marginal_space.upper_bound),
         the box of every safe dual bound *)
  mutable backend : backend;
      (* the rescue ladder swaps in the re-prepared state that produced
         the accepted result, so later objectives benefit from it *)
  mutable retired : Revised.stats;
      (* Work of the revised states this handle no longer holds: those
         the rescue ladder swapped out and, for a sweep step, every
         earlier population's. Keeps ledger deltas monotone across a
         swap and makes [Sweep.stats] one read of the latest handle. *)
}

let default_solver = Revised

let m_rescues =
  Mapqn_obs.Metrics.counter
    ~help:"Certificate or phase-1 failures that entered the rescue ladder."
    "bounds_rescue_attempts_total"

(* ------------------------------------------------------------------ *)
(* Solver work                                                         *)
(* ------------------------------------------------------------------ *)

(* Ledger records diff the solver states' own [Revised.stats], not the
   process-wide metric counters, so a record's deltas stay correct while
   other domains solve concurrently (a fleet run). *)
let no_work =
  {
    Revised.refactorizations = 0;
    pivots = 0;
    eta_nnz = 0;
    solves = 0;
    refactor_stability = 0;
    refactor_growth = 0;
    refactor_drift = 0;
    refactor_backstop = 0;
  }

let add_work (a : Revised.stats) (b : Revised.stats) =
  {
    Revised.refactorizations = a.refactorizations + b.refactorizations;
    pivots = a.pivots + b.pivots;
    eta_nnz = a.eta_nnz + b.eta_nnz;
    solves = a.solves + b.solves;
    refactor_stability = a.refactor_stability + b.refactor_stability;
    refactor_growth = a.refactor_growth + b.refactor_growth;
    refactor_drift = a.refactor_drift + b.refactor_drift;
    refactor_backstop = a.refactor_backstop + b.refactor_backstop;
  }

let work t =
  match t.backend with
  | B_dense _ -> t.retired
  | B_revised r -> add_work t.retired (Revised.stats r)

(* Count the work of a revised state the handle drops. *)
let retire t = function
  | B_dense _ -> ()
  | B_revised r -> t.retired <- add_work t.retired (Revised.stats r)

let swap_backend t backend =
  retire t t.backend;
  t.backend <- backend

(* ------------------------------------------------------------------ *)
(* The rescue ladder                                                   *)
(* ------------------------------------------------------------------ *)

(* A solve whose certificate is not accepted, and a revised prepare that
   reports these always-feasible LPs infeasible or hits its phase-1 cap,
   are numerics, not modeling. Both climb one ladder of increasingly
   drastic ways to re-derive the solution, in {!Health.rescue} order; the
   first rung that works is recorded as the solve's rescue cause.

   - [Reprepare]: a fresh revised prepare at [scale] times the failing
     state's perturbation scale (1 at prepare time), with salt base
     [salt], all warm-start state discarded. Reperturb tightens 100×, so
     the witness tracks the true constraints closer, at some risk of
     degenerate cycling (phase 1's salt retries cover that). Cold
     re-solve tightens 10× with salt base 7, which [Revised.prepare]
     reads as a longer retry budget (draws 0 to 10) and the dense
     tableau as its first draw. It is the only rung that also serves a
     dense backend, which has no scale to tighten but takes the salt.
   - [Dense_tableau]: the dense simplex as an independent oracle, gated
     by LP size: its tableau is m×n dense where the revised solver is
     O(nnz), and past [dense_rescue_cells] the memory and per-pivot cost
     stop being a rescue and start being a hang.

   A failed prepare returns its original error when the ladder is
   exhausted; an unaccepted certificate records [Health.Uncertified] and
   reports the tightest safe bound it saw. *)
type rung =
  | Reprepare of { scale : float; salt : int; serves_dense : bool }
  | Dense_tableau

let ladder =
  [
    ( Health.Reperturbed,
      Reprepare { scale = 0.01; salt = 0; serves_dense = false } );
    ( Health.Cold_resolve,
      Reprepare { scale = 0.1; salt = 7; serves_dense = true } );
    (Health.Dense_oracle, Dense_tableau);
  ]

let dense_rescue_cells = 2_000_000

(* The fresh backend a re-preparing rung derives for [model] from the
   [failing] one ([None] for a failed prepare); [Error lost] when the rung
   does not apply or its own prepare fails, [lost] being the revised work
   that failure dropped. *)
let reprepare model failing rung =
  let dense = function
    | Ok p -> Ok (B_dense p)
    | Error _ -> Error no_work
  in
  match (rung, failing) with
  | Reprepare { serves_dense = false; _ }, Some (B_dense _) -> Error no_work
  | Reprepare { salt; _ }, Some (B_dense _) ->
    dense (Simplex.prepare ~salt model)
  | Reprepare { scale; salt; _ }, (None | Some (B_revised _)) -> (
    let current =
      match failing with Some (B_revised r) -> Revised.pert_scale r | _ -> 1.
    in
    match Revised.prepare ~pert_scale:(current *. scale) ~salt model with
    | Ok p -> Ok (B_revised p)
    | Error (_, lost) -> Error lost)
  | Dense_tableau, _ ->
    if Lp.num_vars model * Lp.num_rows model > dense_rescue_cells then
      Error no_work
    else dense (Simplex.prepare model)

(* A failed prepare's rescue: the first rung that prepares, with the work
   of the failed prepare and of every rung that failed before it. *)
let rescue_prepare model (err, lost) =
  Mapqn_obs.Metrics.inc m_rescues;
  Mapqn_obs.Span.with_ "bounds.rescue" @@ fun () ->
  let rec climb lost = function
    | [] -> Error err
    | (cause, rung) :: rest -> (
      match reprepare model None rung with
      | Ok backend ->
        Health.observe_rescue cause;
        Ok (backend, lost)
      | Error more -> climb (add_work lost more) rest)
  in
  climb lost ladder

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The one path from a built LP to a handle, shared by [create] and
   [Sweep.step]: phase 1, seeded from [seeds] when given, with a failed
   revised prepare climbing the rescue ladder (the dense oracle itself
   stays unrescued). Also returns whether the seed took. The handle
   retires [retired] plus the work of every prepare that failed on the
   way. *)
let prepare ~solver ?seeds ~retired network ms model =
  Mapqn_obs.Span.with_ "bounds.prepare" @@ fun () ->
  let prepared =
    match solver with
    | Dense ->
      Result.map
        (fun p -> (B_dense p, false, no_work))
        (Simplex.prepare model)
    | Revised -> (
      let first =
        match seeds with
        | Some seeds -> Revised.prepare_seeded ~seeds model
        | None -> Result.map (fun p -> (p, false)) (Revised.prepare model)
      in
      match first with
      | Ok (p, seeded) -> Ok (B_revised p, seeded, no_work)
      | Error e ->
        Result.map
          (fun (b, lost) -> (b, false, lost))
          (rescue_prepare model e))
  in
  match prepared with
  | Ok (backend, seeded, lost) ->
    Ok
      ( {
          network;
          ms;
          model;
          upper = Array.init (Ms.num_vars ms) (Ms.upper_bound ms);
          backend;
          retired = add_work retired lost;
        },
        seeded )
  | Error Simplex.Infeasible_phase1 -> Error Infeasible_phase1
  | Error (Simplex.Iteration_limit_phase1 k) -> Error (Iteration_limit k)

let create ?(solver = default_solver) ?(config = Constraints.standard) network =
  Mapqn_obs.Span.with_ "bounds.create" @@ fun () ->
  if Mapqn_model.Network.has_delay network then
    Error (Unsupported_network "a delay (infinite-server) station")
  else
    let ms, model = Constraints.build config network in
    Result.map fst
      (prepare ~solver ~retired:no_work network ms model)

let create_exn ?solver ?config network =
  match create ?solver ?config network with
  | Ok t -> t
  | Error e -> raise (Solver_error e)

let space t = t.ms
let lp_size t = (Lp.num_vars t.model, Lp.num_rows t.model)

(* ------------------------------------------------------------------ *)
(* Optimization over the prepared LP                                   *)
(* ------------------------------------------------------------------ *)

let m_objectives =
  Mapqn_obs.Metrics.counter ~help:"Bound objectives optimized over the prepared LP."
    "bounds_objectives_total"

let m_evals =
  Mapqn_obs.Metrics.counter
    ~help:"Batch metric evaluations (Bounds.eval calls, including the \
           one-metric convenience wrappers)."
    "bounds_evals_total"

let m_eval_seconds =
  Mapqn_obs.Metrics.histogram
    ~help:"Wall time of each Bounds.eval call (all requested metrics)."
    "bounds_eval_seconds"

(* ------------------------------------------------------------------ *)
(* Run-ledger provenance                                               *)
(* ------------------------------------------------------------------ *)

let solver_name t =
  match t.backend with B_dense _ -> "dense" | B_revised _ -> "revised"

(* The common tail of an "eval" / "sweep_step" ledger record: model
   fingerprint, LP size, solver work deltas by refactorization cause,
   the worst certificate primal residual (with the tolerance it was
   judged against) and gap, and the numerical-health snapshot of this
   unit of work. *)
let ledger_fields t ~duration ~(before : Revised.stats) =
  let after = work t in
  let h = Health.current () in
  let nvars, nrows = lp_size t in
  let num v = Json.Number v in
  let delta count = num (float_of_int (count after - count before)) in
  [
    ("fingerprint", Json.String (Mapqn_model.Network.fingerprint t.network));
    ( "population",
      num (float_of_int (Mapqn_model.Network.population t.network)) );
    ("solver", Json.String (solver_name t));
    ("lp_vars", num (float_of_int nvars));
    ("lp_rows", num (float_of_int nrows));
    ("duration_s", num duration);
    ("pivots", delta (fun w -> w.Revised.pivots));
    ("refactorizations", delta (fun w -> w.Revised.refactorizations));
    ( "refactor_causes",
      Json.Object
        [
          ("stability", delta (fun w -> w.Revised.refactor_stability));
          ("growth", delta (fun w -> w.Revised.refactor_growth));
          ("drift", delta (fun w -> w.Revised.refactor_drift));
          ("backstop", delta (fun w -> w.Revised.refactor_backstop));
        ] );
    ( "certificate",
      Json.Object
        [
          ("primal_residual", num h.Health.cert_primal);
          ("gap", num h.Health.cert_gap);
          ("failures", num (float_of_int h.Health.cert_failures));
          ("tol_primal", num Certificate.default_tol_primal);
        ] );
    ("health", Health.to_json h);
  ]

let backend_optimize backend direction objective =
  match backend with
  | B_dense p -> Simplex.optimize p direction objective
  | B_revised p -> Revised.optimize p direction objective

(* Optimality certificates for every solved objective. The direction
   label keeps the two endpoints of each interval distinguishable in
   metrics and traces. *)
let m_certificates =
  Mapqn_obs.Metrics.counter
    ~help:"LP optimality certificates computed (one per solved objective)."
    "bounds_certificates_total"

let m_cert_primal =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst primal residual over the certificates of this run."
    "bounds_certificate_primal_residual"

(* One acceptance test, with metrics and trace but no policy: returns
   the judged certificate either way so the rescue ladder can escalate. *)
let certify_check t direction objective s =
  let label =
    match direction with Simplex.Minimize -> "min" | Simplex.Maximize -> "max"
  in
  Mapqn_obs.Metrics.inc m_certificates;
  let outcome =
    Mapqn_obs.Span.with_ "bounds.certify" (fun () ->
        Certificate.check ~upper:t.upper t.model direction ~objective s)
  in
  let (Ok cert | Error cert) = outcome in
  Mapqn_obs.Metrics.set_max m_cert_primal cert.Certificate.primal_residual;
  if Trace.is_enabled () then
    Trace.record
      (Trace.Certificate
         {
           label;
           primal_residual = cert.Certificate.primal_residual;
           gap = cert.Certificate.gap;
           accepted = Result.is_ok outcome;
         });
  outcome

(* The endpoint of an accepted solve: its objective widened by the
   margin — or the safe bound, should that be looser. Either way the
   endpoint is valid whatever the solver did; the margin keeps it equal
   to the widened objective whenever the gap test passed. *)
let endpoint direction (s : Simplex.solution) (cert : Certificate.t) =
  let v = s.Simplex.objective in
  match direction with
  | Simplex.Minimize -> Float.min (v -. Certificate.margin v) cert.safe_bound
  | Simplex.Maximize -> Float.max (v +. Certificate.margin v) cert.safe_bound

(* The certificate side of the rescue ladder: each rung's solution must
   pass the acceptance test, and a re-prepared winner is swapped into
   [t.backend] so later objectives start from the healthier state (the
   dense oracle leaves a dense backend, perhaps re-salted by the cold
   rung, in place). An exhausted ladder reports the tightest safe bound
   of every solve it saw, the first included. *)
let rescue t direction objective (first : Certificate.t) =
  Mapqn_obs.Metrics.inc m_rescues;
  let tighter a b =
    match direction with
    | Simplex.Minimize -> Float.max a b
    | Simplex.Maximize -> Float.min a b
  in
  let rec climb best = function
    | [] ->
      Health.observe_rescue Health.Uncertified;
      best
    | (cause, rung) :: rest -> (
      match reprepare t.model (Some t.backend) rung with
      | Error lost ->
        t.retired <- add_work t.retired lost;
        climb best rest
      | Ok backend -> (
        let verdict =
          match backend_optimize backend direction objective with
          | Simplex.Optimal s -> Some (s, certify_check t direction objective s)
          | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit _ ->
            None
        in
        match verdict with
        | Some (s, Ok cert) ->
          (match (rung, t.backend) with
          | Dense_tableau, B_dense _ -> ()
          | _ -> swap_backend t backend);
          Health.observe_rescue cause;
          endpoint direction s cert
        | Some (_, Error cert) ->
          (* Every state a rung prepared and dropped keeps its work. *)
          retire t backend;
          climb (tighter best cert.Certificate.safe_bound) rest
        | None ->
          retire t backend;
          climb best rest))
  in
  Mapqn_obs.Span.with_ "bounds.rescue" (fun () -> climb first.safe_bound ladder)

let optimize t direction objective =
  Mapqn_obs.Metrics.inc m_objectives;
  Mapqn_obs.Span.with_ "bounds.optimize" @@ fun () ->
  let objective =
    List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) objective
  in
  match backend_optimize t.backend direction objective with
  | Simplex.Optimal s -> (
    match certify_check t direction objective s with
    | Ok cert -> endpoint direction s cert
    | Error cert -> rescue t direction objective cert)
  | Simplex.Infeasible -> failwith "Bounds: phase-2 infeasibility (bug)"
  | Simplex.Unbounded ->
    failwith "Bounds: unbounded objective (missing normalization constraint?)"
  | Simplex.Iteration_limit k -> raise (Solver_error (Iteration_limit k))

let custom t objective =
  let lower = optimize t Simplex.Minimize objective in
  let upper = optimize t Simplex.Maximize objective in
  { lower = Float.min lower upper; upper = Float.max lower upper }

let clamp_interval ~lo ~hi i =
  { lower = Mapqn_util.Tol.clamp ~lo ~hi i.lower; upper = Mapqn_util.Tol.clamp ~lo ~hi i.upper }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric =
  | Throughput of int
  | Utilization of int
  | Mean_queue_length of int
  | Queue_length_moment of int * int
  | Marginal_probability of { station : int; level : int }
  | Response_time of { reference : int }

let metric_to_string = function
  | Throughput k -> Printf.sprintf "throughput(%d)" k
  | Utilization k -> Printf.sprintf "utilization(%d)" k
  | Mean_queue_length k -> Printf.sprintf "mean_queue_length(%d)" k
  | Queue_length_moment (k, r) -> Printf.sprintf "queue_length_moment(%d, %d)" k r
  | Marginal_probability { station; level } ->
    Printf.sprintf "marginal_probability(%d, n=%d)" station level
  | Response_time { reference } -> Printf.sprintf "response_time(ref=%d)" reference

let check_station t k =
  if k < 0 || k >= Ms.num_stations t.ms then raise (Solver_error (Invalid_station k))

let validate_metric t = function
  | Throughput k | Utilization k | Mean_queue_length k
  | Response_time { reference = k } ->
    check_station t k
  | Queue_length_moment (k, r) ->
    check_station t k;
    if r < 0 then
      raise
        (Solver_error
           (Invalid_objective
              (Printf.sprintf "queue-length moment of negative order %d" r)))
  | Marginal_probability { station; level } ->
    check_station t station;
    if level < 0 || level > Ms.population t.ms then
      raise
        (Solver_error
           (Invalid_objective
              (Printf.sprintf "queue-length level %d outside [0, %d]" level
                 (Ms.population t.ms))))

(* The LP objective of a directly-representable metric, or [None] when the
   metric is identically zero (empty population edge cases). *)
let metric_terms t = function
  | Response_time _ -> assert false (* derived, handled in eval_one *)
  | Throughput k ->
    let rates =
      Mapqn_map.Process.completion_rates
        (Mapqn_model.Station.service_process
           (Mapqn_model.Network.station t.network k))
    in
    let terms = ref [] in
    for n = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          let rate = rates.(Ms.phase_component t.ms h k) in
          if rate <> 0. then
            terms := (Ms.v t.ms ~station:k ~level:n ~phase:h, rate) :: !terms)
    done;
    !terms
  | Utilization k ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms := (Ms.v t.ms ~station:k ~level ~phase:h, 1.) :: !terms)
    done;
    !terms
  | Mean_queue_length k ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms := (Ms.v t.ms ~station:k ~level ~phase:h, float_of_int level) :: !terms)
    done;
    !terms
  | Queue_length_moment (k, r) ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms :=
            (Ms.v t.ms ~station:k ~level ~phase:h,
             float_of_int level ** float_of_int r)
            :: !terms)
    done;
    !terms
  | Marginal_probability { station; level } ->
    let terms = ref [] in
    Ms.iter_phases t.ms (fun h ->
        terms := (Ms.v t.ms ~station ~level ~phase:h, 1.) :: !terms);
    !terms

(* The ten rows with the largest |dual| at the optimum of [metric]'s LP
   objective, uncertified: duals explain a bound, they do not make it. *)
let sensitivity t direction metric =
  validate_metric t metric;
  let terms =
    match metric with
    | Response_time _ ->
      raise
        (Solver_error
           (Invalid_objective
              "response time is derived from throughput and has no LP \
               objective of its own"))
    | m -> metric_terms t m
  in
  let objective = List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) terms in
  match backend_optimize t.backend direction objective with
  | Simplex.Optimal s ->
    let names =
      Array.of_list (List.map (fun (_, _, _, name) -> name) (Lp.rows t.model))
    in
    let pairs = ref [] in
    Array.iteri
      (fun i d -> if Float.abs d > 1e-9 then pairs := (names.(i), d) :: !pairs)
      s.Simplex.duals;
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a)) !pairs
    in
    List.filteri (fun i _ -> i < 10) sorted
  | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit _ -> []

let metric_clamp t = function
  | Throughput _ | Response_time _ -> None
  | Utilization _ | Marginal_probability _ -> Some (0., 1.)
  | Mean_queue_length _ ->
    Some (0., float_of_int (Ms.population t.ms))
  | Queue_length_moment (_, r) ->
    Some (0., float_of_int (Ms.population t.ms) ** float_of_int r)

(* [recurse] resolves the metrics a derived metric is built from —
   {!eval} passes a memoizing closure so e.g. a report containing both
   [Throughput k] and [Response_time {reference = k}] solves the
   underlying throughput LPs once. *)
let eval_core t recurse metric =
  validate_metric t metric;
  match metric with
  | Response_time { reference } ->
    (* Little's law, exactly the paper's derivation: R = N / X_ref, so
       R_min = N / X_max and R_max = N / X_min; an LP throughput lower
       bound of 0 yields an infinite upper response-time bound. *)
    let n = float_of_int (Ms.population t.ms) in
    if n = 0. then { lower = 0.; upper = 0. }
    else begin
      let x = recurse (Throughput reference) in
      let upper = if x.lower <= 0. then infinity else n /. x.lower in
      let lower = if x.upper <= 0. then infinity else n /. x.upper in
      { lower; upper }
    end
  | m -> (
    match metric_terms t m with
    | [] -> { lower = 0.; upper = 0. }
    | terms -> (
      let i = custom t terms in
      match metric_clamp t m with
      | None -> i
      | Some (lo, hi) -> clamp_interval ~lo ~hi i))

let eval t metrics =
  Mapqn_obs.Metrics.inc m_evals;
  Mapqn_obs.Span.with_ "bounds.eval" @@ fun () ->
  Health.begin_solve ();
  let before = work t in
  let t0 = Mapqn_obs.Span.now () in
  let memo = Hashtbl.create 8 in
  let rec cached m =
    match Hashtbl.find_opt memo m with
    | Some i -> i
    | None ->
      let i = eval_core t cached m in
      Hashtbl.replace memo m i;
      i
  in
  let results = List.map (fun m -> (m, cached m)) metrics in
  let duration = Mapqn_obs.Span.now () -. t0 in
  Mapqn_obs.Metrics.observe m_eval_seconds duration;
  if Ledger.is_enabled () then
    Ledger.record ~event:"eval"
      (ledger_fields t ~duration ~before
      @ [
          ( "metrics",
            Json.List
              (List.map
                 (fun (m, i) ->
                   Json.Object
                     [
                       ("name", Json.String (metric_to_string m));
                       ("lower", Json.Number i.lower);
                       ("upper", Json.Number i.upper);
                     ])
                 results) );
        ]);
  results

(* Convenience wrappers: exactly one-element [eval] calls, so per-metric
   and batch queries go through the identical code path (and, on the
   revised backend, the identical warm-started pivot sequence). *)

let interval_of_eval t metric =
  match eval t [ metric ] with [ (_, i) ] -> i | _ -> assert false

let throughput t k = interval_of_eval t (Throughput k)
let utilization t k = interval_of_eval t (Utilization k)
let mean_queue_length t k = interval_of_eval t (Mean_queue_length k)
let queue_length_moment t k r = interval_of_eval t (Queue_length_moment (k, r))

let marginal_probability t ~station ~level =
  interval_of_eval t (Marginal_probability { station; level })

let response_time ?(reference = 0) t =
  interval_of_eval t (Response_time { reference })

(* ------------------------------------------------------------------ *)
(* Population sweeps                                                   *)
(* ------------------------------------------------------------------ *)

(* Translate a basis described in one population's terms into another's:
   variables by structural role (station, level and phase survive the
   move; levels beyond the new population are dropped), row slacks by
   row name (names are population-stable except at the moved
   boundary). *)
let translate_seeds ~from_ms ~from_model ~to_ms ~to_model seeds =
  let row_index = Hashtbl.create 4096 in
  for r = 0 to Lp.num_rows to_model - 1 do
    Hashtbl.replace row_index (Lp.row_name to_model r) r
  done;
  let n' = Ms.population to_ms in
  let reinstate = function
    | Ms.Role_v { station; level; phase } when level <= n' ->
      Some (Ms.v to_ms ~station ~level ~phase)
    | Ms.Role_w { busy; station; level; phase } when level <= n' ->
      Some (Ms.w to_ms ~busy ~station ~level ~phase)
    | Ms.Role_z { counted; station; level; phase }
      when level <= n' && Ms.has_level2 to_ms ->
      Some (Ms.z to_ms ~counted ~station ~level ~phase)
    | Ms.Role_v _ | Ms.Role_w _ | Ms.Role_z _ -> None
  in
  List.filter_map
    (function
      | Revised.Seed_var i ->
        Option.map
          (fun j -> Revised.Seed_var j)
          (reinstate (Ms.classify from_ms i))
      | Revised.Seed_slack r ->
        Option.map
          (fun r' -> Revised.Seed_slack r')
          (Hashtbl.find_opt row_index (Lp.row_name from_model r)))
    seeds

module Sweep = struct
  type bounds = t

  let m_steps =
    Mapqn_obs.Metrics.counter ~help:"Populations prepared by sweep engines."
      "bounds_sweep_steps_total"

  let m_step_seconds =
    Mapqn_obs.Metrics.histogram
      ~help:"Wall time of each sweep step (constraint extension + phase 1)."
      "bounds_sweep_step_seconds"

  let m_warm_steps =
    Mapqn_obs.Metrics.counter
      ~help:"Sweep steps whose phase 1 was warm-started from the previous \
             population's basis."
      "bounds_sweep_warm_steps_total"

  let m_cold_steps =
    Mapqn_obs.Metrics.counter
      ~help:"Sweep steps prepared cold (first population, warm start \
             disabled or the seed did not take)."
      "bounds_sweep_cold_steps_total"

  type nonrec t = {
    network_of : int -> Mapqn_model.Network.t;
    sconfig : Constraints.config;
    warm_start : bool;
    mutable inc : Constraints.Incremental.t option;
    mutable prev : bounds option;
    mutable steps : int;
    mutable warm : int;
    mutable cold : int;
  }

  let create ?(config = Constraints.standard) ?(warm_start = true) network_of =
    {
      network_of;
      sconfig = config;
      warm_start;
      inc = None;
      prev = None;
      steps = 0;
      warm = 0;
      cold = 0;
    }

  (* Work of the whole sweep: each step's handle carries its
     predecessor's total as retired work. *)
  let sweep_work s = match s.prev with Some b -> work b | None -> no_work

  let step s population =
    Mapqn_obs.Span.with_ "bounds.sweep.step" @@ fun () ->
    Health.begin_solve ();
    let t0 = Mapqn_obs.Span.now () in
    let network = s.network_of population in
    if Mapqn_model.Network.has_delay network then
      Error (Unsupported_network "a delay (infinite-server) station")
    else begin
      let ms, model =
        match s.inc with
        | Some inc -> Constraints.Incremental.extend inc network
        | None ->
          let inc, ms, model =
            Constraints.Incremental.create s.sconfig network
          in
          s.inc <- Some inc;
          (ms, model)
      in
      let seeds =
        match s.prev with
        | Some ({ backend = B_revised r; _ } as b_prev) when s.warm_start ->
          Some
            (translate_seeds ~from_ms:b_prev.ms ~from_model:b_prev.model
               ~to_ms:ms ~to_model:model (Revised.basis_seeds r))
        | _ -> None
      in
      (* The new handle inherits the sweep's work so far as retired work,
         so the step record's delta is the step's own: phase 1 and any
         seeded restoration. *)
      let before = sweep_work s in
      match
        prepare ~solver:Revised ?seeds ~retired:before network ms model
      with
      | Error e -> Error e
      | Ok (b, seeded) ->
        if seeded then begin
          s.warm <- s.warm + 1;
          Mapqn_obs.Metrics.inc m_warm_steps
        end
        else begin
          s.cold <- s.cold + 1;
          Mapqn_obs.Metrics.inc m_cold_steps
        end;
        s.steps <- s.steps + 1;
        Mapqn_obs.Metrics.inc m_steps;
        s.prev <- Some b;
        let duration = Mapqn_obs.Span.now () -. t0 in
        Mapqn_obs.Metrics.observe m_step_seconds duration;
        if Ledger.is_enabled () then
          Ledger.record ~event:"sweep_step"
            (ledger_fields b ~duration ~before @ [ ("warm", Json.Bool seeded) ]);
        Ok b
    end

  let step_exn s population =
    match step s population with Ok b -> b | Error e -> raise (Solver_error e)

  type stats = {
    steps : int;
    warm : int;
    cold : int;
    refactorizations : int;
    pivots : int;
  }

  let stats s =
    let w = sweep_work s in
    {
      steps = s.steps;
      warm = s.warm;
      cold = s.cold;
      refactorizations = w.Revised.refactorizations;
      pivots = w.Revised.pivots;
    }

  let run ?progress s ~populations ~f =
    let report g = Option.iter g progress in
    List.map
      (fun population ->
        let id = Printf.sprintf "N=%d" population in
        let t0 = Mapqn_obs.Span.now () in
        report (fun p -> Mapqn_obs.Progress.task_start p id);
        let phase name =
          report (fun p -> Mapqn_obs.Progress.task_phase p ~id name)
        in
        let memo = ref None in
        let bounds () =
          match !memo with
          | Some b -> b
          | None ->
            phase "bounds";
            let b = step_exn s population in
            memo := Some b;
            b
        in
        let result = f ~phase ~bounds population in
        report (fun p ->
            Mapqn_obs.Progress.task_done p
              ~elapsed:(Mapqn_obs.Span.now () -. t0)
              id);
        (population, result))
      populations
end
