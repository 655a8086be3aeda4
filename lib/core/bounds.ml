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
  | Certificate_failure of Certificate.failure

let error_to_string = function
  | Unsupported_network what -> what ^ " is not supported by the bound analysis"
  | Infeasible_phase1 ->
    "marginal-balance LP is infeasible — this indicates a constraint \
     generation bug, since the exact solution is always feasible"
  | Iteration_limit k -> Printf.sprintf "simplex iteration limit (%d pivots)" k
  | Invalid_station k -> Printf.sprintf "station index %d is out of range" k
  | Invalid_objective what -> "invalid objective: " ^ what
  | Certificate_failure f -> Certificate.failure_to_string f

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
  mutable backend : backend;
      (* the rescue ladder swaps in the re-prepared state that produced
         the accepted result, so later objectives benefit from it *)
  config : Constraints.config;
  max_iter : int option;
  accept_uncertified : bool;
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

(* A failed certificate, and a revised prepare that reports these
   always-feasible LPs infeasible or hits its phase-1 cap, are numerics,
   not modeling. Both climb one ladder of increasingly drastic ways to
   re-derive the solution, in {!Health.rescue} order; the first rung that
   works is recorded as the solve's rescue cause.

   - [Refine]: rebuild the factorization of the same basis and
     re-optimize warm, washing out eta-file drift the in-solve refinement
     could not correct through a stale factorization. A failed prepare
     skips it: there is no optimal basis to refine.
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
   exhausted; a failed certificate raises it, or records
   [Health.Uncertified] under [accept_uncertified]. *)
type rung =
  | Refine
  | Reprepare of { scale : float; salt : int; serves_dense : bool }
  | Dense_tableau

let ladder =
  [
    (Health.Refined, Refine);
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
let reprepare ?max_iter model failing rung =
  let dense = function
    | Ok p -> Ok (B_dense p)
    | Error _ -> Error no_work
  in
  match (rung, failing) with
  | Refine, _ | Reprepare { serves_dense = false; _ }, Some (B_dense _) ->
    Error no_work
  | Reprepare { salt; _ }, Some (B_dense _) ->
    dense (Simplex.prepare ?max_iter ~salt model)
  | Reprepare { scale; salt; _ }, (None | Some (B_revised _)) -> (
    let current =
      match failing with Some (B_revised r) -> Revised.pert_scale r | _ -> 1.
    in
    match
      Revised.prepare ?max_iter ~pert_scale:(current *. scale) ~salt model
    with
    | Ok p -> Ok (B_revised p)
    | Error (_, lost) -> Error lost)
  | Dense_tableau, _ ->
    if Lp.num_vars model * Lp.num_rows model > dense_rescue_cells then
      Error no_work
    else dense (Simplex.prepare ?max_iter model)

(* A failed prepare's rescue: the first rung that prepares, with the work
   of the failed prepare and of every rung that failed before it. *)
let rescue_prepare ?max_iter model (err, lost) =
  Mapqn_obs.Metrics.inc m_rescues;
  Mapqn_obs.Span.with_ "bounds.rescue" @@ fun () ->
  let rec climb lost = function
    | [] -> Error err
    | (cause, rung) :: rest -> (
      match reprepare ?max_iter model None rung with
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
let prepare ~solver ~config ?max_iter ~accept_uncertified ?seeds ~retired
    network ms model =
  Mapqn_obs.Span.with_ "bounds.prepare" @@ fun () ->
  let prepared =
    match solver with
    | Dense ->
      Result.map
        (fun p -> (B_dense p, false, no_work))
        (Simplex.prepare ?max_iter model)
    | Revised -> (
      let first =
        match seeds with
        | Some seeds -> Revised.prepare_seeded ?max_iter ~seeds model
        | None ->
          Result.map (fun p -> (p, false)) (Revised.prepare ?max_iter model)
      in
      match first with
      | Ok (p, seeded) -> Ok (B_revised p, seeded, no_work)
      | Error e ->
        Result.map
          (fun (b, lost) -> (b, false, lost))
          (rescue_prepare ?max_iter model e))
  in
  match prepared with
  | Ok (backend, seeded, lost) ->
    Ok
      ( {
          network;
          ms;
          model;
          backend;
          config;
          max_iter;
          accept_uncertified;
          retired = add_work retired lost;
        },
        seeded )
  | Error Simplex.Infeasible_phase1 -> Error Infeasible_phase1
  | Error (Simplex.Iteration_limit_phase1 k) -> Error (Iteration_limit k)

let create ?(solver = default_solver) ?(config = Constraints.standard) ?max_iter
    ?(accept_uncertified = false) network =
  Mapqn_obs.Span.with_ "bounds.create" @@ fun () ->
  if Mapqn_model.Network.has_delay network then
    Error (Unsupported_network "a delay (infinite-server) station")
  else
    let ms, model = Constraints.build config network in
    Result.map fst
      (prepare ~solver ~config ?max_iter ~accept_uncertified ~retired:no_work
         network ms model)

let create_exn ?solver ?config ?max_iter ?accept_uncertified network =
  match create ?solver ?config ?max_iter ?accept_uncertified network with
  | Ok t -> t
  | Error e -> raise (Solver_error e)

let network t = t.network
let space t = t.ms
let config t = t.config
let solver t = match t.backend with B_dense _ -> Dense | B_revised _ -> Revised
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
   the certificate residual triple (with the tolerances it was judged
   against) and the numerical-health snapshot of this unit of work. *)
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
          ("dual_violation", num h.Health.cert_dual);
          ("comp_slack", num h.Health.cert_comp);
          ("failures", num (float_of_int h.Health.cert_failures));
          ("tol_primal", num Certificate.default_tol_primal);
          ("tol_dual", num Certificate.default_tol_dual);
          ("tol_comp", num Certificate.default_tol_comp);
        ] );
    ("health", Health.to_json h);
  ]

let backend_optimize t backend direction objective =
  match backend with
  | B_dense p -> Simplex.optimize ?max_iter:t.max_iter p direction objective
  | B_revised p -> Revised.optimize ?max_iter:t.max_iter p direction objective

(* Optimality certificates for every solved objective. The direction
   label keeps the two endpoints of each interval distinguishable in
   metrics and traces. *)
let m_certificates =
  Mapqn_obs.Metrics.counter
    ~help:"LP optimality certificates computed (one per solved objective)."
    "bounds_certificates_total"

let m_certificate_failures =
  Mapqn_obs.Metrics.counter
    ~help:"LP optimality certificates that exceeded tolerance."
    "bounds_certificate_failures_total"

let m_cert_primal =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst primal residual over the certificates of this run."
    "bounds_certificate_primal_residual"

let m_cert_dual =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst dual-feasibility violation over the certificates of this run."
    "bounds_certificate_dual_violation"

let m_cert_comp =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst complementary-slackness gap over the certificates of this run."
    "bounds_certificate_comp_slack"

(* One certificate check, with metrics and trace but no policy: returns
   the failure instead of raising so the rescue ladder can escalate. *)
let certify_check t direction objective s =
  let label =
    match direction with Simplex.Minimize -> "min" | Simplex.Maximize -> "max"
  in
  Mapqn_obs.Metrics.inc m_certificates;
  let outcome =
    Mapqn_obs.Span.with_ "bounds.certify" (fun () ->
        Certificate.check t.model direction ~objective s)
  in
  let cert =
    match outcome with
    | Ok c -> c
    | Error (f : Certificate.failure) -> f.Certificate.certificate
  in
  Mapqn_obs.Metrics.set_max m_cert_primal cert.Certificate.primal_residual;
  Mapqn_obs.Metrics.set_max m_cert_dual cert.Certificate.dual_violation;
  Mapqn_obs.Metrics.set_max m_cert_comp cert.Certificate.comp_slack;
  if Trace.is_enabled () then
    Trace.record
      (Trace.Certificate
         {
           label;
           primal_residual = cert.Certificate.primal_residual;
           dual_violation = cert.Certificate.dual_violation;
           comp_slack = cert.Certificate.comp_slack;
           accepted = Result.is_ok outcome;
         });
  Result.map (fun _ -> ()) outcome

(* The certificate side of the rescue ladder: each rung's solution must
   certify, and a re-prepared winner is swapped into [t.backend] so later
   objectives start from the healthier state (the dense oracle leaves a
   dense backend, perhaps re-salted by the cold rung, in place). *)
let rescue t direction objective (f0 : Certificate.failure) =
  Mapqn_obs.Metrics.inc m_rescues;
  let certified backend =
    match backend_optimize t backend direction objective with
    | Simplex.Optimal s -> (
      match certify_check t direction objective s with
      | Ok () -> Some s
      | Error _ -> None)
    | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> None
  in
  let rec climb = function
    | [] ->
      if t.accept_uncertified then begin
        Health.observe_rescue Health.Uncertified;
        None
      end
      else begin
        Mapqn_obs.Metrics.inc m_certificate_failures;
        raise (Solver_error (Certificate_failure f0))
      end
    | (cause, rung) :: rest -> (
      let candidate =
        match (rung, t.backend) with
        | Refine, B_revised r ->
          Revised.force_refactor r;
          Ok t.backend
        | _ -> reprepare ?max_iter:t.max_iter t.model (Some t.backend) rung
      in
      (* Every state a rung prepared and dropped keeps its work;
         refine retried the handle's own state. *)
      match Result.map (fun b -> (b, certified b)) candidate with
      | Error lost ->
        t.retired <- add_work t.retired lost;
        climb rest
      | Ok (backend, None) ->
        if rung <> Refine then retire t backend;
        climb rest
      | Ok (backend, Some s) ->
        (match (rung, t.backend) with
        | Refine, _ | Dense_tableau, B_dense _ -> ()
        | _ -> swap_backend t backend);
        Health.observe_rescue cause;
        Some s)
  in
  Mapqn_obs.Span.with_ "bounds.rescue" (fun () -> climb ladder)

let optimize t direction objective =
  Mapqn_obs.Metrics.inc m_objectives;
  Mapqn_obs.Span.with_ "bounds.optimize" @@ fun () ->
  let objective =
    List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) objective
  in
  match backend_optimize t t.backend direction objective with
  | Simplex.Optimal s -> (
    match certify_check t direction objective s with
    | Ok () -> s.Simplex.objective
    | Error f -> (
      match rescue t direction objective f with
      | Some s' -> s'.Simplex.objective
      | None ->
        (* Ladder exhausted under [accept_uncertified]: the original
           point is still the best available near-optimal solution —
           report it, with the Uncertified outcome in the ledger. *)
        s.Simplex.objective))
  | Simplex.Infeasible -> failwith "Bounds: phase-2 infeasibility (bug)"
  | Simplex.Unbounded ->
    failwith "Bounds: unbounded objective (missing normalization constraint?)"
  | Simplex.Iteration_limit ->
    raise
      (Solver_error
         (Iteration_limit (Option.value t.max_iter ~default:(-1))))

let sensitivity ?(top = 10) t direction objective =
  let objective =
    List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) objective
  in
  match backend_optimize t t.backend direction objective with
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
    List.filteri (fun i _ -> i < top) sorted
  | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> []

let custom t objective =
  let lower = optimize t Simplex.Minimize objective in
  let upper = optimize t Simplex.Maximize objective in
  (* The simplex solves a slightly perturbed problem (anti-degeneracy) and
     stops at loose reduced-cost tolerances, so each optimum can sit a few
     parts in 1e6 inside the true one. Widen by a conservative margin so
     the returned interval is always a valid bound; the margin is orders
     of magnitude below the accuracy being studied. *)
  let margin v = 1e-5 *. Float.max 1. (Float.abs v) in
  let lower = lower -. margin lower and upper = upper +. margin upper in
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
    solver : solver;
    sconfig : Constraints.config;
    max_iter : int option;
    warm_start : bool;
    accept_uncertified : bool;
    mutable inc : Constraints.Incremental.t option;
    mutable prev : bounds option;
    mutable steps : int;
    mutable warm : int;
    mutable cold : int;
  }

  let create ?(solver = default_solver) ?(config = Constraints.standard)
      ?max_iter ?(warm_start = true) ?(accept_uncertified = false) network_of =
    {
      network_of;
      solver;
      sconfig = config;
      max_iter;
      warm_start;
      accept_uncertified;
      inc = None;
      prev = None;
      steps = 0;
      warm = 0;
      cold = 0;
    }

  let solver s = s.solver
  let config s = s.sconfig
  let warm_start s = s.warm_start

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
        match (s.prev, s.solver) with
        | Some ({ backend = B_revised r; _ } as b_prev), Revised
          when s.warm_start ->
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
        prepare ~solver:s.solver ~config:s.sconfig ?max_iter:s.max_iter
          ~accept_uncertified:s.accept_uncertified ?seeds ~retired:before
          network ms model
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
