(** Linear-programming performance bounds for MAP queueing networks — the
    paper's contribution.

    [create] assembles the marginal-balance LP for a network (one phase-1
    simplex run); each metric query then solves two phase-2 problems
    (minimize and maximize the metric as a linear function of the
    aggregate probabilities) over the same feasible region. Because every
    constraint is exact, the true value always lies in the returned
    interval; tightness depends on the constraint families enabled
    ({!Constraints.config}).

    {b Batch evaluation.} {!eval} is the primary query entry point: it
    evaluates a whole report of metrics in one sweep. On the default
    {!Revised} backend each optimization warm-starts from the basis left
    by the previous one, so a full report costs little more than its
    hardest single metric; the per-metric functions ({!throughput},
    {!utilization}, ...) are one-element [eval] calls kept for
    convenience. *)

type t

(** {1 Intervals} *)

type interval = { lower : float; upper : float }

val width : interval -> float
(** [upper - lower]; [0.] when the endpoints are equal (including two
    infinite endpoints of the same sign — never NaN). *)

val midpoint : interval -> float
(** Midpoint; an infinite endpoint dominates, and [0.] for
    [(-inf, +inf)] — never NaN. *)

val contains : interval -> float -> bool
(** Within a small numerical tolerance (1e-7 absolute + relative, computed
    from the finite endpoints only, so intervals with infinite endpoints
    behave set-theoretically). *)

(** {1 Errors} *)

type error =
  | Unsupported_network of string
      (** network feature outside the bound analysis (e.g. delay stations) *)
  | Infeasible_phase1
      (** the LP admits no point — a constraint-generation bug, since the
          exact solution is always feasible *)
  | Iteration_limit of int  (** pivot budget exhausted *)
  | Invalid_station of int  (** station index out of range *)
  | Invalid_objective of string
      (** malformed metric (negative moment order, level out of range) *)
  | Certificate_failure of Mapqn_lp.Certificate.failure
      (** an LP solve returned a point whose optimality certificate
          (primal residual, dual feasibility, complementary slackness —
          see {!Mapqn_lp.Certificate}) exceeds tolerance; the reported
          interval would not be trustworthy *)

val error_to_string : error -> string

exception Solver_error of error
(** Raised by {!eval}, the per-metric wrappers and {!create_exn} — the
    exception face of {!error} (registered with [Printexc]). *)

(** {1 Construction} *)

(** LP backend: [Revised] (default) prices out of sparse columns with a
    warm-started eta-file basis ({!Mapqn_lp.Revised}); [Dense] is the
    reference dense-tableau simplex ({!Mapqn_lp.Simplex}), kept as a
    cross-check oracle and for [--solver=dense]. Both produce intervals
    that agree within solver tolerances. *)
type solver = Dense | Revised

val create :
  ?solver:solver ->
  ?config:Constraints.config ->
  ?max_iter:int ->
  ?accept_uncertified:bool ->
  Mapqn_model.Network.t ->
  (t, error) result
(** Build the LP and run phase 1. Default config is
    {!Constraints.standard}, default solver {!Revised}.

    {b The rescue ladder.} Every reported optimum must pass its
    optimality certificate. When one fails, the solve climbs a ladder
    of increasingly drastic retries: refine (rebuild the factorization
    and re-optimize), reperturb (fresh prepare at a 100× tighter
    anti-degeneracy perturbation), cold re-solve (10× tighter, with a
    longer perturbation-retry budget, warm-start state discarded; the
    only rung that also serves a {!Dense} backend, which it re-prepares
    on a shifted perturbation draw) and the dense-tableau oracle
    (size-gated). The first rung whose result certifies wins and
    is recorded as a typed {!Mapqn_obs.Health.rescue} outcome in the run
    ledger. A {!Revised} phase 1 that reports these always-feasible LPs
    infeasible, or hits its iteration cap, climbs the same ladder
    without the refine rung and returns its original error when the
    ladder is exhausted.

    An exhausted certificate ladder raises [Certificate_failure]. With
    [accept_uncertified] (default [false]) it instead keeps the original
    near-optimal objective and records {!Mapqn_obs.Health.Uncertified},
    for harvest and diagnostic runs that must observe failures without
    dying on them. *)

val create_exn :
  ?solver:solver ->
  ?config:Constraints.config ->
  ?max_iter:int ->
  ?accept_uncertified:bool ->
  Mapqn_model.Network.t ->
  t
(** Like {!create}; raises {!Solver_error}. *)

val network : t -> Mapqn_model.Network.t
val space : t -> Marginal_space.t
val config : t -> Constraints.config

val solver : t -> solver
(** The backend this instance was created with. *)

val lp_size : t -> int * int
(** [(variables, rows)] of the underlying LP model. *)

(** {1 Metrics} *)

(** A performance metric of the network, bounded through the LP. Station
    arguments are indices into the network; [Queue_length_moment (k, r)]
    is [E\[n_k^r\]]; [Response_time] is derived from the reference
    station's throughput via Little's law. *)
type metric =
  | Throughput of int
  | Utilization of int
  | Mean_queue_length of int
  | Queue_length_moment of int * int
  | Marginal_probability of { station : int; level : int }
  | Response_time of { reference : int }

val metric_to_string : metric -> string

val eval : t -> metric list -> (metric * interval) list
(** Bound every metric in the list, in order, over the shared prepared
    LP — the primary query entry point. On the {!Revised} backend the
    underlying optimizations warm-start from one another. Results pair
    each requested metric with its interval. Raises {!Solver_error} on an
    invalid metric ({!Invalid_station}, {!Invalid_objective}) or when the
    simplex hits its iteration limit. *)

(** {2 Single-metric convenience wrappers}

    Each is exactly a one-element {!eval} call (same validation, same
    code path, same exceptions). *)

val throughput : t -> int -> interval
(** Completion-rate bounds at a station:
    [X_k = Σ_{n>=1,h} λ_k(h_k) v_k(n,h)]. *)

val utilization : t -> int -> interval
(** [U_k = 1 - Σ_h v_k(0,h)], clamped to [\[0,1\]]. *)

val mean_queue_length : t -> int -> interval
val queue_length_moment : t -> int -> int -> interval
val marginal_probability : t -> station:int -> level:int -> interval

val response_time : ?reference:int -> t -> interval
(** Little's-law response time [R = N / X_ref] (default reference station
    0): [R_min = N / X_max], [R_max = N / X_min] — exactly the paper's
    derivation of response-time bounds from throughput bounds. An LP
    throughput lower bound of 0 yields [upper = infinity]; the interval
    helpers above stay NaN-free on such intervals. *)

(** {1 Advanced queries} *)

val sensitivity :
  ?top:int ->
  t ->
  Mapqn_lp.Simplex.direction ->
  (int * float) list ->
  (string * float) list
(** The constraints that drive a bound: names and dual values (shadow
    prices) of the rows with the largest |dual| at the optimum of the
    given objective/direction (default the top 10). A large |dual| means
    the bound is sensitive to that balance equation — useful for
    understanding where tightness comes from (see the ablation bench). *)

val custom : t -> (int * float) list -> interval
(** Bounds on an arbitrary linear function of the marginal-space variables
    (indices from {!Marginal_space}). Raises {!Solver_error} if the
    simplex hits its iteration limit. *)

(** {1 Population sweeps}

    The paper's experiments evaluate the same network at many
    populations. A sweep engine makes that super-linear instead of
    one-cold-solve-per-N: the constraint system is extended from the
    previous population instead of re-derived
    ({!Constraints.Incremental}), and on the {!Revised} backend phase 1
    is warm-started from the previous population's final basis —
    structural variables are carried over by role (station, level,
    phase), row slacks by row name, and the new levels are covered by
    their own balance variables — falling back to a cold preparation
    whenever the seed does not take. Results are identical to per-N
    {!create} up to solver tolerances, and every metric query on a
    stepped {!t} still runs under an optimality certificate.

    {b Migration.} Replace a loop of [Bounds.create_exn] over
    populations with one {!Sweep.create} and a {!Sweep.step} (or
    {!Sweep.run}, which also owns the progress reporting) per
    population; everything downstream of the returned {!t} is
    unchanged. *)

module Sweep : sig
  type bounds := t

  type t
  (** A sweep in progress: constraint templates plus the previous
      population's solver state. Mutable; step populations in the order
      you want the warm starts chained (ascending is the effective
      direction). *)

  val create :
    ?solver:solver ->
    ?config:Constraints.config ->
    ?max_iter:int ->
    ?warm_start:bool ->
    ?accept_uncertified:bool ->
    (int -> Mapqn_model.Network.t) ->
    t
  (** [create network_of]: an engine for the family
      [network_of population]. The function must return networks that
      differ only in population (same stations and routing — enforced by
      the constraint builder). [warm_start] (default [true]) is the
      opt-out flag: [false] prepares every population cold, which is the
      reference behaviour warm results are tested against.
      [accept_uncertified] is set on every stepped bounds instance, as
      the top-level [create] takes it. *)

  val step : t -> int -> (bounds, error) result
  (** Prepare the LP for one population, seeded from the previous
      {!step}'s final basis (on the revised backend, with warm starts
      enabled). The returned handle answers every query of this module;
      keep it only as long as needed — the engine retains at most the
      latest one. *)

  val step_exn : t -> int -> bounds
  (** Like {!step}; raises {!Solver_error}. *)

  val solver : t -> solver
  val config : t -> Constraints.config

  val warm_start : t -> bool
  (** Whether warm starts are enabled (the [create] flag). *)

  type stats = {
    steps : int;  (** populations prepared *)
    warm : int;  (** steps whose seed took *)
    cold : int;  (** first steps, opt-outs and fallbacks *)
    refactorizations : int;  (** basis refactorizations across the sweep *)
    pivots : int;  (** simplex pivots across the sweep *)
  }

  val stats : t -> stats

  val run :
    ?progress:Mapqn_obs.Progress.t ->
    t ->
    populations:int list ->
    f:(phase:(string -> unit) -> bounds:(unit -> bounds) -> int -> 'a) ->
    (int * 'a) list
  (** Drive a whole sweep, folding in the progress wiring the
      experiment runners used to duplicate: each population is one
      progress task (id ["N=<n>"]) reported with
      {!Mapqn_obs.Progress.task_start}, [phase] forwarded as
      {!Mapqn_obs.Progress.task_phase} and closed by
      {!Mapqn_obs.Progress.task_done} with the population's own wall
      time. Stepping is lazy: [f]'s [bounds] thunk runs {!step_exn}
      under a ["bounds"] phase on first use, so [f] chooses where in its
      phase sequence the LP work happens. Returns
      [(population, f result)] in sweep order. *)
end
