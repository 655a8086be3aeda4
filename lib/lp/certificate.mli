(** Certificates for LP solutions: a safe dual bound and a primal
    residual.

    The bound analysis promises that every reported interval brackets
    the exact value. This module separates the two things a solve must
    show for that, independently of either simplex backend (pure
    arithmetic over the {!Lp_model}, so dense and revised solutions are
    judged alike):

    - {b validity} — the {e safe bound} ({!safe_bound}), a weak-duality
      bound computed from any multipliers [y]. It bounds the objective
      over every point of the feasible region inside the box
      [0 <= x <= upper], whatever the solver did, so an endpoint that
      falls back on it is valid by construction (Neumaier & Shcherbina,
      "Safe bounds in linear and mixed-integer linear programming",
      Math. Prog. 99, 2004);
    - {b tightness} — whether the solver's objective can be trusted: its
      point must satisfy the rows ({e primal residual}), and the safe
      bound from its duals must lie within the reporting {!margin} of
      its objective ({e gap}).

    A dual-feasible but primal-infeasible basis shows why both tests are
    needed: its safe bound sits next to its objective, yet both lie
    below the true LP minimum. *)

type t = {
  primal_residual : float;
      (** worst absolute violation of the rows (by sense) and variable
          bounds at the judged point *)
  safe_bound : float;
      (** {!safe_bound} of the solution's duals, in the objective's own
          direction: a lower bound on the minimum, an upper bound on the
          maximum *)
  gap : float;
      (** distance from the objective to the safe bound, oriented
          (objective − bound for a minimum, bound − objective for a
          maximum) and divided by [margin objective]; [<= 1.] means the
          safe bound lies within the margin. Infinite when the safe bound
          is. *)
}

val default_tol_primal : float
(** [1e-5] — the primal-residual tolerance of {!check}: the solvers'
    accepted transient-infeasibility budget (Harris ratio-test slack and
    per-pivot clamps accumulated between refactorizations, all at or
    below 1e-7, plus the 1e-8-scale anti-degeneracy perturbation).
    Exposed so ledger records and diagnostics quote the number the test
    uses. *)

val margin : float -> float
(** [margin v = 1e-5 · max 1 |v|]: how far a reported endpoint widens
    the objective [v] of an accepted solve. The solvers solve a slightly
    perturbed problem and stop at loose reduced-cost tolerances, so an
    optimum can sit a few parts in 1e6 inside the true one. *)

val safe_bound :
  upper:float array ->
  Lp_model.t ->
  Simplex.direction ->
  objective:(Lp_model.var * float) list ->
  duals:float array ->
  float
(** [safe_bound ~upper model direction ~objective ~duals] bounds
    [c·x] over every [x] that satisfies the model's rows with
    [0 <= x <= u], where [uⱼ = min upper.(j) (model upper bound of j)]:
    a lower bound on the minimum for [Minimize], an upper bound on the
    maximum for [Maximize]. [duals] are row multipliers oriented like
    {!Simplex.solution.duals}, but need not be optimal or even feasible.
    [upper] has one entry per variable, and every variable's lower
    bound must be [0] ([Invalid_argument] otherwise).

    Orient as a minimization ([max c·x = −min (−c)·x]) and compute, in
    four steps:
    + project [y] onto the signs the row senses require ([<= 0] on a
      [<=] row, [>= 0] on a [>=] row, free on an equality), setting
      wrong-signed and non-finite entries to [0];
    + compute [d = c − Aᵀy] column by column;
    + form [b·y + Σⱼ min(0, dⱼ − eⱼ)·uⱼ], [eⱼ] bounding the rounding
      of [dⱼ] (below);
    + lower the result by [2·γ(K+2)·Σ|terms|], [K] being its number of
      terms.

    For any such [x], [c·x = b·y + Σⱼ dⱼxⱼ + Σᵣ yᵣ(aᵣx − bᵣ)]; the last
    sum is [>= 0] by the signs of [y], and [dⱼxⱼ >= min(0, dⱼ)·uⱼ] on
    the box. Rounding is bounded rigorously, with
    [γ(n) = n·u / (1 − n·u)] and [u = 2⁻⁵³] (Higham, {e Accuracy and
    Stability of Numerical Algorithms}, §3.1): [dⱼ] is a dot product of
    [nⱼ] terms (objective coefficients and [aᵣⱼyᵣ]), so the computed
    [d̂ⱼ] is within [eⱼ = 2·γ(nⱼ+1)·Σ|terms of dⱼ|] of the exact value,
    and the final sum of [K] rounded products is within
    [γ(K+2)·Σ|terms|] of its exact value. The factors of 2 cover the
    rounding of the error terms themselves. The bound is [neg_infinity]
    when some [dⱼ − eⱼ < 0] meets an infinite [uⱼ] (or when a
    coefficient is not finite) and is never NaN. It is valid for the LP
    as built in floating point. *)

val compute :
  upper:float array ->
  Lp_model.t ->
  Simplex.direction ->
  objective:(Lp_model.var * float) list ->
  Simplex.solution ->
  t
(** The certificate of a claimed-optimal solution of
    [direction objective], with the primal residual measured at the
    reported point [values]. Duplicate objective terms are summed,
    matching {!Lp_model.add_row} semantics. *)

val check :
  upper:float array ->
  Lp_model.t ->
  Simplex.direction ->
  objective:(Lp_model.var * float) list ->
  Simplex.solution ->
  (t, t) result
(** Accept a solve when its primal residual is at most
    {!default_tol_primal} and its gap at most [1.]. The
    residual is judged at the exact point first and, when that fails, at
    the solution's feasibility witness ({!Simplex.solution.witness}): on
    an ill-conditioned basis the exact point can sit off non-binding
    degenerate rows by conditioning × perturbation, while the witness's
    error is bounded by the solver's perturbation and
    accepted-infeasibility budget. [Ok] and [Error] carry the judged
    certificate (the witness's once the exact point failed), which is
    also reported to {!Mapqn_obs.Health.observe_certificate}. *)
