(** Two-phase primal simplex over a dense tableau.

    Implemented from scratch (no external LP dependency): Dantzig pricing
    with a rotating partial-pricing window for speed, lexicographic and
    perturbation-based anti-cycling (the marginal-balance LPs are highly
    degenerate), and tolerance of redundant rows discovered in phase 1
    (the balance-equation families are rank-deficient by construction).

    This is the reference backend: asymptotically the tableau costs
    O(m·n) memory and O(m·n) work per pivot, so it only scales to small
    populations. {!Revised} is the production backend; the two are
    cross-checked against each other in the test suite, and this one
    remains selectable as [--solver=dense].

    The bound layer solves min and max of many objectives over one
    feasible region, so the expensive phase 1 is exposed separately:
    {!prepare} once, then {!optimize} per objective. *)

type direction = Minimize | Maximize

type solution = {
  objective : float;
  values : float array;  (** optimal point, indexed by {!Lp_model.var} *)
  witness : float array;
      (** feasibility witness, indexed by {!Lp_model.var}: the final
          basis's primal point under the solver's anti-degeneracy
          perturbation. Unlike [values] — which is the exact basic
          solution for the unperturbed right-hand side and, on
          ill-conditioned degenerate bases, can violate non-binding
          constraints by [conditioning × perturbation] — the witness
          satisfies every model row and bound up to the perturbation
          magnitude itself (a few 1e-9), independent of conditioning.
          This is the point optimality certificates
          ({!Certificate.compute}) are checked at. *)
  duals : float array;
      (** dual values (shadow prices) of the model rows, in insertion
          order, oriented for the requested direction: the objective's
          sensitivity to the row's right-hand side. Strong duality
          ([objective = Σ duals·rhs + contribution of active variable
          bounds]) holds up to the solver's numerical margin. *)
  iterations : int;  (** phase-2 simplex pivots *)
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit of int
      (** phase 2 (or, for {!solve}, phase 1) exhausted its pivot budget
          (the payload) *)

type prepare_error =
  | Infeasible_phase1  (** the constraint system admits no point *)
  | Iteration_limit_phase1 of int
      (** phase 1 exhausted its pivot budget (the payload) *)

val prepare_error_to_string : prepare_error -> string

type prepared
(** A feasible basis for a model (output of phase 1). *)

val prepare : ?salt:int -> Lp_model.t -> (prepared, prepare_error) result
(** Run phase 1, capped at [50_000 + 50 * (rows + standard-form
    columns)] pivots. A stall or leftover artificial mass retries with
    fresh anti-degeneracy perturbations, salts [salt] (default [0]) to
    [salt + 3]. *)

val optimize : prepared -> direction -> (Lp_model.var * float) list -> outcome
(** Run phase 2 for one objective from the prepared basis, capped at
    [50_000 + 50 * (rows + tableau columns)] pivots. The prepared value
    is not consumed: repeated calls are independent. *)

val solve : Lp_model.t -> direction -> (Lp_model.var * float) list -> outcome
(** One-shot [prepare] + [optimize]. *)
