(** Revised simplex with a sparse constraint matrix and an eta-file basis.

    The production LP backend. Where {!Simplex} expands the constraints
    into a dense [m × n] tableau and touches all of it on every pivot,
    this solver stores the standard-form matrix once in CSR (column-major
    through {!Std_form.cols}) and maintains only the basis inverse as a
    product of eta matrices:

    - pricing computes reduced costs [d_j = c_j − y·A_j] against the
      sparse columns ({!Mapqn_sparse.Csr.dot_rows});
    - FTRAN/BTRAN apply the eta file in O(eta nonzeros);
    - the file is periodically rebuilt from identity (refactorization) to
      bound its growth and wash out roundoff.

    Per-pivot work is O(nnz(A) + eta nonzeros) instead of O(m·n), and
    memory O(nnz) instead of O(m·n) — the difference between solving the
    marginal-balance LPs at population 500 in milliseconds and not fitting
    their tableau in memory at all.

    The prepared state is mutable and supports {b warm starts}: each
    {!optimize} reoptimizes from the basis left by the previous call,
    which for the closely-related objectives of a bound sweep typically
    needs a handful of pivots instead of a full phase 2. The
    anti-degeneracy perturbation is fixed at {!prepare} time so every
    basis reached remains primal-feasible for every later objective.

    Directions, outcomes and preparation errors are shared with
    {!Simplex}, so callers can switch backends without translation. *)

type t
(** A prepared (phase-1 feasible) solver state for one model. Mutable:
    {!optimize} moves the basis. *)

(** The work a state has done. Its counters cover every attempt made to
    prepare it: a phase 1 that failed on one perturbation draw and was
    retried on the next, or a seed that did not take before a cold
    phase 1, is counted in the state that replaced it. *)
type stats = {
  refactorizations : int;  (** basis refactorizations over this state's life *)
  pivots : int;
      (** simplex and feasibility-restoration pivots over this state's
          life (the phase-1 drive-outs are counted apart, in
          [revised_artificial_driveouts_total]) *)
  eta_nnz : int;  (** current eta-file nonzeros *)
  solves : int;  (** phase-2 optimizations over this state's life *)
  refactor_stability : int;
      (** reinversions forced by the small-pivot stability trigger *)
  refactor_growth : int;  (** reinversions from eta-file growth *)
  refactor_drift : int;  (** reinversions from sampled eta-chain drift *)
  refactor_backstop : int;  (** reinversions from the pivot-count backstop *)
}

val stats : t -> stats

val prepare :
  ?pert_scale:float ->
  ?salt:int ->
  Lp_model.t ->
  (t, Simplex.prepare_error * stats) result
(** Run phase 1, capped at [50_000 + 50 * (rows + standard-form
    columns)] pivots. A failure comes with the work of every attempt it
    made, so callers can count it although no state is returned.

    [pert_scale] (default [1.]) multiplies the anti-degeneracy
    perturbation globally, on top of the built-in per-row scaling (row
    coefficient norm × a sqrt(rows) size factor) — the certificate
    rescue ladder re-prepares at tighter scales. [salt] (default [0])
    bounds the perturbation-retry ladder: a failed phase 1 (a stall, an
    unbounded step on a degraded basis, or artificial mass left at the
    phase-1 optimum) retries with fresh perturbation draws up to draw
    [salt + 3]. The draws start at 0 whatever the base, so a larger base
    buys more retries rather than a different first trajectory. *)

val pert_scale : t -> float
(** The [pert_scale] this state was prepared with. *)

val optimize :
  t -> Simplex.direction -> (Lp_model.var * float) list -> Simplex.outcome
(** Run phase 2 for one objective, warm-starting from the basis of the
    previous call (or the phase-1 basis on the first call), capped at
    [50_000 + 50 * (rows + standard-form columns)] pivots. The final
    basis is kept for the next objective. *)

(** {1 Cross-model warm starts}

    A population sweep solves a chain of closely related models: the
    constraint matrix at population [N+1] extends the one at [N]. The
    final basis of one model, described in model terms (variables and row
    names rather than raw column indices), seeds phase 1 of the next:
    {!prepare_seeded} maps the seed onto the new standard form, restores
    primal feasibility with a bounded dual-simplex-style repair, and
    falls back to a cold {!prepare} whenever the seed does not take. *)

(** One basic column, in model terms: a model variable (by index into the
    NEW model — the caller translates structural roles between models) or
    the slack of a model row (by row index in the new model). *)
type seed = Seed_var of int | Seed_slack of int

val basis_seeds : t -> seed list
(** The current basis as seeds in this model's own terms (variable
    indices and row indices of the model [t] was prepared for).
    Artificial columns are omitted. The optimum of the last-priced
    objective seeds the next population reliably; the phase-1 vertex
    measured worse (it tends not to take and falls back cold). *)

val prepare_seeded :
  seeds:seed list -> Lp_model.t -> (t * bool, Simplex.prepare_error * stats) result
(** Phase 1 warm-started from a seed basis (already translated into the
    new model's terms). The returned flag is [true] when the seed was
    used and [false] when the preparation fell back to a cold phase 1
    (empty seed, failed feasibility restoration, residual artificial
    mass). Either way the result satisfies exactly the invariants of
    {!prepare} — callers cannot observe the difference except through
    timing and {!stats}. *)

(** {1 Introspection} *)

val force_refactor : t -> unit
(** Rebuild the eta file of the current basis immediately. The
    represented basis (and therefore every subsequent solution) is
    unchanged — exposed so tests can check that incremental eta updates
    and a fresh factorization agree. The adaptive reinversion policy
    itself is fixed: the eta file is rebuilt when it outgrows 4× the
    last factorization, when the incrementally updated basic values
    drift more than 1e-6 from a fresh FTRAN of the right-hand side
    (checked every 128 pivots), after a pivot on an entry small
    against its column, and at the latest every 5,000 pivots. *)

val solve :
  Lp_model.t -> Simplex.direction -> (Lp_model.var * float) list -> Simplex.outcome
(** One-shot [prepare] + [optimize]. *)
