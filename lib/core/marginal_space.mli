(** The aggregate (marginal) probability space of the bound analysis.

    Where the exact CTMC tracks the full queue-length vector, the paper's
    aggregation keeps only, per station [k], level [n] and joint phase
    vector [h]:

    - [v_k(n, h) = P{n_k = n, phase = h}]
    - [w_{j,k}(n, h) = P{n_j >= 1, n_k = n, phase = h}] for [j <> k]
    - optionally [z_{j,k}(n, h) = E[n_j · 1{n_k = n, phase = h}]]
      (the level-2 extension)

    totalling [O(M² (N+1) H)] quantities — the paper's headline
    computational-tractability result — versus the [C(M+N-1, N) · H]
    states of the exact chain. This module owns the variable indexing
    shared by constraint generation, objectives, and the exact-aggregation
    used in validation. *)

type t

val create : ?level2:bool -> Mapqn_model.Network.t -> t
(** Index space for the given network; [level2] (default false) allocates
    the [z] variables. *)

val network : t -> Mapqn_model.Network.t
val num_stations : t -> int
val population : t -> int
val num_phase_vectors : t -> int
val has_level2 : t -> bool

val num_vars : t -> int
(** Total number of aggregate variables. *)

val v : t -> station:int -> level:int -> phase:int -> int
(** Index of [v_station(level, phase)]. *)

val w : t -> busy:int -> station:int -> level:int -> phase:int -> int
(** Index of [w_{busy,station}(level, phase)]; requires [busy <> station]. *)

val z : t -> counted:int -> station:int -> level:int -> phase:int -> int
(** Index of [z_{counted,station}(level, phase)]; requires level-2 space. *)

val describe : t -> int -> string
(** Human-readable name of a variable index (for LP debugging). *)

(** Structural role of a variable index — the inverse of {!v}/{!w}/{!z}.
    Because the role names stations, levels and phases rather than raw
    indices, it is stable across population changes: the same role can be
    re-instantiated in the space of a different [N] (the basis-mapping
    step of warm-started population sweeps). *)
type role =
  | Role_v of { station : int; level : int; phase : int }
  | Role_w of { busy : int; station : int; level : int; phase : int }
  | Role_z of { counted : int; station : int; level : int; phase : int }

val classify : t -> int -> role

val upper_bound : t -> int -> float
(** The implied upper bound [u] of a variable: [1.] for [v] and [w], the
    population [N] for [z].

    {b Lemma.} The aggregation of the exact stationary distribution
    ({!aggregate_exact}) lies in the box [0 <= π <= u]. [v_k(n,h)] and
    [w_{j,k}(n,h)] are probabilities of events, so they lie in [\[0, 1\]].
    [z_{j,k}(n,h) = E\[n_j · 1{n_k = n, phase = h}\]] is the expectation
    of a product of [n_j <= N] and an indicator, so it lies in
    [\[0, N\]]. The LP does not carry these bounds (its variables are
    only nonnegative); a safe dual bound needs them
    ({!Mapqn_lp.Certificate.safe_bound}), and holds for the exact
    point because the lemma puts that point inside the box. *)

val phase_component : t -> int -> int -> int
(** [phase_component t h k]: station [k]'s phase in joint phase vector
    [h]. *)

val phase_subst : t -> int -> int -> int -> int
(** [phase_subst t h k b]: the joint phase vector equal to [h] with station
    [k]'s component replaced by [b]. *)

val station_order : t -> int -> int
(** MAP order of station [k]. *)

val iter_phases : t -> (int -> unit) -> unit
(** Iterate joint phase indices [0 .. H-1]. *)

val aggregate_exact : t -> Mapqn_ctmc.Solution.t -> float array
(** Project an exact stationary solution onto the aggregate variables —
    the ground-truth point that must satisfy every constraint family (used
    by tests and by the validation harness). The solution must be for the
    same network. *)
