(** Numerical-stability telemetry for the LP layers.

    The revised simplex and the certificate checker report their
    numerical health here: eta-chain residual drift sampled on the
    reinversion triggers, degeneracy streaks and Bland switches, the
    depth of the anti-degeneracy perturbation ladder, the rescue rung,
    the refinement residual and the certificate residual triple. Each
    snapshot field has a reader: [mapqn doctor] ({!Ledger.doctor}), the
    corpus tests' cause attribution, or perfbench's rescue counters.

    Every observation is mirrored twice: into the {!Metrics} registry
    (gauges carry the last observation, [*_peak]/[*_depth] gauges the
    high-water mark, counters accumulate), and into a per-solve
    {!snapshot} that {!begin_solve} resets — the run ledger
    ({!Ledger}) embeds the snapshot in each record so every solve
    carries its own worst-case numerics.

    The snapshot lives in the current {!Run_ctx} (not a process
    global): concurrent domains each accumulate the numerics of their
    own solves, provided each unit of work runs under its own context
    ({!Run_ctx.with_}, as the fleet runner arranges). The Metrics
    mirrors remain process-wide last-writer-wins gauges.

    Thread-safe; observers are called once per drift check, stall or
    solve — never on the per-pivot path. *)

type rescue = Refined | Reperturbed | Cold_resolve | Dense_oracle | Uncertified
(** The rung of the certificate rescue ladder that produced (or failed
    to produce) a passing certificate for a solve. [Refined] also covers
    the always-on post-solve iterative refinement when it had to correct
    a residual large enough to have threatened the certificate. Ordered:
    each constructor is a strictly deeper escalation than the previous,
    and [Uncertified] means the whole ladder was exhausted. *)

val rescue_depth_of : rescue -> int
(** Ladder depth, 1 ([Refined]) to 5 ([Uncertified]). *)

val deeper_rescue : rescue option -> rescue option -> rescue option
(** The deeper of two rescue outcomes by {!rescue_depth_of}, the first on
    a tie; [None] only when both are. A solve's prepare-time and
    certificate-time rescues attribute to it through this rule. *)

val rescue_to_string : rescue -> string
val rescue_of_string : string -> rescue option

type snapshot = {
  eta_drift : float;
      (** worst sampled divergence of incrementally updated basic values
          from a fresh FTRAN of the right-hand side *)
  degeneracy_streak : int;  (** longest degenerate-pivot streak *)
  bland_switches : int;  (** stalls that forced Bland's rule *)
  perturbation_salt : int;  (** deepest perturbation-ladder salt *)
  cert_primal : float;  (** worst certificate primal residual *)
  cert_dual : float;  (** worst certificate dual violation *)
  cert_comp : float;  (** worst certificate complementary-slackness gap *)
  cert_failures : int;  (** certificates that exceeded tolerance *)
  rescue : rescue option;
      (** deepest rescue rung engaged this solve, [None] when no rescue
          was needed *)
  refine_residual : float;
      (** worst primal residual found (and corrected) by post-solve
          iterative refinement this solve *)
}

val empty : snapshot

val begin_solve : unit -> unit
(** Reset the per-solve snapshot of the current {!Run_ctx}. Called by
    the solve-level entry points (e.g. [Bounds.eval],
    [Bounds.Sweep.step]) so {!current} describes exactly one unit of
    ledger-recorded work. *)

val current : unit -> snapshot
(** The current context's snapshot. *)

(** {1 Observers} — called by the instrumented layers. *)

val observe_drift : float -> unit
val observe_degeneracy_streak : int -> unit
val observe_stall : unit -> unit
val observe_salt : int -> unit

val observe_certificate :
  primal:float -> dual:float -> comp:float -> accepted:bool -> unit

val observe_rescue : rescue -> unit
(** Record that a rescue rung produced this solve's accepted result (or,
    for [Uncertified], that the ladder was exhausted). The snapshot
    keeps the deepest rung; the per-rung [health_rescue_*_total]
    counters accumulate process-wide. *)

val observe_refinement : residual:float -> unit
(** Record the primal residual that post-solve iterative refinement
    found at the reported point (before correcting it). *)

val to_json : snapshot -> Json.t
(** The snapshot as the ledger's ["health"] object (certificate fields
    are omitted — the ledger records them under ["certificate"]). *)
