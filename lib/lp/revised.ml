let log_src = Logs.Src.create "mapqn.revised" ~doc:"revised simplex"

module Log = (val Logs.src_log log_src)
module Metrics = Mapqn_obs.Metrics
module Span = Mapqn_obs.Span
module Prof = Mapqn_obs.Prof
module Trace = Mapqn_obs.Trace
module Health = Mapqn_obs.Health
module Csr = Mapqn_sparse.Csr

let m_pivots =
  Metrics.counter ~help:"Revised-simplex pivots performed." "revised_pivots_total"

let m_degenerate =
  Metrics.counter
    ~help:"Revised-simplex pivots that did not improve the objective."
    "revised_degenerate_pivots_total"

let m_refactor =
  Metrics.counter ~help:"Basis refactorizations (eta-file rebuilds)."
    "revised_refactorizations_total"

let m_solves =
  Metrics.counter ~help:"Phase-2 optimizations performed by the revised solver."
    "revised_solves_total"

let m_warm =
  Metrics.counter
    ~help:"Phase-2 solves that reoptimized from the basis of a previous objective."
    "revised_warm_starts_total"

let m_warm_pivots =
  Metrics.histogram
    ~help:"Pivots needed by a warm-started reoptimization."
    ~buckets:[| 0.; 3.; 10.; 30.; 100.; 300.; 1_000.; 3_000. |]
    "revised_warm_start_pivots"

let m_retries =
  Metrics.counter
    ~help:"Phase-1 restarts with a fresh RHS perturbation (revised solver)."
    "revised_anticycling_retries_total"

let m_eta_nnz =
  Metrics.gauge ~help:"Nonzeros in the eta file after the last solve."
    "revised_eta_nnz"

let m_driveouts =
  Metrics.counter
    ~help:
      "Zero-level basic artificials pivoted out after phase 1 (each one was \
       silently relaxing a non-dependent row)."
    "revised_artificial_driveouts_total"

let m_repairs =
  Metrics.counter
    ~help:
      "Numerically dependent basis columns replaced by unit columns during \
       refactorization."
    "revised_basis_repairs_total"

(* Refactorization cause attribution: which reinversion trigger fired.
   The sum can be below revised_refactorizations_total — prepare-time
   and certificate-witness rebuilds are counted only in the total. *)
let m_refactor_stability =
  Metrics.counter
    ~help:"Refactorizations forced by the small-pivot stability trigger."
    "revised_refactor_stability_total"

let m_refactor_growth =
  Metrics.counter
    ~help:"Refactorizations triggered by eta-file growth past the growth limit."
    "revised_refactor_growth_total"

let m_refactor_drift =
  Metrics.counter
    ~help:
      "Refactorizations triggered by incremental basic values drifting from \
       a fresh B⁻¹·rhs beyond the drift tolerance."
    "revised_refactor_drift_total"

let m_refactor_backstop =
  Metrics.counter
    ~help:"Refactorizations triggered by the pivot-count backstop."
    "revised_refactor_backstop_total"

let eps_pivot = 1e-9
let eps_cost = 1e-8

(* Forrest–Tomlin-style reinversion policy defaults: rather than
   refactorizing every fixed number of pivots, the eta file is kept until
   its growth or its numerical health says otherwise (see [run_phase]).
   The growth limit balances two measured costs on the large Figure-4
   instances (m ≈ 8000): looser limits trade fewer rebuilds for longer
   eta chains, which both slow every FTRAN/BTRAN and degrade pricing
   enough to multiply the pivot count (12× roughly doubled bound-report
   time, 64× walked phase 1 into stuck near-feasible vertices). 4× sat
   at the measured optimum when a Markowitz refactorization cost
   0.2-0.5 s there; the array-workspace LU costs ~20 ms per call on the
   same instance, which may move the optimum.  Retuning it changes every
   trajectory (pivot counts, certificates, rescue causes), so it is a
   separate, separately measured change. *)
let default_growth_limit = 4.0

(* Refactor when the incrementally updated basic values drift this far
   from a fresh B⁻¹·rhs through the same eta file, checked every
   [default_check_interval] pivots; [default_pivot_backstop] caps the
   pivots between refactorizations. *)
let default_drift_tol = 1e-6
let default_check_interval = 128
let default_pivot_backstop = 5_000

(* ------------------------------------------------------------------ *)
(* Basis representation: product-form inverse (eta file)               *)
(* ------------------------------------------------------------------ *)

(* The basis inverse is an {!Eta_file}: pivots append one eta each, and
   refactorization rebuilds the file from identity by re-pivoting the
   basic columns ({!Markowitz}), so the same mechanism serves both pivot
   updates and reinversion. *)
type t = {
  std : Std_form.t;
  m : int;
  n_struct : int;  (* structural standard-form columns *)
  n_total : int;  (* + phase-1 artificials *)
  cols : Csr.t;  (* column-major matrix: row j = standard-form column j *)
  art_row : int array;  (* artificial k (column n_struct + k) -> its row *)
  art_sign : float array;  (* the artificial of row i is art_sign.(i)·e_i *)
  basis : int array;  (* basic column of each row *)
  in_basis : bool array;
  allowed : bool array;  (* artificials are barred after phase 1 *)
  etas : Eta_file.t;
  mutable base_eta_nnz : int;  (* eta nnz right after the last refactor *)
  mutable pivots_since_refactor : int;
  xb : float array;  (* basic values under the perturbed right-hand side *)
  rhs_pert : float array;
  pert_scale : float;
      (* global multiplier on the anti-degeneracy perturbation this state
         was built with — the rescue ladder re-prepares at tighter scales *)
  mutable solves : int;
  work : float array;  (* FTRAN scratch, length m *)
  mutable refactor_forced : bool;
      (* stability trigger: set when a pivot was accepted on an entry
         small relative to its column, whose eta multipliers would poison
         later FTRANs *)
  mutable n_refactors : int;
  mutable n_pivots : int;
  (* Per-cause reinversion counters, mirroring the process-wide
     [revised_refactor_*_total] metrics: ledger records diff THESE (the
     instance's own work) so concurrent solvers on other domains cannot
     bleed into a record's deltas. *)
  mutable n_refactor_stability : int;
  mutable n_refactor_growth : int;
  mutable n_refactor_drift : int;
  mutable n_refactor_backstop : int;
}

type refactor_cause = Stability | Growth | Drift | Backstop

(* Count one triggered reinversion in the instance's own counter and its
   process-wide mirror; [true], so a trigger test can end in it. *)
let triggered t cause =
  (match cause with
  | Stability ->
    Metrics.inc m_refactor_stability;
    t.n_refactor_stability <- t.n_refactor_stability + 1
  | Growth ->
    Metrics.inc m_refactor_growth;
    t.n_refactor_growth <- t.n_refactor_growth + 1
  | Drift ->
    Metrics.inc m_refactor_drift;
    t.n_refactor_drift <- t.n_refactor_drift + 1
  | Backstop ->
    Metrics.inc m_refactor_backstop;
    t.n_refactor_backstop <- t.n_refactor_backstop + 1);
  true

(* The growth trigger: the eta file outgrew the last factorization.
   Past that point the per-pivot FTRAN/BTRAN work saved by a fresh,
   near-minimal LU outweighs the cost of building it. *)
let eta_outgrown t =
  float_of_int (Eta_file.nnz t.etas)
  > default_growth_limit *. float_of_int (t.base_eta_nnz + t.m)

(* w <- B⁻¹ A_j (dense scratch; artificials are identity columns) *)
let ftran_col t j w =
  Array.fill w 0 t.m 0.;
  if j < t.n_struct then Csr.scatter_row t.cols j w
  else begin
    let i = t.art_row.(j - t.n_struct) in
    w.(i) <- t.art_sign.(i)
  end;
  Eta_file.ftran t.etas w

(* Refactorization storage: one workspace per domain, grown to the
   largest basis the domain has factorized.  A factorization keeps no
   state between calls and calls on one domain never overlap (the
   library starts no systhreads), so every solver state on a domain can
   share it; a workspace per state raised the peak RSS of fleets, which
   create hundreds of short-lived states. *)
let lu_workspace = Domain.DLS.new_key (fun () -> ref (Markowitz.workspace 0))

let workspace m =
  let ws = Domain.DLS.get lu_workspace in
  if Markowitz.rows !ws < m then ws := Markowitz.workspace m;
  !ws

(* Rebuild the eta file from identity by a sparse Markowitz LU of the
   basic columns ({!Markowitz.factorize}).  Rows may end up assigned to
   different basic columns; the represented basis (as a set) is
   unchanged, except that numerically dependent columns are replaced by
   artificial unit columns.  Also recomputes the basic values from the
   perturbed right-hand side, washing out the roundoff accumulated by
   incremental updates. *)
let refactor t =
  Metrics.inc m_refactor;
  t.n_refactors <- t.n_refactors + 1;
  t.refactor_forced <- false;
  t.pivots_since_refactor <- 0;
  let lu =
    Markowitz.factorize (workspace t.m) t.etas
      {
        Markowitz.cols = t.cols;
        n_struct = t.n_struct;
        art_row = t.art_row;
        art_sign = t.art_sign;
        basis = t.basis;
      }
  in
  List.iter (fun c -> t.in_basis.(c) <- false) lu.Markowitz.dropped;
  List.iter
    (fun i ->
      let a = t.n_struct + i in
      t.in_basis.(a) <- true;
      t.allowed.(a) <- false;
      Metrics.inc m_repairs;
      Log.debug (fun f ->
          f "refactor: dependent basis column replaced by unit column of row %d"
            i))
    lu.Markowitz.repaired;
  Array.blit t.rhs_pert 0 t.xb 0 t.m;
  Eta_file.ftran t.etas t.xb;
  (* The primal simplex needs xb ≥ 0; clamping restores the invariant.
     Violations beyond roundoff scale mean the basis degraded (a repair,
     or an ill-conditioned stretch of the trajectory) — the path
     continues from the clamped point, phase 1 prices the infeasibility
     away again, and optimality is certified by pricing, not by xb. *)
  for i = 0 to t.m - 1 do
    if t.xb.(i) < 0. then t.xb.(i) <- 0.
  done;
  t.base_eta_nnz <- Eta_file.nnz t.etas;
  Metrics.set m_eta_nnz (float_of_int (Eta_file.nnz t.etas));
  if Trace.is_enabled () then
    Trace.record
      (Trace.Refactor { solver = "revised"; eta_nnz = Eta_file.nnz t.etas })

(* ------------------------------------------------------------------ *)
(* Pricing and ratio test                                              *)
(* ------------------------------------------------------------------ *)

(* The columns pricing may enter. Structural columns are never barred,
   so every nonbasic one is priceable. *)
let priceable t j = t.allowed.(j) && not t.in_basis.(j)

(* Entering column by reduced cost d_j = c_j − y·A_j, priced out of the
   sparse columns: [dots] (length n_struct) receives y·A_j of every
   nonbasic structural column first, unboxed. Dantzig rule (most
   negative) normally; under [bland], the first eligible column — the
   termination backstop after a stall. *)
let price t y ~cost ~dots ~bland =
  Csr.dot_rows t.cols y ~skip:t.in_basis dots;
  let best = ref (-1) and best_d = ref (-.eps_cost) in
  (try
     for j = 0 to t.n_total - 1 do
       if priceable t j then begin
         let ya =
           if j < t.n_struct then dots.(j)
           else begin
             let i = t.art_row.(j - t.n_struct) in
             t.art_sign.(i) *. y.(i)
           end
         in
         let d = cost.(j) -. ya in
         if d < !best_d then begin
           best := j;
           best_d := d;
           if bland then raise Exit
         end
       end
     done
   with Exit -> ());
  !best

(* Leaving row by a Harris-style two-pass ratio test.  Pass 1 finds the
   loosest step θ that keeps every basic value above [-tol_feas]; pass 2
   picks, among the rows whose exact ratio fits under θ, the one with the
   LARGEST pivot magnitude.  Trading a bounded (tol_feas) transient
   infeasibility for large pivots is what keeps the eta file
   well-conditioned on these heavily degenerate LPs — a plain min-ratio
   rule is regularly forced onto 1e-9-scale pivots whose eta
   multipliers then poison every later FTRAN.  The tolerance is kept an
   order below the anti-degeneracy perturbation so the perturbation's
   tie-breaking survives.  Under [bland], the plain smallest-basic-column
   rule — the termination backstop.  Returns -1 when the column is
   unbounded. *)
let tol_feas = 1e-9

let ratio_test t w ~bland =
  if bland then begin
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to t.m - 1 do
      let wi = w.(i) in
      if wi > eps_pivot then begin
        let ratio = Float.max 0. (t.xb.(i) /. wi) in
        let tol = 1e-12 *. Float.max 1. !best_ratio in
        if !best < 0 || ratio < !best_ratio -. tol then begin
          best := i;
          best_ratio := ratio
        end
        else if ratio <= !best_ratio +. tol && t.basis.(i) < t.basis.(!best)
        then begin
          best := i;
          best_ratio := Float.min ratio !best_ratio
        end
      end
    done;
    !best
  end
  else begin
    let theta = ref infinity in
    for i = 0 to t.m - 1 do
      let wi = w.(i) in
      if wi > eps_pivot then begin
        let r = (Float.max 0. t.xb.(i) +. tol_feas) /. wi in
        if r < !theta then theta := r
      end
    done;
    if !theta = infinity then -1
    else begin
      let best = ref (-1) and best_w = ref 0. in
      for i = 0 to t.m - 1 do
        let wi = w.(i) in
        if wi > !best_w && Float.max 0. t.xb.(i) /. wi <= !theta then begin
          best := i;
          best_w := wi
        end
      done;
      !best
    end
  end

type status = R_optimal | R_unbounded | R_limit

(* One simplex phase on the costs [cost] (length n_total). *)
let run_phase t ~cost ~max_iter ~stall_limit =
  let y = Array.make t.m 0. in
  let dots = Array.make t.n_struct 0. in
  let xchk = Array.make t.m 0. in
  let w = t.work in
  let bland = ref false in
  let iter = ref 0 in
  let stalled = ref 0 in
  let streak_peak = ref 0 in
  let degenerate = ref 0 in
  let best_obj = ref infinity in
  let result = ref None in
  (* Per-phase attribution accumulates in locals and is recorded with
     one [Span.add] per phase after the loop; the clock reads (which
     box floats) are skipped entirely when profiling is off, keeping
     the disabled pivot path allocation-free.  Refactorizations also
     carry their minor-heap allocation (a [Gc.minor_words] delta), so
     the profile's words column covers [factorize]. *)
  let prof = Prof.is_enabled () in
  let price_t = ref 0. in
  let ratio_t = ref 0. in
  let update_t = ref 0. in
  let factor_t = ref 0. in
  let factor_n = ref 0 in
  let factor_w = ref 0. in
  while !result = None do
    if !iter >= max_iter then result := Some R_limit
    else begin
      let t0 = if prof then Prof.now () else 0. in
      (* Duals of the current basis: y = B⁻ᵀ c_B. *)
      for i = 0 to t.m - 1 do
        y.(i) <- cost.(t.basis.(i))
      done;
      Eta_file.btran t.etas y;
      let q = price t y ~cost ~dots ~bland:!bland in
      let t1 = if prof then Prof.now () else 0. in
      if prof then price_t := !price_t +. (t1 -. t0);
      if q < 0 then result := Some R_optimal
      else begin
        ftran_col t q w;
        let t2 = if prof then Prof.now () else 0. in
        if prof then update_t := !update_t +. (t2 -. t1);
        let r = ratio_test t w ~bland:!bland in
        if prof then ratio_t := !ratio_t +. (Prof.now () -. t2);
        if r < 0 then result := Some R_unbounded
        else begin
          let t3 = if prof then Prof.now () else 0. in
          (* Stability trigger: accepting a pivot much smaller than its
             column's largest entry writes multipliers of magnitude
             colmax/|w_r| into the eta file; schedule a reinversion right
             after this pivot rather than letting them poison every later
             FTRAN. *)
          (let wr = Float.abs w.(r) in
           let colmax = ref wr in
           for i = 0 to t.m - 1 do
             let a = Float.abs w.(i) in
             if a > !colmax then colmax := a
           done;
           if wr < 1e-7 *. !colmax then t.refactor_forced <- true);
          let step = Float.max 0. (t.xb.(r) /. w.(r)) in
          for i = 0 to t.m - 1 do
            if i <> r && w.(i) <> 0. then begin
              let v = t.xb.(i) -. (w.(i) *. step) in
              t.xb.(i) <- (if v < 0. && v > -1e-7 then 0. else v)
            end
          done;
          t.xb.(r) <- step;
          let leaving = t.basis.(r) in
          t.in_basis.(leaving) <- false;
          (* An artificial that leaves the basis must never come back. *)
          if leaving >= t.n_struct then t.allowed.(leaving) <- false;
          t.in_basis.(q) <- true;
          t.basis.(r) <- q;
          Eta_file.push_pivot t.etas w r t.m;
          if prof then update_t := !update_t +. (Prof.now () -. t3);
          t.pivots_since_refactor <- t.pivots_since_refactor + 1;
          incr iter;
          (* Summed in a local the closures below never see, so the
             accumulator stays unboxed. *)
          let obj =
            let acc = ref 0. in
            for i = 0 to t.m - 1 do
              acc := !acc +. (cost.(t.basis.(i)) *. t.xb.(i))
            done;
            !acc
          in
          let improved =
            obj < !best_obj -. (1e-12 *. (1. +. Float.abs !best_obj))
          in
          if improved then begin
            best_obj := obj;
            stalled := 0
          end
          else begin
            incr stalled;
            incr degenerate;
            if !stalled > !streak_peak then streak_peak := !stalled;
            if !stalled >= stall_limit && not !bland then begin
              Log.debug (fun f ->
                  f "stall after %d pivots: switching to Bland's rule" !iter);
              Health.observe_stall ();
              bland := true;
              stalled := 0
            end
          end;
          if Trace.is_enabled () then
            Trace.record
              (Trace.Pivot
                 {
                   solver = "revised";
                   iteration = !iter;
                   entering = q;
                   leaving;
                   step;
                   objective = obj;
                   degenerate = not improved;
                 });
          (* Forrest–Tomlin-style reinversion policy: the eta file is kept
             across pivots and rebuilt only when (a) a stability trigger
             fired, (b) its size outgrew the last factorization enough
             that per-pivot FTRAN/BTRAN work dominates the cost of a fresh
             near-minimal LU, (c) the incrementally updated basic values
             drifted from a fresh B⁻¹·rhs (checked every
             [default_check_interval] pivots), or (d) a large pivot-count
             backstop. *)
          let need_refactor =
            if t.refactor_forced then triggered t Stability
            else if t.pivots_since_refactor >= default_pivot_backstop then
              triggered t Backstop
            else if eta_outgrown t then triggered t Growth
            else if
              t.pivots_since_refactor mod default_check_interval = 0
              &&
              begin
                Array.blit t.rhs_pert 0 xchk 0 t.m;
                Eta_file.ftran t.etas xchk;
                let drift = ref 0. in
                for i = 0 to t.m - 1 do
                  let d = Float.abs (Float.max 0. xchk.(i) -. t.xb.(i)) in
                  if d > !drift then drift := d
                done;
                Health.observe_drift !drift;
                !drift > default_drift_tol
              end
            then triggered t Drift
            else false
          in
          if need_refactor then
            if prof then begin
              let tf = Prof.now () in
              let w0 = Gc.minor_words () in
              refactor t;
              factor_w := !factor_w +. (Gc.minor_words () -. w0);
              factor_t := !factor_t +. (Prof.now () -. tf);
              incr factor_n
            end
            else refactor t;
          if !iter mod 1000 = 0 then
            Log.debug (fun f ->
                f "iter=%d obj=%.12g entering=%d leaving_row=%d" !iter obj q r)
        end
      end
    end
  done;
  if prof then begin
    let n = max 1 !iter in
    Span.add ~count:n "price" !price_t;
    Span.add ~count:n "ratio" !ratio_t;
    Span.add ~count:n "update" !update_t;
    if !factor_n > 0 then
      Span.add ~count:!factor_n ~minor_words:!factor_w "factorize" !factor_t
  end;
  Metrics.inc ~by:(float_of_int !iter) m_pivots;
  Metrics.inc ~by:(float_of_int !degenerate) m_degenerate;
  if !streak_peak > 0 then Health.observe_degeneracy_streak !streak_peak;
  t.n_pivots <- t.n_pivots + !iter;
  ((match !result with Some s -> s | None -> assert false), !iter)

(* ------------------------------------------------------------------ *)
(* Phase 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Anti-degeneracy perturbation, fixed at prepare time.  Same story as
   the dense backend (the marginal-balance LPs have hundreds of zero
   right-hand sides and cycle under every deterministic tie-breaking
   rule), with one additional constraint: the perturbation is
   chosen ONCE and kept for the lifetime of the prepared state, so that
   every basis ever reached stays primal-feasible for every later
   objective — the invariant warm-started reoptimization rests on. Exact
   quantities are recovered through B⁻¹ applied to the true right-hand
   side. *)
let perturbation j salt =
  let h = (((j + (salt * 7919)) * 2654435761) lxor (salt * 40503)) land 0xFFFFFF in
  let u = float_of_int h /. float_of_int 0x1000000 in
  (* Large enough that degenerate steps dominate the FTRAN roundoff that
     accumulates on big instances (m ~ 10⁴), small enough not to disturb
     which vertex is optimal in practice; the reported solution is exact
     either way because extraction applies B⁻¹ to the true rhs, and the
     feasibility witness (B⁻¹ applied to the perturbed rhs) misses the
     true constraints by at most this amount. *)
  1e-8 *. (0.5 +. u)

(* Per-row perturbation scaling. The 1e-8 base above was tuned on the
   m ~ 10³–10⁴ sweep instances; applied as a flat absolute constant it
   is proportionally huge on the small-population LPs (tens to hundreds
   of rows, where FTRAN roundoff is orders of magnitude lower) and
   blind to row scaling — the regime where the fleet's hard random
   models fail their certificates. In that small regime each row's
   perturbation is therefore proportional to the row's own coefficient
   magnitude (clamped so weakly-scaled rows still dominate roundoff and
   heavy rows don't get their vertex disturbed), the row's RHS
   magnitude, and sqrt(m/4096) with a floor of 1/8 — the perturbation
   shrinks with the problem as the roundoff it must dominate does.
   From m = 1024 up the flat constant stands: the trajectories there
   are already well-conditioned, and reshaping the perturbation steers
   phase 2 through measurably worse bases (the bench tandem's N ≥ 120
   sweep steps and N = 250/500 solves regress in pivots, time and — at
   the largest sizes — certificate residual). *)
let pert_row_scales std =
  let m = Std_form.num_rows std in
  if m >= 1024 then Array.make m 1.
  else
    let size = Float.max 0.125 (sqrt (float_of_int m /. 4096.)) in
    Array.init m (fun i ->
        let norm = ref 0. in
        Csr.iter_row std.Std_form.rows i (fun _ v ->
            let a = Float.abs v in
            if a > !norm then norm := a);
        let row =
          if !norm > 0. then Float.min 4. (Float.max 0.25 !norm) else 1.
        in
        size *. row *. (1. +. Float.abs std.Std_form.rhs.(i)))

let build_state ?(pert_scale = 1.) std salt =
  let m = Std_form.num_rows std in
  let n_struct = std.Std_form.ncols in
  let cols = Std_form.cols std in
  (* Independent positive noise on every row (the standard-form rhs is
     sign-normalized to be >= 0, so the perturbed rhs stays >= 0 too).
     Equality rows make the perturbed system slightly inconsistent, so
     phase 1 may park an artificial at an O(1e-8) value — harmless,
     because feasibility and the reported quantities are judged against
     the TRUE right-hand side (B⁻¹b), not the perturbed one. *)
  let pert_rows = pert_row_scales std in
  let rhs_pert =
    Array.init m (fun i ->
        std.Std_form.rhs.(i) +. (pert_scale *. pert_rows.(i) *. perturbation i salt))
  in
  (* One artificial per row: column n_struct + i ≡ ±e_i, signed so its
     basic value |rhs_pert i| is nonnegative.  Only the ones seeding the
     initial basis take part in phase 1; the rest exist solely for basis
     repair in [refactor] and stay barred from pricing for good. *)
  let art_row = Array.init m (fun i -> i) in
  let art_sign =
    Array.init m (fun i -> if rhs_pert.(i) >= 0. then 1. else -1.)
  in
  let n_total = n_struct + m in
  let allowed = Array.make n_total true in
  let basis = Array.make m (-1) in
  for i = m - 1 downto 0 do
    match Std_form.slack_basic_of_row std i with
    | Some j when rhs_pert.(i) >= 0. ->
      basis.(i) <- j;
      allowed.(n_struct + i) <- false
    | Some _ | None -> basis.(i) <- n_struct + i
  done;
  let in_basis = Array.make n_total false in
  Array.iter (fun c -> in_basis.(c) <- true) basis;
  let t =
    {
      std;
      m;
      n_struct;
      n_total;
      cols;
      art_row;
      art_sign;
      basis;
      in_basis;
      allowed;
      etas = Eta_file.create ();
      base_eta_nnz = 0;
      pivots_since_refactor = 0;
      xb = Array.map Float.abs rhs_pert;
      rhs_pert;
      pert_scale;
      solves = 0;
      work = Array.make m 0.;
      refactor_forced = false;
      n_refactors = 0;
      n_pivots = 0;
      n_refactor_stability = 0;
      n_refactor_growth = 0;
      n_refactor_drift = 0;
      n_refactor_backstop = 0;
    }
  in
  (* Seed etas so the (empty-file) identity represents B⁻¹ exactly: a
     −e_i artificial in the initial basis contributes a diagonal −1. *)
  for i = 0 to m - 1 do
    if basis.(i) = n_struct + i && art_sign.(i) <> 1. then
      Eta_file.push t.etas
        { Eta_file.row = i; pivot = art_sign.(i); idx = [||]; vals = [||] }
  done;
  t

(* Artificial mass of the current basis judged against the TRUE
   (unperturbed) right-hand side: x = B⁻¹ b. *)
let artificial_mass t =
  let x_true = Array.copy t.std.Std_form.rhs in
  Eta_file.ftran t.etas x_true;
  let mass = ref 0. in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.n_struct then mass := !mass +. Float.abs x_true.(i)
  done;
  !mass

(* Phase-1 epilogue shared by the cold and the population-warm-started
   paths: bar the artificials from pricing and drive zero-level basic
   artificials out of the basis. *)
let finalize_phase1 t =
  Span.with_ "driveout" @@ fun () ->
  let m = t.m in
  for j = t.n_struct to t.n_total - 1 do
    t.allowed.(j) <- false
  done;
  (* Drive zero-level basic artificials out of the basis. A basic
     artificial absorbs any imbalance of its row, silently deleting
     that constraint from every later phase-2 solve — on a row that
     is NOT linearly dependent this relaxes the feasible region and
     lets phase 2 report optima outside the true polytope. For each
     such row, BTRAN the unit vector to get the transformed row
     ρ = B⁻ᵀe_i, enter the structural column with the largest
     |ρ·A_j| via a (near-)degenerate pivot. Rows whose transformed
     row vanishes over the structural columns are genuinely
     dependent: implied by the others, their artificial — which
     only absorbs the perturbation's inconsistency — is harmless
     and stays. *)
  let rho = Array.make m 0. in
  let dots = Array.make t.n_struct 0. in
  for i = 0 to m - 1 do
    if t.basis.(i) >= t.n_struct then begin
      Eta_file.btran_unit t.etas i rho;
      Csr.dot_rows t.cols rho ~skip:t.in_basis dots;
      let best = ref (-1) and best_mag = ref 1e-6 in
      for j = 0 to t.n_struct - 1 do
        if not t.in_basis.(j) then begin
          let mag = Float.abs dots.(j) in
          if mag > !best_mag then begin
            best := j;
            best_mag := mag
          end
        end
      done;
      if !best >= 0 && Float.abs t.xb.(i) /. !best_mag <= 1e-6 then begin
        let w = t.work in
        ftran_col t !best w;
        if Float.abs w.(i) > 1e-7 then begin
          (* Treat the pivot as exactly degenerate: the artificial
             sits at zero level in the true problem, and its
             residual basic value is perturbation noise. Entering
             the structural at exactly zero leaves every other
             basic value untouched, where stepping by the noisy
             value would shift each by (noise / pivot) × wₖ —
             pushing degenerate basic variables negative and
             seeding instability downstream. (Formally a
             re-perturbation of b by −B·(noise·eᵢ), the same class
             phase 2's salt retries already apply.) A fresh
             deterministic perturbation at the usual 1e-8 scale
             then re-seeds the anti-degeneracy margin on the row —
             entering at exactly zero would stack hundreds of
             exactly-tied zero-level basics, and phase 2 pays for
             every tie in Harris ratio-test passes. *)
          let h = ((i * 2654435761) lxor 0x9E3779B9) land 0xFFFFFF in
          t.xb.(i) <-
            1e-8 *. (0.5 +. (float_of_int h /. float_of_int 0x1000000));
          let art = t.basis.(i) in
          t.in_basis.(art) <- false;
          t.in_basis.(!best) <- true;
          t.basis.(i) <- !best;
          Eta_file.push_pivot t.etas t.work i m;
          Metrics.inc m_driveouts
        end
      end
    end
  done

(* The pivot cap of one phase. *)
let iteration_cap ~m ~ncols = 50_000 + (50 * (m + ncols))

type stats = {
  refactorizations : int;
  pivots : int;
  eta_nnz : int;
  solves : int;
  refactor_stability : int;
  refactor_growth : int;
  refactor_drift : int;
  refactor_backstop : int;
}

let stats t =
  {
    refactorizations = t.n_refactors;
    pivots = t.n_pivots;
    eta_nnz = Eta_file.nnz t.etas;
    solves = t.solves;
    refactor_stability = t.n_refactor_stability;
    refactor_growth = t.n_refactor_growth;
    refactor_drift = t.n_refactor_drift;
    refactor_backstop = t.n_refactor_backstop;
  }

(* Phase-1 costs: 1 on every artificial, 0 on every structural. *)
let phase1_cost t =
  Array.init t.n_total (fun j -> if j >= t.n_struct then 1. else 0.)

(* Count the work of [dropped], a state abandoned while preparing [t] (a
   failed perturbation draw, a seed that did not take), in [t]'s own
   counters, so that [stats t] covers every attempt made for it. *)
let inherit_work t ~dropped =
  t.n_pivots <- t.n_pivots + dropped.n_pivots;
  t.n_refactors <- t.n_refactors + dropped.n_refactors;
  t.n_refactor_stability <- t.n_refactor_stability + dropped.n_refactor_stability;
  t.n_refactor_growth <- t.n_refactor_growth + dropped.n_refactor_growth;
  t.n_refactor_drift <- t.n_refactor_drift + dropped.n_refactor_drift;
  t.n_refactor_backstop <- t.n_refactor_backstop + dropped.n_refactor_backstop

let prepare_unspanned ?(pert_scale = 1.) ?(salt = 0) ?dropped model =
  let std = Std_form.build model in
  let m = Std_form.num_rows std in
  let max_iter = iteration_cap ~m ~ncols:std.Std_form.ncols in
  let salt0 = salt in
  (* One phase 1 on perturbation draw [salt]. Every failure is numerics
     on these always-feasible LPs, so fresh draws follow up to draw
     [salt0 + 3]. The draws start at 0 whatever the base. *)
  let rec attempt salt dropped =
    Health.observe_salt salt;
    let t = build_state ~pert_scale std salt in
    Option.iter (fun dropped -> inherit_work t ~dropped) dropped;
    let cost = phase1_cost t in
    let stall_limit = max 5_000 (20 * m) in
    let outcome =
      match run_phase t ~cost ~max_iter ~stall_limit with
      | R_limit, _ -> Error (Simplex.Iteration_limit_phase1 max_iter, "stall")
      | R_unbounded, _ ->
        (* Phase 1 minimizes a sum of nonnegative variables — unbounded is
           impossible in exact arithmetic, so reaching it means the basis
           degraded numerically. *)
        Error (Simplex.Infeasible_phase1, "numerically degraded basis")
      | R_optimal, _ ->
        (* Artificial mass still basic at the phase-1 optimum means the
           trajectory degraded numerically (the exact aggregated solution
           is always feasible): the draw fails, and a fresh perturbation
           reshuffles the degenerate ties. *)
        let mass = artificial_mass t in
        if mass > 1e-6 then
          Error (Simplex.Infeasible_phase1, Printf.sprintf "artificial mass %g" mass)
        else Ok ()
    in
    match outcome with
    | Ok () ->
      finalize_phase1 t;
      Ok t
    | Error (_, why) when salt < salt0 + 3 ->
      Metrics.inc m_retries;
      Log.debug (fun f ->
          f "phase 1: %s with perturbation salt %d; retrying" why salt);
      attempt (salt + 1) (Some t)
    | Error (e, _) -> Error (e, stats t)
  in
  attempt 0 dropped

let prepare ?pert_scale ?salt model =
  Span.with_ "revised.phase1" (fun () ->
      prepare_unspanned ?pert_scale ?salt model)

let pert_scale t = t.pert_scale

(* ------------------------------------------------------------------ *)
(* Cross-model warm starts (population sweeps)                         *)
(* ------------------------------------------------------------------ *)

let m_seeded =
  Metrics.counter
    ~help:"Phase-1 preparations seeded from a related model's basis."
    "revised_seeded_prepares_total"

let m_seeded_fallback =
  Metrics.counter
    ~help:"Seeded preparations that fell back to a cold phase 1."
    "revised_seeded_prepare_fallbacks_total"

let m_restore_pivots =
  Metrics.histogram
    ~help:"Feasibility-restoration pivots needed by a seeded preparation."
    ~buckets:[| 0.; 10.; 30.; 100.; 300.; 1_000.; 3_000.; 10_000. |]
    "revised_restoration_pivots"

type seed = Seed_var of int | Seed_slack of int

let basis_seeds t =
  let out = ref [] in
  for i = t.m - 1 downto 0 do
    let c = t.basis.(i) in
    if c < t.n_struct then
      match t.std.Std_form.origins.(c) with
      | Std_form.Shifted { var; _ } | Std_form.Negative_part { var } ->
        out := Seed_var var :: !out
      | Std_form.Slack -> (
        match Std_form.row_of_slack t.std c with
        | Some r when r < t.std.Std_form.nrows_model ->
          out := Seed_slack r :: !out
        | Some _ | None -> ())
  done;
  !out

(* Restore primal feasibility of a seeded basis. The mapped basis is
   typically feasible on the rows it came from and infeasible on the rows
   the new model added or moved, so this is a dual-simplex-flavoured
   repair: take the most negative basic value as the leaving row, enter
   the allowed column with the most negative transformed-row entry
   (phase-1 reduced costs over structurals are all zero, so any such
   column is price-neutral and the ratio xb_r / α_r > 0 lifts the row to
   feasibility), and repeat. Bounded by [max_pivots]: the loop has no
   termination proof on degenerate LPs, the caller falls back to a cold
   phase 1 when it trips. *)
let restore_feasibility t ~max_pivots =
  Span.with_ "restore" @@ fun () ->
  let rho = Array.make t.m 0. in
  let dots = Array.make t.n_struct 0. in
  let w = t.work in
  let pivots = ref 0 in
  let ok = ref true in
  let finished = ref false in
  (* Whether xb was recomputed from rhs_pert since the last pivot — the
     incremental updates drift, so a stalled row gets one fresh look
     before we give up on it. *)
  let fresh = ref true in
  while not !finished do
    let r = ref (-1) and worst = ref (-1e-9) in
    for i = 0 to t.m - 1 do
      if t.xb.(i) < !worst then begin
        r := i;
        worst := t.xb.(i)
      end
    done;
    if !r < 0 then finished := true
    else if !pivots >= max_pivots then begin
      ok := false;
      finished := true
    end
    else begin
      let r = !r in
      Eta_file.btran_unit t.etas r rho;
      Csr.dot_rows t.cols rho ~skip:t.in_basis dots;
      let best = ref (-1) and best_a = ref (-.eps_pivot) in
      for j = 0 to t.n_struct - 1 do
        if priceable t j then begin
          let a = dots.(j) in
          if a < !best_a then begin
            best := j;
            best_a := a
          end
        end
      done;
      if !best < 0 then
        (* No structural can lift the row; an artificial of another row
           can (the closing phase 1 drives it back out). *)
        for k = 0 to t.m - 1 do
          let j = t.n_struct + k in
          if t.allowed.(j) && not t.in_basis.(j) then begin
            let i = t.art_row.(k) in
            let a = t.art_sign.(i) *. rho.(i) in
            if a < !best_a then begin
              best := j;
              best_a := a
            end
          end
        done;
      if !best < 0 then
        if t.xb.(r) >= -1e-5 then
          (* Noise-level infeasibility on a row no column can lift —
             treat it as degenerate (exactly what phase 2 does with such
             values after every refactorization) and move on. *)
          t.xb.(r) <- 0.
        else if not !fresh then begin
          (* The incremental xb updates drift over hundreds of pivots;
             the row may not be that infeasible at all. Recompute before
             giving up on it. *)
          refactor t;
          Array.blit t.rhs_pert 0 t.xb 0 t.m;
          Eta_file.ftran t.etas t.xb;
          fresh := true
        end
        else begin
          (* No column can lift this row: numerically dependent or the
             basis is too far gone — let the cold path handle it. *)
          Log.debug (fun f ->
              f "restore: no entering column for row %d (xb %g) after %d pivots"
                r t.xb.(r) !pivots);
          ok := false;
          finished := true
        end
      else begin
        ftran_col t !best w;
        if Float.abs w.(r) < eps_pivot then begin
          ok := false;
          finished := true
        end
        else begin
          let step = t.xb.(r) /. w.(r) in
          for i = 0 to t.m - 1 do
            if i <> r && w.(i) <> 0. then t.xb.(i) <- t.xb.(i) -. (w.(i) *. step)
          done;
          t.xb.(r) <- step;
          let leaving = t.basis.(r) in
          t.in_basis.(leaving) <- false;
          if leaving >= t.n_struct then t.allowed.(leaving) <- false;
          t.in_basis.(!best) <- true;
          t.basis.(r) <- !best;
          Eta_file.push_pivot t.etas w r t.m;
          t.pivots_since_refactor <- t.pivots_since_refactor + 1;
          incr pivots;
          fresh := false;
          (* Long restorations (hundreds to thousands of pivots on large
             population steps) keep the same eta-growth cadence as the
             phases — measured on the Figure-4 N=500 seeded step this
             rebuilds about once per 80 dense restoration etas, which
             sits at the same FTRAN-cost-vs-rebuild-cost balance as
             [default_growth_limit]; both looser nnz caps and flat pivot
             cadences measured worse. *)
          let need_refactor =
            if t.refactor_forced then triggered t Stability
            else eta_outgrown t && triggered t Growth
          in
          if need_refactor then begin
            refactor t;
            (* Restoration needs the UNclamped basic values. *)
            Array.blit t.rhs_pert 0 t.xb 0 t.m;
            Eta_file.ftran t.etas t.xb;
            fresh := true
          end
        end
      end
    end
  done;
  Metrics.observe m_restore_pivots (float_of_int !pivots);
  t.n_pivots <- t.n_pivots + !pivots;
  !ok

let prepare_seeded_unspanned ~seeds model =
  let cold ?dropped () =
    Result.map (fun t -> (t, false)) (prepare_unspanned ?dropped model)
  in
  (* A seed that did not take: the cold state inherits its work. *)
  let fall_back t =
    Metrics.inc m_seeded_fallback;
    cold ~dropped:t ()
  in
  if seeds = [] then cold ()
  else begin
    Metrics.inc m_seeded;
    let std = Std_form.build model in
    let m = Std_form.num_rows std in
    let max_iter = iteration_cap ~m ~ncols:std.Std_form.ncols in
    let t = build_state std 0 in
    (* Resolve the seeds to standard-form columns: slacks to the slack of
       the named row, variables to their main column. *)
    let used = Array.make t.n_struct false in
    let hint = Array.make m (-1) in
    let var_cols = ref [] in
    List.iter
      (fun s ->
        match s with
        | Seed_slack r ->
          if r >= 0 && r < m then (
            match Std_form.slack_col_of_row std r with
            | Some j when not used.(j) ->
              used.(j) <- true;
              hint.(r) <- j
            | Some _ | None -> ())
        | Seed_var v ->
          if v >= 0 && v < std.Std_form.nvars_model then begin
            let j = std.Std_form.plus.(v) in
            if not used.(j) then begin
              used.(j) <- true;
              var_cols := j :: !var_cols
            end
          end)
      seeds;
    (* Place the variable columns on rows without a hint — the row/column
       pairing is irrelevant (refactorization reassigns rows), only the
       SET of basic columns matters. Remaining rows take their own slack
       when it starts feasible, their artificial otherwise — both keep
       the starting point feasible on rows the seed said nothing about. *)
    let rest = ref !var_cols in
    for i = 0 to m - 1 do
      if hint.(i) < 0 then (
        match !rest with
        | j :: tl ->
          hint.(i) <- j;
          rest := tl
        | [] -> ())
    done;
    for i = 0 to m - 1 do
      if hint.(i) < 0 then
        hint.(i) <-
          (match Std_form.slack_basic_of_row std i with
          | Some j when (not used.(j)) && t.rhs_pert.(i) >= 0. ->
            used.(j) <- true;
            j
          | Some _ | None -> t.n_struct + i)
    done;
    Array.blit hint 0 t.basis 0 m;
    Array.fill t.in_basis 0 t.n_total false;
    Array.iter (fun c -> t.in_basis.(c) <- true) t.basis;
    refactor t;
    (* Unclamped basic values: restoration must see the infeasibilities
       the seeded basis has at the new right-hand side. *)
    Array.blit t.rhs_pert 0 t.xb 0 m;
    Eta_file.ftran t.etas t.xb;
    let infeasible = ref 0 in
    for i = 0 to m - 1 do
      if t.xb.(i) < -1e-9 then incr infeasible
    done;
    let cap = 200 + (8 * !infeasible) in
    if not (restore_feasibility t ~max_pivots:cap) then begin
      Log.debug (fun f ->
          f "seeded prepare: feasibility restoration failed (%d infeasible \
             rows); falling back to cold phase 1"
            !infeasible);
      fall_back t
    end
    else begin
      for i = 0 to m - 1 do
        if t.xb.(i) < 0. then t.xb.(i) <- 0.
      done;
      (* A short phase 1 clears the artificial mass of rows the seed left
         to their artificials; with none basic it terminates on the first
         pricing pass. *)
      let stall_limit = max 5_000 (20 * m) in
      match
        run_phase t ~cost:(phase1_cost t) ~max_iter ~stall_limit
      with
      | R_optimal, _ ->
        if artificial_mass t > 1e-6 then fall_back t
        else begin
          finalize_phase1 t;
          Ok (t, true)
        end
      | (R_limit | R_unbounded), _ -> fall_back t
    end
  end

let prepare_seeded ~seeds model =
  Span.with_ "revised.phase1" (fun () -> prepare_seeded_unspanned ~seeds model)

(* ------------------------------------------------------------------ *)
(* Phase 2                                                             *)
(* ------------------------------------------------------------------ *)

(* Post-solve iterative refinement. The reported basic values are
   x = B⁻¹b computed through the eta file; on an ill-conditioned final
   basis the FTRAN alone can miss the true system B·x = b by far more
   than the certificate tolerance (the fleet's hard models reach ~1e-2).
   The exact residual r = b − B·x is one sparse pass over the basic
   columns, and the correction δ = B⁻¹r one more FTRAN through the
   already-built factorization — one or two rounds recover the digits
   conditioning took away, at a cost that is noise next to the solve. *)

(* r <- rhs − B·x, where column i of B is A_{basis(i)}. *)
let primal_residual_into t ~rhs x r =
  Array.blit rhs 0 r 0 t.m;
  for i = 0 to t.m - 1 do
    let xi = x.(i) in
    if xi <> 0. then begin
      let c = t.basis.(i) in
      if c < t.n_struct then
        Csr.iter_row t.cols c (fun row v -> r.(row) <- r.(row) -. (v *. xi))
      else begin
        let row = t.art_row.(c - t.n_struct) in
        r.(row) <- r.(row) -. (t.art_sign.(row) *. xi)
      end
    end
  done

(* Residuals already at roundoff are left alone — correcting them just
   stirs noise. *)
let refine_floor = 1e-12

(* Refine x (≈ B⁻¹ rhs) in place; returns the residual ‖b − B·x‖∞ found
   at the reported point before any correction. *)
let refine_basic ?(rounds = 2) t ~rhs x =
  let r = Array.make t.m 0. in
  let first = ref 0. in
  (try
     for round = 1 to rounds do
       primal_residual_into t ~rhs x r;
       let worst = ref 0. in
       for i = 0 to t.m - 1 do
         let a = Float.abs r.(i) in
         if a > !worst then worst := a
       done;
       if round = 1 then first := !worst;
       if !worst <= refine_floor then raise Exit;
       Eta_file.ftran t.etas r;
       for i = 0 to t.m - 1 do
         x.(i) <- x.(i) +. r.(i)
       done
     done
   with Exit -> ());
  !first

(* Same story for the duals: r = c_B − Bᵀy (one sparse pass), correction
   δ = B⁻ᵀr (one BTRAN). *)
let refine_duals ?(rounds = 2) t ~cost y =
  let r = Array.make t.m 0. in
  try
    for _ = 1 to rounds do
      let worst = ref 0. in
      for i = 0 to t.m - 1 do
        let c = t.basis.(i) in
        let dot = ref 0. in
        if c < t.n_struct then
          Csr.iter_row t.cols c (fun row v -> dot := !dot +. (v *. y.(row)))
        else begin
          let row = t.art_row.(c - t.n_struct) in
          dot := t.art_sign.(row) *. y.(row)
        end;
        let ri = cost.(c) -. !dot in
        r.(i) <- ri;
        let a = Float.abs ri in
        if a > !worst then worst := a
      done;
      if !worst <= refine_floor then raise Exit;
      Eta_file.btran t.etas r;
      for i = 0 to t.m - 1 do
        y.(i) <- y.(i) +. r.(i)
      done
    done
  with Exit -> ()

(* A pre-refinement residual above this would have put the certificate
   (primal tolerance 1e-5) at risk — record it as a [Refined] rescue so
   the ledger shows which solves refinement actually saved. *)
let refine_rescue_threshold = 1e-6

let optimize_unspanned (t : t) direction objective =
  Metrics.inc m_solves;
  let warm = t.solves > 0 in
  if warm then Metrics.inc m_warm;
  let max_iter = iteration_cap ~m:t.m ~ncols:t.n_struct in
  let sign = match direction with Simplex.Minimize -> 1. | Simplex.Maximize -> -1. in
  (* Phase-2 costs: the objective's on the structurals, 0 on every
     artificial. *)
  let cost = Array.make t.n_total 0. in
  Array.blit (Std_form.costs t.std ~sign objective) 0 cost 0 t.n_struct;
  let stall_limit = max 5_000 (20 * t.m) in
  let status, iterations = run_phase t ~cost ~max_iter ~stall_limit in
  t.solves <- t.solves + 1;
  if warm then Metrics.observe m_warm_pivots (float_of_int iterations);
  Metrics.set m_eta_nnz (float_of_int (Eta_file.nnz t.etas));
  match status with
  | R_limit -> Simplex.Iteration_limit max_iter
  | R_unbounded -> Simplex.Unbounded
  | R_optimal ->
    (* Feasibility witness: the final basis applied to the PERTURBED
       right-hand side.  Primal-feasible by the simplex invariant, so it
       satisfies the true constraints up to the perturbation magnitude
       itself — immune to the conditioning amplification that can push
       the exact point [x_true] off non-binding degenerate rows.  A fresh
       FTRAN (rather than the incrementally-updated [t.xb]) avoids the
       clamping noise accumulated along the pivot trajectory. *)
    let x_wit = Array.copy t.rhs_pert in
    Eta_file.ftran t.etas x_wit;
    (* The simplex invariant puts every basic value above -tol_feas; a
       witness entry meaningfully below zero means the eta file itself
       has drifted (an ill-conditioned stretch of the trajectory), and
       BOTH reported points would inherit the error through their FTRANs.
       Rebuilding the factorization of the same basis — the basis is
       optimal regardless of how B⁻¹ is represented — washes the drift
       out before anything is extracted or certified. *)
    let wit_min = ref 0. in
    for i = 0 to t.m - 1 do
      if x_wit.(i) < !wit_min then wit_min := x_wit.(i)
    done;
    if !wit_min < -1e-7 then begin
      Log.debug (fun f ->
          f "optimize: witness drift %g at the final basis; refactorizing"
            !wit_min);
      refactor t;
      Array.blit t.rhs_pert 0 x_wit 0 t.m;
      Eta_file.ftran t.etas x_wit
    end;
    (* Exact basic values at the final basis: x = B⁻¹ b with the true
       right-hand side, keeping reported point and objective free of the
       anti-degeneracy perturbation. *)
    let x_true = Array.copy t.std.Std_form.rhs in
    Eta_file.ftran t.etas x_true;
    (* Iterative refinement of both reported points (exact and witness)
       through the final factorization, before anything is extracted or
       certified. *)
    let pre_true = refine_basic t ~rhs:t.std.Std_form.rhs x_true in
    let pre_wit = refine_basic t ~rhs:t.rhs_pert x_wit in
    let pre = Float.max pre_true pre_wit in
    Health.observe_refinement ~residual:pre;
    if pre > refine_rescue_threshold then Health.observe_rescue Health.Refined;
    let x_std = Array.make t.n_struct 0. in
    let w_std = Array.make t.n_struct 0. in
    for i = 0 to t.m - 1 do
      if t.basis.(i) < t.n_struct then begin
        x_std.(t.basis.(i)) <- x_true.(i);
        w_std.(t.basis.(i)) <- Float.max 0. x_wit.(i)
      end
    done;
    let values = Std_form.extract t.std x_std in
    let witness = Std_form.extract t.std w_std in
    let objective_value = Std_form.objective_value objective values in
    (* Duals y = B⁻ᵀ c_B, restored to the original row orientation and
       optimization direction. *)
    let y = Array.make t.m 0. in
    for i = 0 to t.m - 1 do
      y.(i) <- cost.(t.basis.(i))
    done;
    Eta_file.btran t.etas y;
    refine_duals t ~cost y;
    let duals =
      Array.init t.std.Std_form.nrows_model (fun i ->
          sign *. t.std.Std_form.row_signs.(i) *. y.(i))
    in
    Simplex.Optimal
      { objective = objective_value; values; witness; duals; iterations }

let optimize t direction objective =
  Span.with_ "revised.phase2" (fun () -> optimize_unspanned t direction objective)

let solve model direction objective =
  match prepare model with
  | Error (Simplex.Infeasible_phase1, _) -> Simplex.Infeasible
  | Error (Simplex.Iteration_limit_phase1 k, _) -> Simplex.Iteration_limit k
  | Ok t -> optimize t direction objective

let force_refactor t = refactor t
