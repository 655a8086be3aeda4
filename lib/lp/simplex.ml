let log_src = Logs.Src.create "mapqn.simplex" ~doc:"simplex pivoting"

module Log = (val Logs.src_log log_src)
module Metrics = Mapqn_obs.Metrics
module Span = Mapqn_obs.Span
module Trace = Mapqn_obs.Trace
module Csr = Mapqn_sparse.Csr

(* Solver telemetry (recorded into the process-global registry; see
   Mapqn_obs). Counters are bumped once per phase run — only the objective
   trajectory histogram is touched per (improving) pivot, which is noise
   next to the O(mn) row work of the pivot itself. *)
let m_pivots =
  Metrics.counter ~help:"Simplex pivots performed." "simplex_pivots_total"

let m_degenerate =
  Metrics.counter ~help:"Pivots that did not improve the objective."
    "simplex_degenerate_pivots_total"

let m_retries =
  Metrics.counter
    ~help:"Anti-cycling restarts with a fresh RHS perturbation (phase 1 and 2)."
    "simplex_anticycling_retries_total"

let m_solves =
  Metrics.counter ~help:"Phase-2 optimizations performed." "simplex_solves_total"

let m_driveouts =
  Metrics.counter
    ~help:
      "Zero-level basic artificials pivoted out after phase 1 (each one was \
       silently relaxing a non-dependent row)."
    "simplex_artificial_driveouts_total"

let m_phase_iterations =
  Metrics.histogram
    ~help:"Pivots per simplex phase run."
    ~buckets:[| 10.; 30.; 100.; 300.; 1_000.; 3_000.; 10_000.; 30_000.; 100_000. |]
    "simplex_phase_iterations"

let m_objective = Metrics.gauge ~help:"Objective of the last optimal phase-2 solve."
    "simplex_last_objective"

let m_improvement =
  Metrics.histogram
    ~help:"Per-pivot objective improvements (the objective trajectory)."
    "simplex_objective_improvement"

type direction = Minimize | Maximize

type solution = {
  objective : float;
  values : float array;
  witness : float array;
  duals : float array;
  iterations : int;
}
type outcome = Optimal of solution | Infeasible | Unbounded | Iteration_limit of int

type prepare_error = Infeasible_phase1 | Iteration_limit_phase1 of int

let prepare_error_to_string = function
  | Infeasible_phase1 ->
    "marginal LP infeasible in phase 1 (the constraint system admits no \
     point)"
  | Iteration_limit_phase1 k ->
    Printf.sprintf "simplex iteration limit (%d pivots) in phase 1" k

let eps_pivot = 1e-9

(* Entering threshold for reduced costs. Deliberately loose: after many
   pivots on a dense tableau the reduced costs carry O(1e-8) noise, and a
   tighter threshold makes the method chase that noise forever around a
   degenerate optimum. The resulting objective error is of the same
   magnitude and far below the tolerances used by the bound analysis. *)
let eps_cost = 3e-8

(* ------------------------------------------------------------------ *)
(* Tableau                                                             *)
(* ------------------------------------------------------------------ *)

type tableau = {
  m : int; (* constraint rows *)
  n : int; (* columns excluding RHS *)
  a : float array array; (* m rows of length n+1; slot n is the RHS *)
  basis : int array; (* basic column of each row *)
  allowed : bool array; (* columns permitted to enter (artificials barred) *)
  lex_cols : int array;
      (* The columns of the basis at phase start, in row order: they formed
         an identity block then, which makes every row lexicographically
         positive over [rhs; lex_cols] — the invariant behind the
         lexicographic anti-cycling ratio test. *)
  binv_cols : int array;
      (* The initial identity columns (slack or artificial) of each row:
         at any later point, tableau column binv_cols.(i) is the i-th
         column of B⁻¹, used to recompute exact right-hand sides and to
         extract dual values. *)
}

type prepared = {
  tab : tableau;
  std : Std_form.t;
}

let copy_tableau t =
  {
    t with
    a = Array.map Array.copy t.a;
    basis = Array.copy t.basis;
    lex_cols = Array.copy t.lex_cols;
  }

let pivot t obj r c =
  let arow = t.a.(r) in
  let p = arow.(c) in
  let inv = 1. /. p in
  for j = 0 to t.n do
    arow.(j) <- arow.(j) *. inv
  done;
  arow.(c) <- 1.;
  let eliminate row =
    let f = row.(c) in
    if f <> 0. then begin
      for j = 0 to t.n do
        row.(j) <- row.(j) -. (f *. arow.(j))
      done;
      row.(c) <- 0.
    end
  in
  for i = 0 to t.m - 1 do
    if i <> r then begin
      eliminate t.a.(i);
      (* Feasibility guard: cancellation can leave a tiny negative RHS;
         clamp it before it can seed drift in later ratio tests. *)
      let b = t.a.(i).(t.n) in
      if b < 0. && b > -1e-7 then t.a.(i).(t.n) <- 0.
    end
  done;
  eliminate obj;
  t.basis.(r) <- c

(* Lexicographic comparison of two candidate leaving rows for entering
   column [c]: compare the vectors (row_i / a_ic) over the column sequence
   [rhs; lex_cols.(0); lex_cols.(1); ...]. Because the lex_cols formed an
   identity at phase start, every row is lexicographically positive and the
   lexicographic minimum is unique — the classic anti-cycling rule
   (Dantzig–Orden–Wolfe), which massively degenerate marginal-balance LPs
   require (plain Bland stalls for millions of pivots on them). *)
let lex_less t c i1 i2 =
  let a1 = t.a.(i1).(c) and a2 = t.a.(i2).(c) in
  let rec go idx =
    if idx > t.m then false
    else begin
      let col = if idx = 0 then t.n else t.lex_cols.(idx - 1) in
      let v1 = t.a.(i1).(col) /. a1 and v2 = t.a.(i2).(col) /. a2 in
      let tol = 1e-11 *. Float.max 1. (Float.max (Float.abs v1) (Float.abs v2)) in
      if v1 < v2 -. tol then true else if v1 > v2 +. tol then false else go (idx + 1)
    end
  in
  go 0

(* Ratio test: the lexicographic minimum among rows with a positive pivot
   entry. Returns -1 when the column is unbounded.

   The tie window must be essentially exact: a loose window lets the
   lexicographic tie-break pick a row whose true ratio is slightly
   larger, which pushes other basic variables slightly negative — the
   drift compounds over thousands of pivots until the iterate leaves the
   polytope entirely. Genuine degenerate ties are exact zeros, which
   this window still catches.

   Within the tie window, rows whose pivot entry is more than four orders
   of magnitude below the largest tied entry are excluded before the
   lexicographic comparison. Rows of nearly dependent constraints (the
   ones phase 1 drives artificials out of) carry cancellation noise at
   the 1e-8 scale; a degenerate tie can offer such an entry as pivot, and
   dividing the row by noise manufactures a numerically meaningless basis
   whose duals are garbage even when the primal point survives. Skipping
   a tied row technically steps outside the Dantzig–Orden–Wolfe
   anti-cycling rule, but only fires when magnitudes differ by 1e4 —
   where the alternative is certain numerical corruption, and the stall
   detector plus perturbation-salt retries still guard termination. *)
let tie_tol ratio = 1e-13 *. Float.max 1. (Float.abs ratio)

let ratio_test t c =
  (* Pass 1: the minimum ratio. *)
  let min_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let aic = t.a.(i).(c) in
    if aic > eps_pivot then begin
      let ratio = Float.max 0. (t.a.(i).(t.n) /. aic) in
      if ratio < !min_ratio then min_ratio := ratio
    end
  done;
  if !min_ratio = infinity then -1
  else begin
    let hi = !min_ratio +. tie_tol !min_ratio in
    (* Pass 2: the largest pivot magnitude inside the tie window. *)
    let max_aic = ref 0. in
    for i = 0 to t.m - 1 do
      let aic = t.a.(i).(c) in
      if aic > eps_pivot && Float.max 0. (t.a.(i).(t.n) /. aic) <= hi then
        if aic > !max_aic then max_aic := aic
    done;
    (* Pass 3: lexicographic minimum among the numerically sound ties. *)
    let floor_aic = 1e-4 *. !max_aic in
    let best = ref (-1) in
    for i = 0 to t.m - 1 do
      let aic = t.a.(i).(c) in
      if
        aic > eps_pivot && aic >= floor_aic
        && Float.max 0. (t.a.(i).(t.n) /. aic) <= hi
        && (!best < 0 || lex_less t c i !best)
      then best := i
    done;
    !best
  end

(* Entering column: most negative reduced cost within a rotating window,
   falling back to a full scan when the window is clean. *)
let price t obj ~cursor =
  let window = max 256 (t.n / 8) in
  let best = ref (-1) in
  let best_cost = ref (-.eps_cost) in
  let scan j =
    if t.allowed.(j) && obj.(j) < !best_cost then begin
      best := j;
      best_cost := obj.(j)
    end
  in
  let start = !cursor mod t.n in
  let scanned = ref 0 in
  let j = ref start in
  while !scanned < window && !j < t.n do
    scan !j;
    incr j;
    incr scanned
  done;
  if !best < 0 then begin
    (* Window clean: full scan to be sure. *)
    for j = 0 to t.n - 1 do
      scan j
    done;
    cursor := 0
  end
  else cursor := !j;
  !best

type phase_result = P_optimal | P_unbounded | P_iteration_limit

let run_phase ?stop_below ?(stall_limit = max_int) t obj ~max_iter =
  let cursor = ref 0 in
  let iter = ref 0 in
  let result = ref None in
  (* Degenerate-cycle detector: pivots that fail to improve the objective
     for [stall_limit] consecutive iterations indicate that the
     anti-degeneracy perturbation did not break some symmetry; give up
     early so the caller can retry with a fresh perturbation instead of
     burning the whole iteration budget. *)
  let best_obj = ref obj.(t.n) in
  let stalled = ref 0 in
  let degenerate = ref 0 in
  let seen_bases = Hashtbl.create 1024 in
  let cycle_check_enabled = Logs.Src.level log_src = Some Logs.Debug in
  while !result = None do
    (* Early exit for phase 1: once the artificial mass is (numerically)
       zero the basis is feasible, no need to polish reduced costs. *)
    (match stop_below with
    | Some threshold when -.obj.(t.n) <= threshold -> result := Some (P_optimal, !iter)
    | Some _ | None -> ());
    if !result <> None then ()
    else if !iter >= max_iter then result := Some (P_iteration_limit, !iter)
    else begin
      let c = price t obj ~cursor in
      if c < 0 then result := Some (P_optimal, !iter)
      else begin
        let r = ratio_test t c in
        if r < 0 then result := Some (P_unbounded, !iter)
        else begin
          let leaving = t.basis.(r) in
          let step = t.a.(r).(t.n) /. t.a.(r).(c) in
          pivot t obj r c;
          incr iter;
          let improved =
            obj.(t.n) > !best_obj +. (1e-12 *. (1. +. Float.abs !best_obj))
          in
          if improved then begin
            Metrics.observe m_improvement (obj.(t.n) -. !best_obj);
            best_obj := obj.(t.n);
            stalled := 0
          end
          else begin
            incr stalled;
            incr degenerate;
            if !stalled >= stall_limit then result := Some (P_iteration_limit, !iter)
          end;
          if Trace.is_enabled () then
            Trace.record
              (Trace.Pivot
                 {
                   solver = "dense";
                   iteration = !iter;
                   entering = c;
                   leaving;
                   step;
                   objective = -.obj.(t.n);
                   degenerate = not improved;
                 });
          if cycle_check_enabled then begin
            (* The full sorted array is the key: structural equality makes
               collisions harmless (Hashtbl.hash alone samples only a few
               elements and would report false revisits). *)
            let key =
              let b = Array.copy t.basis in
              Array.sort compare b;
              Array.to_seq b |> Seq.map string_of_int |> List.of_seq
              |> String.concat ","
            in
            (match Hashtbl.find_opt seen_bases key with
            | Some prev ->
              Log.debug (fun m -> m "BASIS REVISIT iter=%d (first at %d)" !iter prev)
            | None -> ());
            Hashtbl.replace seen_bases key !iter
          end;
          if !iter mod 1000 = 0 then
            Log.debug (fun m ->
                m "iter=%d obj=%.12g entering=%d leaving_row=%d" !iter
                  (-.obj.(t.n)) c r)
        end
      end
    end
  done;
  Metrics.inc ~by:(float_of_int !iter) m_pivots;
  Metrics.inc ~by:(float_of_int !degenerate) m_degenerate;
  Metrics.observe m_phase_iterations (float_of_int !iter);
  match !result with
  | Some (st, it) -> (st, it)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Phase 1                                                             *)
(* ------------------------------------------------------------------ *)

let prepare_unspanned ?(salt = 0) model =
  let std = Std_form.build model in
  let m = Std_form.num_rows std in
  let max_iter = 50_000 + (50 * (m + std.Std_form.ncols)) in
  (* Artificial columns are allocated only for rows whose initial basic
     variable cannot be a +1 slack. They are kept in the tableau forever:
     together with those slack columns they form the initial identity
     block, i.e. the columns [binv_cols] always hold B⁻¹ — which lets us
     recompute the exact right-hand side after solving a perturbed
     problem. *)
  let n_artificial = ref 0 in
  let art_col = Array.make m (-1) in
  for i = 0 to m - 1 do
    if Std_form.slack_basic_of_row std i = None then begin
      art_col.(i) <- std.Std_form.ncols + !n_artificial;
      incr n_artificial
    end
  done;
  let n_total = std.Std_form.ncols + !n_artificial in
  (* One phase-1 attempt with a given anti-degeneracy perturbation seed.
     The marginal-balance LPs have hundreds of zero right-hand sides, and
     on such problems every tie-breaking rule we tried (Bland,
     floating-point lexicographic) eventually cycles; a tiny deterministic
     random perturbation of the right-hand side makes the polytope simple
     with probability ~1, so plain Dantzig pivoting terminates. Exact
     quantities are recovered afterwards through B⁻¹ and validated against
     the true right-hand side. Highly symmetric models (e.g. exactly equal
     routing branches) can still produce coincidental ties under one
     perturbation draw, so a stall triggers retries with fresh draws. *)
  let attempt salt =
    let a = Array.init m (fun _ -> Array.make (n_total + 1) 0.) in
    let basis = Array.make m (-1) in
    let allowed = Array.make n_total true in
    let artificial = Array.make n_total false in
    for i = 0 to m - 1 do
      Csr.iter_row std.Std_form.rows i (fun j v -> a.(i).(j) <- v);
      a.(i).(n_total) <- std.Std_form.rhs.(i);
      match Std_form.slack_basic_of_row std i with
      | Some j -> basis.(i) <- j
      | None ->
        let art = art_col.(i) in
        a.(i).(art) <- 1.;
        basis.(i) <- art;
        artificial.(art) <- true
    done;
    let perturbation i =
      (* Cheap deterministic hash of (row index, salt) into (0.5, 1.5). *)
      let h = (((i + (salt * 7919)) * 2654435761) lxor (salt * 40503)) land 0xFFFFFF in
      let u = float_of_int h /. float_of_int 0x1000000 in
      1e-8 *. (1. +. Float.abs std.Std_form.rhs.(i)) *. (0.5 +. u)
    in
    for i = 0 to m - 1 do
      a.(i).(n_total) <- a.(i).(n_total) +. perturbation i
    done;
    let t =
      {
        m;
        n = n_total;
        a;
        basis;
        allowed;
        lex_cols = Array.copy basis;
        binv_cols = Array.copy basis;
      }
    in
    (* Phase-1 reduced costs: cost 1 on artificials, priced out against the
       initial basis. *)
    let obj = Array.make (n_total + 1) 0. in
    Array.iteri (fun j is_art -> if is_art then obj.(j) <- 1.) artificial;
    for i = 0 to m - 1 do
      if artificial.(basis.(i)) then
        for j = 0 to n_total do
          obj.(j) <- obj.(j) -. t.a.(i).(j)
        done
    done;
    let stall_limit = max 5_000 (20 * m) in
    let status, _ = run_phase ~stall_limit t obj ~max_iter in
    (status, t, artificial)
  in
  let salt0 = salt in
  let rec try_attempts salt =
    match attempt salt with
    | P_iteration_limit, _, _ ->
      if salt < salt0 + 3 then begin
        Metrics.inc m_retries;
        Log.debug (fun f ->
            f "phase-1 stall with perturbation salt %d; retrying" salt);
        try_attempts (salt + 1)
      end
      else Error (Iteration_limit_phase1 max_iter)
    | P_unbounded, _, _ ->
      (* Phase 1 minimizes a sum of nonnegative variables: never unbounded. *)
      assert false
    | P_optimal, t, artificial ->
      (* The exact artificial mass, judged against the true (unperturbed)
         right-hand side: rhs_true = B⁻¹ b with B⁻¹ read off [binv_cols]. *)
      let rhs_true i =
        let acc = Mapqn_util.Ksum.create () in
        for j = 0 to m - 1 do
          Mapqn_util.Ksum.add acc (t.a.(i).(t.binv_cols.(j)) *. std.Std_form.rhs.(j))
        done;
        Mapqn_util.Ksum.total acc
      in
      let mass = ref 0. in
      for i = 0 to m - 1 do
        if artificial.(t.basis.(i)) then mass := !mass +. Float.abs (rhs_true i)
      done;
      (* As in the revised solver, residual artificial mass on these
         feasible-by-construction LPs is a degraded degenerate
         trajectory, which a fresh perturbation usually avoids.  Once
         the first draw has degraded, the middle retries hold out for a
         roundoff-level mass: a draw that stops just under 1e-6 leaves
         its rows relaxed by about that much (seen: mass 1.3e-7, then a
         certified point with primal residual 8e-7). *)
      let tol = if salt = salt0 || salt = salt0 + 3 then 1e-6 else 1e-9 in
      if !mass > tol then
        if salt < salt0 + 3 then begin
          Metrics.inc m_retries;
          Log.debug (fun f ->
              f "phase-1 artificial mass %g with perturbation salt %d; retrying"
                !mass salt);
          try_attempts (salt + 1)
        end
        else Error Infeasible_phase1
      else begin
        (* Artificials must never re-enter in phase 2. *)
        Array.iteri (fun j is_art -> if is_art then t.allowed.(j) <- false) artificial;
        (* Drive zero-level basic artificials out of the basis. A basic
           artificial absorbs any imbalance of its row, silently deleting
           that constraint from every later phase-2 solve — on a row that
           is NOT linearly dependent this relaxes the feasible region and
           lets phase 2 report optima outside the true polytope. Pivot in
           the structural column with the largest entry; the pivot is
           (near-)degenerate, so the primal point barely moves.

           A row whose structural entries all sit below 1e-6 of its scale
           (its largest entry anywhere in the tableau, the B⁻¹ part
           included) is dependent: implied by the other rows, so its
           artificial, which only absorbs the perturbation's
           inconsistency, stays. Its structural entries are then roundoff
           of the elimination, amplified by the basis's conditioning (up
           to 1e-7 on near-tied rates), and left in place they act in
           phase 2 as spurious constraints or relaxations of that
           roundoff. They are zeroed, so phase 2 never prices or
           ratio-tests against the row. Pivoting on them instead ruins
           the tableau: driving out the 1e-10 entries of (48582, 2, 7)
           certifies a response-time interval that misses the exact value
           by 1.3%. *)
        let scratch = Array.make (n_total + 1) 0. in
        for i = 0 to m - 1 do
          if artificial.(t.basis.(i)) then begin
            let row = t.a.(i) in
            let scale = ref 0. in
            for j = 0 to n_total - 1 do
              scale := Float.max !scale (Float.abs row.(j))
            done;
            let best = ref (-1) and best_mag = ref (1e-6 *. !scale) in
            for j = 0 to std.Std_form.ncols - 1 do
              let mag = Float.abs row.(j) in
              if mag > !best_mag then begin
                best := j;
                best_mag := mag
              end
            done;
            if !best < 0 then Array.fill row 0 std.Std_form.ncols 0.
            else if Float.abs row.(n_total) /. !best_mag <= 1e-6 then begin
              (* Zero the row's right-hand side first: the artificial sits
                 at zero level in the true problem, and its residual
                 tableau value is perturbation noise. Zeroing it makes the
                 pivot exactly degenerate — no other basic value moves —
                 where pivoting on the noisy value would shift every row by
                 up to (noise / pivot) × column entry, pushing degenerate
                 basic variables negative and seeding instability that
                 phase 2 then amplifies. (Formally this re-perturbs b by
                 −B·(noise·eᵢ), the same class of perturbation phase 2's
                 salt retries already apply.) *)
              t.a.(i).(n_total) <- 0.;
              pivot t scratch i !best;
              (* Re-seed the anti-degeneracy margin on the row with a
                 fresh deterministic perturbation at the usual 1e-8 scale
                 — leaving it at exactly zero stacks hundreds of
                 exactly-tied zero-level basics, and phase 2 pays for
                 every tie in ratio-test passes. *)
              let h = ((i * 2654435761) lxor 0x9E3779B9) land 0xFFFFFF in
              t.a.(i).(n_total) <-
                1e-8 *. (0.5 +. (float_of_int h /. float_of_int 0x1000000));
              Metrics.inc m_driveouts
            end
          end
        done;
        Ok { tab = t; std }
      end
  in
  try_attempts salt0

let prepare ?salt model =
  Span.with_ "simplex.phase1" (fun () -> prepare_unspanned ?salt model)

(* ------------------------------------------------------------------ *)
(* Phase 2                                                             *)
(* ------------------------------------------------------------------ *)

let extract_solution std tab =
  let x_std = Array.make std.Std_form.ncols 0. in
  let w_std = Array.make std.Std_form.ncols 0. in
  for i = 0 to tab.m - 1 do
    (* Basic artificials (linearly dependent rows) carry no structural
       value. For the rest, recompute the exact basic value x_B = B⁻¹ b
       from the TRUE right-hand side through the initial-identity columns
       instead of reading the perturbed tableau RHS — keeps the reported
       point (and hence the objective) free of the anti-degeneracy
       perturbation, and in lockstep with the revised backend's
       FTRAN-based extraction. *)
    if tab.basis.(i) < std.Std_form.ncols then begin
      let acc = Mapqn_util.Ksum.create () in
      for j = 0 to tab.m - 1 do
        Mapqn_util.Ksum.add acc (tab.a.(i).(tab.binv_cols.(j)) *. std.Std_form.rhs.(j))
      done;
      x_std.(tab.basis.(i)) <- Mapqn_util.Ksum.total acc;
      (* The perturbed tableau RHS is the basic solution of the perturbed
         problem — primal-feasible by the simplex invariant, so it misses
         the true constraints by at most the perturbation itself, however
         ill-conditioned the basis. That makes it the feasibility witness
         backing the certificate. *)
      w_std.(tab.basis.(i)) <- Float.max 0. tab.a.(i).(tab.n)
    end
  done;
  (* Iterative refinement, as the revised backend does after a solve:
     the initial-identity columns carry the roundoff of every pivot, so
     on degenerate models x_B = B⁻¹b can miss B·x = b by 1e-7 to 1e-6.
     The exact residual r = b − A·x and one more product with the same
     columns recover the lost digits; residuals already at roundoff are
     left alone. *)
  let r = Array.make tab.m 0. in
  (try
     for _ = 1 to 2 do
       let worst = ref 0. in
       for i = 0 to tab.m - 1 do
         let acc = Mapqn_util.Ksum.create () in
         Mapqn_util.Ksum.add acc std.Std_form.rhs.(i);
         Csr.iter_row std.Std_form.rows i (fun j v ->
             Mapqn_util.Ksum.add acc (-.(v *. x_std.(j))));
         r.(i) <- Mapqn_util.Ksum.total acc;
         worst := Float.max !worst (Float.abs r.(i))
       done;
       if !worst <= 1e-12 then raise Exit;
       for i = 0 to tab.m - 1 do
         if tab.basis.(i) < std.Std_form.ncols then begin
           let acc = Mapqn_util.Ksum.create () in
           for j = 0 to tab.m - 1 do
             Mapqn_util.Ksum.add acc (tab.a.(i).(tab.binv_cols.(j)) *. r.(j))
           done;
           x_std.(tab.basis.(i)) <-
             x_std.(tab.basis.(i)) +. Mapqn_util.Ksum.total acc
         end
       done
     done
   with Exit -> ());
  (Std_form.extract std x_std, Std_form.extract std w_std)

let optimize_unspanned prepared direction objective =
  Metrics.inc m_solves;
  let std = prepared.std in
  let max_iter = 50_000 + (50 * (prepared.tab.m + prepared.tab.n)) in
  let sign = match direction with Minimize -> 1. | Maximize -> -1. in
  let c = Std_form.costs std ~sign objective in
  let cost_of col = if col < std.Std_form.ncols then c.(col) else 0. in
  (* One phase-2 attempt; [salt > 0] re-perturbs the right-hand side in the
     current basis frame (equivalent to perturbing b by B·δ, so primal
     feasibility is preserved) to break symmetric degeneracy — same story
     as phase 1. *)
  let attempt salt =
    let tab = copy_tableau prepared.tab in
    (* The current basis columns form an identity block: re-anchor the
       lexicographic ordering to them for this phase. *)
    Array.blit tab.basis 0 tab.lex_cols 0 tab.m;
    if salt > 0 then
      for i = 0 to tab.m - 1 do
        let h = (((i + (salt * 104729)) * 2654435761) lxor (salt * 92821)) land 0xFFFFFF in
        let u = float_of_int h /. float_of_int 0x1000000 in
        tab.a.(i).(tab.n) <-
          tab.a.(i).(tab.n) +. (1e-9 *. (1. +. tab.a.(i).(tab.n)) *. (0.5 +. u))
      done;
    (* Reduced costs priced out against the prepared basis; slot n
       accumulates -(objective of the current basic solution). *)
    let obj = Array.make (tab.n + 1) 0. in
    Array.blit c 0 obj 0 std.Std_form.ncols;
    for i = 0 to tab.m - 1 do
      let cb = cost_of tab.basis.(i) in
      if cb <> 0. then
        for j = 0 to tab.n do
          obj.(j) <- obj.(j) -. (cb *. tab.a.(i).(j))
        done
    done;
    let stall_limit = max 5_000 (20 * tab.m) in
    let status, iterations = run_phase ~stall_limit tab obj ~max_iter in
    (status, iterations, tab)
  in
  let rec try_attempts salt =
    match attempt salt with
    | P_iteration_limit, _, _ when salt < 3 ->
      Metrics.inc m_retries;
      Log.debug (fun f -> f "phase-2 stall with salt %d; retrying" salt);
      try_attempts (salt + 1)
    | result -> result
  in
  let status, iterations, tab = try_attempts 0 in
  match status with
  | P_iteration_limit -> Iteration_limit max_iter
  | P_unbounded -> Unbounded
  | P_optimal ->
    (* Report the objective evaluated at the extracted point rather than
       the tableau accumulator: the right-hand side was perturbed, and the
       direct evaluation keeps objective and reported point consistent. *)
    let values, witness = extract_solution std tab in
    let objective_value = Std_form.objective_value objective values in
    (* Dual values y = c_B B⁻¹ for the model rows, read through the
       initial-identity columns; signs restore the original row
       orientation and the original optimization direction. *)
    let duals =
      Array.init std.Std_form.nrows_model (fun i ->
          let acc = Mapqn_util.Ksum.create () in
          for r = 0 to tab.m - 1 do
            let cb = cost_of tab.basis.(r) in
            if cb <> 0. then
              Mapqn_util.Ksum.add acc (cb *. tab.a.(r).(tab.binv_cols.(i)))
          done;
          sign *. std.Std_form.row_signs.(i) *. Mapqn_util.Ksum.total acc)
    in
    Metrics.set m_objective objective_value;
    Optimal { objective = objective_value; values; witness; duals; iterations }

let optimize prepared direction objective =
  Span.with_ "simplex.phase2" (fun () ->
      optimize_unspanned prepared direction objective)

let solve model direction objective =
  match prepare model with
  | Error Infeasible_phase1 -> Infeasible
  | Error (Iteration_limit_phase1 k) -> Iteration_limit k
  | Ok prepared -> optimize prepared direction objective
