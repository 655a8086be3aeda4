type t = { primal_residual : float; safe_bound : float; gap : float }

let default_tol_primal = 1e-5
let margin v = 1e-5 *. Float.max 1. (Float.abs v)

(* Kahan-compensated dot-product accumulator: the balance rows mix
   coefficients across many orders of magnitude, and the certificate
   should measure the solver's error, not the checker's. *)
let row_value model r x =
  let sum = ref 0. and comp = ref 0. in
  Lp_model.iter_row_terms model r (fun v a ->
      let term = a *. x.((v :> int)) in
      let y = term -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t);
  !sum

(* Worst violation of the rows, by sense, and of the variable bounds. *)
let primal_residual model x =
  let worst = ref 0. in
  let bump v = if v > !worst then worst := v in
  for r = 0 to Lp_model.num_rows model - 1 do
    let slack = row_value model r x -. Lp_model.row_rhs model r in
    match Lp_model.row_sense model r with
    | Lp_model.Eq -> bump (Float.abs slack)
    | Lp_model.Le -> bump slack
    | Lp_model.Ge -> bump (-.slack)
  done;
  for j = 0 to Lp_model.num_vars model - 1 do
    let lb, ub = Lp_model.var_bounds model (Lp_model.var_of_int model j) in
    if Float.is_finite lb then bump (lb -. x.(j));
    if Float.is_finite ub then bump (x.(j) -. ub)
  done;
  !worst

(* γ(n) = n·u / (1 − n·u), the relative error bound of an n-term
   floating-point sum or dot product (Higham, §3.1). *)
let gamma n =
  let nu = float_of_int n *. (epsilon_float /. 2.) in
  nu /. (1. -. nu)

let safe_bound ~upper model direction ~objective ~duals =
  let n = Lp_model.num_vars model in
  let m = Lp_model.num_rows model in
  if Array.length upper <> n then invalid_arg "Certificate.safe_bound: upper";
  (* Orient as minimization: [max c·x = −min (−c)·x], and the multipliers
     flip with the costs. *)
  let sign =
    match direction with Simplex.Minimize -> 1. | Simplex.Maximize -> -1.
  in
  (* d = c − Aᵀy, with each column's term count and Σ|terms| for its
     rounding bound. *)
  let d = Array.make n 0. and mag = Array.make n 0. and terms = Array.make n 0 in
  let add j v =
    d.(j) <- d.(j) +. v;
    mag.(j) <- mag.(j) +. Float.abs v;
    terms.(j) <- terms.(j) + 1
  in
  List.iter
    (fun ((v : Lp_model.var), coeff) -> add (v :> int) (sign *. coeff))
    objective;
  (* The sum b·y + Σⱼ min(0, dⱼ − eⱼ)·uⱼ and its own rounding bound. *)
  let sum = ref 0. and sum_mag = ref 0. and count = ref 0 in
  let term v =
    sum := !sum +. v;
    sum_mag := !sum_mag +. Float.abs v;
    incr count
  in
  for r = 0 to m - 1 do
    (* For a minimization, relaxing a [<=] row cannot raise the optimum,
       so its multiplier must be <= 0, and symmetrically for [>=]. *)
    let y = sign *. duals.(r) in
    let y =
      if not (Float.is_finite y) then 0.
      else
        match Lp_model.row_sense model r with
        | Lp_model.Eq -> y
        | Lp_model.Le -> Float.min y 0.
        | Lp_model.Ge -> Float.max y 0.
    in
    if y <> 0. then begin
      term (Lp_model.row_rhs model r *. y);
      Lp_model.iter_row_terms model r (fun v a -> add (v :> int) (-.(a *. y)))
    end
  done;
  for j = 0 to n - 1 do
    let lb, ub = Lp_model.var_bounds model (Lp_model.var_of_int model j) in
    if lb <> 0. then invalid_arg "Certificate.safe_bound: lower bound not 0";
    let d_low = d.(j) -. (2. *. gamma (terms.(j) + 1) *. mag.(j)) in
    if not (d_low >= 0.) then term (d_low *. Float.min upper.(j) ub)
  done;
  let bound = !sum -. (2. *. gamma (!count + 2) *. !sum_mag) in
  sign *. if Float.is_nan bound then neg_infinity else bound

let gap_of direction ~objective ~safe =
  let distance =
    match direction with
    | Simplex.Minimize -> objective -. safe
    | Simplex.Maximize -> safe -. objective
  in
  distance /. margin objective

let compute ~upper model direction ~objective (s : Simplex.solution) =
  let safe = safe_bound ~upper model direction ~objective ~duals:s.duals in
  {
    primal_residual = primal_residual model s.values;
    safe_bound = safe;
    gap = gap_of direction ~objective:s.objective ~safe;
  }

let check ~upper model direction ~objective (s : Simplex.solution) =
  let exact = compute ~upper model direction ~objective s in
  (* The exact point first: on well-conditioned bases it certifies to
     near machine precision. When the basis is ill-conditioned the exact
     point can sit off degenerate rows by conditioning × perturbation,
     so fall back to the feasibility witness, whose error is bounded by
     the solver's perturbation and accepted-infeasibility budget
     independent of conditioning (see {!Simplex.solution}). The safe
     bound does not depend on the point. *)
  let cert =
    if exact.primal_residual <= default_tol_primal then exact
    else { exact with primal_residual = primal_residual model s.witness }
  in
  let accepted = cert.primal_residual <= default_tol_primal && cert.gap <= 1. in
  Mapqn_obs.Health.observe_certificate ~primal:cert.primal_residual
    ~gap:cert.gap ~accepted;
  if accepted then Ok cert else Error cert
