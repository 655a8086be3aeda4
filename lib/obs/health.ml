(* Numerical-stability telemetry for the LP layers.

   The revised simplex and the certificate checker report what their
   numerics looked like — eta-chain drift sampled on the reinversion
   triggers, degeneracy streaks, perturbation-ladder depth, rescue rungs,
   refinement residuals and the certificate's primal residual and gap —
   into one module that (a) mirrors everything into the {!Metrics}
   registry and (b) keeps a per-solve snapshot the run ledger embeds in
   each record.
   A field stays only while something reads it: [mapqn doctor], the
   corpus tests or perfbench.

   The snapshot lives in the current {!Run_ctx} (one typed slot per
   context) rather than a process global, so two domains evaluating
   models concurrently each accumulate their own solve's numerics; the
   Metrics mirrors stay process-wide (the registry is itself
   mutex-guarded and gauges are last-writer-wins by design).

   Observers are called from hot-adjacent code (once per drift check /
   stall / solve, never per pivot), so plain mutation under one mutex is
   cheap enough. *)

type rescue = Refined | Reperturbed | Cold_resolve | Dense_oracle | Uncertified

let rescue_depth_of = function
  | Refined -> 1
  | Reperturbed -> 2
  | Cold_resolve -> 3
  | Dense_oracle -> 4
  | Uncertified -> 5

let deeper_rescue a b =
  match (a, b) with
  | Some x, Some y -> if rescue_depth_of x >= rescue_depth_of y then a else b
  | None, r | r, None -> r

let rescue_to_string = function
  | Refined -> "refined"
  | Reperturbed -> "reperturbed"
  | Cold_resolve -> "cold_resolve"
  | Dense_oracle -> "dense_oracle"
  | Uncertified -> "uncertified"

let rescue_of_string = function
  | "refined" -> Some Refined
  | "reperturbed" -> Some Reperturbed
  | "cold_resolve" -> Some Cold_resolve
  | "dense_oracle" -> Some Dense_oracle
  | "uncertified" -> Some Uncertified
  | _ -> None

type snapshot = {
  eta_drift : float;
  degeneracy_streak : int;
  bland_switches : int;
  perturbation_salt : int;
  cert_primal : float;
  cert_gap : float;
  cert_failures : int;
  rescue : rescue option;
  refine_residual : float;
}

let empty =
  {
    eta_drift = 0.;
    degeneracy_streak = 0;
    bland_switches = 0;
    perturbation_salt = 0;
    cert_primal = 0.;
    cert_gap = 0.;
    cert_failures = 0;
    rescue = None;
    refine_residual = 0.;
  }

(* Per-context state. The slot init runs once per context; the mutex
   covers observers racing a [current] read on the same context (the
   common case — a worker's own solve — is uncontended). *)
type state = { lock : Mutex.t; mutable cur : snapshot }

let slot =
  Run_ctx.slot ~name:"health" (fun () ->
      { lock = Mutex.create (); cur = empty })

let state () = Run_ctx.get (Run_ctx.current ()) slot

let locked st f =
  Mutex.lock st.lock;
  match f () with
  | x ->
    Mutex.unlock st.lock;
    x
  | exception e ->
    Mutex.unlock st.lock;
    raise e

(* Registry mirrors. Gauges carry the LAST observation (what the solver
   numerics look like right now); the snapshot keeps worst-since-reset
   so a ledger record summarizes its whole solve. *)

let g_drift =
  Metrics.gauge
    ~help:
      "Last sampled eta-chain residual drift (incremental basic values vs a \
       fresh FTRAN of the right-hand side)."
    "health_eta_drift"

let g_streak =
  Metrics.gauge
    ~help:"Longest degenerate-pivot streak seen (high-water mark)."
    "health_degeneracy_streak_peak"

let c_stalls =
  Metrics.counter
    ~help:"Degeneracy stalls that forced a switch to Bland's rule."
    "health_degeneracy_stalls_total"

let g_salt =
  Metrics.gauge
    ~help:"Deepest anti-degeneracy perturbation salt reached (high-water mark)."
    "health_perturbation_salt_depth"

let begin_solve () =
  let st = state () in
  locked st (fun () -> st.cur <- empty)

let current () =
  let st = state () in
  locked st (fun () -> st.cur)

let update f =
  let st = state () in
  locked st (fun () -> st.cur <- f st.cur)

let observe_drift drift =
  Metrics.set g_drift drift;
  update (fun c -> { c with eta_drift = Float.max c.eta_drift drift })

let observe_degeneracy_streak streak =
  Metrics.set_max g_streak (float_of_int streak);
  update (fun c ->
      if streak > c.degeneracy_streak then { c with degeneracy_streak = streak }
      else c)

let observe_stall () =
  Metrics.inc c_stalls;
  update (fun c -> { c with bland_switches = c.bland_switches + 1 })

let observe_salt salt =
  Metrics.set_max g_salt (float_of_int salt);
  update (fun c ->
      if salt > c.perturbation_salt then { c with perturbation_salt = salt }
      else c)

let c_rescue_refined =
  Metrics.counter
    ~help:
      "Solves whose post-solve iterative refinement corrected a \
       certificate-threatening residual."
    "health_rescue_refined_total"

let c_rescue_reperturbed =
  Metrics.counter
    ~help:
      "Certificate rescues resolved by re-solving at a tighter perturbation \
       scale (first rung)."
    "health_rescue_reperturbed_total"

let c_rescue_cold =
  Metrics.counter
    ~help:"Certificate rescues resolved by a cold re-solve (second rung)."
    "health_rescue_cold_resolve_total"

let c_rescue_dense =
  Metrics.counter
    ~help:
      "Certificate rescues resolved by the dense-tableau oracle (third \
       rung)."
    "health_rescue_dense_oracle_total"

let c_rescue_uncertified =
  Metrics.counter
    ~help:
      "Solves whose rescue ladder was exhausted without a passing \
       certificate (the endpoint is the tightest safe bound seen)."
    "health_rescue_uncertified_total"

let g_refine_residual =
  Metrics.gauge
    ~help:
      "Worst primal residual found (and corrected) by post-solve iterative \
       refinement in the last solve."
    "health_refine_residual"

let observe_rescue r =
  Metrics.inc
    (match r with
    | Refined -> c_rescue_refined
    | Reperturbed -> c_rescue_reperturbed
    | Cold_resolve -> c_rescue_cold
    | Dense_oracle -> c_rescue_dense
    | Uncertified -> c_rescue_uncertified);
  update (fun c -> { c with rescue = deeper_rescue c.rescue (Some r) })

let observe_refinement ~residual =
  Metrics.set g_refine_residual residual;
  update (fun c ->
      { c with refine_residual = Float.max c.refine_residual residual })

let observe_certificate ~primal ~gap ~accepted =
  update (fun c ->
      {
        c with
        cert_primal = Float.max c.cert_primal primal;
        cert_gap = Float.max c.cert_gap gap;
        cert_failures = (c.cert_failures + if accepted then 0 else 1);
      })

let to_json s =
  let num v = Json.Number v in
  let int v = Json.Number (float_of_int v) in
  Json.Object
    [
      ("eta_drift", num s.eta_drift);
      ("degeneracy_streak", int s.degeneracy_streak);
      ("bland_switches", int s.bland_switches);
      ("perturbation_salt", int s.perturbation_salt);
      ( "rescue",
        match s.rescue with
        | None -> Json.Null
        | Some r -> Json.String (rescue_to_string r) );
      ( "rescue_depth",
        int (match s.rescue with None -> 0 | Some r -> rescue_depth_of r) );
      ("refine_residual", num s.refine_residual);
    ]
