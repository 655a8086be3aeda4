(* Append-only JSONL run ledger.

   One record per unit of solver work (a [Bounds.eval], a sweep
   preparation step, a simulator run) carrying provenance — git SHA,
   model fingerprint, PRNG seed, solver configuration — and outcome:
   bound values, pivot/refactorization deltas, the certificate residual
   triple and the numerical-health snapshot ({!Health}).

   Records are written crash-safely: the file is opened in append mode
   and flushed after every record, so the ledger of a killed sweep is
   intact up to the last completed unit and doubles as a checkpoint
   (the reader skips a torn final line, mirroring
   {!Progress.load_completed}).

   On top of the stream sit two pure analyses the CLI surfaces:
   [diff] (bound-value and performance drift between two ledgers) and
   [doctor] (certificate near-misses, drift-triggered reinversions,
   degeneracy stalls, and the residual-peak-at-the-largest-population
   pattern of the historical Fig-8 failure). *)

type sink = { oc : out_channel; lpath : string; mutable context : (string * Json.t) list }

let lock = Mutex.create ()
let current : sink option ref = ref None

let locked f =
  Mutex.lock lock;
  match f () with
  | x ->
    Mutex.unlock lock;
    x
  | exception e ->
    Mutex.unlock lock;
    raise e

(* Provenance: the commit of the checkout holding the running binary
   (dune's _build and perfbench's .bench_build both sit inside it), not
   of the working directory, resolved once per process (a subprocess
   spawn is far too slow per record). [None] for a binary outside a git
   checkout. The directory is taken at start-up, before any [chdir] can
   move a relative executable name. The memo has its own mutex — it is
   read inside the sink lock but must also be safe for any stray direct
   caller on another domain. *)
let exe_dir =
  let exe = Sys.executable_name in
  Filename.dirname
    (if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe)

let sha_lock = Mutex.create ()
let sha_memo : string option option ref = ref None

let git_sha () =
  Mutex.lock sha_lock;
  let memo = !sha_memo in
  Mutex.unlock sha_lock;
  match memo with
  | Some v -> v
  | None ->
    let v =
      try
        let ic =
          Unix.open_process_in
            ("git -C " ^ Filename.quote exe_dir ^ " rev-parse HEAD 2>/dev/null")
        in
        let sha = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when sha <> "" -> Some sha
        | _ -> None
      with _ -> None
    in
    Mutex.lock sha_lock;
    (* A racing resolver computed the same value; last write wins. *)
    sha_memo := Some v;
    Mutex.unlock sha_lock;
    v

let disable () =
  locked (fun () ->
      match !current with
      | None -> ()
      | Some s ->
        (try
           flush s.oc;
           close_out s.oc
         with _ -> ());
        current := None)

type enable_error = [ `Already_enabled of string ]

let enable_error_to_string = function
  | `Already_enabled path ->
    Printf.sprintf
      "ledger already enabled on %s (disable it before re-enabling)" path

let enable ?(context = []) ~path () =
  locked (fun () ->
      match !current with
      | Some s when String.equal s.lpath path ->
        (* Silently reopening the live sink would drop its accumulated
           context and interleave two append channels on one file. *)
        Error (`Already_enabled path)
      | prev ->
        (match prev with
        | Some s -> (
          try
            flush s.oc;
            close_out s.oc
          with _ -> ())
        | None -> ());
        (* Should the open raise, the sink stays disabled. *)
        current := None;
        current := Some { oc = Export.open_append path; lpath = path; context };
        Ok ())

let enable_exn ?context ~path () =
  match enable ?context ~path () with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ledger.enable: " ^ enable_error_to_string e)

let is_enabled () = !current <> None
let path () = locked (fun () -> Option.map (fun s -> s.lpath) !current)

let set_context key value =
  locked (fun () ->
      match !current with
      | None -> ()
      | Some s -> s.context <- (key, value) :: List.remove_assoc key s.context)

let record ~event fields =
  (* Resolve the writer's run context before taking the sink lock: the
     overlay belongs to the calling domain, the sink to the process. *)
  let ctx = Run_ctx.current () in
  let overlay = Run_ctx.context ctx in
  let ctx_seed = Run_ctx.seed ctx in
  locked (fun () ->
      match !current with
      | None -> ()
      | Some s ->
        let sha =
          match git_sha () with Some v -> Json.String v | None -> Json.Null
        in
        (* Exactly one top-level "seed" per record, by precedence: an
           explicit seed in [fields] (e.g. a simulator run's own seed)
           beats the run context's (overlay pair, then the context's own
           seed — how a fleet worker stamps its derived per-model seed),
           which beats the sink-wide context seed. *)
        let seed =
          match
            ( List.assoc_opt "seed" fields,
              List.assoc_opt "seed" overlay,
              ctx_seed,
              List.assoc_opt "seed" s.context )
          with
          | Some v, _, _, _ | None, Some v, _, _ -> v
          | None, None, Some seed, _ -> Json.Number (float_of_int seed)
          | None, None, None, Some v -> v
          | None, None, None, None -> Json.Null
        in
        let fields = List.remove_assoc "seed" fields in
        let overlay = List.remove_assoc "seed" overlay in
        let context = List.remove_assoc "seed" s.context in
        (* Merge, later layers overriding earlier ones:
           sink context < run-context overlay < record fields. *)
        let merge base extra =
          List.filter (fun (k, _) -> not (List.mem_assoc k extra)) base @ extra
        in
        let body = merge (merge context overlay) fields in
        let line =
          Json.Object
            (("event", Json.String event)
            :: ("ts", Json.Number (Unix.gettimeofday ()))
            :: ("git_sha", sha)
            :: ("seed", seed)
            :: body)
        in
        output_string s.oc (Json.to_string line);
        output_char s.oc '\n';
        (* The flush is the crash-safety contract: every returned record
           call is durable up to OS buffering. *)
        flush s.oc)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* Unparsable lines — a torn final line from a killed run, or stray
   output interleaved by mistake — are skipped, not errors: a ledger is
   best-effort by design, exactly like the progress heartbeat file. *)
let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let records = ref [] in
    (try
       while true do
         let line = input_line ic in
         match Json.parse line with
         | Ok (Json.Object _ as r) -> records := r :: !records
         | Ok _ | Error _ -> ()
       done
     with End_of_file -> ());
    close_in_noerr ic;
    List.rev !records
  end

(* Field accessors over a record; all total. *)
let str name r =
  match Option.bind (Json.member name r) Json.get_string with
  | Some s -> s
  | None -> ""

let num ?(default = 0.) name r =
  match Option.bind (Json.member name r) Json.get_float with
  | Some v -> v
  | None -> default

let obj_num ?(default = 0.) outer name r =
  match Json.member outer r with
  | Some o -> num ~default name o
  | None -> default

let obj_str outer name r =
  match Json.member outer r with Some o -> str name o | None -> ""

let population r =
  match Option.bind (Json.member "population" r) Json.get_int with
  | Some n -> n
  | None -> -1

let event r = str "event" r

(* ------------------------------------------------------------------ *)
(* Summaries (mapqn ledger FILE)                                       *)
(* ------------------------------------------------------------------ *)

let summarize records =
  let row i r =
    let n = population r in
    let cert = obj_num "certificate" "primal_residual" r in
    [
      string_of_int i;
      event r;
      (if n >= 0 then string_of_int n else "-");
      (match str "solver" r with "" -> "-" | s -> s);
      (match num ~default:Float.nan "duration_s" r with
      | d when Float.is_nan d -> "-"
      | d -> Printf.sprintf "%.3fs" d);
      (match num ~default:Float.nan "pivots" r with
      | p when Float.is_nan p -> "-"
      | p -> Printf.sprintf "%.0f" p);
      (if Json.member "certificate" r = None then "-"
       else Printf.sprintf "%.2e" cert);
      (match str "git_sha" r with
      | "" -> "-"
      | sha -> String.sub sha 0 (min 8 (String.length sha)));
    ]
  in
  Export.aligned
    ([ "#"; "event"; "N"; "solver"; "duration"; "pivots"; "primal res"; "commit" ]
    :: List.mapi row records)

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type drift = {
  key : string;
  bound_drift : float;
  worst_metric : string;
  duration_a : float;
  duration_b : float;
  pivots_a : float;
  pivots_b : float;
  fingerprint_changed : bool;
}

type diff_report = { matched : drift list; only_a : int; only_b : int }

(* Records pair up by (event, population, occurrence index): ledgers of
   two runs of the same experiment line up positionally within each
   (event, population) class, which survives reordering of unrelated
   populations and resumed prefixes. *)
let keyed records =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun r ->
      match event r with
      | "" -> None
      | ev ->
        let cls = (ev, population r) in
        let idx = try Hashtbl.find seen cls with Not_found -> 0 in
        Hashtbl.replace seen cls (idx + 1);
        Some ((cls, idx), r))
    records

let metric_bounds r =
  match Json.member "metrics" r with
  | Some (Json.List l) ->
    List.filter_map
      (fun m ->
        match Json.member "name" m with
        | Some (Json.String name) ->
          Some (name, (num ~default:Float.nan "lower" m, num ~default:Float.nan "upper" m))
        | _ -> None)
      l
  | _ -> []

let diff a b =
  let ka = keyed a and kb = keyed b in
  let matched =
    List.filter_map
      (fun (key, ra) ->
        match List.assoc_opt key kb with
        | None -> None
        | Some rb ->
          let (ev, n), idx = key in
          let bounds_b = metric_bounds rb in
          let worst = ref 0. and worst_at = ref "-" in
          List.iter
            (fun (name, (lo_a, hi_a)) ->
              match List.assoc_opt name bounds_b with
              | None -> ()
              | Some (lo_b, hi_b) ->
                let d v w =
                  if Float.is_nan v || Float.is_nan w then 0.
                  else if v = w then 0. (* infinities agree *)
                  else Float.abs (v -. w)
                in
                let delta = Float.max (d lo_a lo_b) (d hi_a hi_b) in
                if delta > !worst then begin
                  worst := delta;
                  worst_at := name
                end)
            (metric_bounds ra);
          Some
            {
              key =
                (if n >= 0 then Printf.sprintf "%s N=%d #%d" ev n idx
                 else Printf.sprintf "%s #%d" ev idx);
              bound_drift = !worst;
              worst_metric = !worst_at;
              duration_a = num "duration_s" ra;
              duration_b = num "duration_s" rb;
              pivots_a = num "pivots" ra;
              pivots_b = num "pivots" rb;
              fingerprint_changed = str "fingerprint" ra <> str "fingerprint" rb;
            })
      ka
  in
  let unmatched x y =
    List.length (List.filter (fun (k, _) -> not (List.mem_assoc k y)) x)
  in
  { matched; only_a = unmatched ka kb; only_b = unmatched kb ka }

let render_diff report =
  let buf = Buffer.create 1024 in
  let pct a b =
    if a > 0. then Printf.sprintf "%+.1f%%" (100. *. ((b /. a) -. 1.)) else "-"
  in
  let rows =
    [ "record"; "bound drift"; "at"; "duration"; "pivots"; "model" ]
    :: List.map
         (fun d ->
           [
             d.key;
             (if d.bound_drift > 0. then Printf.sprintf "%.3e" d.bound_drift
              else "0");
             d.worst_metric;
             pct d.duration_a d.duration_b;
             pct d.pivots_a d.pivots_b;
             (if d.fingerprint_changed then "CHANGED" else "same");
           ])
         report.matched
  in
  Buffer.add_string buf (Export.aligned rows);
  if report.only_a > 0 || report.only_b > 0 then
    Buffer.add_string buf
      (Printf.sprintf "unmatched records: %d only in A, %d only in B\n"
         report.only_a report.only_b);
  let worst =
    List.fold_left (fun acc d -> Float.max acc d.bound_drift) 0. report.matched
  in
  Buffer.add_string buf
    (Printf.sprintf "%d matched record(s), worst bound drift %.3e\n"
       (List.length report.matched) worst);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Doctor                                                              *)
(* ------------------------------------------------------------------ *)

type severity = Info | Warn | Fail

type finding = {
  severity : severity;
  code : string;
  where : string;
  detail : string;
}

let severity_to_string = function
  | Info -> "info"
  | Warn -> "WARN"
  | Fail -> "FAIL"

(* A residual at or above this fraction of its tolerance is a
   near-miss: still passing, but one conditioning wobble away from the
   failure the pre-drift-trigger Fig-8 sweep actually hit. *)
let near_miss_fraction = 0.25

let where_of i r =
  let n = population r in
  if n >= 0 then Printf.sprintf "%s N=%d (record %d)" (event r) n i
  else Printf.sprintf "%s (record %d)" (event r) i

let doctor ?(tol_primal = 1e-5) ?(tol_dual = 1e-6) ?(tol_comp = 1e-6) records =
  let findings = ref [] in
  let add severity code where detail =
    findings := { severity; code; where; detail } :: !findings
  in
  let solver_records =
    List.filteri
      (fun _ r -> match event r with "eval" | "sweep_step" -> true | _ -> false)
      records
  in
  (* Residual ratio (value / recorded-or-default tolerance) of the worst
     certificate quantity of one record. *)
  let cert_ratio r =
    match Json.member "certificate" r with
    | None -> None
    | Some cert ->
      let quantity name default_tol tol_field =
        let v = num name cert in
        let tol = num ~default:default_tol tol_field cert in
        (v /. Float.max tol 1e-300, name, v, tol)
      in
      let candidates =
        [
          quantity "primal_residual" tol_primal "tol_primal";
          quantity "dual_violation" tol_dual "tol_dual";
          quantity "comp_slack" tol_comp "tol_comp";
        ]
      in
      Some
        (List.fold_left
           (fun (br, bn, bv, bt) (r', n', v', t') ->
             if r' > br then (r', n', v', t') else (br, bn, bv, bt))
           (List.hd candidates) (List.tl candidates))
  in
  List.iteri
    (fun i r ->
      let where = where_of i r in
      let rescue_cause = obj_str "health" "rescue" r in
      let rescue_depth = obj_num "health" "rescue_depth" r in
      (match cert_ratio r with
      | None -> ()
      | Some (ratio, quantity, value, tol) ->
        let failures = obj_num "certificate" "failures" r in
        if rescue_cause = "uncertified" then
          add Fail "cert-uncertified" where
            (Printf.sprintf
               "rescue ladder exhausted without a passing certificate (worst \
                %s = %.3e vs tolerance %.1e)"
               quantity value tol)
        else if failures > 0. || ratio > 1. then
          if rescue_depth > 0. then
            (* The recorded residual triple keeps the WORST values seen,
               including the failed pre-rescue attempts — a rescued
               record is a recovery, not a failure. *)
            add Warn "cert-rescued" where
              (Printf.sprintf
                 "certificate initially failed (%s = %.3e vs tolerance %.1e); \
                  rescued via %s (rung %.0f)"
                 quantity value tol rescue_cause rescue_depth)
          else
            add Fail "cert-failure" where
              (Printf.sprintf "certificate %s = %.3e exceeds tolerance %.1e"
                 quantity value tol)
        else if ratio >= near_miss_fraction then
          add Warn "cert-near-miss" where
            (Printf.sprintf
               "certificate %s = %.3e is %.0f%% of tolerance %.1e" quantity
               value (100. *. ratio) tol)
        else if rescue_depth > 0. then
          (* In-solve refinement recorded a [refined] outcome without any
             certificate check failing: the solve was saved before the
             certificate ever saw the bad point. *)
          add Info "cert-rescued" where
            (Printf.sprintf
               "solve recorded a %s rescue (rung %.0f); certificate passed"
               rescue_cause rescue_depth));
      let drift_reinv = obj_num "refactor_causes" "drift" r in
      if drift_reinv > 0. then
        add Warn "drift-reinversion" where
          (Printf.sprintf
             "%.0f reinversion(s) triggered by eta-chain drift (worst sampled \
              drift %.2e)"
             drift_reinv
             (obj_num "health" "eta_drift" r));
      let streak = obj_num "health" "degeneracy_streak" r in
      let blands = obj_num "health" "bland_switches" r in
      if blands > 0. then
        add Warn "degeneracy-stall" where
          (Printf.sprintf
             "degenerate streak of %.0f pivots forced Bland's rule %.0f time(s)"
             streak blands)
      else if streak >= 1000. then
        add Info "degeneracy-streak" where
          (Printf.sprintf "degenerate streak of %.0f pivots (no stall)" streak);
      let salt = obj_num "health" "perturbation_salt" r in
      if salt > 0. then
        add Warn "perturbation-retry" where
          (Printf.sprintf
             "phase 1 needed the perturbation ladder at depth %.0f" salt))
    solver_records;
  (* The historical Fig-8 signature: the certificate residual peaks at
     the LARGEST population of the sweep — eta-chain roundoff compounds
     with LP size until, pre drift-trigger, the last population failed
     at 3e-05. Flag the pattern whenever the worst residual ratio of the
     run sits at the maximum population, at a severity matching how
     close it came. *)
  (* Rescued records keep their worst PRE-rescue residual, which would
     read as a spurious last-population failure here — the per-record
     cert-rescued finding already covers them. *)
  let with_pop =
    List.filter
      (fun r ->
        population r >= 0 && obj_num "health" "rescue_depth" r = 0.)
      solver_records
  in
  (match with_pop with
  | [] -> ()
  | _ ->
    let max_pop =
      List.fold_left (fun acc r -> max acc (population r)) (-1) with_pop
    in
    let worst =
      List.fold_left
        (fun acc r ->
          match cert_ratio r with
          | None -> acc
          | Some (ratio, quantity, value, tol) -> (
            match acc with
            | Some (br, _, _, _, _) when br >= ratio -> acc
            | _ -> Some (ratio, quantity, value, tol, population r)))
        None with_pop
    in
    match worst with
    | Some (ratio, quantity, value, tol, n) when n = max_pop && ratio > 0. ->
      let severity =
        if ratio > 1. then Fail
        else if ratio >= near_miss_fraction then Warn
        else Info
      in
      add severity "residual-peak-at-max-population"
        (Printf.sprintf "sweep top N=%d" max_pop)
        (Printf.sprintf
           "worst certificate residual (%s = %.3e, %.0f%% of tolerance %.1e) \
            sits at the largest population — the signature of the historical \
            fig8 last-population failure (3e-05 primal residual, pre \
            drift-trigger)"
           quantity value (100. *. ratio) tol)
    | _ -> ());
  List.rev !findings

let render_findings findings =
  if findings = [] then "doctor: no findings — ledger looks healthy\n"
  else
    Export.aligned
      ([ "severity"; "code"; "where"; "detail" ]
      :: List.map
           (fun f ->
             [ severity_to_string f.severity; f.code; f.where; f.detail ])
           findings)
