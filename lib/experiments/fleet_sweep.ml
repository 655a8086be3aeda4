(* Random-model fleet sweeps: the paper's Table 1 ([mapqn table1]) and
   its fleet-scale generalization ([mapqn fleet]).

   Table 1 at its paper scale (10,000 models) and beyond-paper
   configurations (4-5 queues, populations to 1000) are bounds-only
   territory: the exact CTMC that Table 1 compares against is what
   limits that experiment to small grids, while the LP bounds themselves
   scale. This experiment shards per-model [Bounds.Sweep]s across a
   {!Mapqn_fleet} domain pool, streams one row per model to an optional
   sink (the CLI writes JSONL), and keeps the exact comparison for
   populations up to a threshold (every population, in the Table-1
   presets). *)

module Random_models = Mapqn_workloads.Random_models
module Bounds = Mapqn_core.Bounds
module Solution = Mapqn_ctmc.Solution
module Fleet = Mapqn_fleet.Fleet
module Health = Mapqn_obs.Health

type options = {
  spec : Random_models.spec;
  models : int;
  populations : int list;
  config : Mapqn_core.Constraints.config;
  seed : int;
  jobs : int;
  exact_upto : int;
}

let default_options =
  {
    spec = Random_models.default_spec;
    models = 100;
    populations = [ 1; 2; 4; 8; 16; 32; 64; 100 ];
    config = Mapqn_core.Constraints.full;
    seed = 2008;
    jobs = 1;
    exact_upto = 0;
  }

let table1_bench =
  { default_options with models = 12; populations = [ 1; 2; 4; 8 ]; exact_upto = 8 }

let table1_paper =
  {
    table1_bench with
    models = 50;
    populations = [ 1; 2; 4; 8; 16; 32 ];
    exact_upto = 32;
  }

type model_row = {
  index : int;
  id : string;
  model_seed : int;
  fingerprint : string;
  bounds : (int * Bounds.interval) list;  (* (population, R bounds) *)
  rescues : (int * Health.rescue) list;
      (* populations whose eval engaged the rescue ladder, grid order *)
  uncertified : int;  (* populations whose rescue ladder was exhausted *)
  max_err_lower : float;  (* NaN when no population had an exact solve *)
  max_err_upper : float;
  bracket_violations : int;
  duration_s : float;
}

type t = {
  options : options;
  rows : model_row list;  (* index order, evaluated models only *)
  skipped : int;
  failed : (string * exn) list;  (* (model id, error), index order *)
  wall_s : float;
  (* Relative width (upper-lower)/midpoint of the response-time bounds
     at the largest population, across models: (mean, std, median, max).
     NaN components when undefined (no rows, or singleton std). *)
  width_stats : float * float * float * float;
  (* Error stats vs exact, as Table 1, over models that had at least one
     exact population (empty when [exact_upto] excludes them all). *)
  rmax_stats : float * float * float * float;
  rmin_stats : float * float * float * float;
}

let model_id index = Printf.sprintf "model-%05d" index

let completed options path =
  let ids = Hashtbl.create options.models in
  for index = 0 to options.models - 1 do
    Hashtbl.replace ids (model_id index) ()
  done;
  List.filter (Hashtbl.mem ids) (Mapqn_obs.Progress.load_completed path)

let evaluate_model ?progress options index (model : Random_models.model) =
  let id = model_id index in
  let report f = Option.iter f progress in
  let t0 = Mapqn_obs.Span.now () in
  let sweep =
    Bounds.Sweep.create ~config:options.config (fun population ->
        Mapqn_model.Network.with_population model.Random_models.network
          population)
  in
  let max_lower = ref Float.nan and max_upper = ref Float.nan in
  let violations = ref 0 in
  let rescues = ref [] in
  let bounds =
    List.map
      (fun population ->
        report (fun p ->
            Mapqn_obs.Progress.task_phase p ~id
              (Printf.sprintf "N=%d" population));
        let b = Bounds.Sweep.step_exn sweep population in
        (* [Sweep.step] and each [Bounds.eval] begin a fresh health
           snapshot, so a prepare-time rescue (phase-1 ladder inside the
           step) must be read before the evals wipe it; the eval-time
           certificate rescue is read after. The deeper rung — the more
           drastic escalation — attributes to [population]. *)
        let step_rescue = (Health.current ()).Health.rescue in
        let r = Bounds.response_time b in
        let eval_rescue = (Health.current ()).Health.rescue in
        Option.iter
          (fun rung -> rescues := (population, rung) :: !rescues)
          (Health.deeper_rescue step_rescue eval_rescue);
        if population <= options.exact_upto then begin
          let net =
            Mapqn_model.Network.with_population model.Random_models.network
              population
          in
          let exact = Solution.system_response_time (Solution.solve net) in
          let max_nan cur v = if Float.is_nan cur then v else Float.max cur v in
          max_lower :=
            max_nan !max_lower
              (Mapqn_util.Tol.relative_error ~exact r.Bounds.lower);
          max_upper :=
            max_nan !max_upper
              (Mapqn_util.Tol.relative_error ~exact r.Bounds.upper);
          if not (Bounds.contains r exact) then incr violations
        end;
        (population, r))
      options.populations
  in
  let rescues = List.rev !rescues in
  {
    index;
    id;
    model_seed = Fleet.task_seed ~seed:options.seed index;
    fingerprint =
      Mapqn_model.Network.fingerprint model.Random_models.network;
    bounds;
    rescues;
    uncertified =
      List.length
        (List.filter (fun (_, r) -> r = Health.Uncertified) rescues);
    max_err_lower = !max_lower;
    max_err_upper = !max_upper;
    bracket_violations = !violations;
    duration_s = Mapqn_obs.Span.now () -. t0;
  }

let summary a =
  match Array.length a with
  | 0 -> (Float.nan, Float.nan, Float.nan, Float.nan)
  | 1 -> (a.(0), Float.nan, a.(0), a.(0))
  | _ -> Mapqn_util.Stats.summary a

let run ?(options = default_options) ?progress ?(skip = fun _ -> false) ?sink
    () =
  if options.populations = [] then invalid_arg "Fleet_sweep.run: no populations";
  Mapqn_obs.Ledger.set_context "experiment" (Mapqn_obs.Json.String "fleet");
  Mapqn_obs.Ledger.set_context "seed"
    (Mapqn_obs.Json.Number (float_of_int options.seed));
  let t0 = Mapqn_obs.Span.now () in
  (* Generation stays sequential on this domain even when evaluation
     fans out: one PRNG stream keeps the model set identical across
     [jobs] values, and skipping a model by id leaves the others as in a
     full run. *)
  let models =
    Array.of_list
      (Random_models.generate_many ~spec:options.spec ~seed:options.seed
         options.models)
  in
  let outcomes =
    Fleet.run_tasks ~jobs:(max 1 options.jobs) ?progress ~skip
      ~seed:options.seed ~ids:model_id ~total:(Array.length models)
      ~f:(fun index ->
        let row = evaluate_model ?progress options index models.(index) in
        (* The sink runs on the worker domain, as soon as the row exists:
           a 10,000-model run streams results instead of holding them
           hostage to the slowest worker. Sink callbacks must be
           thread-safe (the CLI serializes writes with a mutex). *)
        Option.iter (fun f -> f row) sink;
        row)
      ()
  in
  let rows =
    Array.to_list outcomes
    |> List.filter_map (function
         | Fleet.Done r -> Some r
         | Fleet.Skipped | Fleet.Failed _ -> None)
  in
  let skipped =
    Array.fold_left
      (fun acc -> function Fleet.Skipped -> acc + 1 | _ -> acc)
      0 outcomes
  in
  (* A failed model does not abort the run: at fleet scale a handful of
     numerically hard random models (a phase 1 the rescue ladder cannot
     repair, at a large population) must not cost the summary of the
     other ten thousand. Failures are reported — and, emitting no "done"
     heartbeat, retried by a resumed run. *)
  let failed =
    Array.to_list outcomes
    |> List.mapi (fun index o -> (index, o))
    |> List.filter_map (function
         | index, Fleet.Failed e -> Some (model_id index, e)
         | _ -> None)
  in
  let top_n = List.fold_left max 0 options.populations in
  let widths =
    List.filter_map
      (fun row ->
        match List.assoc_opt top_n row.bounds with
        | Some { Bounds.lower; upper }
          when Float.is_finite lower && Float.is_finite upper
               && lower +. upper > 0. ->
          Some ((upper -. lower) /. ((upper +. lower) /. 2.))
        | _ -> None)
      rows
  in
  let with_exact = List.filter (fun r -> not (Float.is_nan r.max_err_upper)) rows in
  {
    options;
    rows;
    skipped;
    failed;
    wall_s = Mapqn_obs.Span.now () -. t0;
    width_stats = summary (Array.of_list widths);
    rmax_stats = summary (Array.of_list (List.map (fun r -> r.max_err_upper) with_exact));
    rmin_stats = summary (Array.of_list (List.map (fun r -> r.max_err_lower) with_exact));
  }

(* One JSONL object per model row — what the CLI's --out sink writes.
   Bounds are a list of per-population objects so the file is
   self-describing independent of the populations grid. *)
let row_to_json row =
  let num v = Mapqn_obs.Json.Number v in
  Mapqn_obs.Json.Object
    [
      ("index", num (float_of_int row.index));
      ("model", Mapqn_obs.Json.String row.id);
      ("seed", num (float_of_int row.model_seed));
      ("fingerprint", Mapqn_obs.Json.String row.fingerprint);
      ( "bounds",
        Mapqn_obs.Json.List
          (List.map
             (fun (n, { Bounds.lower; upper }) ->
               Mapqn_obs.Json.Object
                 [
                   ("population", num (float_of_int n));
                   ("r_lower", num lower);
                   ("r_upper", num upper);
                 ])
             row.bounds) );
      ( "rescues",
        Mapqn_obs.Json.List
          (List.map
             (fun (n, rung) ->
               Mapqn_obs.Json.Object
                 [
                   ("population", num (float_of_int n));
                   ( "rescue",
                     Mapqn_obs.Json.String (Health.rescue_to_string rung) );
                   ( "rescue_depth",
                     num (float_of_int (Health.rescue_depth_of rung)) );
                 ])
             row.rescues) );
      ("uncertified", num (float_of_int row.uncertified));
      ("max_err_lower", num row.max_err_lower);
      ("max_err_upper", num row.max_err_upper);
      ("bracket_violations", num (float_of_int row.bracket_violations));
      ("duration_s", num row.duration_s);
    ]

let print t =
  let n_rows = List.length t.rows in
  Printf.printf
    "Fleet sweep: %d model(s) evaluated, %d failed (%d skipped) on %d job(s) \
     in %.1f s (%.2f models/s)\n"
    n_rows
    (List.length t.failed)
    t.skipped t.options.jobs t.wall_s
    (if t.wall_s > 0. then float_of_int n_rows /. t.wall_s else 0.);
  (match t.failed with
  | [] -> ()
  | (id, e) :: rest ->
    Printf.printf
      "first failure: %s: %s%s\n(failed models emit no checkpoint entry; \
       rerun with --resume-from to retry exactly them)\n"
      id (Printexc.to_string e)
      (match rest with
      | [] -> ""
      | _ -> Printf.sprintf " (+%d more)" (List.length rest)));
  (* Per-rung hit counts over all (model, population) evals: how often
     each rescue-ladder rung produced the accepted result. *)
  let rung_hits =
    List.fold_left
      (fun acc row ->
        List.fold_left
          (fun acc (_, rung) ->
            let d = Health.rescue_depth_of rung in
            acc.(d - 1) <- acc.(d - 1) + 1;
            acc)
          acc row.rescues)
      (Array.make 5 0) t.rows
  in
  let rescued_models =
    List.length (List.filter (fun r -> r.rescues <> []) t.rows)
  in
  if rescued_models > 0 then begin
    let cells =
      List.filteri (fun i _ -> rung_hits.(i) > 0)
        [ Health.Refined; Health.Reperturbed; Health.Cold_resolve;
          Health.Dense_oracle; Health.Uncertified ]
      |> List.map (fun rung ->
             Printf.sprintf "%s %d"
               (Health.rescue_to_string rung)
               rung_hits.(Health.rescue_depth_of rung - 1))
    in
    Printf.printf "rescue ladder: %s (%d model(s), per-population evals)\n"
      (String.concat ", " cells)
      rescued_models
  end;
  let uncertified =
    List.fold_left (fun acc r -> acc + r.uncertified) 0 t.rows
  in
  if uncertified > 0 then
    Printf.printf
      "uncertified evals: %d (their endpoints are safe bounds of unproven \
       tightness)\n"
      uncertified;
  let top_n = List.fold_left max 0 t.options.populations in
  let row label (mean, std, median, maximum) =
    [
      label;
      Mapqn_util.Table.float_cell ~decimals:3 mean;
      Mapqn_util.Table.float_cell ~decimals:3 std;
      Mapqn_util.Table.float_cell ~decimals:3 median;
      Mapqn_util.Table.float_cell ~decimals:3 maximum;
    ]
  in
  if n_rows > 0 then begin
    Mapqn_util.Table.print
      ~header:[ Printf.sprintf "rel. width @ N=%d" top_n; "mean"; "std dev"; "median"; "max" ]
      [ row "R bounds" t.width_stats ];
    let with_exact =
      List.length (List.filter (fun r -> not (Float.is_nan r.max_err_upper)) t.rows)
    in
    if with_exact > 0 then begin
      Printf.printf "vs exact (N <= %d, %d model(s)):\n" t.options.exact_upto
        with_exact;
      Mapqn_util.Table.print
        ~header:[ ""; "mean"; "std dev"; "median"; "max" ]
        [ row "Rmax" t.rmax_stats; row "Rmin" t.rmin_stats ];
      let violations =
        List.fold_left (fun acc r -> acc + r.bracket_violations) 0 t.rows
      in
      Printf.printf "bracket violations (must be 0): %d\n%!" violations
    end
  end;
  Printf.printf "%!"
