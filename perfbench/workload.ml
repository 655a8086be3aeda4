(* The benchmark workloads. Each one has a set-up (model and network
   generation from the seed, timed apart from the pass), a timed pass
   (the certified bound reports a user waits for), and the intervals the
   pass produced, which the correctness gate checks against the exact
   CTMC. One pass runs in one process (see perf.ml), so heap peaks and
   GC state never leak from one workload into another. *)

module Bounds = Mapqn_core.Bounds
module Fleet_sweep = Mapqn_experiments.Fleet_sweep
module Random_models = Mapqn_workloads.Random_models
module Tandem = Mapqn_workloads.Tandem
module Network = Mapqn_model.Network
module Solution = Mapqn_ctmc.Solution
module Span = Mapqn_obs.Span
module Health = Mapqn_obs.Health
module J = Mapqn_obs.Json

type fleet = {
  spec : Random_models.spec;
  models : int;
  populations : int list;
  sinks : bool;
      (* heartbeat, --out rows and ledger written to a scratch directory,
         as a resumable [mapqn fleet] run does *)
}

type kind =
  | Fleet of fleet  (* [Fleet_sweep.run], standard constraints, jobs = 1 *)
  | Large of int  (* one cold [Bounds.create] + report on the Fig-4 tandem *)
  | Sweep of int list  (* warm [Bounds.Sweep] over Fig-4 tandem populations *)

type t = { name : string; kind : kind }

let names = [ "table1-fleet"; "fig4-large"; "sweep-warm"; "fleet-4q" ]

(* [smoke] keeps every workload's shape at a size that runs in well
   under a second, for the build's self-test. *)
let find ~smoke name =
  let spec4 =
    { Random_models.default_spec with stations = 4; map_stations = 2 }
  in
  let kind =
    match (name, smoke) with
    | "table1-fleet", false ->
      Fleet
        { spec = Random_models.default_spec; models = 600;
          populations = [ 1; 2; 4; 8 ]; sinks = true }
    | "table1-fleet", true ->
      Fleet
        { spec = Random_models.default_spec; models = 12;
          populations = [ 1; 2; 4 ]; sinks = true }
    | "fig4-large", false -> Large 500
    | "fig4-large", true -> Large 20
    | "sweep-warm", false -> Sweep (List.init 10 (fun i -> 20 * (i + 1)))
    | "sweep-warm", true -> Sweep [ 5; 10; 15; 20 ]
    | "fleet-4q", false ->
      Fleet { spec = spec4; models = 128; populations = [ 1; 2; 4 ]; sinks = false }
    | "fleet-4q", true ->
      Fleet { spec = spec4; models = 2; populations = [ 1; 2 ]; sinks = false }
    | _ -> raise Not_found
  in
  { name; kind }

(* The 7-metric Fig-4 bound report (the one [bench/main.exe lp] prices). *)
let report =
  [
    Bounds.Utilization 0;
    Bounds.Utilization 1;
    Bounds.Throughput 0;
    Bounds.Throughput 1;
    Bounds.Mean_queue_length 0;
    Bounds.Mean_queue_length 1;
    Bounds.Response_time { reference = 0 };
  ]

let response_time_metric = List.length report - 1

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* The tandem networks by population. [Fleet_sweep.run] regenerates a
   fleet's models from the seed itself, so a fleet's set-up is timed
   but its models are not handed to the pass. *)
let setup w ~seed =
  match w.kind with
  | Fleet f ->
    ignore (Random_models.generate_many ~spec:f.spec ~seed f.models);
    []
  | Large n -> [ (n, Tandem.network ~population:n ()) ]
  | Sweep grid -> List.map (fun n -> (n, Tandem.network ~population:n ())) grid

(* Set-up takes microseconds to milliseconds, so one sample is the mean
   over a batch long enough (about 5 ms) for the clock to resolve it;
   7 samples are reported and the caller takes the median. *)
let timed_setup w ~seed =
  let t0 = Span.now () in
  let nets = setup w ~seed in
  let batch = max 1 (truncate (0.005 /. Float.max 1e-7 (Span.now () -. t0))) in
  let sample () =
    let t0 = Span.now () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (setup w ~seed))
    done;
    (Span.now () -. t0) /. float_of_int batch
  in
  (List.init 7 (fun _ -> sample ()), nets)

(* ------------------------------------------------------------------ *)
(* Timed pass                                                          *)
(* ------------------------------------------------------------------ *)

(* One bounded metric of one (model, population): [interval] is [None]
   when the solve raised. Tandem workloads use model 0. *)
type check = {
  model : int;
  population : int;
  metric : int;  (* index into [report] *)
  interval : Bounds.interval option;
  certified : bool;
}

type sink_stats = { bytes : int; records : int; sink_s : float }

type pass = {
  wall_s : float;
  results_ms : float list;
      (* gap between consecutive certified results: a fleet model's whole
         population grid, a sweep step's report, the large report *)
  checks : check list;
  error : string option;
  sinks : sink_stats option;
}

let failed_checks ~model ~populations ~metrics =
  List.concat_map
    (fun population ->
      List.map
        (fun metric -> { model; population; metric; interval = None; certified = false })
        metrics)
    populations

(* The gap clock: [tick ()] closes the gap since the previous result (or
   since the pass began). *)
let gap_clock () =
  let last = ref (Span.now ()) and gaps = ref [] in
  let tick () =
    let now = Span.now () in
    gaps := ((now -. !last) *. 1e3) :: !gaps;
    last := now
  in
  (tick, fun () -> List.rev !gaps)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let file_stats path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let lines =
    String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 contents
  in
  (String.length contents, lines)

(* Runs [f ~progress ~write] with the three sinks of a resumable fleet
   run open in [dir]; returns [f]'s result, then the bytes and records
   the sinks wrote. [write] is the --out row sink, timed under a
   "perf.sink" span. *)
let with_sinks dir ~total f =
  remove_tree dir;
  mkdir_p dir;
  let path name = Filename.concat dir name in
  let hb = open_out (path "heartbeat.jsonl") in
  let rows = open_out (path "rows.jsonl") in
  let sink_s = ref 0. in
  let write row =
    let t0 = Span.now () in
    Span.with_ "perf.sink" (fun () ->
        output_string rows (J.to_string (Fleet_sweep.row_to_json row));
        output_char rows '\n';
        flush rows);
    sink_s := !sink_s +. (Span.now () -. t0)
  in
  Mapqn_obs.Ledger.enable_exn ~path:(path "ledger.jsonl") ();
  let progress = Mapqn_obs.Progress.create ~heartbeat:hb ~quiet:true ~total "fleet" in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Mapqn_obs.Progress.close progress;
        Mapqn_obs.Ledger.disable ();
        close_out hb;
        close_out rows)
      (fun () -> f ~progress ~write)
  in
  let sizes =
    List.map (fun n -> file_stats (path n)) [ "heartbeat.jsonl"; "rows.jsonl"; "ledger.jsonl" ]
  in
  remove_tree dir;
  let bytes = List.fold_left (fun acc (b, _) -> acc + b) 0 sizes in
  let records = List.fold_left (fun acc (_, r) -> acc + r) 0 sizes in
  (result, { bytes; records; sink_s = !sink_s })

let fleet_pass f ~seed ~scratch =
  let options =
    {
      Fleet_sweep.default_options with
      spec = f.spec;
      models = f.models;
      populations = f.populations;
      config = Mapqn_core.Constraints.standard;
      seed;
      jobs = 1;
    }
  in
  let tick, gaps = gap_clock () in
  let t, sinks =
    if f.sinks then
      let t, stats =
        with_sinks scratch ~total:f.models (fun ~progress ~write ->
            Fleet_sweep.run ~options ~progress
              ~sink:(fun row ->
                write row;
                tick ())
              ())
      in
      (t, Some stats)
    else (Fleet_sweep.run ~options ~sink:(fun _ -> tick ()) (), None)
  in
  let rows = Hashtbl.create f.models in
  List.iter (fun (r : Fleet_sweep.model_row) -> Hashtbl.replace rows r.index r)
    t.Fleet_sweep.rows;
  let checks =
    List.concat
      (List.init f.models (fun model ->
           match Hashtbl.find_opt rows model with
           | None ->
             failed_checks ~model ~populations:f.populations
               ~metrics:[ response_time_metric ]
           | Some r ->
             List.map
               (fun (population, iv) ->
                 {
                   model;
                   population;
                   metric = response_time_metric;
                   interval = Some iv;
                   certified =
                     not (List.mem (population, Health.Uncertified) r.rescues);
                 })
               r.bounds))
  in
  let error =
    match t.Fleet_sweep.failed with
    | [] -> None
    | (id, e) :: _ -> Some (id ^ ": " ^ Printexc.to_string e)
  in
  (gaps (), checks, error, sinks)

let report_checks population results =
  List.mapi
    (fun metric (_, iv) ->
      { model = 0; population; metric; interval = Some iv; certified = true })
    results

let all_metrics = List.init (List.length report) Fun.id

(* Checks one pass produces when nothing fails. *)
let expected_checks w =
  match w.kind with
  | Fleet f -> f.models * List.length f.populations
  | Large _ -> List.length report
  | Sweep grid -> List.length report * List.length grid

(* Tandem passes stop at the first solver error; the populations not
   reached count as failed. [Bounds.eval] raises on an exhausted rescue
   ladder, so every returned interval carries a passing certificate. *)
let tandem_pass step nets =
  let tick, gaps = gap_clock () in
  let rec go acc = function
    | [] -> (List.concat (List.rev acc), None)
    | (n, net) :: rest -> (
      match Bounds.eval (step n net) report with
      | results ->
        tick ();
        go (report_checks n results :: acc) rest
      | exception e ->
        let lost = List.map fst ((n, net) :: rest) in
        ( List.concat
            (List.rev
               (failed_checks ~model:0 ~populations:lost ~metrics:all_metrics :: acc)),
          Some (Printf.sprintf "N=%d: %s" n (Printexc.to_string e)) ))
  in
  let checks, error = go [] nets in
  (gaps (), checks, error, None)

let run_pass w ~seed ~scratch nets =
  let t0 = Span.now () in
  let results_ms, checks, error, sinks =
    Span.with_ ("perf." ^ w.name) (fun () ->
        match w.kind with
        | Fleet f -> fleet_pass f ~seed ~scratch
        | Large _ -> tandem_pass (fun _ net -> Bounds.create_exn net) nets
        | Sweep _ ->
          let sweep =
            Bounds.Sweep.create ~warm_start:true (fun n -> List.assoc n nets)
          in
          tandem_pass (fun n _ -> Bounds.Sweep.step_exn sweep n) nets)
  in
  { wall_s = Span.now () -. t0; results_ms; checks; error; sinks }

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                     *)
(* ------------------------------------------------------------------ *)

let exact_of sol = function
  | Bounds.Utilization k -> Solution.utilization sol k
  | Bounds.Throughput k -> Solution.throughput sol k
  | Bounds.Mean_queue_length k -> Solution.mean_queue_length sol k
  | Bounds.Queue_length_moment (k, r) -> Solution.queue_length_moment sol k r
  | Bounds.Marginal_probability { station; level } ->
    (Solution.queue_length_marginal sol station).(level)
  | Bounds.Response_time { reference } -> Solution.system_response_time ~reference sol

(* [(model, population, metric) -> exact value] for every check the
   workload's passes produce: the fleets' populations stop at N = 8 and
   the tandem's state space is linear in N, so the exact CTMC is cheap
   everywhere. Untimed; runs once per benchmark run. *)
let exact_values w ~seed =
  let table = Hashtbl.create 1024 in
  (match w.kind with
  | Fleet f ->
    List.iteri
      (fun model (m : Random_models.model) ->
        List.iter
          (fun n ->
            let sol = Solution.solve (Network.with_population m.network n) in
            Hashtbl.replace table (model, n, response_time_metric)
              (Solution.system_response_time sol))
          f.populations)
      (Random_models.generate_many ~spec:f.spec ~seed f.models)
  | Large _ | Sweep _ ->
    List.iter
      (fun (n, net) ->
        let sol = Solution.solve net in
        List.iteri (fun k metric -> Hashtbl.replace table (0, n, k) (exact_of sol metric)) report)
      (setup w ~seed));
  table

(* A check fails when its solve raised, its result is uncertified, or
   the exact value is missing or lies outside the interval. *)
let check_ok exact c =
  match (c.interval, Hashtbl.find_opt exact (c.model, c.population, c.metric)) with
  | Some iv, Some v -> c.certified && Bounds.contains iv v
  | _ -> false

(* ------------------------------------------------------------------ *)
(* JSON round trip (child process -> parent)                          *)
(* ------------------------------------------------------------------ *)

let int x = J.Number (float_of_int x)

(* Bounds travel as "%h" strings: exact, and infinite endpoints survive
   (JSON numbers cannot carry them). *)
let check_to_json c =
  let lo, hi =
    match c.interval with
    | Some { Bounds.lower; upper } -> (Printf.sprintf "%h" lower, Printf.sprintf "%h" upper)
    | None -> ("nan", "nan")
  in
  J.List
    [ int c.model; int c.population; int c.metric; J.String lo; J.String hi;
      J.Bool c.certified ]

let check_of_json = function
  | J.List [ J.Number m; J.Number n; J.Number k; J.String lo; J.String hi; J.Bool c ] ->
    let lower = float_of_string lo and upper = float_of_string hi in
    {
      model = int_of_float m;
      population = int_of_float n;
      metric = int_of_float k;
      interval =
        (if Float.is_nan lower then None else Some { Bounds.lower; upper });
      certified = c;
    }
  | _ -> failwith "malformed check"
