(* Repeatable performance benchmark of the MAP-QN bound solver.

   Usage:
     perf.exe run --workload W --seed S --seconds T --trace 0|1
     perf.exe suite [--seed S] [--reps K] [--trace] [--out FILE]
     perf.exe compare BENCHMARK.json BASE CAND
     perf.exe smoke BENCHMARK.json
     perf.exe rep --workload W --seed S [--traced] [--smoke]

   [run] measures one workload for about T seconds and prints, as its
   last line, one JSON object: [correct], [attempted], [failed] and the
   end-to-end metrics (trace 0) or the per-layer metrics (trace 1), each
   the median over the run's passes. [suite] runs every workload K
   times, round-robin, and writes median/min/max/samples per metric with
   the git SHA and core count. [compare] is the spread-aware gate over
   two suite outputs (see gate.ml). [smoke] is the build's self-test.

   Every pass runs in a fresh child process ([rep]), one at a time, on
   one domain. After the timed passes the parent checks, untimed, that
   every reported interval is certified and contains the exact CTMC
   value; a violation makes the run fail. *)

module J = Mapqn_obs.Json
module Span = Mapqn_obs.Span
module Prof = Mapqn_obs.Prof

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* End-to-end metrics, measured on untraced passes: one sample per
   pass, reported as the median. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("create_s", "s");
    ("eval_s", "s");
    ("result_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Reported by [suite] but not gated: a tail percentile means something
   only where at least ten results lie beyond it, which among the
   workloads holds for table1-fleet's 600 models alone. *)
let tail = ("result_p95_ms", "ms")

(* ------------------------------------------------------------------ *)
(* Child process: one pass                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), falling back to the OCaml
   major heap's peak where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let rep (w : Workload.t) ~seed ~traced =
  let setup_s, nets = Workload.timed_setup w ~seed in
  let scratch =
    Filename.concat ".bench_build" (Printf.sprintf "tmp/perf-%d" (Unix.getpid ()))
  in
  let counters0 = Layers.read_counters () in
  let spans0 = Span.snapshot () in
  let gc0 = Layers.gc_now () in
  if traced then Prof.enable ();
  let pass = Workload.run_pass w ~seed ~scratch nets in
  if traced then Prof.disable ();
  let gc1 = Layers.gc_now () in
  let entries = Prof.diff ~baseline:spans0 (Span.snapshot ()) in
  let layers =
    if not traced then J.Null
    else
      let obs =
        match pass.Workload.sinks with
        | Some s -> (float_of_int s.bytes, float_of_int s.records, s.sink_s)
        | None -> (0., 0., 0.)
      in
      J.Object
        (List.map
           (fun (k, v) -> (k, J.Number v))
           (Layers.compute ~root:("perf." ^ w.name) ~entries ~counters0 ~gc0 ~gc1 ~obs))
  in
  let nums l = J.List (List.map (fun x -> J.Number x) l) in
  print_endline
    (J.to_string
       (J.Object
          [
            ("workload", J.String w.name);
            ("traced", J.Bool traced);
            ("setup_s", nums setup_s);
            ("wall_s", J.Number pass.wall_s);
            ("create_s", J.Number (Layers.create_s entries));
            ("eval_s", J.Number (Layers.eval_s entries));
            ("results_ms", nums pass.results_ms);
            ("peak_rss_mb", J.Number (peak_rss_mb ()));
            ("error", match pass.error with Some e -> J.String e | None -> J.Null);
            ("checks", J.List (List.map Workload.check_to_json pass.checks));
            ("layers", layers);
          ]))

(* ------------------------------------------------------------------ *)
(* Parent: spawn passes, aggregate, check                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  traced : bool;
  elapsed : float;  (* the child process, set-up included *)
  setup_s : float list;
  wall_s : float;
  create_s : float;
  eval_s : float;
  results_ms : float list;
  peak_rss_mb : float;
  checks : Workload.check list;
  error : string option;
  layers : (string * float) list;
}

let floats = function
  | Some (J.List l) -> List.filter_map J.get_float l
  | _ -> []

let decode ~traced ~elapsed doc =
  let f k = Option.value ~default:Float.nan (Option.bind (J.member k doc) J.get_float) in
  {
    traced;
    elapsed;
    setup_s = floats (J.member "setup_s" doc);
    wall_s = f "wall_s";
    create_s = f "create_s";
    eval_s = f "eval_s";
    results_ms = floats (J.member "results_ms" doc);
    peak_rss_mb = f "peak_rss_mb";
    checks =
      (match J.member "checks" doc with
      | Some (J.List l) -> List.map Workload.check_of_json l
      | _ -> []);
    error = Option.bind (J.member "error" doc) J.get_string;
    layers =
      (match J.member "layers" doc with
      | Some (J.Object kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (J.get_float v)) kvs
      | _ -> []);
  }

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* One pass in a fresh process. A child that dies or prints garbage is
   an [Error]: the parent counts all its checks as failed. *)
let spawn ~smoke ~seed ~traced (w : Workload.t) =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; w.name; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let t0 = Span.now () in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let elapsed = Span.now () -. t0 in
  match status with
  | Unix.WEXITED 0 -> (
    match J.parse (last_line out) with
    | Ok doc -> (
      try Ok (decode ~traced ~elapsed doc)
      with Failure msg -> Error (Printf.sprintf "%s: bad pass record: %s" w.name msg))
    | Error msg -> Error (Printf.sprintf "%s: bad pass record: %s" w.name msg))
  | Unix.WEXITED c -> Error (Printf.sprintf "%s: pass exited with code %d" w.name c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Error (Printf.sprintf "%s: pass killed by signal %d" w.name s)

type summary = {
  workload : string;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * string * float list) list;  (* name, unit, samples *)
  layers : (string * string * float list) list;
}

let summarize (w : Workload.t) ~seed passes =
  let exact = Workload.exact_values w ~seed in
  let expected = Workload.expected_checks w in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  List.iter
    (function
      | Error msg ->
        attempted := !attempted + expected;
        failed := !failed + expected;
        errors := msg :: !errors
      | Ok p ->
        Option.iter (fun e -> errors := (w.name ^ ": " ^ e) :: !errors) p.error;
        let bad = List.filter (fun c -> not (Workload.check_ok exact c)) p.checks in
        (* A pass that lost checks without raising is as wrong as one
           that reported them violated. *)
        let missing = max 0 (expected - List.length p.checks) in
        attempted := !attempted + List.length p.checks + missing;
        failed := !failed + List.length bad + missing)
    passes;
  let ok = List.filter_map Result.to_option passes in
  let untraced = List.filter (fun p -> not p.traced) ok in
  let traced = List.filter (fun p -> p.traced) ok in
  let sample p = function
    | "setup_s" -> Stats.median p.setup_s
    | "wall_s" -> p.wall_s
    | "create_s" -> p.create_s
    | "eval_s" -> p.eval_s
    | "result_p50_ms" -> Stats.median p.results_ms
    | "result_p95_ms" -> Stats.percentile 0.95 p.results_ms
    | "peak_rss_mb" -> p.peak_rss_mb
    | name -> invalid_arg name
  in
  let metrics =
    List.map (fun (name, unit) -> (name, unit, List.map (fun p -> sample p name) untraced))
      (end_to_end @ [ tail ])
  in
  let untraced_wall = Stats.median (List.map (fun p -> p.wall_s) untraced) in
  let layer p = function
    | "trace.overhead" -> p.wall_s /. untraced_wall
    | name -> Option.value ~default:Float.nan (List.assoc_opt name p.layers)
  in
  let layers =
    List.map (fun (name, unit) -> (name, unit, List.map (fun p -> layer p name) traced))
      Layers.units
  in
  { workload = w.name; attempted = !attempted; failed = !failed;
    errors = List.rev !errors; metrics; layers }

let correct s = s.failed = 0 && s.errors = [] && s.attempted > 0

let report_errors s =
  List.iter (fun e -> Printf.eprintf "perf: %s\n" e) s.errors;
  if s.failed > 0 then
    Printf.eprintf "perf: %s: %d of %d bound checks failed\n" s.workload s.failed
      s.attempted

let find_workload ~smoke name =
  try Workload.find ~smoke name
  with Not_found ->
    die "unknown workload %S (expected one of: %s)" name
      (String.concat ", " Workload.names)

(* ------------------------------------------------------------------ *)
(* run: one workload for a fixed time                                   *)
(* ------------------------------------------------------------------ *)

let max_passes = 64

(* Passes run back to back until the next one (estimated by the median
   pass so far) would end past [seconds]; at least one. With [trace],
   untraced and traced passes alternate, at least one of each, so
   [trace.overhead] compares passes of the same run. *)
let run_workload (w : Workload.t) ~seed ~seconds ~trace ~smoke =
  let t0 = Span.now () in
  let rec loop acc =
    let ok = List.filter_map Result.to_option acc in
    let n_traced = List.length (List.filter (fun p -> p.traced) ok) in
    let n_untraced = List.length ok - n_traced in
    let estimate = Stats.median (List.map (fun p -> p.elapsed) ok) in
    let fits =
      Span.now () -. t0 +. estimate <= seconds && List.length acc < max_passes
    in
    let next traced = loop (spawn ~smoke ~seed ~traced w :: acc) in
    if List.exists Result.is_error acc then List.rev acc
    else if n_untraced = 0 then next false
    else if trace && n_traced = 0 then next true
    else if fits then next (trace && n_traced < n_untraced)
    else List.rev acc
  in
  loop []

let contract_line s ~trace =
  let metrics =
    if trace then s.layers
    else List.filter (fun (name, _, _) -> List.mem_assoc name end_to_end) s.metrics
  in
  J.Object
    [
      ("correct", J.Bool (correct s));
      ("attempted", J.Number (float_of_int s.attempted));
      ("failed", J.Number (float_of_int s.failed));
      ( "metrics",
        J.Object
          (List.map
             (fun (name, unit, samples) ->
               ( name,
                 J.Object [ ("value", J.Number (Stats.median samples)); ("unit", J.String unit) ] ))
             metrics) );
    ]

let cmd_run ~workload ~seed ~seconds ~trace =
  let w = find_workload ~smoke:false workload in
  let passes = run_workload w ~seed ~seconds ~trace ~smoke:false in
  let s = summarize w ~seed passes in
  let ok = List.filter_map Result.to_option passes in
  Printf.printf "perf: %s seed %d: %d pass(es) (%d traced), %d checks, %d failed\n"
    w.name seed (List.length passes)
    (List.length (List.filter (fun p -> p.traced) ok))
    s.attempted s.failed;
  report_errors s;
  print_endline (J.to_string (contract_line s ~trace));
  if not (correct s) then exit 1

(* ------------------------------------------------------------------ *)
(* suite: every workload, K reps, round-robin                           *)
(* ------------------------------------------------------------------ *)

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let sha = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when sha <> "" -> sha
    | _ -> "unknown"
  with _ -> "unknown"

let stat_json unit samples =
  J.Object
    [
      ("median", J.Number (Stats.median samples));
      ("min", J.Number (Stats.minimum samples));
      ("max", J.Number (Stats.maximum samples));
      ("n", J.Number (float_of_int (List.length samples)));
      ("unit", J.String unit);
      ("samples", J.List (List.map (fun x -> J.Number x) samples));
    ]

let summary_json s =
  let block l = J.Object (List.map (fun (n, u, xs) -> (n, stat_json u xs)) l) in
  J.Object
    [
      ("attempted", J.Number (float_of_int s.attempted));
      ("failed", J.Number (float_of_int s.failed));
      ( "failed_frac",
        J.Number (if s.attempted = 0 then 1. else float_of_int s.failed /. float_of_int s.attempted) );
      ("metrics", block s.metrics);
      ("layers", block (if List.for_all (fun (_, _, xs) -> xs = []) s.layers then [] else s.layers));
    ]

let suite ?(verbose = true) ~seed ~reps ~trace ~smoke () =
  let ws = List.map (find_workload ~smoke) Workload.names in
  (* Round-robin: slow drift of the machine spreads over every workload
     instead of landing on one. *)
  let passes = Hashtbl.create 8 in
  for r = 1 to reps do
    List.iter
      (fun (w : Workload.t) ->
        let run traced =
          let p = spawn ~smoke ~seed ~traced w in
          Hashtbl.replace passes w.name
            (p :: Option.value ~default:[] (Hashtbl.find_opt passes w.name));
          match p with
          | Ok p when verbose ->
            Printf.eprintf "perf: rep %d/%d %s%s: %.2f s\n%!" r reps w.name
              (if traced then " (traced)" else "") p.wall_s
          | Ok _ -> ()
          | Error msg -> Printf.eprintf "perf: rep %d/%d: %s\n%!" r reps msg
        in
        run false;
        if trace then run true)
      ws
  done;
  List.map
    (fun (w : Workload.t) -> summarize w ~seed (List.rev (Hashtbl.find passes w.name)))
    ws

let cmd_suite ~seed ~reps ~trace ~out =
  if reps < 1 then die "--reps must be at least 1";
  let summaries = suite ~seed ~reps ~trace ~smoke:false () in
  let doc =
    J.Object
      [
        ("benchmark", J.String "mapqn-perf");
        ("git_sha", J.String (git_sha ()));
        ("nproc", J.Number (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", J.String Sys.ocaml_version);
        ("seed", J.Number (float_of_int seed));
        ("reps", J.Number (float_of_int reps));
        ("workloads", J.Object (List.map (fun s -> (s.workload, summary_json s)) summaries));
      ]
  in
  let body = J.to_string doc ^ "\n" in
  (match out with
  | None -> print_string body
  | Some path -> (
    try Mapqn_obs.Export.write_file path body
    with Sys_error msg -> die "cannot write %s: %s" path msg));
  List.iter report_errors summaries;
  if not (List.for_all correct summaries) then exit 1

(* ------------------------------------------------------------------ *)
(* smoke: the build's self-test                                         *)
(* ------------------------------------------------------------------ *)

(* Runs the suite at smoke sizes (untraced and traced), checks that
   every metric BENCHMARK.json names is reported with its unit on every
   workload, that [run] prints a well-formed result line, and that the
   gate calls a self-comparison unchanged throughout. *)
let cmd_smoke bench =
  let spec = Gate.read_json bench in
  let names key =
    match J.member key spec with
    | Some (J.List l) ->
      List.filter_map
        (fun m ->
          match (Option.bind (J.member "name" m) J.get_string, Option.bind (J.member "unit" m) J.get_string) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l
    | _ -> die "%s has no %s list" bench key
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect_units what declared reported =
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n reported with
        | Some u' when u = u' -> ()
        | Some u' -> problem "%s: %s reported in %s, declared %s" what n u' u
        | None -> problem "%s: %s not reported" what n)
      declared
  in
  let e2e = names "end_to_end" and per_layer = names "per_layer" in
  let unit_of (n, u, _) = (n, u) in
  let summaries = suite ~verbose:false ~seed:2008 ~reps:2 ~trace:true ~smoke:true () in
  List.iter
    (fun s ->
      if not (correct s) then problem "%s: correctness gate failed" s.workload;
      expect_units s.workload e2e (List.map unit_of s.metrics);
      expect_units s.workload per_layer (List.map unit_of s.layers))
    summaries;
  let w = find_workload ~smoke:true "fig4-large" in
  List.iter
    (fun trace ->
      let s = summarize w ~seed:2008 (run_workload w ~seed:2008 ~seconds:0.1 ~trace ~smoke:true) in
      match J.parse (J.to_string (contract_line s ~trace)) with
      | Ok line ->
        let reported =
          match J.member "metrics" line with
          | Some (J.Object kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun u -> (k, u)) (Option.bind (J.member "unit" v) J.get_string))
              kvs
          | _ -> []
        in
        let declared = if trace then per_layer else e2e in
        expect_units "run" declared reported;
        List.iter
          (fun (n, _) ->
            if not (List.mem_assoc n declared) then problem "run: %s reported but not declared" n)
          reported
      | Error msg -> problem "run: result line does not parse: %s" msg)
    [ false; true ];
  let doc =
    J.Object
      [ ("workloads", J.Object (List.map (fun s -> (s.workload, summary_json s)) summaries)) ]
  in
  List.iter
    (fun (r : Gate.row) ->
      if r.verdict <> Gate.Unchanged then
        problem "self-compare: %s %s is %s" r.workload r.metric (Gate.verdict_to_string r.verdict))
    (Gate.compare ~spec ~base:doc ~cand:doc);
  match List.rev !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) ps;
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  die
    "usage: perf.exe (run --workload W --seed S --seconds T --trace 0|1 | suite \
     [--seed S] [--reps K] [--trace] [--out FILE] | compare BENCHMARK.json BASE \
     CAND | smoke BENCHMARK.json | rep --workload W --seed S [--traced] [--smoke])"

(* "--key value" options and bare "--flag"s, in any order. *)
let parse_opts args ~flags =
  let rec go opts = function
    | [] -> opts
    | f :: rest when List.mem f flags -> go ((f, "") :: opts) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((k, v) :: opts) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let required opts k =
    match List.assoc_opt k opts with Some v -> v | None -> die "%s is required" k
  in
  let int_of k v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" k v
  in
  let int_opt opts k default = Option.fold ~none:default ~some:(int_of k) (List.assoc_opt k opts) in
  let int_req opts k = int_of k (required opts k) in
  match args with
  | "rep" :: rest ->
    let opts = parse_opts rest ~flags:[ "--traced"; "--smoke" ] in
    let smoke = List.mem_assoc "--smoke" opts in
    rep
      (find_workload ~smoke (required opts "--workload"))
      ~seed:(int_opt opts "--seed" 2008)
      ~traced:(List.mem_assoc "--traced" opts)
  | "run" :: rest ->
    let opts = parse_opts rest ~flags:[] in
    let seconds =
      match float_of_string_opt (required opts "--seconds") with
      | Some s when s > 0. -> s
      | _ -> die "--seconds expects a positive number"
    in
    let trace =
      match List.assoc_opt "--trace" opts with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some v -> die "--trace expects 0 or 1, got %S" v
    in
    cmd_run ~workload:(required opts "--workload") ~seed:(int_req opts "--seed") ~seconds
      ~trace
  | "suite" :: rest ->
    let opts = parse_opts rest ~flags:[ "--trace" ] in
    cmd_suite ~seed:(int_opt opts "--seed" 2008) ~reps:(int_opt opts "--reps" 3)
      ~trace:(List.mem_assoc "--trace" opts) ~out:(List.assoc_opt "--out" opts)
  | [ "compare"; bench; base; cand ] -> exit (Gate.main ~bench ~base ~cand)
  | [ "smoke"; bench ] -> cmd_smoke bench
  | _ -> usage ()
