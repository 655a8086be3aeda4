open Mapqn_obs

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Metrics registry ---------------- *)

let value_of ?registry ?(labels = []) name =
  let labels = List.sort compare labels in
  match
    List.find_opt
      (fun s -> s.Metrics.labels = labels)
      (Metrics.find ?registry name)
  with
  | Some { Metrics.value = Metrics.Counter v; _ }
  | Some { Metrics.value = Metrics.Gauge v; _ } ->
    v
  | Some { Metrics.value = Metrics.Histogram _; _ } ->
    Alcotest.fail (name ^ ": histogram, expected scalar")
  | None -> Alcotest.fail (name ^ ": not found")

let test_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "events_total" in
  Metrics.inc c;
  Metrics.inc ~by:2.5 c;
  check_float "accumulated" 3.5 (value_of ~registry:r "events_total");
  (* Same identity: the registration is shared, not duplicated. *)
  let c' = Metrics.counter ~registry:r "events_total" in
  Metrics.inc c';
  check_float "shared identity" 4.5 (value_of ~registry:r "events_total");
  Alcotest.(check int) "one sample" 1 (List.length (Metrics.find ~registry:r "events_total"));
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.inc: negative increment") (fun () ->
      Metrics.inc ~by:(-1.) c)

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "depth" in
  Metrics.set g 7.;
  Metrics.add g (-2.);
  check_float "set+add" 5. (value_of ~registry:r "depth");
  Metrics.set_max g 3.;
  check_float "set_max keeps larger" 5. (value_of ~registry:r "depth");
  Metrics.set_max g 9.;
  check_float "set_max raises" 9. (value_of ~registry:r "depth")

let test_labels () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r ~labels:[ ("station", "0") ] "visits_total" in
  let b = Metrics.counter ~registry:r ~labels:[ ("station", "1") ] "visits_total" in
  Metrics.inc a;
  Metrics.inc b;
  Metrics.inc b;
  check_float "station 0" 1.
    (value_of ~registry:r ~labels:[ ("station", "0") ] "visits_total");
  check_float "station 1" 2.
    (value_of ~registry:r ~labels:[ ("station", "1") ] "visits_total");
  Alcotest.(check int) "two samples" 2
    (List.length (Metrics.find ~registry:r "visits_total"))

let test_kind_mismatch () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "x_total");
  (try
     ignore (Metrics.gauge ~registry:r "x_total");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_histogram_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 10. |] "h" in
  (* le semantics: a value equal to a bound lands in that bound's bucket. *)
  Metrics.observe h 1.;
  Metrics.observe h 0.5;
  Metrics.observe h 10.;
  Metrics.observe h 10.0001;
  match Metrics.find ~registry:r "h" with
  | [ { Metrics.value = Metrics.Histogram d; _ } ] ->
    Alcotest.(check int) "count" 4 d.Metrics.count;
    check_float "sum" 21.5001 d.Metrics.sum;
    Alcotest.(check int) "buckets incl overflow" 3 (Array.length d.Metrics.buckets);
    let bound i = fst d.Metrics.buckets.(i) and n i = snd d.Metrics.buckets.(i) in
    check_float "bound 0" 1. (bound 0);
    (* Bucket counts are cumulative (Prometheus le semantics). *)
    Alcotest.(check int) "le 1" 2 (n 0);
    Alcotest.(check int) "le 10" 3 (n 1);
    Alcotest.(check bool) "overflow bound" true (fst d.Metrics.buckets.(2) = infinity);
    Alcotest.(check int) "overflow count = total" 4 (n 2)
  | _ -> Alcotest.fail "expected exactly one histogram sample"

let test_reset_in_place () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "n_total" in
  Metrics.inc ~by:5. c;
  Metrics.reset ~registry:r ();
  check_float "zeroed" 0. (value_of ~registry:r "n_total");
  (* The old handle still points at the registered cell. *)
  Metrics.inc c;
  check_float "handle survives reset" 1. (value_of ~registry:r "n_total")

(* ---------------- Spans ---------------- *)

(* A deterministic clock: every call advances time by 1 second, so a
   span's duration equals the number of clock reads (its own two plus
   two per nested span). *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

let test_span_nesting () =
  let c = Span.create ~clock:(ticking_clock ()) () in
  let result =
    Span.with_ ~collector:c "outer" (fun () ->
        Span.with_ ~collector:c "inner" (fun () -> ());
        Span.with_ ~collector:c "inner" (fun () -> ());
        42)
  in
  Alcotest.(check int) "return value" 42 result;
  let entries = Span.snapshot ~collector:c () in
  Alcotest.(check int) "two paths" 2 (List.length entries);
  let find path = List.find (fun e -> e.Span.path = path) entries in
  let outer = find [ "outer" ] and inner = find [ "outer"; "inner" ] in
  Alcotest.(check int) "outer count" 1 outer.Span.count;
  Alcotest.(check int) "inner aggregated" 2 inner.Span.count;
  (* Clock reads: outer start(0) | inner 1-2 | inner 3-4 | outer end(5). *)
  check_float "outer total" 5. outer.Span.total;
  check_float "inner total" 2. inner.Span.total;
  check_float "inner max" 1. inner.Span.max_;
  check_float "total lookup" 2.
    (Option.get (Span.total ~collector:c [ "outer"; "inner" ]))

let test_span_exception_safe () =
  let c = Span.create ~clock:(ticking_clock ()) () in
  (try Span.with_ ~collector:c "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  (* The failed span is closed: a new span is a root, not a child. *)
  Span.with_ ~collector:c "after" (fun () -> ());
  let paths = List.map (fun e -> e.Span.path) (Span.snapshot ~collector:c ()) in
  Alcotest.(check bool) "boom recorded" true (List.mem [ "boom" ] paths);
  Alcotest.(check bool) "after is a root" true (List.mem [ "after" ] paths)

let test_span_bad_name () =
  let c = Span.create () in
  try
    Span.with_ ~collector:c "a/b" (fun () -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------------- Exporters ---------------- *)

(* A small fixed snapshot so renders are golden-testable. *)
let golden_metrics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"Pivots." "pivots_total" in
  Metrics.inc ~by:12. c;
  let g = Metrics.gauge ~registry:r ~labels:[ ("method", "gth") ] "residual" in
  Metrics.set g 0.5;
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 2. |] "steps" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  Metrics.snapshot ~registry:r ()

let golden_spans () =
  let c = Span.create ~clock:(ticking_clock ()) () in
  Span.with_ ~collector:c "solve" (fun () ->
      Span.with_ ~collector:c "lp" (fun () -> ()));
  Span.snapshot ~collector:c ()

let test_export_json () =
  let s =
    Export.json ~metrics:(golden_metrics ()) ~spans:(golden_spans ())
  in
  Alcotest.(check string) "json document"
    ("{\"metrics\":[{\"name\":\"pivots_total\",\"labels\":{},\"type\":\"counter\",\"value\":12},"
   ^ "{\"name\":\"residual\",\"labels\":{\"method\":\"gth\"},\"type\":\"gauge\",\"value\":0.5},"
   ^ "{\"name\":\"steps\",\"labels\":{},\"type\":\"histogram\",\"count\":2,\"sum\":5.5,"
   ^ "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":1},{\"le\":\"+Inf\",\"count\":2}]}],"
   ^ "\"spans\":[{\"path\":\"solve\",\"count\":1,\"total_seconds\":3,\"max_seconds\":3},"
   ^ "{\"path\":\"solve/lp\",\"count\":1,\"total_seconds\":1,\"max_seconds\":1}]}\n")
    s;
  (* jsonl: one object per line, kind-tagged. *)
  let lines =
    String.split_on_char '\n'
      (String.trim
         (Export.json_lines ~metrics:(golden_metrics ()) ~spans:(golden_spans ())))
  in
  Alcotest.(check int) "jsonl line count" 5 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "tagged" true
        (String.length l > 9
        && (String.sub l 0 9 = "{\"kind\":\"")))
    lines

let test_export_prometheus () =
  let s =
    Export.prometheus ~metrics:(golden_metrics ()) ~spans:(golden_spans ())
  in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    Alcotest.(check bool) ("contains " ^ sub) true (go 0)
  in
  has "# TYPE mapqn_pivots_total counter";
  has "mapqn_pivots_total 12";
  has "mapqn_residual{method=\"gth\"} 0.5";
  (* Cumulative le buckets, +Inf equal to _count. *)
  has "mapqn_steps_bucket{le=\"1\"} 1";
  has "mapqn_steps_bucket{le=\"+Inf\"} 2";
  has "mapqn_steps_count 2";
  has "mapqn_span_duration_seconds_total{path=\"solve/lp\"} 1"

let test_export_table () =
  let s = Export.table ~metrics:(golden_metrics ()) ~spans:(golden_spans ()) in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "mentions pivots" true
    (List.exists
       (fun l -> String.length l >= 12 && String.sub l 0 12 = "pivots_total")
       lines)

let test_format_of_string () =
  Alcotest.(check bool) "json" true (Export.format_of_string "json" = Ok Export.Json);
  Alcotest.(check bool) "jsonl" true
    (Export.format_of_string "jsonl" = Ok Export.Json_lines);
  (match Export.format_of_string "xml" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "xml should be rejected");
  Alcotest.(check int) "four formats" 4 (List.length Export.format_names)

(* ---------------- Exporter round-trips ---------------- *)

(* The machine formats must parse back to the same values: JSON and
   JSONL via the Json module, Prometheus via a minimal line scanner. *)

let json_get path doc =
  let rec go doc = function
    | [] -> doc
    | key :: rest -> (
      match Json.member key doc with
      | Some v -> go v rest
      | None -> Alcotest.fail ("missing JSON member " ^ key))
  in
  go doc path

let metric_named name ms =
  match
    List.find_opt
      (fun m -> Json.member "name" m = Some (Json.String name))
      ms
  with
  | Some m -> m
  | None -> Alcotest.fail ("metric not in export: " ^ name)

let check_golden_metric_objects ms =
  let counter = metric_named "pivots_total" ms in
  check_float "counter value" 12.
    (Option.get (Json.get_float (json_get [ "value" ] counter)));
  let gauge = metric_named "residual" ms in
  check_float "gauge value" 0.5
    (Option.get (Json.get_float (json_get [ "value" ] gauge)));
  Alcotest.(check (option string)) "gauge label" (Some "gth")
    (Json.get_string (json_get [ "labels"; "method" ] gauge));
  let histo = metric_named "steps" ms in
  Alcotest.(check (option int)) "histogram count" (Some 2)
    (Json.get_int (json_get [ "count" ] histo));
  check_float "histogram sum" 5.5
    (Option.get (Json.get_float (json_get [ "sum" ] histo)));
  match Json.get_list (json_get [ "buckets" ] histo) with
  | Some [ b1; b2; binf ] ->
    Alcotest.(check (option int)) "le 1 cumulative" (Some 1)
      (Json.get_int (json_get [ "count" ] b1));
    Alcotest.(check (option int)) "le 2 cumulative" (Some 1)
      (Json.get_int (json_get [ "count" ] b2));
    Alcotest.(check (option string)) "+Inf bound is a string" (Some "+Inf")
      (Json.get_string (json_get [ "le" ] binf));
    Alcotest.(check (option int)) "+Inf equals total" (Some 2)
      (Json.get_int (json_get [ "count" ] binf))
  | _ -> Alcotest.fail "expected three histogram buckets"

let test_roundtrip_json () =
  let doc =
    Json.parse_exn
      (Export.json ~metrics:(golden_metrics ()) ~spans:(golden_spans ()))
  in
  check_golden_metric_objects
    (Option.get (Json.get_list (json_get [ "metrics" ] doc)));
  match Json.get_list (json_get [ "spans" ] doc) with
  | Some (root :: _) ->
    check_float "span total" 3.
      (Option.get (Json.get_float (json_get [ "total_seconds" ] root)))
  | _ -> Alcotest.fail "expected spans in export"

let test_roundtrip_jsonl () =
  let lines =
    String.split_on_char '\n'
      (String.trim
         (Export.json_lines ~metrics:(golden_metrics ())
            ~spans:(golden_spans ())))
  in
  let docs = List.map Json.parse_exn lines in
  let ms =
    List.filter_map
      (fun d ->
        if Json.member "kind" d = Some (Json.String "metric") then
          Some (json_get [ "metric" ] d)
        else None)
      docs
  in
  check_golden_metric_objects ms;
  Alcotest.(check int) "two span lines" 2
    (List.length
       (List.filter
          (fun d -> Json.member "kind" d = Some (Json.String "span"))
          docs))

let test_roundtrip_prometheus () =
  let text =
    Export.prometheus ~metrics:(golden_metrics ()) ~spans:(golden_spans ())
  in
  let value_of_line prefix =
    let matching =
      List.filter
        (fun l ->
          String.length l > String.length prefix
          && String.sub l 0 (String.length prefix) = prefix)
        (String.split_on_char '\n' text)
    in
    match matching with
    | [ line ] ->
      let i = String.rindex line ' ' in
      float_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | _ -> Alcotest.fail ("expected exactly one line starting with " ^ prefix)
  in
  check_float "counter" 12. (value_of_line "mapqn_pivots_total ");
  check_float "labeled gauge" 0.5 (value_of_line "mapqn_residual{method=\"gth\"}");
  check_float "sum" 5.5 (value_of_line "mapqn_steps_sum");
  let count = value_of_line "mapqn_steps_count" in
  check_float "count" 2. count;
  let b1 = value_of_line "mapqn_steps_bucket{le=\"1\"}" in
  let b2 = value_of_line "mapqn_steps_bucket{le=\"2\"}" in
  let binf = value_of_line "mapqn_steps_bucket{le=\"+Inf\"}" in
  Alcotest.(check bool) "buckets monotone" true (b1 <= b2 && b2 <= binf);
  check_float "+Inf bucket equals count" count binf

(* ---------------- Trace ring buffer and sinks ---------------- *)

let mark i = Trace.Mark { name = "m"; detail = string_of_int i }

let test_trace_ring () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit t (mark i)
  done;
  Alcotest.(check int) "emitted" 10 (Trace.emitted t);
  Alcotest.(check int) "retained" 4 (Trace.retained t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let details =
    List.map
      (fun (_, e) ->
        match e with Trace.Mark m -> m.detail | _ -> Alcotest.fail "kind")
      (Trace.events t)
  in
  (* Lossy by overwriting the oldest: the last [capacity] events survive,
     oldest first. *)
  Alcotest.(check (list string)) "newest survive, oldest first"
    [ "7"; "8"; "9"; "10" ] details;
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.emitted t);
  Alcotest.(check int) "cleared retained" 0 (Trace.retained t)

let test_trace_monotonic_timestamps () =
  (* A clock that steps backwards: emission must clamp. *)
  let ticks = ref [ 5.; 3.; 9.; 1.; 2. ] in
  let clock () =
    match !ticks with
    | t :: rest ->
      ticks := rest;
      t
    | [] -> 100.
  in
  let t = Trace.create ~clock () in
  for i = 1 to 5 do
    Trace.emit t (mark i)
  done;
  let ts = List.map fst (Trace.events t) in
  Alcotest.(check (list (float 0.))) "clamped non-decreasing"
    [ 5.; 5.; 9.; 9.; 9. ] ts

let test_trace_global () =
  Alcotest.(check bool) "disabled by default" false (Trace.is_enabled ());
  Trace.record (mark 0) (* no-op, must not raise *);
  Trace.enable ~capacity:16 ();
  Alcotest.(check bool) "enabled" true (Trace.is_enabled ());
  Trace.record (mark 1);
  (match Trace.current () with
  | Some t -> Alcotest.(check int) "recorded" 1 (Trace.emitted t)
  | None -> Alcotest.fail "no global trace while enabled");
  Trace.disable ();
  Alcotest.(check bool) "disabled again" false (Trace.is_enabled ());
  Alcotest.(check bool) "trace dropped" true (Trace.current () = None)

let sample_trace () =
  let clock =
    let t = ref 0. in
    fun () ->
      t := !t +. 0.001;
      !t
  in
  let t = Trace.create ~clock () in
  Trace.emit t
    (Trace.Pivot
       {
         solver = "revised";
         iteration = 1;
         entering = 7;
         leaving = 3;
         step = 0.25;
         objective = 41.5;
         degenerate = false;
       });
  Trace.emit t (Trace.Refactor { solver = "revised"; eta_nnz = 120 });
  Trace.emit t
    (Trace.Sweep { solver = "stationary.power"; iteration = 2; delta = 1e-9 });
  Trace.emit t (Trace.Batch { events = 8192; sim_time = 12.5; heap_size = 3 });
  Trace.emit t
    (Trace.Certificate
       {
         label = "min";
         primal_residual = 1e-12;
         gap = 1e-3;
         accepted = true;
       });
  t

let test_trace_jsonl_sink () =
  let lines =
    String.split_on_char '\n'
      (String.trim (Trace.render Trace.Jsonl (sample_trace ())))
  in
  Alcotest.(check int) "one line per event" 5 (List.length lines);
  let docs = List.map Json.parse_exn lines in
  let pivot = List.hd docs in
  Alcotest.(check (option string)) "event tag" (Some "pivot")
    (Json.get_string (json_get [ "event" ] pivot));
  Alcotest.(check (option int)) "entering" (Some 7)
    (Json.get_int (json_get [ "entering" ] pivot));
  check_float "objective" 41.5
    (Option.get (Json.get_float (json_get [ "objective" ] pivot)));
  (* Timestamps survive the round-trip in order. *)
  let ts =
    List.map (fun d -> Option.get (Json.get_float (json_get [ "ts" ] d))) docs
  in
  Alcotest.(check bool) "timestamps sorted" true (List.sort compare ts = ts)

let test_trace_chrome_sink () =
  let doc = Json.parse_exn (Trace.render Trace.Chrome (sample_trace ())) in
  Alcotest.(check (option string)) "time unit" (Some "ms")
    (Json.get_string (json_get [ "displayTimeUnit" ] doc));
  let evs = Option.get (Json.get_list (json_get [ "traceEvents" ] doc)) in
  (* 5 instants plus counter tracks for pivot, sweep and batch. *)
  Alcotest.(check int) "trace events" 8 (List.length evs);
  List.iter
    (fun e ->
      (* The fields Perfetto requires on every event. *)
      List.iter
        (fun k ->
          if Json.member k e = None then
            Alcotest.fail ("chrome event missing field " ^ k))
        [ "name"; "ph"; "ts"; "pid"; "tid" ];
      let ts = Option.get (Json.get_float (json_get [ "ts" ] e)) in
      Alcotest.(check bool) "relative microseconds" true (ts >= 0.))
    evs;
  let phases =
    List.map (fun e -> Option.get (Json.get_string (json_get [ "ph" ] e))) evs
  in
  Alcotest.(check bool) "has instants and counters" true
    (List.mem "i" phases && List.mem "C" phases)

let prop_trace_drop_accounting =
  QCheck.Test.make ~name:"trace ring: dropped = emitted - retained" ~count:200
    QCheck.(pair (int_range 1 50) (int_range 0 200))
    (fun (capacity, n) ->
      let t = Trace.create ~capacity () in
      for i = 1 to n do
        Trace.emit t (mark i)
      done;
      Trace.emitted t = n
      && Trace.retained t = min n capacity
      && Trace.dropped t = Trace.emitted t - Trace.retained t
      && List.length (Trace.events t) = Trace.retained t)

(* ---------------- End-to-end: solver telemetry ---------------- *)

let test_solver_telemetry () =
  Metrics.reset ();
  Span.reset ();
  let net = Mapqn_workloads.Tandem.network ~population:4 () in
  let b = Mapqn_core.Bounds.create_exn net in
  ignore (Mapqn_core.Bounds.response_time b);
  let sol = Mapqn_ctmc.Solution.solve net in
  ignore (Mapqn_ctmc.Solution.system_response_time sol);
  let positive name =
    Alcotest.(check bool) (name ^ " > 0") true (value_of name > 0.)
  in
  (* The default backend is the revised simplex... *)
  positive "revised_pivots_total";
  positive "revised_solves_total";
  (* ...and the dense tableau records its own counter family. *)
  let bd = Mapqn_core.Bounds.create_exn ~solver:Mapqn_core.Bounds.Dense net in
  ignore (Mapqn_core.Bounds.response_time bd);
  positive "simplex_pivots_total";
  positive "simplex_solves_total";
  (* Every solved objective carries an optimality certificate... *)
  positive "bounds_certificates_total";
  check_float "no exhausted rescue ladder" 0.
    (value_of "health_rescue_uncertified_total");
  (* ...and the worst primal residual of the run stays far inside the
     1e-6 acceptance tolerance. *)
  Alcotest.(check bool) "primal residual tiny" true
    (value_of "bounds_certificate_primal_residual" <= 1e-8);
  positive "lp_rows";
  positive "lp_vars";
  positive "ctmc_states";
  positive "ctmc_generator_nnz";
  positive "gth_eliminations_total";
  let paths = List.map (fun e -> e.Span.path) (Span.snapshot ()) in
  Alcotest.(check bool) "bounds.create span" true
    (List.mem [ "bounds.create" ] paths);
  Alcotest.(check bool) "nested revised phase1 span" true
    (List.mem [ "bounds.create"; "bounds.prepare"; "revised.phase1" ] paths);
  Alcotest.(check bool) "nested dense phase1 span" true
    (List.mem [ "bounds.create"; "bounds.prepare"; "simplex.phase1" ] paths);
  Alcotest.(check bool) "stationary span under ctmc.solve" true
    (List.exists
       (fun p -> match p with "ctmc.solve" :: _ :: _ -> true | _ -> false)
       paths)

(* ---------------- Profiling attribution ---------------- *)

let test_prof_self_time () =
  (* Clock reads: outer start(0) | inner 1-2 | inner 3-4 | outer end(5),
     so outer total = 5, the two inners contribute 2, and outer's
     self-time is the remaining 3. *)
  let c = Span.create ~clock:(ticking_clock ()) () in
  Span.with_ ~collector:c "outer" (fun () ->
      Span.with_ ~collector:c "inner" (fun () -> ());
      Span.with_ ~collector:c "inner" (fun () -> ()));
  let rows = Prof.attribution ~entries:(Span.snapshot ~collector:c ()) () in
  let find path = List.find (fun r -> r.Prof.path = path) rows in
  let outer = find [ "outer" ] and inner = find [ "outer"; "inner" ] in
  check_float "outer total includes children" 5. outer.Prof.total;
  check_float "outer self = total - children" 3. outer.Prof.self;
  check_float "leaf self = own total" 2. inner.Prof.self;
  (* The self column telescopes: summed self over all rows equals the
     summed root totals, i.e. the wall time of the instrumented region
     (the basis of `mapqn profile --check`). *)
  check_float "self telescopes to wall" 5. (Prof.self_total rows);
  match rows with
  | a :: b :: _ ->
    Alcotest.(check bool) "sorted by self descending" true
      (a.Prof.self >= b.Prof.self)
  | _ -> Alcotest.fail "expected two attribution rows"

let test_prof_gc_deltas () =
  Prof.enable ();
  Fun.protect ~finally:Prof.disable @@ fun () ->
  let c = Span.create () in
  (* Small allocations only: blocks above the minor-heap threshold go
     straight to the major heap and would not show up in minor words. *)
  let churn () =
    for i = 1 to 100 do
      ignore (Sys.opaque_identity (Array.make 10 i))
    done
  in
  (try
     Span.with_ ~collector:c "alloc" (fun () ->
         Span.with_ ~collector:c "child" (fun () -> churn ());
         churn ();
         failwith "boom")
   with Failure _ -> ());
  let entries = Span.snapshot ~collector:c () in
  let find path = List.find (fun e -> e.Span.path = path) entries in
  let parent = find [ "alloc" ] and child = find [ "alloc"; "child" ] in
  Alcotest.(check bool) "child saw its allocation" true
    (child.Span.minor_words >= 1000.);
  (* The parent span was closed by the exception and still carries the
     full GC delta, including the child's. *)
  Alcotest.(check bool) "parent >= child despite raise" true
    (parent.Span.minor_words >= child.Span.minor_words +. 1000.);
  let rows = Prof.attribution ~entries () in
  let prow = List.find (fun r -> r.Prof.path = [ "alloc" ]) rows in
  Alcotest.(check bool) "self words exclude the child" true
    (prow.Prof.self_minor_words >= 1000.
    && prow.Prof.self_minor_words
       <= parent.Span.minor_words -. child.Span.minor_words);
  (* With profiling off again, spans record no GC deltas at all. *)
  Prof.disable ();
  Span.with_ ~collector:c "quiet" (fun () -> churn ());
  let quiet = List.find (fun e -> e.Span.path = [ "quiet" ]) (Span.snapshot ~collector:c ()) in
  check_float "no delta when disabled" 0. quiet.Span.minor_words

let test_prof_folded_roundtrip () =
  (* a total 3 (self 2), a/b total 1: folded self-times in integer µs. *)
  let c = Span.create ~clock:(ticking_clock ()) () in
  Span.with_ ~collector:c "a" (fun () ->
      Span.with_ ~collector:c "b" (fun () -> ()));
  let entries = Span.snapshot ~collector:c () in
  let folded = Prof.folded ~entries () in
  Alcotest.(check (list (pair (list string) int))) "parses back"
    [ ([ "a" ], 2_000_000); ([ "a"; "b" ], 1_000_000) ]
    (Prof.parse_folded folded);
  Alcotest.(check int) "garbage lines skipped" 2
    (List.length (Prof.parse_folded (folded ^ "not a folded line\n")))

let test_span_backwards_clock () =
  (* A clock stepping backwards must clamp, not record negative time. *)
  let ticks = ref [ 5.; 3. ] in
  let clock () =
    match !ticks with
    | t :: rest ->
      ticks := rest;
      t
    | [] -> 0.
  in
  let c = Span.create ~clock () in
  Span.with_ ~collector:c "back" (fun () -> ());
  match Span.snapshot ~collector:c () with
  | [ e ] -> check_float "clamped at zero" 0. e.Span.total
  | _ -> Alcotest.fail "expected one span"

let test_span_add () =
  let c = Span.create ~clock:(ticking_clock ()) () in
  Span.with_ ~collector:c "outer" (fun () ->
      Span.add ~collector:c ~count:3 ~max_:0.5 ~minor_words:42. "accum" 0.9);
  let entries = Span.snapshot ~collector:c () in
  let find path = List.find (fun e -> e.Span.path = path) entries in
  let acc = find [ "outer"; "accum" ] in
  Alcotest.(check int) "aggregated count" 3 acc.Span.count;
  check_float "accumulated seconds" 0.9 acc.Span.total;
  check_float "explicit max" 0.5 acc.Span.max_;
  check_float "carried minor words" 42. acc.Span.minor_words;
  (* Externally-accumulated children reduce the parent's self-time just
     like [with_] children: outer ran 1s, 0.9s of it attributed away. *)
  let rows = Prof.attribution ~entries () in
  let outer = List.find (fun r -> r.Prof.path = [ "outer" ]) rows in
  check_float "add reduces parent self" 0.1 outer.Prof.self

let test_span_domain_safety () =
  (* Two domains nest spans concurrently on one collector: the
     domain-local open-span stacks must keep the two call trees apart —
     no cross-domain paths like d1/i2 — while both merge into the shared
     aggregate table. *)
  let c = Span.create () in
  let worker name inner =
    Domain.spawn (fun () ->
        for _ = 1 to 200 do
          Span.with_ ~collector:c name (fun () ->
              Span.with_ ~collector:c inner (fun () -> ()))
        done)
  in
  let d1 = worker "d1" "i1" and d2 = worker "d2" "i2" in
  Domain.join d1;
  Domain.join d2;
  let entries = Span.snapshot ~collector:c () in
  let paths = List.map (fun e -> e.Span.path) entries in
  let allowed =
    [ [ "d1" ]; [ "d1"; "i1" ]; [ "d2" ]; [ "d2"; "i2" ] ]
  in
  Alcotest.(check bool) "no cross-domain interleaving" true
    (List.for_all (fun p -> List.mem p allowed) paths);
  Alcotest.(check int) "exactly the four expected paths" 4
    (List.length paths);
  let count path =
    (List.find (fun e -> e.Span.path = path) entries).Span.count
  in
  Alcotest.(check int) "d1 iterations all recorded" 200 (count [ "d1" ]);
  Alcotest.(check int) "nested i2 iterations all recorded" 200
    (count [ "d2"; "i2" ])

let test_prof_phase_spans_end_to_end () =
  (* With profiling enabled, a bounds build records the split constraint
     assembly phases and the pivot-loop phase accumulators. *)
  Span.reset ();
  Prof.enable ();
  Fun.protect ~finally:Prof.disable @@ fun () ->
  let net = Mapqn_workloads.Tandem.network ~population:4 () in
  ignore (Mapqn_core.Bounds.response_time (Mapqn_core.Bounds.create_exn net));
  let paths = List.map (fun e -> e.Span.path) (Span.snapshot ()) in
  let leaf name p =
    match List.rev p with last :: _ -> last = name | [] -> false
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " phase recorded") true
        (List.exists (leaf name) paths))
    [ "kron-emit"; "row-assembly"; "price"; "ratio"; "update" ]

(* ---------------- Progress reporting ---------------- *)

let test_progress_eta () =
  let now = ref 0. in
  let clock () = !now in
  let tmp = Filename.temp_file "mapqn_hb" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  let oc = open_out tmp in
  let p =
    Progress.create ~clock ~quiet:true ~heartbeat:oc ~total:4 "sweep"
  in
  Alcotest.(check (option (float 0.))) "no eta before first completion" None
    (Progress.eta_seconds p);
  Progress.task_start p ~seed:7 "model-0000";
  Progress.task_phase p ~id:"model-0000" "N=8";
  now := 10.;
  Progress.task_done p ~seed:7 ~elapsed:10. "model-0000";
  check_float "elapsed from injected clock" 10. (Progress.elapsed p);
  (match Progress.eta_seconds p with
  | Some eta -> check_float "eta = elapsed/completed * remaining" 30. eta
  | None -> Alcotest.fail "expected an eta after one completion");
  (* A skipped model counts as completed work, so the ETA projects only
     onto genuinely remaining models: 2 done in 10s -> 2 more in 10s. *)
  Progress.skip p "model-0001";
  (match Progress.eta_seconds p with
  | Some eta -> check_float "skip counts toward eta" 10. eta
  | None -> Alcotest.fail "expected an eta after skip");
  now := 20.;
  Progress.task_start p "model-0002";
  Progress.task_done p "model-0002";
  Progress.task_start p "model-0003";
  Progress.task_done p "model-0003";
  Alcotest.(check (option (float 0.))) "no eta once done" None
    (Progress.eta_seconds p);
  Alcotest.(check int) "completed" 4 (Progress.completed p);
  Progress.close p;
  close_out oc;
  (* The heartbeat file doubles as a checkpoint: done and skip events
     resolve to the model ids a rerun may skip. *)
  Alcotest.(check (list string)) "resume substrate"
    [ "model-0000"; "model-0001"; "model-0002"; "model-0003" ]
    (Progress.load_completed tmp);
  (* Every record is one parsable JSON line carrying the sweep label. *)
  let lines =
    In_channel.with_open_text tmp In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "heartbeats written" true (List.length lines > 4);
  List.iter
    (fun l ->
      let j = Json.parse_exn l in
      Alcotest.(check (option string)) "label" (Some "sweep")
        (Json.get_string (json_get [ "label" ] j));
      if Json.member "event" j = None then Alcotest.fail "heartbeat lacks event")
    lines

(* ---------------- Run ledger ---------------- *)

let with_temp_ledger f =
  let tmp = Filename.temp_file "mapqn_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Ledger.disable ();
      Sys.remove tmp)
    (fun () -> f tmp)

let test_ledger_disabled_noop () =
  Ledger.disable ();
  Alcotest.(check bool) "disabled" false (Ledger.is_enabled ());
  Ledger.record ~event:"eval" [] (* must be a silent no-op *);
  Alcotest.(check bool) "no path" true (Ledger.path () = None);
  Ledger.set_context "experiment" (Json.String "x") (* also a no-op *)

let test_ledger_record_shape () =
  with_temp_ledger @@ fun tmp ->
  Ledger.enable_exn ~path:tmp ();
  Ledger.set_context "experiment" (Json.String "test");
  Alcotest.(check (option string)) "path" (Some tmp) (Ledger.path ());
  Ledger.set_context "seed" (Json.Number 42.);
  Ledger.record ~event:"eval"
    [ ("population", Json.Number 8.); ("duration_s", Json.Number 0.25) ];
  (* A field-level seed (e.g. the simulator's own) wins over the
     sink-wide context seed. *)
  Ledger.record ~event:"sim" [ ("seed", Json.Number 7.) ];
  Ledger.disable ();
  match Ledger.load tmp with
  | [ r1; r2 ] ->
    Alcotest.(check string) "event" "eval" (Ledger.event r1);
    Alcotest.(check int) "population" 8 (Ledger.population r1);
    Alcotest.(check int) "absent population" (-1) (Ledger.population r2);
    check_float "context seed surfaced" 42.
      (Option.get (Option.bind (Json.member "seed" r1) Json.get_float));
    Alcotest.(check (option string)) "context pair merged" (Some "test")
      (Option.bind (Json.member "experiment" r1) Json.get_string);
    Alcotest.(check bool) "wall clock present" true (Json.member "ts" r1 <> None);
    Alcotest.(check bool) "git_sha key present" true
      (match r1 with
      | Json.Object kvs -> List.mem_assoc "git_sha" kvs
      | _ -> false);
    check_float "field seed wins" 7.
      (Option.get (Option.bind (Json.member "seed" r2) Json.get_float));
    (match r2 with
    | Json.Object kvs ->
      Alcotest.(check int) "exactly one seed key" 1
        (List.length (List.filter (fun (k, _) -> k = "seed") kvs))
    | _ -> Alcotest.fail "record is not an object")
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_ledger_double_enable () =
  with_temp_ledger @@ fun tmp ->
  (match Ledger.enable ~path:tmp () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first enable must succeed");
  (* Same path while live: rejected with the typed error (it would drop
     the sink context and double-open the file). *)
  (match Ledger.enable ~path:tmp () with
  | Error (`Already_enabled p) -> Alcotest.(check string) "path in error" tmp p
  | Ok () -> Alcotest.fail "double enable on the live path must be rejected");
  Alcotest.check_raises "enable_exn raises"
    (Invalid_argument
       ("Ledger.enable: " ^ Ledger.enable_error_to_string (`Already_enabled tmp)))
    (fun () -> Ledger.enable_exn ~path:tmp ());
  (* Still enabled on the original path, and a different path replaces
     the sink deliberately. *)
  Alcotest.(check (option string)) "sink unchanged" (Some tmp) (Ledger.path ());
  let tmp2 = tmp ^ ".second" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp2 then Sys.remove tmp2)
    (fun () ->
      (match Ledger.enable ~path:tmp2 () with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "different path must replace the sink");
      Alcotest.(check (option string)) "replaced" (Some tmp2) (Ledger.path ());
      (* After disable, re-enabling the first path is legitimate. *)
      Ledger.disable ();
      match Ledger.enable ~path:tmp () with
      | Ok () -> Ledger.disable ()
      | Error _ -> Alcotest.fail "enable after disable must succeed")

let test_ledger_crash_resume () =
  with_temp_ledger @@ fun tmp ->
  Ledger.enable_exn ~path:tmp ();
  Ledger.record ~event:"eval" [ ("population", Json.Number 2.) ];
  Ledger.record ~event:"eval" [ ("population", Json.Number 4.) ];
  Ledger.disable ();
  (* A killed run tears the final line mid-record: the completed prefix
     must load, the torn tail must not. *)
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 tmp in
  output_string oc "{\"event\":\"eval\",\"population\":8";
  close_out oc;
  Alcotest.(check (list int)) "torn final line skipped" [ 2; 4 ]
    (List.map Ledger.population (Ledger.load tmp));
  (* Re-enabling resumes the stream on a fresh line, so the first record
     after the crash is not garbled into the torn one. *)
  Ledger.enable_exn ~path:tmp ();
  Ledger.record ~event:"eval" [ ("population", Json.Number 16.) ];
  Ledger.disable ();
  Alcotest.(check (list int)) "resume appends cleanly" [ 2; 4; 16 ]
    (List.map Ledger.population (Ledger.load tmp));
  Alcotest.(check (list Alcotest.string)) "missing file is empty ledger" []
    (List.map Ledger.event (Ledger.load (tmp ^ ".does-not-exist")))

(* Provenance names the checkout holding the executable, not the working
   directory. The ledger resolves its SHA once per process, so the probe
   is a fresh run of this executable, started with [sha_probe_var] set to
   a directory outside any checkout: it moves there before its first
   record and writes one record to ledger.jsonl in it. *)
let sha_probe_var = "MAPQN_TEST_LEDGER_SHA_PROBE"

let run_sha_probe dir =
  Sys.chdir dir;
  Ledger.enable_exn ~path:"ledger.jsonl" ();
  Ledger.record ~event:"probe" [];
  Ledger.disable ();
  exit 0

let git_head dir =
  let ic =
    Unix.open_process_in
      ("git -C " ^ Filename.quote dir ^ " rev-parse HEAD 2>/dev/null")
  in
  let sha = try String.trim (input_line ic) with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when sha <> "" -> Json.String sha
  | _ -> Json.Null

let test_ledger_sha_names_build () =
  let dir = Filename.temp_dir "mapqn_sha" "" in
  let path = Filename.concat dir "ledger.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
  @@ fun () ->
  Alcotest.(check string) "probe directory outside any checkout" "null"
    (Json.to_string (git_head dir));
  let exe = Sys.executable_name in
  let env = Array.append [| sha_probe_var ^ "=" ^ dir |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env exe [| exe |] env Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "probe process failed");
  match Ledger.load path with
  | [ r ] ->
    Alcotest.(check string) "git_sha of the executable's checkout"
      (Json.to_string (git_head (Filename.dirname exe)))
      (Json.to_string (Option.value ~default:Json.Null (Json.member "git_sha" r)))
  | rs -> Alcotest.failf "expected one probe record, got %d" (List.length rs)

let prop_ledger_jsonl_roundtrip =
  QCheck.Test.make ~name:"ledger: record fields survive the JSONL round-trip"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 0 6) (float_range (-1e9) 1e9))
    (fun values ->
      let fields =
        List.mapi (fun i v -> (Printf.sprintf "f%d" i, Json.Number v)) values
      in
      let tmp = Filename.temp_file "mapqn_ledger" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Ledger.disable ();
          Sys.remove tmp)
        (fun () ->
          Ledger.enable_exn ~path:tmp ();
          Ledger.record ~event:"eval" fields;
          Ledger.disable ();
          match Ledger.load tmp with
          | [ r ] ->
            Ledger.event r = "eval"
            && List.for_all (fun (k, v) -> Json.member k r = Some v) fields
          | _ -> false))

(* Synthetic solver records for diff/doctor: only the fields the
   analyses read. *)
let eval_record ?(fingerprint = "d143") ?certificate ?refactor_causes ?health
    ~population ~lower ~upper ~pivots ~duration () =
  let opt name = function
    | None -> []
    | Some kvs -> [ (name, Json.Object kvs) ]
  in
  Json.Object
    ([
       ("event", Json.String "eval");
       ("population", Json.Number (float_of_int population));
       ("fingerprint", Json.String fingerprint);
       ("duration_s", Json.Number duration);
       ("pivots", Json.Number pivots);
       ( "metrics",
         Json.List
           [
             Json.Object
               [
                 ("name", Json.String "response-time");
                 ("lower", Json.Number lower);
                 ("upper", Json.Number upper);
               ];
           ] );
     ]
    @ opt "certificate" certificate
    @ opt "refactor_causes" refactor_causes
    @ opt "health" health)

let test_ledger_diff () =
  let a =
    [
      eval_record ~population:4 ~lower:1. ~upper:2. ~pivots:100. ~duration:1. ();
      eval_record ~population:8 ~lower:1.5 ~upper:2.5 ~pivots:200. ~duration:2.
        ();
    ]
  in
  let b =
    [
      (* Same (event, population, occurrence) key as a's first record,
         upper bound moved by exactly 0.125. *)
      eval_record ~fingerprint:"beef" ~population:4 ~lower:1. ~upper:2.125
        ~pivots:150. ~duration:1.5 ();
      eval_record ~population:16 ~lower:9. ~upper:9. ~pivots:1. ~duration:1. ();
    ]
  in
  let report = Ledger.diff a b in
  Alcotest.(check int) "one matched pair" 1 (List.length report.Ledger.matched);
  Alcotest.(check int) "N=8 only in A" 1 report.Ledger.only_a;
  Alcotest.(check int) "N=16 only in B" 1 report.Ledger.only_b;
  (match report.Ledger.matched with
  | [ d ] ->
    check_float "known bound delta" 0.125 d.Ledger.bound_drift;
    Alcotest.(check string) "drift metric" "response-time" d.Ledger.worst_metric;
    check_float "pivots a" 100. d.Ledger.pivots_a;
    check_float "pivots b" 150. d.Ledger.pivots_b;
    Alcotest.(check bool) "model change detected" true
      d.Ledger.fingerprint_changed
  | _ -> Alcotest.fail "expected one drift entry");
  (* Identical ledgers: zero drift, same model. *)
  (match (Ledger.diff a a).Ledger.matched with
  | [ d1; d2 ] ->
    check_float "self-diff drifts nothing" 0.
      (Float.max d1.Ledger.bound_drift d2.Ledger.bound_drift);
    Alcotest.(check bool) "fingerprint stable" false d1.Ledger.fingerprint_changed
  | _ -> Alcotest.fail "expected two matched entries");
  let rendered = Ledger.render_diff report in
  Alcotest.(check bool) "render mentions the change" true
    (let sub = "CHANGED" in
     let n = String.length rendered and m = String.length sub in
     let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
     go 0)

let certificate_fields ?(failures = 0.) ?(gap = 1e-3) primal =
  [
    ("primal_residual", Json.Number primal);
    ("gap", Json.Number gap);
    ("failures", Json.Number failures);
    ("tol_primal", Json.Number 1e-5);
  ]

let rescue_fields cause depth =
  [ ("rescue", Json.String cause); ("rescue_depth", Json.Number depth) ]

let test_ledger_doctor_fig8_story () =
  (* The historical pre-drift-trigger Fig-8 run in miniature: the primal
     residual compounds with population towards the largest one. A
     failed check there climbs the rescue ladder, so the story has two
     endings: the residual peaks at the largest population just inside
     tolerance (the signature), or the ladder is exhausted there. *)
  let run ?health last =
    [
      eval_record ~population:20
        ~certificate:(certificate_fields 1e-9)
        ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ();
      eval_record ~population:40
        ~certificate:(certificate_fields 2.8e-6)
        ~lower:1. ~upper:2. ~pivots:20. ~duration:0.2 ();
      eval_record ~population:100 ~certificate:last ?health ~lower:1. ~upper:2.
        ~pivots:30. ~duration:0.3 ();
    ]
  in
  let with_code c findings = List.filter (fun f -> f.Ledger.code = c) findings in
  let near_peak = Ledger.doctor (run (certificate_fields 8e-6)) in
  (match with_code "cert-near-miss" near_peak with
  | [ f40; f100 ] ->
    Alcotest.(check bool) "near-misses are Warn" true
      (f40.Ledger.severity = Ledger.Warn && f100.Ledger.severity = Ledger.Warn)
  | fs -> Alcotest.failf "expected two cert-near-misses, got %d" (List.length fs));
  (match with_code "residual-peak-at-max-population" near_peak with
  | [ f ] ->
    Alcotest.(check bool) "the fig8 signature warns" true
      (f.Ledger.severity = Ledger.Warn)
  | fs -> Alcotest.failf "expected the fig8 signature, got %d" (List.length fs));
  let exhausted =
    Ledger.doctor
      (run
         ~health:(rescue_fields "uncertified" 5.)
         (certificate_fields ~failures:1. 3e-5))
  in
  (match with_code "cert-uncertified" exhausted with
  | [ f ] ->
    Alcotest.(check bool) "exhausted ladder is Fail" true
      (f.Ledger.severity = Ledger.Fail);
    Alcotest.(check bool) "it names N=100" true
      (f.Ledger.where = "eval N=100 (record 2)")
  | fs -> Alcotest.failf "expected one cert-uncertified, got %d" (List.length fs));
  (* A gap beyond the margin is a failed check like a residual beyond
     tolerance; rescued, it warns and names the gap. *)
  (match
     Ledger.doctor
       [
         eval_record ~population:8
           ~certificate:(certificate_fields ~failures:1. ~gap:40. 1e-9)
           ~health:(rescue_fields "reperturbed" 2.)
           ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ();
       ]
   with
  | [ f ] ->
    Alcotest.(check string) "rescued gap" "cert-rescued" f.Ledger.code;
    Alcotest.(check bool) "names the gap" true
      (String.starts_with ~prefix:"certificate initially failed (gap ="
         f.Ledger.detail)
  | fs -> Alcotest.failf "expected one cert-rescued, got %d" (List.length fs));
  (* A record that carries no tol_primal of its own is judged against the
     certificate's 1e-5: 3e-6 is a near-miss, 2e-6 is not. *)
  let untolerated primal =
    Ledger.doctor
      [
        eval_record ~population:8
          ~certificate:(List.remove_assoc "tol_primal" (certificate_fields primal))
          ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ();
        eval_record ~population:16
          ~certificate:(certificate_fields 1e-9)
          ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ();
      ]
  in
  (match untolerated 3e-6 with
  | [ f ] ->
    Alcotest.(check string) "judged against 1e-5"
      "cert-near-miss: certificate primal_residual = 3.000e-06 is 30% of \
       tolerance 1.0e-05"
      (f.Ledger.code ^ ": " ^ f.Ledger.detail)
  | fs -> Alcotest.failf "expected one cert-near-miss, got %d" (List.length fs));
  Alcotest.(check (list Alcotest.string)) "20% of 1e-5 is no near-miss" []
    (List.map (fun f -> f.Ledger.code) (untolerated 2e-6));
  (* Same residuals with the peak mid-sweep: no max-population signature. *)
  let healthy =
    [
      eval_record ~population:20
        ~certificate:(certificate_fields 1e-9)
        ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ();
      eval_record ~population:40
        ~certificate:(certificate_fields 2e-9)
        ~lower:1. ~upper:2. ~pivots:20. ~duration:0.2 ();
      eval_record ~population:100
        ~certificate:(certificate_fields 1e-12)
        ~lower:1. ~upper:2. ~pivots:30. ~duration:0.3 ();
    ]
  in
  Alcotest.(check (list Alcotest.string)) "healthy run has no findings" []
    (List.map (fun f -> f.Ledger.code) (Ledger.doctor healthy))

let test_ledger_doctor_solver_hazards () =
  let r =
    eval_record ~population:8
      ~refactor_causes:[ ("drift", Json.Number 2.) ]
      ~health:
        [
          ("eta_drift", Json.Number 3e-7);
          ("degeneracy_streak", Json.Number 1500.);
          ("bland_switches", Json.Number 1.);
          ("perturbation_salt", Json.Number 2.);
        ]
      ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ()
  in
  let codes = List.map (fun f -> f.Ledger.code) (Ledger.doctor [ r ]) in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("doctor flags " ^ c) true (List.mem c codes))
    [ "drift-reinversion"; "degeneracy-stall"; "perturbation-retry" ];
  (* A long degenerate streak without a Bland switch is informational. *)
  let quiet =
    eval_record ~population:8
      ~health:[ ("degeneracy_streak", Json.Number 1500.) ]
      ~lower:1. ~upper:2. ~pivots:10. ~duration:0.1 ()
  in
  Alcotest.(check (list Alcotest.string)) "streak alone is info"
    [ "degeneracy-streak" ]
    (List.map (fun f -> f.Ledger.code) (Ledger.doctor [ quiet ]));
  (* Non-solver events carry no certificate and are never scanned. *)
  Alcotest.(check (list Alcotest.string)) "sim records ignored" []
    (List.map
       (fun f -> f.Ledger.code)
       (Ledger.doctor [ Json.Object [ ("event", Json.String "sim") ] ]))

let test_ledger_summarize () =
  let s =
    Ledger.summarize
      [
        eval_record ~population:4 ~lower:1. ~upper:2. ~pivots:123. ~duration:0.5
          ~certificate:(certificate_fields 1e-9) ();
      ]
  in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    Alcotest.(check bool) ("summary contains " ^ sub) true (go 0)
  in
  has "eval";
  has "123";
  has "0.500s";
  has "1.00e-09"

(* ---------------- Histogram percentiles ---------------- *)

let test_export_percentile () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 2.; 4. |] "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 10. ];
  (match Metrics.find ~registry:r "lat" with
  | [ { Metrics.value = Metrics.Histogram d; _ } ] ->
    (* Cumulative counts: le1 -> 1, le2 -> 2, le4 -> 3, +Inf -> 4.
       p50 rank 2 lands exactly at the le=2 bucket's upper edge. *)
    check_float "p50 interpolates within its bucket" 2.
      (Export.percentile d 0.50);
    (* p99 rank 3.96 falls in the overflow bucket, which saturates at
       the last finite bound. *)
    check_float "p99 saturates at the last finite bound" 4.
      (Export.percentile d 0.99);
    (* p25 rank 1 is the first bucket's edge; the bucket starts at 0. *)
    check_float "p25 at first bucket edge" 1. (Export.percentile d 0.25)
  | _ -> Alcotest.fail "expected one histogram sample");
  let empty = Metrics.histogram ~registry:r ~buckets:[| 1. |] "empty" in
  ignore empty;
  (match Metrics.find ~registry:r "empty" with
  | [ { Metrics.value = Metrics.Histogram d; _ } ] ->
    Alcotest.(check bool) "empty histogram has no percentile" true
      (Float.is_nan (Export.percentile d 0.5))
  | _ -> Alcotest.fail "expected one histogram sample");
  (* The table exporter surfaces the quantiles next to count/sum. *)
  let s = Export.table ~metrics:(Metrics.snapshot ~registry:r ()) ~spans:[] in
  Alcotest.(check bool) "table shows p50" true
    (let sub = "p50=" in
     let n = String.length s and m = String.length sub in
     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
     go 0)

let test_load_completed_robust () =
  let tmp = Filename.temp_file "mapqn_hb" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  let oc = open_out tmp in
  output_string oc
    ("{\"event\":\"done\",\"model\":\"a\"}\n" ^ "this line is not JSON\n"
   ^ "{\"event\":\"phase\",\"model\":\"b\"}\n"
   ^ "{\"event\":\"skip\",\"model\":\"c\"}\n"
   ^ "{\"event\":\"done\",\"model\":\"a\"}\n");
  close_out oc;
  Alcotest.(check (list string)) "dedup, skip garbage, keep order"
    [ "a"; "c" ]
    (Progress.load_completed tmp);
  Alcotest.(check (list string)) "missing file yields no ids" []
    (Progress.load_completed (tmp ^ ".does-not-exist"))

let () =
  Option.iter run_sha_probe (Sys.getenv_opt sha_probe_var);
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
          Alcotest.test_case "reset in place" `Quick test_reset_in_place;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "slash rejected" `Quick test_span_bad_name;
        ] );
      ( "export",
        [
          Alcotest.test_case "json + jsonl" `Quick test_export_json;
          Alcotest.test_case "prometheus" `Quick test_export_prometheus;
          Alcotest.test_case "table" `Quick test_export_table;
          Alcotest.test_case "format_of_string" `Quick test_format_of_string;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "json parses back" `Quick test_roundtrip_json;
          Alcotest.test_case "jsonl parses back" `Quick test_roundtrip_jsonl;
          Alcotest.test_case "prometheus parses back" `Quick
            test_roundtrip_prometheus;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overwrite + counters" `Quick test_trace_ring;
          Alcotest.test_case "monotonic timestamps" `Quick
            test_trace_monotonic_timestamps;
          Alcotest.test_case "global enable/disable" `Quick test_trace_global;
          Alcotest.test_case "jsonl sink" `Quick test_trace_jsonl_sink;
          Alcotest.test_case "chrome sink" `Quick test_trace_chrome_sink;
          QCheck_alcotest.to_alcotest prop_trace_drop_accounting;
        ] );
      ( "prof",
        [
          Alcotest.test_case "self-time = total - children" `Quick
            test_prof_self_time;
          Alcotest.test_case "gc deltas under nesting + raise" `Quick
            test_prof_gc_deltas;
          Alcotest.test_case "folded round-trip" `Quick
            test_prof_folded_roundtrip;
          Alcotest.test_case "backwards clock clamps" `Quick
            test_span_backwards_clock;
          Alcotest.test_case "accumulated add under path" `Quick test_span_add;
          Alcotest.test_case "domain-local stacks" `Quick
            test_span_domain_safety;
        ] );
      ( "progress",
        [
          Alcotest.test_case "deterministic eta + heartbeats" `Quick
            test_progress_eta;
          Alcotest.test_case "resume file robustness" `Quick
            test_load_completed_robust;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_ledger_disabled_noop;
          Alcotest.test_case "record shape + seed precedence" `Quick
            test_ledger_record_shape;
          Alcotest.test_case "double enable rejected" `Quick
            test_ledger_double_enable;
          Alcotest.test_case "crash resume skips torn line" `Quick
            test_ledger_crash_resume;
          Alcotest.test_case "git_sha names the executable's checkout" `Quick
            test_ledger_sha_names_build;
          Alcotest.test_case "diff reports known bound delta" `Quick
            test_ledger_diff;
          Alcotest.test_case "doctor tells the fig8 story" `Quick
            test_ledger_doctor_fig8_story;
          Alcotest.test_case "doctor flags solver hazards" `Quick
            test_ledger_doctor_solver_hazards;
          Alcotest.test_case "summarize" `Quick test_ledger_summarize;
          Alcotest.test_case "histogram percentiles" `Quick
            test_export_percentile;
          QCheck_alcotest.to_alcotest prop_ledger_jsonl_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "solver telemetry" `Quick test_solver_telemetry;
          Alcotest.test_case "profiling phase spans" `Quick
            test_prof_phase_spans_end_to_end;
        ] );
    ]
