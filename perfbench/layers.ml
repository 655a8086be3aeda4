(* Per-layer metrics of one pass, read from the spans the library
   already records (phase timings and GC deltas appear once
   [Prof.enable] is on), the metric registry's counters and the
   runtime's GC counters. Names and units here are the [per_layer]
   list of BENCHMARK.json. *)

module Span = Mapqn_obs.Span
module Prof = Mapqn_obs.Prof

let units =
  [
    ("constraints.s", "s");
    ("constraints.calls", "count");
    ("constraints.words", "words");
    ("revised.phase1.s", "s");
    ("revised.phase1.overhead_s", "s");
    ("revised.phase1.pivots", "count");
    ("revised.phase1.words_per_pivot", "words/pivot");
    ("revised.phase2.s", "s");
    ("revised.phase2.overhead_s", "s");
    ("revised.phase2.pivots", "count");
    ("revised.phase2.solves", "count");
    ("revised.phase2.words_per_pivot", "words/pivot");
    ("revised.factorize.s", "s");
    ("revised.factorize.calls", "count");
    ("revised.factorize.ms_per_call", "ms");
    ("revised.price.s", "s");
    ("revised.ratio.s", "s");
    ("revised.update.s", "s");
    ("revised.refactor.stability", "count");
    ("revised.refactor.growth", "count");
    ("revised.refactor.drift", "count");
    ("revised.refactor.backstop", "count");
    ("revised.degenerate_pivots", "count");
    ("certificate.s", "s");
    ("certificate.calls", "count");
    ("bounds.rescue.s", "s");
    ("bounds.rescue.attempts", "count");
    ("bounds.rescue.refined", "count");
    ("bounds.rescue.reperturbed", "count");
    ("bounds.rescue.cold_resolve", "count");
    ("bounds.rescue.dense_oracle", "count");
    ("bounds.sweep.steps", "count");
    ("bounds.sweep.warm_steps", "count");
    ("bounds.sweep.seed_fallbacks", "count");
    ("fleet.overhead_s", "s");
    ("obs.bytes", "bytes");
    ("obs.records", "count");
    ("obs.sink_s", "s");
    ("gc.minor_words", "words");
    ("gc.major_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead", "ratio");
    ("trace.coverage", "ratio");
  ]

(* Registry counters read around the pass, keyed by the layer metric
   they feed. *)
let counters =
  [
    ("revised.refactor.stability", "revised_refactor_stability_total");
    ("revised.refactor.growth", "revised_refactor_growth_total");
    ("revised.refactor.drift", "revised_refactor_drift_total");
    ("revised.refactor.backstop", "revised_refactor_backstop_total");
    ("revised.degenerate_pivots", "revised_degenerate_pivots_total");
    ("bounds.rescue.attempts", "bounds_rescue_attempts_total");
    ("bounds.rescue.refined", "health_rescue_refined_total");
    ("bounds.rescue.reperturbed", "health_rescue_reperturbed_total");
    ("bounds.rescue.cold_resolve", "health_rescue_cold_resolve_total");
    ("bounds.rescue.dense_oracle", "health_rescue_dense_oracle_total");
    ("bounds.sweep.steps", "bounds_sweep_steps_total");
    ("bounds.sweep.warm_steps", "bounds_sweep_warm_steps_total");
    ("bounds.sweep.seed_fallbacks", "revised_seeded_prepare_fallbacks_total");
  ]

let metric_value name =
  match Mapqn_obs.Metrics.find name with
  | { Mapqn_obs.Metrics.value = Mapqn_obs.Metrics.Counter v; _ } :: _
  | { Mapqn_obs.Metrics.value = Mapqn_obs.Metrics.Gauge v; _ } :: _ ->
    v
  | _ -> 0.

let read_counters () = List.map (fun (key, name) -> (key, metric_value name)) counters

let last_name path = match List.rev path with x :: _ -> x | [] -> ""

(* Spans named one of [names] with no ancestor of those names: nested
   re-entries are already inside their outermost span's total. *)
let outermost names (entries : Span.entry list) =
  List.filter
    (fun (e : Span.entry) ->
      match List.rev e.path with
      | x :: ancestors ->
        List.mem x names && not (List.exists (fun a -> List.mem a names) ancestors)
      | [] -> false)
    entries

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let total names entries = sum (fun (e : Span.entry) -> e.total) (outermost names entries)

(* Time to a prepared LP and time in certified reports; both spans are
   recorded whether or not profiling is on. *)
let create_s entries = total [ "bounds.create"; "bounds.sweep.step" ] entries
let eval_s entries = total [ "bounds.eval" ] entries

type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let ratio a b = if b > 0. then a /. b else 0.

(* Every layer metric but [trace.overhead], which compares passes and
   is filled in by the caller. [root] is the bench's span around the
   pass; [counters0]/[gc0] were read just before it and [gc1] right
   after. *)
let compute ~root ~(entries : Span.entry list) ~counters0 ~gc0 ~gc1 ~obs =
  let rows = Prof.attribution ~entries () in
  let named n = List.filter (fun (e : Span.entry) -> last_name e.path = n) entries in
  let self_of n =
    sum (fun (r : Prof.row) -> r.self)
      (List.filter (fun (r : Prof.row) -> last_name r.path = n) rows)
  in
  let count es = sum (fun (e : Span.entry) -> float_of_int e.count) es in
  let secs es = sum (fun (e : Span.entry) -> e.total) es in
  (* The pivot loop reports its sub-phases with [Span.add], which carries
     no GC delta; the phase span's own delta divided by its pivots
     (one "update" per pivot) gives words per pivot. *)
  let phase name =
    let spans = outermost [ name ] entries in
    let pivots =
      count
        (List.filter
           (fun (e : Span.entry) ->
             match List.rev e.path with "update" :: p :: _ -> p = name | _ -> false)
           entries)
    in
    let words = sum (fun (e : Span.entry) -> e.minor_words) spans in
    (secs spans, self_of name, pivots, ratio words pivots, count spans)
  in
  let p1_s, p1_self, p1_pivots, p1_wpp, _ = phase "revised.phase1" in
  let p2_s, p2_self, p2_pivots, p2_wpp, p2_solves = phase "revised.phase2" in
  let constraints = outermost [ "constraints.build"; "constraints.extend" ] entries in
  let factorize = named "factorize" in
  let root_total, root_self =
    match List.find_opt (fun (r : Prof.row) -> r.path = [ root ]) rows with
    | Some r -> (r.total, r.self)
    | None -> (0., 0.)
  in
  let covered =
    sum (fun (r : Prof.row) -> r.self)
      (List.filter
         (fun (r : Prof.row) ->
           match r.path with x :: _ :: _ -> x = root | _ -> false)
         rows)
  in
  let delta key =
    List.assoc key (read_counters ()) -. List.assoc key counters0
  in
  let bytes, records, sink_s = obs in
  [
    ("constraints.s", secs constraints);
    ("constraints.calls", count constraints);
    ("constraints.words", sum (fun (e : Span.entry) -> e.minor_words) constraints);
    ("revised.phase1.s", p1_s);
    ("revised.phase1.overhead_s", p1_self);
    ("revised.phase1.pivots", p1_pivots);
    ("revised.phase1.words_per_pivot", p1_wpp);
    ("revised.phase2.s", p2_s);
    ("revised.phase2.overhead_s", p2_self);
    ("revised.phase2.pivots", p2_pivots);
    ("revised.phase2.solves", p2_solves);
    ("revised.phase2.words_per_pivot", p2_wpp);
    ("revised.factorize.s", secs factorize);
    ("revised.factorize.calls", count factorize);
    ("revised.factorize.ms_per_call", 1e3 *. ratio (secs factorize) (count factorize));
    ("revised.price.s", secs (named "price"));
    ("revised.ratio.s", secs (named "ratio"));
    ("revised.update.s", secs (named "update"));
    ("certificate.s", secs (outermost [ "bounds.certify" ] entries));
    ("certificate.calls", count (outermost [ "bounds.certify" ] entries));
    ("bounds.rescue.s", secs (outermost [ "bounds.rescue" ] entries));
    ("fleet.overhead_s", root_self);
    ("obs.bytes", bytes);
    ("obs.records", records);
    ("obs.sink_s", sink_s);
    ("gc.minor_words", gc1.minor_words -. gc0.minor_words);
    ("gc.major_words", gc1.major_words -. gc0.major_words);
    ( "gc.major_collections",
      float_of_int (gc1.major_collections - gc0.major_collections) );
    ("trace.coverage", ratio covered root_total);
  ]
  @ List.map (fun (key, _) -> (key, delta key)) counters
