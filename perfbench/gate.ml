(* Spread-aware comparison of two [perf.exe suite] outputs, per
   (workload, end-to-end metric), against the bounds in BENCHMARK.json.

   - improved: every candidate sample beats every base sample and the
     medians differ by more than the base spread, or the candidate
     median is better by more than the bound;
   - unresolved: otherwise, when the base spread (interquartile range
     over median) exceeds the bound, since noise that large could hide a
     regression;
   - regressed: the candidate median is worse than the base median by
     more than the bound;
   - unchanged: everything else, and a candidate whose samples equal the
     base's.

   Any increase of a workload's [failed_frac] is a regression: every
   reported bound must stay certified and contain the exact value.

   Exit code of [main]: 0 when nothing regressed or stayed unresolved,
   1 on any regression, 3 when some pair is unresolved but none
   regressed, 2 on unreadable input. *)

module J = Mapqn_obs.Json

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  base : float;  (* median; failed_frac itself for that row *)
  cand : float;
  spread : float;
  bound : float;
  verdict : verdict;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf compare: " ^ s); exit 2) fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> die "cannot read %s: %s" path msg
  | s -> ( match J.parse s with Ok v -> v | Error msg -> die "%s: %s" path msg)

let verdict ~lower_is_better ~bound ~base ~cand =
  let bm = Stats.median base and cm = Stats.median cand in
  (* Relative worsening of the candidate: positive is worse. *)
  let worse = (if lower_is_better then cm -. bm else bm -. cm) /. Float.abs bm in
  let beats c b = if lower_is_better then c < b else c > b in
  let dominates = List.for_all (fun c -> List.for_all (beats c) base) cand in
  let spread = Stats.spread base in
  let v =
    if base = cand then Unchanged
    else if dominates && -.worse > spread then Improved
    else if spread > bound then Unresolved
    else if worse > bound then Regressed
    else if worse < -.bound then Improved
    else Unchanged
  in
  (bm, cm, spread, v)

let samples doc =
  match J.member "samples" doc with
  | Some (J.List l) -> List.filter_map J.get_float l
  | _ -> []

let compare ~spec ~base ~cand =
  let metrics =
    match J.member "end_to_end" spec with
    | Some (J.List l) ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (J.member "name" m) J.get_string,
              Option.bind (J.member "better" m) J.get_string,
              Option.bind (J.member "bound" m) J.get_float )
          with
          | Some name, Some better, Some bound -> Some (name, better = "lower", bound)
          | _ -> None)
        l
    | _ -> die "benchmark spec has no end_to_end list"
  in
  let workloads doc =
    match J.member "workloads" doc with Some (J.Object kvs) -> kvs | _ -> []
  in
  List.concat_map
    (fun (workload, b) ->
      match List.assoc_opt workload (workloads cand) with
      | None ->
        [ { workload; metric = "(workload)"; base = Float.nan; cand = Float.nan;
            spread = Float.nan; bound = 0.; verdict = Unresolved } ]
      | Some c ->
        let frac d =
          Option.value ~default:1. (Option.bind (J.member "failed_frac" d) J.get_float)
        in
        let ff =
          let bf = frac b and cf = frac c in
          { workload; metric = "failed_frac"; base = bf; cand = cf; spread = 0.;
            bound = 0.; verdict = (if cf > bf then Regressed else Unchanged) }
        in
        ff
        :: List.map
             (fun (metric, lower_is_better, bound) ->
               let get d =
                 Option.map samples (Option.bind (J.member "metrics" d) (J.member metric))
               in
               match (get b, get c) with
               | Some (_ :: _ as base), Some (_ :: _ as cand) ->
                 let bm, cm, spread, verdict =
                   verdict ~lower_is_better ~bound ~base ~cand
                 in
                 { workload; metric; base = bm; cand = cm; spread; bound; verdict }
               | _ ->
                 { workload; metric; base = Float.nan; cand = Float.nan;
                   spread = Float.nan; bound; verdict = Unresolved })
             metrics)
    (workloads base)

let main ~bench ~base ~cand =
  let spec = read_json bench in
  let read_suite path =
    let doc = read_json path in
    match J.member "workloads" doc with
    | Some (J.Object _) -> doc
    | _ -> die "%s: not a perf suite output" path
  in
  let base_doc = read_suite base and cand_doc = read_suite cand in
  let rows = compare ~spec ~base:base_doc ~cand:cand_doc in
  Printf.printf "%-14s %-16s %12s %12s %8s %8s %7s  %s\n" "workload" "metric" "base"
    "cand" "change" "spread" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-16s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n" r.workload
        r.metric r.base r.cand
        (if r.base = 0. then 0. else 100. *. (r.cand -. r.base) /. Float.abs r.base)
        (100. *. r.spread) (100. *. r.bound) (verdict_to_string r.verdict))
    rows;
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  Printf.printf "%d improved, %d unchanged, %d regressed, %d unresolved\n" (count Improved)
    (count Unchanged) (count Regressed) (count Unresolved);
  if count Regressed > 0 then 1 else if count Unresolved > 0 then 3 else 0
