(* Phase-level profiling attribution on top of the span tree.

   [Prof] owns the global profiling switch (consulted by hot-path
   instrumentation via [is_enabled], mirroring [Trace]) and turns span
   snapshots into self-time attribution: for every path, self = total −
   Σ direct children totals, so summing self over all paths telescopes
   to the summed root totals ≈ measured wall time. *)

(* Atomic, not a bare ref: worker domains consult the flag on their
   solver hot paths while the main domain may flip it. *)
let enabled = Atomic.make false

let enable () =
  Atomic.set enabled true;
  Span.set_gc_profiling true

let disable () =
  Atomic.set enabled false;
  Span.set_gc_profiling false

let is_enabled () = Atomic.get enabled
let now = Span.now

type row = {
  path : string list;
  count : int;
  total : float;
  self : float;
  max_ : float;
  minor_words : float;
  self_minor_words : float;
  major_words : float;
  promoted_words : float;
  compactions : int;
}

let is_direct_child ~parent path =
  let rec strip p c =
    match (p, c) with
    | [], [ _ ] -> true
    | x :: p, y :: c when String.equal x y -> strip p c
    | _ -> false
  in
  strip parent path

let attribution ?entries () =
  let entries =
    match entries with Some e -> e | None -> Span.snapshot ()
  in
  let rows =
    List.map
      (fun (e : Span.entry) ->
        let kids =
          List.filter
            (fun (k : Span.entry) -> is_direct_child ~parent:e.path k.path)
            entries
        in
        let child_total =
          List.fold_left (fun acc (k : Span.entry) -> acc +. k.total) 0. kids
        in
        let child_minor =
          List.fold_left
            (fun acc (k : Span.entry) -> acc +. k.minor_words)
            0. kids
        in
        {
          path = e.path;
          count = e.count;
          total = e.total;
          self = Float.max 0. (e.total -. child_total);
          max_ = e.max_;
          minor_words = e.minor_words;
          self_minor_words = Float.max 0. (e.minor_words -. child_minor);
          major_words = e.major_words;
          promoted_words = e.promoted_words;
          compactions = e.compactions;
        })
      entries
  in
  List.sort (fun a b -> compare b.self a.self) rows

let self_total rows = List.fold_left (fun acc r -> acc +. r.self) 0. rows

(* Subtract [baseline] aggregates from [current], path by path; rows
   that saw no activity since the baseline are dropped. Lets callers
   (e.g. the bench harness) attribute one section of a longer run
   without resetting the global collector. *)
let diff ~baseline current =
  let base = Hashtbl.create 32 in
  List.iter
    (fun (e : Span.entry) -> Hashtbl.replace base e.Span.path e)
    baseline;
  List.filter_map
    (fun (e : Span.entry) ->
      let e =
        match Hashtbl.find_opt base e.Span.path with
        | None -> e
        | Some b ->
          {
            e with
            Span.count = e.Span.count - b.Span.count;
            total = e.Span.total -. b.Span.total;
            minor_words = e.Span.minor_words -. b.Span.minor_words;
            major_words = e.Span.major_words -. b.Span.major_words;
            promoted_words = e.Span.promoted_words -. b.Span.promoted_words;
            compactions = e.Span.compactions - b.Span.compactions;
          }
      in
      if e.Span.count <= 0 && e.Span.total <= 0. then None else Some e)
    current

(* ------------------------------------------------------------------ *)
(* Attribution table                                                    *)
(* ------------------------------------------------------------------ *)

let words w =
  if w = 0. then "0"
  else if Float.abs w >= 1e9 then Printf.sprintf "%.2fG" (w /. 1e9)
  else if Float.abs w >= 1e6 then Printf.sprintf "%.2fM" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
  else Printf.sprintf "%.0f" w

let render_table ?limit rows =
  let shown, hidden =
    match limit with
    | Some n when n >= 0 && List.length rows > n ->
      (List.filteri (fun i _ -> i < n) rows, List.length rows - n)
    | _ -> (rows, 0)
  in
  let cells =
    [ "phase"; "count"; "total"; "self"; "max"; "minor words" ]
    :: List.map
         (fun r ->
           [
             String.concat "/" r.path;
             string_of_int r.count;
             Printf.sprintf "%.4fs" r.total;
             Printf.sprintf "%.4fs" r.self;
             Printf.sprintf "%.4fs" r.max_;
             words r.minor_words;
           ])
         shown
  in
  let table = Export.aligned cells in
  if hidden = 0 then table
  else Printf.sprintf "%s(+ %d more phases)\n" table hidden

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph)                                           *)
(* ------------------------------------------------------------------ *)

(* One line per path: "a;b;c <self-microseconds>". Standard flamegraph
   tooling (flamegraph.pl, inferno, speedscope) consumes this directly;
   self-time is the correct per-frame value because the tools re-derive
   cumulative time by summing descendants. *)
let folded ?entries () =
  let rows = attribution ?entries () in
  let rows = List.sort (fun a b -> compare a.path b.path) rows in
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf (String.concat ";" r.path);
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (int_of_float ((r.self *. 1e6) +. 0.5)));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let parse_folded s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             let stack = String.sub line 0 i in
             let value = String.sub line (i + 1) (String.length line - i - 1) in
             (match int_of_string_opt value with
             | None -> None
             | Some v -> Some (String.split_on_char ';' stack, v)))
