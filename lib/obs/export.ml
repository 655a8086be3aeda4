type format = Table | Json | Json_lines | Prometheus

let format_names =
  [ ("table", Table); ("json", Json); ("jsonl", Json_lines); ("prometheus", Prometheus) ]

let format_of_string s =
  match List.assoc_opt (String.lowercase_ascii s) format_names with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown metrics format %S (expected %s)" s
         (String.concat ", " (List.map fst format_names)))

let span_path path = String.concat "/" path

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

(* Minimal column alignment, shared by the table renderer, the ledger's
   summaries and the profile attribution table; Mapqn_util.Table is not
   used because this library sits below util in the dependency order
   (util itself may one day be instrumented). *)
let aligned rows =
  let widths =
    List.fold_left
      (fun ws row ->
        List.mapi
          (fun i cell ->
            let prev = try List.nth ws i with _ -> 0 in
            max prev (String.length cell))
          row)
      [] rows
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf cell;
          (* pad all but the last column *)
          if i < List.length row - 1 then
            Buffer.add_string buf
              (String.make (List.nth widths i - String.length cell) ' '))
        row;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let num v =
  if Float.is_nan v then "nan"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* Estimate a quantile from cumulative le-buckets by linear
   interpolation inside the bucket containing the target rank — the
   standard Prometheus histogram_quantile estimate. The +Inf bucket has
   no upper bound to interpolate toward, so it reports the last finite
   bound (the estimate saturates rather than invents a value). *)
let percentile (h : Metrics.histogram_data) q =
  if h.Metrics.count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int h.Metrics.count in
    let buckets = h.Metrics.buckets in
    let n = Array.length buckets in
    let rec find i = if i >= n - 1 then i else
        let _, c = buckets.(i) in
        if float_of_int c >= rank then i else find (i + 1)
    in
    let i = find 0 in
    let le, c = buckets.(i) in
    if not (Float.is_finite le) then
      (* saturate at the last finite bound; with only the +Inf bucket
         nothing finite is known. *)
      if i = 0 then Float.nan else fst buckets.(i - 1)
    else begin
      let lower, prev_c = if i = 0 then (0., 0) else buckets.(i - 1) in
      let span = float_of_int (c - prev_c) in
      if span <= 0. then le
      else lower +. ((le -. lower) *. ((rank -. float_of_int prev_c) /. span))
    end
  end

let labels_cell labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)

let table ~metrics ~spans =
  let buf = Buffer.create 2048 in
  if metrics <> [] then begin
    let rows =
      [ "metric"; "labels"; "type"; "value" ]
      :: List.map
           (fun (s : Metrics.sample) ->
             let kind, v =
               match s.Metrics.value with
               | Metrics.Counter c -> ("counter", num c)
               | Metrics.Gauge g -> ("gauge", num g)
               | Metrics.Histogram h ->
                 let quantiles =
                   if h.Metrics.count = 0 then ""
                   else
                     Printf.sprintf " p50=%s p90=%s p99=%s"
                       (num (percentile h 0.50))
                       (num (percentile h 0.90))
                       (num (percentile h 0.99))
                 in
                 ( "histogram",
                   Printf.sprintf "count=%d sum=%s mean=%s%s" h.Metrics.count
                     (num h.Metrics.sum)
                     (num
                        (if h.Metrics.count = 0 then 0.
                         else h.Metrics.sum /. float_of_int h.Metrics.count))
                     quantiles )
             in
             [ s.Metrics.name; labels_cell s.Metrics.labels; kind; v ])
           metrics
    in
    Buffer.add_string buf (aligned rows)
  end;
  if spans <> [] then begin
    if metrics <> [] then Buffer.add_char buf '\n';
    (* The allocation column only appears when GC profiling recorded
       something, so unprofiled output is unchanged. *)
    let with_gc = List.exists (fun (e : Span.entry) -> e.Span.minor_words > 0.) spans in
    let rows =
      ([ "span"; "count"; "total"; "max" ] @ (if with_gc then [ "minor words" ] else []))
      :: List.map
           (fun (e : Span.entry) ->
             [
               span_path e.Span.path;
               string_of_int e.Span.count;
               Printf.sprintf "%.4fs" e.Span.total;
               Printf.sprintf "%.4fs" e.Span.max_;
             ]
             @ (if with_gc then [ num e.Span.minor_words ] else []))
           spans
    in
    Buffer.add_string buf (aligned rows)
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ json_escape s ^ "\""

let json_num v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.12g" v
  else "null"

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) labels)
  ^ "}"

let json_metric (s : Metrics.sample) =
  let base =
    [
      ("name", json_str s.Metrics.name);
      ("labels", json_labels s.Metrics.labels);
    ]
  in
  let rest =
    match s.Metrics.value with
    | Metrics.Counter c -> [ ("type", json_str "counter"); ("value", json_num c) ]
    | Metrics.Gauge g -> [ ("type", json_str "gauge"); ("value", json_num g) ]
    | Metrics.Histogram h ->
      [
        ("type", json_str "histogram");
        ("count", string_of_int h.Metrics.count);
        ("sum", json_num h.Metrics.sum);
        ( "buckets",
          "["
          ^ String.concat ","
              (List.map
                 (fun (le, n) ->
                   Printf.sprintf "{\"le\":%s,\"count\":%d}"
                     (if Float.is_finite le then json_num le else "\"+Inf\"")
                     n)
                 (Array.to_list h.Metrics.buckets))
          ^ "]" )
      ]
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) (base @ rest))
  ^ "}"

let json_span (e : Span.entry) =
  (* GC fields are emitted only when profiling recorded them, keeping
     unprofiled output byte-identical to before. *)
  let gc =
    if
      e.Span.minor_words = 0. && e.Span.major_words = 0.
      && e.Span.promoted_words = 0.
      && e.Span.compactions = 0
    then ""
    else
      Printf.sprintf
        ",\"minor_words\":%s,\"major_words\":%s,\"promoted_words\":%s,\"compactions\":%d"
        (json_num e.Span.minor_words)
        (json_num e.Span.major_words)
        (json_num e.Span.promoted_words)
        e.Span.compactions
  in
  Printf.sprintf "{\"path\":%s,\"count\":%d,\"total_seconds\":%s,\"max_seconds\":%s%s}"
    (json_str (span_path e.Span.path))
    e.Span.count
    (json_num e.Span.total)
    (json_num e.Span.max_)
    gc

let json ~metrics ~spans =
  Printf.sprintf "{\"metrics\":[%s],\"spans\":[%s]}\n"
    (String.concat "," (List.map json_metric metrics))
    (String.concat "," (List.map json_span spans))

let json_lines ~metrics ~spans =
  let buf = Buffer.create 2048 in
  List.iter
    (fun m ->
      Buffer.add_string buf ("{\"kind\":\"metric\",\"metric\":" ^ json_metric m ^ "}\n"))
    metrics;
  List.iter
    (fun s ->
      Buffer.add_string buf ("{\"kind\":\"span\",\"span\":" ^ json_span s ^ "}\n"))
    spans;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Prometheus                                                          *)
(* ------------------------------------------------------------------ *)

let prom_sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_name name = "mapqn_" ^ prom_sanitize name

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_sanitize k) (json_escape v)) labels)
    ^ "}"

let prom_num v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let prometheus ~metrics ~spans =
  let buf = Buffer.create 2048 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (s : Metrics.sample) ->
      let name = prom_name s.Metrics.name in
      let labels = s.Metrics.labels in
      match s.Metrics.value with
      | Metrics.Counter c ->
        header name "counter" s.Metrics.help;
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_num c))
      | Metrics.Gauge g ->
        header name "gauge" s.Metrics.help;
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_num g))
      | Metrics.Histogram h ->
        header name "histogram" s.Metrics.help;
        (* Snapshot buckets are already cumulative with +Inf = count. *)
        Array.iter
          (fun (le, n) ->
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (prom_labels (labels @ [ ("le", prom_num le) ]))
                 n))
          h.Metrics.buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
             (prom_num h.Metrics.sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels)
             h.Metrics.count))
    metrics;
  if spans <> [] then begin
    let name = "mapqn_span_duration_seconds" in
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s Wall time spent inside each span path.\n" name);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s_total counter\n" name);
    List.iter
      (fun (e : Span.entry) ->
        let l = prom_labels [ ("path", span_path e.Span.path) ] in
        Buffer.add_string buf
          (Printf.sprintf "%s_total%s %s\n" name l (prom_num e.Span.total));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name l e.Span.count))
      spans
  end;
  Buffer.contents buf

let render format ~metrics ~spans =
  match format with
  | Table -> table ~metrics ~spans
  | Json -> json ~metrics ~spans
  | Json_lines -> json_lines ~metrics ~spans
  | Prometheus -> prometheus ~metrics ~spans

let write_file path contents =
  if path = "-" then (print_string contents; flush stdout)
  else begin
    let oc = open_out path in
    Fun.protect
      (fun () -> output_string oc contents)
      ~finally:(fun () -> close_out oc)
  end

(* A killed writer may have torn the final line without its newline;
   appending straight after would garble the first new record into the
   torn one. Resume on a fresh line instead. *)
let open_append path =
  let torn_tail =
    Sys.file_exists path
    && (try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let len = in_channel_length ic in
              len > 0
              &&
              (seek_in ic (len - 1);
               input_char ic <> '\n'))
        with _ -> false)
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  if torn_tail then output_char oc '\n';
  oc
