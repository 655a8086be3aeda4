(** Render metric and span snapshots for humans and machines. *)

type format = Table | Json | Json_lines | Prometheus

val format_of_string : string -> (format, string) result
(** Accepts ["table"], ["json"], ["jsonl"], ["prometheus"]. *)

val format_names : (string * format) list
(** Name/format association in the order accepted by
    {!format_of_string} — for building CLI enums. *)

val render :
  format -> metrics:Metrics.sample list -> spans:Span.entry list -> string
(** Dispatch to the matching renderer below. *)

val table : metrics:Metrics.sample list -> spans:Span.entry list -> string
(** Aligned human-readable tables: one for metrics, one for the span
    tree. Histograms additionally show estimated p50/p90/p99. *)

val percentile : Metrics.histogram_data -> float -> float
(** [percentile h q] estimates the [q]-quantile (0 ≤ q ≤ 1) of a
    histogram snapshot by linear interpolation over its cumulative
    buckets. Ranks falling in the +Inf bucket saturate at the last
    finite bound; an empty histogram yields [nan]. *)

val json : metrics:Metrics.sample list -> spans:Span.entry list -> string
(** One JSON document: [{"metrics": [...], "spans": [...]}]. Histogram
    buckets appear as [{"le": bound, "count": n}] with cumulative
    counts (the ["+Inf"] bucket equals the total count) and the
    overflow bound rendered as the string ["+Inf"]. Non-finite values
    render as [null]. *)

val json_lines : metrics:Metrics.sample list -> spans:Span.entry list -> string
(** One JSON object per line: metrics as
    [{"kind":"metric", ...}] then spans as [{"kind":"span", ...}] —
    stream-appendable across runs. *)

val prometheus : metrics:Metrics.sample list -> spans:Span.entry list -> string
(** Prometheus text exposition format (v0.0.4). Metric names are
    prefixed with [mapqn_] and sanitized; spans are exposed as
    [mapqn_span_duration_seconds_{total,count}{path="..."}] . *)

val write_file : string -> string -> unit
(** [write_file path contents] — ["-"] writes to stdout. *)

val aligned : string list list -> string
(** Rows of cells as columns two spaces apart, one line per row, every
    column but the last padded to its widest cell. *)

val open_append : string -> out_channel
(** [open_append path] opens [path] for appending JSONL records,
    creating it if needed. When the file ends in a torn line (a killed
    writer's last record without its newline), a newline goes first, so
    the next record starts on a line of its own. Raises [Sys_error] as
    [open_out_gen] does. *)
