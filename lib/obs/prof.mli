(** Phase-level profiling attribution on top of {!Span}.

    Enabling [Prof] does two things: hot-path instrumentation guarded by
    {!is_enabled} starts accumulating fine-grained phase timings
    (simplex price/ratio/update, constraint-row emission vs assembly,
    ...), and every span additionally records [Gc.quick_stat] deltas.
    When disabled (the default) neither costs anything on the pivot
    path — the guard is a single flag read with no clock call and no
    allocation.

    Attribution turns a span snapshot into per-path rows with self-time
    (self = total − Σ direct-children totals); the self column over all
    rows telescopes to the summed root totals, i.e. the measured wall
    time of the instrumented region. *)

val enable : unit -> unit
(** Turn on profiling: hot-path phase accumulation and per-span GC
    deltas (via [Span.set_gc_profiling]). *)

val disable : unit -> unit

val is_enabled : unit -> bool
(** Cheap global check for hot paths, mirroring [Trace.is_enabled]. *)

val now : unit -> float
(** Monotonic seconds — alias of [Span.now], for accumulating phase
    intervals by hand when [is_enabled ()]. *)

type row = {
  path : string list;  (** outermost span first *)
  count : int;
  total : float;  (** cumulative seconds, including children *)
  self : float;  (** seconds not attributed to any child span *)
  max_ : float;
  minor_words : float;  (** cumulative minor-heap words *)
  self_minor_words : float;  (** minor words not attributed to children *)
  major_words : float;
  promoted_words : float;
  compactions : int;
}

val attribution : ?entries:Span.entry list -> unit -> row list
(** Self-time attribution rows, sorted by self-time descending.
    [entries] defaults to [Span.snapshot ()] of the default collector. *)

val self_total : row list -> float
(** Σ self over the rows — equals Σ root totals for a full snapshot. *)

val diff : baseline:Span.entry list -> Span.entry list -> Span.entry list
(** [diff ~baseline current] subtracts [baseline] aggregates path by
    path and drops rows with no activity since, so one section of a
    longer run can be attributed without resetting the collector. *)

val render_table : ?limit:int -> row list -> string
(** Human-readable attribution table (phase / count / total / self / max
    / minor words). [limit] truncates to the first rows with a
    "(+ n more phases)" footer. *)

val folded : ?entries:Span.entry list -> unit -> string
(** Folded-stack export: one line per path, ["a;b;c <self-µs>"],
    consumable by flamegraph.pl / inferno / speedscope. *)

val parse_folded : string -> (string list * int) list
(** Parse {!folded} output back into (path, self-µs) pairs. Lines that
    do not parse are skipped. *)
