(** Sweep progress reporting for long experiment runs.

    A reporter tracks [completed]/[total] models, derives an ETA from
    elapsed wall time, draws a TTY-aware live status line (single
    rewritten line on a terminal, one scrolling line per completed model
    otherwise), and optionally appends JSONL heartbeat records — model
    id, seed, phase, elapsed — to a channel. The heartbeat file doubles
    as a checkpoint: {!load_completed} returns the model ids a previous
    run finished so a rerun can skip them.

    All state and rendering sit behind one mutex, so a single reporter
    can be shared by worker domains: heartbeat records never interleave
    mid-line and the TTY status line never tears. Every event names its
    model explicitly ({!task_start}/{!task_phase}/{!task_done}, {!skip}):
    with several models in flight, "the current model" would not
    identify whose event is being reported. *)

type t

val create :
  ?clock:(unit -> float) ->
  ?out:out_channel ->
  ?tty:bool ->
  ?quiet:bool ->
  ?heartbeat:out_channel ->
  total:int ->
  string ->
  t
(** [create ~total label]. [clock] (default monotonic [Span.now]) makes
    ETA math deterministic in tests. [out] (default [stderr]) receives
    console output unless [quiet]; [tty] overrides terminal detection on
    [out]. [heartbeat] receives one JSONL record per event; the caller
    owns the channel (a file opened with {!Export.open_append} resumes
    cleanly after a torn line). *)

val skip : t -> ?seed:int -> string -> unit
(** Record model [id] as skipped (e.g. found in a resume file). Counts
    toward [completed] so ETA reflects remaining work only. *)

val task_start : t -> ?seed:int -> string -> unit
(** Emit a ["start"] heartbeat for model [id]; the live line shows the
    most recently started task. *)

val task_phase : t -> id:string -> string -> unit
(** Emit a ["phase"] heartbeat for model [id]. It carries no seed; the
    task's ["start"] and ["done"] records do. *)

val task_done :
  t -> ?seed:int -> ?elapsed:float -> ?certified:bool -> string -> unit
(** Emit a ["done"] heartbeat for model [id] and bump [completed].
    [elapsed] is the task's own wall time as measured by the caller
    (the reporter cannot attribute shared wall time to one of several
    in-flight tasks); defaults to [0.]. [certified] (default [true])
    marks whether every solve of the task passed its optimality
    certificate; [false] stamps ["certified": false] on the record so
    {!load_completed} [~require_certified:true] will not count it. *)

val close : t -> unit
(** Clear the live line, print a final summary, flush the heartbeat
    channel (without closing it). *)

val completed : t -> int
val elapsed : t -> float

val eta_seconds : t -> float option
(** [elapsed / completed * remaining]; [None] until the first model
    completes or once everything is done. *)

val load_completed : ?require_certified:bool -> string -> string list
(** Model ids recorded as done (or skipped) in a heartbeat JSONL file,
    deduplicated, in file order. A missing file or unparsable lines
    yield no ids rather than an error. [~require_certified:true]
    (default [false]) additionally drops ["done"] records stamped
    ["certified": false] — a resumed fleet run then re-runs
    rescued-but-uncertified models exactly like failed ones. *)
