(** Append-only JSONL run ledger.

    One record per unit of solver work — a [Bounds.eval], a sweep step,
    a simulator run — carrying provenance (git SHA, model fingerprint,
    PRNG seed, solver configuration, warm/cold status) and outcome
    (bound values, pivot and refactorization deltas, phase timings, the
    certificate residual triple, and the {!Health} snapshot).

    The stream is crash-safe: the file is opened in append mode and
    flushed after every record, so the ledger of a killed sweep is
    intact up to the last completed unit and doubles as its checkpoint.
    {!load} skips a torn final line, mirroring
    [Progress.load_completed].

    Like {!Trace}, the writer is a process-global switch: the
    instrumented layers call {!record} unconditionally and it is a
    no-op until {!enable} opens a sink. The sink itself is
    mutex-guarded, so concurrent domains append whole records, never
    torn ones; per-domain provenance (model id, derived seed) rides in
    on the writer's current {!Run_ctx} overlay rather than the shared
    sink context. *)

(** {1 Writing} *)

type enable_error = [ `Already_enabled of string ]

val enable_error_to_string : enable_error -> string

val enable :
  ?context:(string * Json.t) list ->
  path:string ->
  unit ->
  (unit, enable_error) result
(** Open (append, create) [path] as the process ledger sink. [context]
    pairs are merged into every subsequent record (e.g. a model
    fingerprint or experiment name); a ["seed"] entry is surfaced as the
    record's top-level [seed] field. Replaces a previous sink on a
    {e different} path; enabling the path that is already the live sink
    is rejected with [`Already_enabled] (it would silently drop the
    sink's accumulated context and double-open the file) — {!disable}
    first to reopen deliberately. *)

val enable_exn : ?context:(string * Json.t) list -> path:string -> unit -> unit
(** {!enable}, raising [Invalid_argument] on [`Already_enabled]. *)

val disable : unit -> unit
(** Flush and close the sink; subsequent {!record}s are no-ops. *)

val is_enabled : unit -> bool

val path : unit -> string option
(** The sink path, when enabled. *)

val set_context : string -> Json.t -> unit
(** Set (or replace) one context pair on the live sink. No-op when
    disabled. *)

val record : event:string -> (string * Json.t) list -> unit
(** Append one record and flush. Every record carries [event], a wall
    clock [ts], [git_sha], [seed], then the body. [git_sha] names the
    checkout holding the executable, whatever the working directory: it
    is [git -C <directory of Sys.executable_name> rev-parse HEAD],
    resolved once per process, and [null] for a binary outside a
    checkout. The body merges, in increasing precedence: the sink
    context, the calling domain's {!Run_ctx.context} overlay, and
    [fields]. [seed] resolves as [fields] > overlay > the run context's
    own seed > sink context > [null]. No-op when disabled. *)

(** {1 Reading} *)

val load : string -> Json.t list
(** Parse a ledger file, skipping unparsable lines (notably the torn
    final line of a crashed run). A missing file is an empty ledger. *)

val event : Json.t -> string
(** The record's event name, [""] when absent. *)

val population : Json.t -> int
(** The record's population, [-1] when absent. *)

val summarize : Json.t list -> string
(** One table row per record: event, population, solver, duration,
    pivots, worst primal residual, commit. *)

(** {1 Diff} *)

type drift = {
  key : string;  (** "event N=pop #occurrence" *)
  bound_drift : float;  (** max |bound_a - bound_b| over shared metrics *)
  worst_metric : string;  (** metric attaining [bound_drift] *)
  duration_a : float;
  duration_b : float;
  pivots_a : float;
  pivots_b : float;
  fingerprint_changed : bool;
}

type diff_report = { matched : drift list; only_a : int; only_b : int }

val diff : Json.t list -> Json.t list -> diff_report
(** Match records of two runs by (event, population, occurrence index)
    and report bound-value and performance drift per matched pair. *)

val render_diff : diff_report -> string

(** {1 Doctor} *)

type severity = Info | Warn | Fail

type finding = {
  severity : severity;
  code : string;  (** stable machine-readable finding class *)
  where : string;  (** which record(s) *)
  detail : string;
}

val severity_to_string : severity -> string

val doctor :
  ?tol_primal:float ->
  ?tol_dual:float ->
  ?tol_comp:float ->
  Json.t list ->
  finding list
(** Scan solver records for numerical-trust hazards: certificate
    failures and near-misses (residual at ≥25% of tolerance), rescue
    outcomes (a record whose certificate initially failed but whose
    rescue-ladder rung repassed it is a Warn [cert-rescued], a rescue
    recorded with no failed check an Info, and an exhausted ladder a
    Fail [cert-uncertified]), drift-triggered reinversions, degeneracy
    stalls, perturbation-ladder retries, and the historical Fig-8
    signature — the worst certificate residual of the run sitting at
    the largest population. Tolerances default to the {!Certificate}
    defaults and are overridden per record when the record carries its
    own. *)

val render_findings : finding list -> string
