(** Low-overhead structured event journal for the solver hot paths.

    A trace is a fixed-capacity ring buffer of typed events, each stamped
    with a monotonic wall-clock time. The buffer is lossy by design: once
    full, new events overwrite the oldest and a dropped counter records
    how many were lost, so instrumentation never grows memory without
    bound on a million-pivot solve. Two sinks render a trace for
    inspection: JSONL (one event per line, greppable) and the Chrome
    trace-event format, which Perfetto ({:https://ui.perfetto.dev}) and
    [chrome://tracing] load directly.

    Tracing is disabled by default. The hot paths guard every emission
    with {!is_enabled} — a single mutable boolean read — so a disabled
    trace costs no allocation and no lock on the pivot path. *)

(** {1 Events} *)

type event =
  | Pivot of {
      solver : string;  (** ["revised"] or ["dense"] *)
      iteration : int;
      entering : int;  (** standard-form column entering the basis *)
      leaving : int;  (** standard-form column leaving the basis *)
      step : float;  (** primal step length (ratio-test minimum) *)
      objective : float;  (** phase objective after the pivot *)
      degenerate : bool;  (** the pivot did not improve the objective *)
    }
      (** One simplex basis exchange
          ({!Mapqn_lp.Revised}/{!Mapqn_lp.Simplex}). *)
  | Refactor of { solver : string; eta_nnz : int }
      (** Basis refactorization; [eta_nnz] is the size of the rebuilt
          eta file. *)
  | Sweep of { solver : string; iteration : int; delta : float }
      (** One iteration of a fixed-point loop (stationary-distribution
          power/Gauss–Seidel, eigenvalue power iteration); [delta] is
          the convergence residual after the sweep. *)
  | Batch of { events : int; sim_time : float; heap_size : int }
      (** Progress marker from the discrete-event simulator, emitted
          every few thousand events. *)
  | Certificate of {
      label : string;  (** objective label, e.g. ["min"]/["max"] *)
      primal_residual : float;
      gap : float;
          (** distance from the objective to its safe dual bound, as a
              fraction of the reporting margin *)
      accepted : bool;
    }  (** Result of an LP solution certificate check ({!Mapqn_core.Bounds}). *)
  | Mark of { name : string; detail : string }
      (** Free-form annotation (phase boundaries, CLI milestones). *)

(** {1 Ring buffer} *)

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** A fresh trace. [capacity] (default 65536, min 1) bounds retained
    events. [clock] (default the monotonic [Span.now]) is read at each
    emission; readings are clamped to be non-decreasing so timestamps
    are monotonic even if the wall clock steps backwards. *)

val emit : t -> event -> unit
(** Append an event, overwriting the oldest if the ring is full.
    Thread-safe. *)

val capacity : t -> int

val emitted : t -> int
(** Total events ever emitted (including overwritten ones). *)

val retained : t -> int
(** Events currently held: [min (emitted t) (capacity t)]. *)

val dropped : t -> int
(** Events lost to overwriting: [emitted t - retained t]. *)

val events : t -> (float * event) list
(** Retained [(timestamp, event)] pairs, oldest first. *)

val clear : t -> unit
(** Drop all retained events and reset the counters. *)

(** {1 Global trace}

    The hot paths record into a single process-wide trace so that
    instrumentation does not have to thread a handle through every
    solver signature. *)

val enable : ?capacity:int -> unit -> unit
(** Install a fresh global trace and turn recording on. *)

val disable : unit -> unit
(** Turn recording off and drop the global trace. *)

val is_enabled : unit -> bool
(** Cheap guard for emission sites: a single boolean read, no lock, no
    allocation. Idiom: [if Trace.is_enabled () then Trace.record (...)]
    — the event constructor then only allocates when tracing is on. *)

val record : event -> unit
(** Emit into the global trace; no-op when disabled. *)

val current : unit -> t option
(** The global trace, when enabled. *)

(** {1 Sinks} *)

type format =
  | Jsonl  (** one JSON object per event, one per line *)
  | Chrome
      (** Chrome trace-event format (JSON object with a [traceEvents]
          array); loadable in Perfetto or [chrome://tracing].
          Timestamps are microseconds relative to the first retained
          event. Scalar series (simplex objective, sweep residuals)
          additionally render as counter tracks. *)

val format_names : string list
val format_of_string : string -> (format, string) result

val render : format -> t -> string

val write : format -> path:string -> t -> unit
(** Render to a file; [path = "-"] writes to stdout. *)
