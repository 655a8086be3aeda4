(** Multicore fleet runner for embarrassingly parallel model sweeps.

    A work-stealing pool over OCaml 5 domains — hand-rolled
    [Domain] + [Mutex]/[Condition] chunk queue, no external
    dependency — that shards independent model evaluations: Table-1
    style experiments where each of thousands of models runs its own
    {!Mapqn_core.Bounds.Sweep} and the models share nothing but the
    (mutex-guarded) telemetry sinks.

    Every task runs under its own {!Mapqn_obs.Run_ctx} carrying a seed
    derived deterministically from the experiment seed and the task
    index ({!task_seed}), so results, per-task seeds and ledger-record
    contents are bit-identical for every [jobs] value; only file-level
    record order varies. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** {1 Chunk queue} *)

module Chunk_queue : sig
  type t
  (** A closable FIFO of [(first, last)] index ranges guarded by a
      mutex and condition variable. *)

  val create : unit -> t

  val push : t -> int * int -> unit
  (** Enqueue a range. Raises [Invalid_argument] after {!close}. *)

  val close : t -> unit
  (** No more ranges; blocked and future {!pop}s drain then return
      [None]. *)

  val pop : t -> (int * int) option
  (** Dequeue the oldest range, blocking while the queue is empty and
      not closed. [None] once closed and drained. *)

  val of_range : chunk:int -> total:int -> t
  (** A closed queue covering [0, total) in ranges of at most [chunk]
      (at least 1) indices. *)
end

(** {1 Parallel map} *)

val map :
  ?jobs:int ->
  ?chunk:int ->
  (int -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** [map f arr] applies [f i arr.(i)] to every element, on up to [jobs]
    domains (default {!default_jobs}, clamped to the array length; the
    calling domain is one of the workers). Workers self-schedule
    [chunk]-sized index ranges (default 1 — right for tasks that take
    milliseconds or more), so slow tasks do not serialize the rest.
    Per-element exceptions become [Error]; result order is array
    order. *)

(** {1 Task runner} *)

type 'a outcome =
  | Done of 'a
  | Skipped  (** excluded by the [skip] predicate (e.g. resume) *)
  | Failed of exn

val task_seed : seed:int -> int -> int
(** The deterministic per-task seed: [Rng.derive ~seed index]. *)

val run_tasks :
  ?jobs:int ->
  ?chunk:int ->
  ?progress:Mapqn_obs.Progress.t ->
  ?skip:(string -> bool) ->
  ?certified:('a -> bool) ->
  seed:int ->
  ids:(int -> string) ->
  total:int ->
  f:(int -> 'a) ->
  unit ->
  'a outcome array
(** [run_tasks ~seed ~ids ~total ~f ()] evaluates [f index] for every
    [index] in [0, total) as a fleet. Each non-skipped task runs under a
    fresh {!Mapqn_obs.Run_ctx} whose seed is [task_seed ~seed index] and
    whose ledger overlay carries [("model", ids index)] — concurrent
    workers' ledger records each name their own model and derived seed.

    [skip id] excludes a task (reported to [progress] as skipped, like a
    resume). Progress uses the explicit-id
    {!Mapqn_obs.Progress.task_start}/[task_done] events; a failed task
    emits no ["done"] heartbeat, so a resumed run retries it.
    [certified v] (default always [true]) classifies a completed task's
    result: when [false], the ["done"] heartbeat is stamped
    ["certified": false], so a resume that loads the checkpoint with
    [Progress.load_completed ~require_certified:true] retries the task
    just like a failure. The result array is in task order regardless of
    scheduling. *)
