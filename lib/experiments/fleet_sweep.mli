(** Random-model fleet sweeps: the paper's Table 1 and [mapqn fleet].

    Table 1 is the distribution, over random 3-queue MAP(2) networks,
    of the maximal relative error of the response-time bounds against
    the exact solution over a population grid: the paper's four
    statistics (mean, std dev, median, max) for the upper bound [R_max]
    (from [X_min]) and the lower bound [R_min] (from [X_max]). The same
    sweep scales to the paper's 10,000 models and beyond (4-5 queues,
    populations to 1000): per-model {!Mapqn_core.Bounds.Sweep}s sharded
    across a {!Mapqn_fleet} domain pool, with the exact-CTMC comparison
    an opt-in for small populations ([exact_upto]), since exact solves,
    not the LP bounds, are what make paper-scale grids infeasible.

    Models are generated sequentially from [seed] on the calling domain
    (microseconds per model against milliseconds to seconds of LP work),
    and each model evaluates under a run context seeded with
    [Fleet.task_seed ~seed index]; so the model set, every row (but its
    [duration_s]) and every ledger record body are bit-identical for
    every [jobs] value. A progress reporter's heartbeat file doubles as
    the resume checkpoint. *)

type options = {
  spec : Mapqn_workloads.Random_models.spec;
  models : int;  (** paper scale: 10_000 *)
  populations : int list;  (** paper: 1..100; beyond-paper: up to 1000 *)
  config : Mapqn_core.Constraints.config;
  seed : int;
  jobs : int;  (** worker domains (1 = sequential, same results) *)
  exact_upto : int;
      (** also solve the exact CTMC and track bound errors for
          populations [<= exact_upto]; [0] disables (bounds only) *)
}

val default_options : options
(** 100 models, populations [1;2;4;8;16;32;64;100], [full] constraints,
    seed 2008, 1 job, no exact comparison. *)

val table1_bench : options
(** Table 1 at bench scale: 12 models, populations [1;2;4;8], [full]
    constraints, seed 2008, 1 job, exact comparison at every
    population. *)

val table1_paper : options
(** Table 1 as [--paper-scale] runs it: 50 models, populations
    [1;2;4;8;16;32], otherwise as {!table1_bench}. The paper runs 10,000
    models over every population 1..100; the exact CTMC limits this
    preset's grid, and the statistics estimate the same population
    quantities (EXPERIMENTS.md). *)

type model_row = {
  index : int;
  id : string;  (** ["model-NNNNN"] *)
  model_seed : int;  (** the task's derived seed *)
  fingerprint : string;
  bounds : (int * Mapqn_core.Bounds.interval) list;
      (** response-time bounds per population, grid order *)
  rescues : (int * Mapqn_obs.Health.rescue) list;
      (** populations whose evaluation engaged the certificate rescue
          ladder (or whose post-solve refinement corrected a
          certificate-threatening residual), with the deepest rung
          engaged; grid order *)
  uncertified : int;
      (** populations whose rescue ladder was exhausted: their bounds are
          safe dual bounds, valid but of unproven tightness *)
  max_err_lower : float;  (** vs exact over [N <= exact_upto]; NaN if none *)
  max_err_upper : float;
  bracket_violations : int;
  duration_s : float;
}

type t = {
  options : options;
  rows : model_row list;  (** evaluated models, index order *)
  skipped : int;
  failed : (string * exn) list;
      (** (model id, error) per failed model, index order. A failure —
          a solver error on a numerically hard random model — does not
          abort the fleet; the model emits no checkpoint entry, so a
          resumed run retries exactly it. *)
  wall_s : float;
  width_stats : float * float * float * float;
      (** (mean, std, median, max) of the relative response-time bound
          width at the largest population *)
  rmax_stats : float * float * float * float;
  rmin_stats : float * float * float * float;
}

val run :
  ?options:options ->
  ?progress:Mapqn_obs.Progress.t ->
  ?skip:(string -> bool) ->
  ?sink:(model_row -> unit) ->
  unit ->
  t
(** Evaluate the fleet. [sink] receives each row on the worker domain
    that produced it, as soon as it completes — stream large runs to
    disk instead of accumulating; the callback must be thread-safe.
    [progress], when given, receives one task per model (id
    ["model-NNNNN"], one phase per population). [skip id] (default never)
    excludes a model: generation is deterministic in [seed], so the ids
    a previous run's heartbeat file marks done ({!completed}) resume a
    partial sweep, and the statistics then cover the models evaluated
    this run. Per-model failures land in [failed] rather than aborting
    the run. *)

val completed : options -> string -> string list
(** [completed options path]: the ids a heartbeat file records as done
    or skipped ({!Mapqn_obs.Progress.load_completed}) that name a model
    of this run — ["model-NNNNN"] with an index below [options.models],
    in file order. Ids of another grid or format (a four-digit
    ["model-NNNN"] id, say) name no model here and are dropped, so a
    resume counts only the models it will skip. *)

val row_to_json : model_row -> Mapqn_obs.Json.t
(** The row as one self-describing JSONL object (the CLI's [--out]
    format). *)

val print : t -> unit
