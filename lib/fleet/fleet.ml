(* Multicore fleet runner for embarrassingly parallel model sweeps.

   Hand-rolled on OCaml 5 [Domain]s plus one [Atomic] index counter — no
   external dependency. Workers claim the next index off the counter
   (self-scheduling, so a model whose LP stalls does not leave other
   workers idle behind a static partition), write results into distinct
   cells of a preallocated array, and run every task under its own
   {!Mapqn_obs.Run_ctx} with a seed derived deterministically from
   (experiment seed, task index) via {!Mapqn_prng.Rng.derive}.

   Determinism contract: with a deterministic task function, the result
   array, each task's run-context seed, and each task's ledger record
   contents are identical for every [jobs] value — only the order in
   which ledger/heartbeat lines hit the file varies (both are
   record-atomic behind their own locks). *)

module Rng = Mapqn_prng.Rng
module Run_ctx = Mapqn_obs.Run_ctx
module Progress = Mapqn_obs.Progress
module Json = Mapqn_obs.Json
module Span = Mapqn_obs.Span

let default_jobs () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Parallel map                                                        *)
(* ------------------------------------------------------------------ *)

let map ?jobs f arr =
  let total = Array.length arr in
  let jobs =
    max 1 (min (match jobs with Some j -> j | None -> default_jobs ()) total)
  in
  let out = Array.make total None in
  let run_one i = out.(i) <- Some (try Ok (f i arr.(i)) with e -> Error e) in
  if jobs <= 1 || total <= 1 then
    for i = 0 to total - 1 do
      run_one i
    done
  else begin
    (* Each worker claims the next unclaimed index, so indices start in
       array order and every one runs exactly once. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < total then begin
          run_one i;
          loop ()
        end
      in
      loop ()
    in
    (* The spawning domain is worker number [jobs]: [jobs] ways of
       parallelism need only [jobs - 1] extra domains. *)
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.map (function Some r -> r | None -> assert false) out

(* ------------------------------------------------------------------ *)
(* Task runner with context, checkpoint and progress                   *)
(* ------------------------------------------------------------------ *)

type 'a outcome = Done of 'a | Skipped | Failed of exn

let task_seed ~seed index = Rng.derive ~seed index

let run_tasks ?jobs ?progress ?(skip = fun _ -> false) ~seed ~ids ~total ~f () =
  let report g = Option.iter g progress in
  let task index () =
    let id = ids index in
    if skip id then begin
      report (fun p -> Progress.skip p ~seed id);
      Skipped
    end
    else begin
      let task_seed = task_seed ~seed index in
      let ctx =
        Run_ctx.create ~seed:task_seed
          ~context:[ ("model", Json.String id) ]
          ()
      in
      report (fun p -> Progress.task_start p ~seed:task_seed id);
      let t0 = Span.now () in
      match Run_ctx.with_ ctx (fun () -> f index) with
      | v ->
        report (fun p ->
            Progress.task_done p ~seed:task_seed ~elapsed:(Span.now () -. t0) id);
        Done v
      | exception e ->
        (* No "done" heartbeat: a resumed run must retry this task. *)
        Failed e
    end
  in
  map ?jobs (fun _ t -> t ()) (Array.init total task)
  |> Array.map (function Ok o -> o | Error e -> Failed e)
