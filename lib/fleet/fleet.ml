(* Multicore fleet runner for embarrassingly parallel model sweeps.

   Hand-rolled on OCaml 5 [Domain]s plus a [Mutex]/[Condition] chunk
   queue — no external dependency. Workers pull index chunks off a
   shared queue (self-scheduling, so a model whose LP stalls does not
   leave other workers idle behind a static partition), write results
   into distinct cells of a preallocated array, and run every task under
   its own {!Mapqn_obs.Run_ctx} with a seed derived deterministically
   from (experiment seed, task index) via {!Mapqn_prng.Rng.derive}.

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
(* Chunk queue                                                         *)
(* ------------------------------------------------------------------ *)

module Chunk_queue = struct
  (* FIFO of [first, last] index ranges. [pop] blocks until a chunk is
     available or the queue is closed — the producer side is trivial
     for a fixed task count (push everything, close), but the blocking
     contract is what lets a future streaming producer feed workers
     incrementally. *)
  type t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    mutable chunks : (int * int) list;  (* reversed: newest first *)
    mutable tail : (int * int) list;  (* pop side, oldest first *)
    mutable closed : bool;
  }

  let create () =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      chunks = [];
      tail = [];
      closed = false;
    }

  let push t range =
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      invalid_arg "Fleet.Chunk_queue.push: closed"
    end;
    t.chunks <- range :: t.chunks;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock

  let close t =
    Mutex.lock t.lock;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock

  let pop t =
    Mutex.lock t.lock;
    let rec next () =
      match t.tail with
      | r :: rest ->
        t.tail <- rest;
        Some r
      | [] -> (
        match t.chunks with
        | _ :: _ ->
          t.tail <- List.rev t.chunks;
          t.chunks <- [];
          next ()
        | [] ->
          if t.closed then None
          else begin
            Condition.wait t.nonempty t.lock;
            next ()
          end)
    in
    let r = next () in
    Mutex.unlock t.lock;
    r

  let of_range ~chunk ~total =
    let t = create () in
    let chunk = max 1 chunk in
    let i = ref 0 in
    while !i < total do
      let last = min (total - 1) (!i + chunk - 1) in
      push t (!i, last);
      i := last + 1
    done;
    close t;
    t
end

(* ------------------------------------------------------------------ *)
(* Parallel map                                                        *)
(* ------------------------------------------------------------------ *)

let map ?jobs ?(chunk = 1) f arr =
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
    let q = Chunk_queue.of_range ~chunk ~total in
    let worker () =
      let rec loop () =
        match Chunk_queue.pop q with
        | None -> ()
        | Some (first, last) ->
          for i = first to last do
            run_one i
          done;
          loop ()
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

let run_tasks ?jobs ?(chunk = 1) ?progress ?(skip = fun _ -> false) ~seed ~ids
    ~total ~f () =
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
  map ?jobs ~chunk (fun _ t -> t ()) (Array.init total task)
  |> Array.map (function Ok o -> o | Error e -> Failed e)
