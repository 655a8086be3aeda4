(* Fleet runner: the determinism contract (parallel == sequential,
   bit for bit), run-context isolation across domains, and
   torn-record-free concurrent telemetry. *)

module Fleet = Mapqn_fleet.Fleet
module Run_ctx = Mapqn_obs.Run_ctx
module Ledger = Mapqn_obs.Ledger
module Json = Mapqn_obs.Json
module Bounds = Mapqn_core.Bounds
module Fleet_sweep = Mapqn_experiments.Fleet_sweep

(* ---------------- Parallel map ---------------- *)

let test_map_matches_sequential () =
  let arr = Array.init 57 (fun i -> i) in
  let value i x = (i * 31) + (x * x) in
  (* Tasks of uneven duration let a fast worker overtake a slow one. *)
  let uneven i x =
    for _ = 1 to i * 7 mod 11 * 2_000 do
      Domain.cpu_relax ()
    done;
    value i x
  in
  let runs = Array.init (Array.length arr) (fun _ -> Atomic.make 0) in
  let counted f i x =
    Atomic.incr runs.(i);
    f i x
  in
  let seq = Fleet.map ~jobs:1 value arr in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "value" (value i arr.(i)) v
      | Error _ -> Alcotest.fail "unexpected error")
    seq;
  List.iter
    (fun (name, f) ->
      List.iter
        (fun jobs ->
          Array.iter (fun c -> Atomic.set c 0) runs;
          let par = Fleet.map ~jobs (counted f) arr in
          Alcotest.(check bool)
            (Printf.sprintf "%s tasks, jobs=%d: equals sequential, in array order"
               name jobs)
            true (par = seq);
          Alcotest.(check (array int))
            (Printf.sprintf "%s tasks, jobs=%d: every index runs once" name jobs)
            (Array.make (Array.length arr) 1)
            (Array.map Atomic.get runs))
        [ 2; 3; 4; 5; 8 ])
    [ ("even", value); ("uneven", uneven) ]

let test_map_captures_exceptions () =
  let arr = [| 0; 1; 2; 3 |] in
  let results =
    Fleet.map ~jobs:2
      (fun _ x -> if x = 2 then failwith "boom" else x * 10)
      arr
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error (Failure msg) -> Alcotest.(check string) "message" "boom" msg
      | 2, _ -> Alcotest.fail "element 2 must fail with Failure boom"
      | i, Ok v -> Alcotest.(check int) "ok element" (arr.(i) * 10) v
      | _, Error _ -> Alcotest.fail "only element 2 may fail")
    results

(* ---------------- Task seeds ---------------- *)

let test_task_seed_deterministic () =
  for index = 0 to 100 do
    Alcotest.(check int) "stable"
      (Fleet.task_seed ~seed:2008 index)
      (Fleet.task_seed ~seed:2008 index)
  done;
  (* Distinct across indices and across master seeds (a collision here
     would hand two models the same stream). *)
  let seen = Hashtbl.create 512 in
  List.iter
    (fun seed ->
      for index = 0 to 200 do
        let s = Fleet.task_seed ~seed index in
        Alcotest.(check bool) "non-negative" true (s >= 0);
        if Hashtbl.mem seen s then Alcotest.failf "seed collision at %d" s;
        Hashtbl.replace seen s ()
      done)
    [ 1; 2; 2008 ]

(* ---------------- Run_ctx ---------------- *)

let test_run_ctx_scoping () =
  let ctx = Run_ctx.create ~seed:17 ~context:[ ("model", Json.String "m") ] () in
  Alcotest.(check (option int)) "seed" (Some 17) (Run_ctx.seed ctx);
  Alcotest.(check bool) "rng derived from seed" true (Run_ctx.rng ctx <> None);
  let outer = Run_ctx.current () in
  Run_ctx.with_ ctx (fun () ->
      Alcotest.(check int) "current is ctx" (Run_ctx.id ctx)
        (Run_ctx.id (Run_ctx.current ())));
  Alcotest.(check int) "restored" (Run_ctx.id outer)
    (Run_ctx.id (Run_ctx.current ()))

let test_run_ctx_slot_isolated () =
  let slot = Run_ctx.slot ~name:"test-counter" (fun () -> ref 0) in
  let a = Run_ctx.create () and b = Run_ctx.create () in
  incr (Run_ctx.get a slot);
  incr (Run_ctx.get a slot);
  Alcotest.(check int) "a sees its own" 2 !(Run_ctx.get a slot);
  Alcotest.(check int) "b starts fresh" 0 !(Run_ctx.get b slot)

let test_run_ctx_domain_local_current () =
  (* Each domain gets its own anonymous root context: a with_ on one
     domain must not leak into another. *)
  let ctx = Run_ctx.create ~seed:5 () in
  Run_ctx.with_ ctx (fun () ->
      let other =
        Domain.join (Domain.spawn (fun () -> Run_ctx.id (Run_ctx.current ())))
      in
      Alcotest.(check bool) "other domain has its own root" true
        (other <> Run_ctx.id ctx))

(* ---------------- run_tasks ---------------- *)

let test_run_tasks_outcomes () =
  let skip id = id = "t-1" in
  let outcomes =
    Fleet.run_tasks ~jobs:2 ~skip ~seed:99
      ~ids:(Printf.sprintf "t-%d") ~total:4
      ~f:(fun i ->
        if i = 3 then failwith "task 3 fails"
        else (i, Run_ctx.seed (Run_ctx.current ())))
      ()
  in
  (match outcomes.(0) with
  | Fleet.Done (0, Some s) ->
    Alcotest.(check int) "derived seed" (Fleet.task_seed ~seed:99 0) s
  | _ -> Alcotest.fail "task 0 must be Done with its derived seed");
  (match outcomes.(1) with
  | Fleet.Skipped -> ()
  | _ -> Alcotest.fail "task 1 must be Skipped");
  (match outcomes.(2) with
  | Fleet.Done (2, Some _) -> ()
  | _ -> Alcotest.fail "task 2 must be Done");
  match outcomes.(3) with
  | Fleet.Failed (Failure msg) ->
    Alcotest.(check string) "failure" "task 3 fails" msg
  | _ -> Alcotest.fail "task 3 must be Failed"

(* ---------------- Parallel == sequential, bit for bit ---------------- *)

let with_temp_ledger f =
  let tmp = Filename.temp_file "mapqn_fleet" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Ledger.disable ();
      Sys.remove tmp)
    (fun () -> f tmp)

(* Strip the fields that legitimately vary between two runs of the same
   code (wall clock and durations); everything else — bounds, seeds,
   fingerprints, work deltas, health — must be bit-identical. *)
let strip_volatile = function
  | Json.Object kvs ->
    Json.Object
      (List.filter (fun (k, _) -> k <> "ts" && k <> "duration_s") kvs)
  | other -> other

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let ledger_fingerprints path =
  Ledger.load path
  |> List.map (fun r -> Json.to_string (strip_volatile r))
  |> List.sort compare

let table1_options =
  {
    Fleet_sweep.table1_bench with
    Fleet_sweep.models = 4;
    populations = [ 1; 2 ];
    config = Mapqn_core.Constraints.standard;
  }

(* Everything a run computes, i.e. every row field but the wall-clock
   [duration_s], plus the failed ids. *)
let results (t : Fleet_sweep.t) =
  ( List.map
      (fun (r : Fleet_sweep.model_row) -> { r with Fleet_sweep.duration_s = 0. })
      t.Fleet_sweep.rows,
    List.map fst t.Fleet_sweep.failed )

let run_table1 ~jobs () =
  with_temp_ledger @@ fun tmp ->
  Ledger.enable_exn ~path:tmp ();
  let t = Fleet_sweep.run ~options:{ table1_options with Fleet_sweep.jobs } () in
  Ledger.disable ();
  (t, ledger_fingerprints tmp)

let prop_parallel_bit_identical =
  let seq = lazy (run_table1 ~jobs:1 ()) in
  QCheck.Test.make
    ~name:
      "fleet: table1 under any --jobs is bit-identical to sequential \
       (bounds, seeds, ledger records)"
    ~count:4
    QCheck.(int_range 2 5)
    (fun jobs ->
      let seq_t, seq_ledger = Lazy.force seq in
      let par_t, par_ledger = run_table1 ~jobs () in
      if par_t.Fleet_sweep.failed <> [] then
        QCheck.Test.fail_report "a model failed";
      (* [compare], not [=]: a NaN error field equals itself here. *)
      if compare (results par_t) (results seq_t) <> 0 then
        QCheck.Test.fail_report "per-model rows differ";
      if par_ledger <> seq_ledger then
        QCheck.Test.fail_report "ledger record bodies differ";
      List.iteri
        (fun i (r : Fleet_sweep.model_row) ->
          if r.Fleet_sweep.index <> i then
            QCheck.Test.fail_report "rows out of task order")
        par_t.Fleet_sweep.rows;
      true)

(* ---------------- Concurrent eval smoke ---------------- *)

let test_concurrent_eval_no_torn_records () =
  with_temp_ledger @@ fun tmp ->
  Ledger.enable_exn ~path:tmp ();
  let eval population =
    let net = Mapqn_workloads.Tandem.network ~population () in
    let ctx = Run_ctx.create ~seed:population () in
    Run_ctx.with_ ctx (fun () ->
        let b = Bounds.create_exn ~solver:Bounds.Revised net in
        Bounds.response_time b)
  in
  (* Reference values, computed sequentially before the race. *)
  let expect_a = eval 6 and expect_b = eval 9 in
  let d = Domain.spawn (fun () -> eval 6) in
  let got_b = eval 9 in
  let got_a = Domain.join d in
  Ledger.disable ();
  Alcotest.(check bool) "domain A result" true (got_a = expect_a);
  Alcotest.(check bool) "domain B result" true (got_b = expect_b);
  (* Every line of the shared ledger must parse — concurrent writers
     append whole records, never torn ones. *)
  let records = Ledger.load tmp in
  Alcotest.(check int) "all lines parse" (List.length (read_lines tmp))
    (List.length records);
  (* 2 sequential + 2 concurrent evals, and each concurrent record's
     body matches its sequential twin bit for bit. *)
  Alcotest.(check int) "one record per eval" 4 (List.length records);
  let stripped = List.map (fun r -> Json.to_string (strip_volatile r)) records in
  List.iter
    (fun p ->
      match
        List.filter (fun r -> Ledger.population (Json.parse_exn r) = p) stripped
      with
      | [ a; b ] ->
        Alcotest.(check string)
          (Printf.sprintf "N=%d concurrent record matches sequential" p)
          a b
      | rs -> Alcotest.failf "expected 2 records for N=%d, got %d" p (List.length rs))
    [ 6; 9 ]

(* ---------------- Progress checkpoint round-trip ---------------- *)

let test_run_tasks_resume_checkpoint () =
  let hb = Filename.temp_file "mapqn_fleet_hb" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove hb) @@ fun () ->
  let ids = Printf.sprintf "job-%02d" in
  let run ~skip =
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 hb in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    let p = Mapqn_obs.Progress.create ~quiet:true ~heartbeat:oc ~total:6 "test" in
    Fleet.run_tasks ~jobs:2 ~progress:p ~skip ~seed:7 ~ids ~total:6
      ~f:(fun i ->
        if (not (skip (ids i))) && i >= 4 then failwith "crash" else i)
      ()
  in
  (* First run: tasks 0..3 complete, 4 and 5 fail (no "done" heartbeat). *)
  ignore (run ~skip:(fun _ -> false));
  let done1 = List.sort compare (Mapqn_obs.Progress.load_completed hb) in
  Alcotest.(check (list string)) "failed tasks not checkpointed"
    [ "job-00"; "job-01"; "job-02"; "job-03" ]
    done1;
  (* Resume: skip what the checkpoint marks done; the rest retries. *)
  let done_set = done1 in
  let outcomes = run ~skip:(fun id -> List.mem id done_set) in
  Array.iteri
    (fun i o ->
      match (i < 4, o) with
      | true, Fleet.Skipped -> ()
      | false, Fleet.Failed _ -> ()
      | _ -> Alcotest.failf "task %d has the wrong outcome on resume" i)
    outcomes;
  let done2 = List.sort compare (Mapqn_obs.Progress.load_completed hb) in
  Alcotest.(check (list string)) "resume neither duplicates nor loses"
    done1 done2

(* A heartbeat file may hold ids that name no model of this run: the
   four-digit "model-NNNN" ids mapqn table1 once wrote, or a larger
   run's. A resume counts only the ids it will skip. *)
let test_resume_counts_this_runs_ids () =
  let hb = Filename.temp_file "mapqn_fleet_hb" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove hb) @@ fun () ->
  let oc = open_out hb in
  List.iter
    (fun (event, id) ->
      Printf.fprintf oc "{\"event\":\"%s\",\"model\":\"%s\"}\n" event id)
    [
      ("done", "model-0000");
      ("done", "model-00001");
      ("skip", "model-0002");
      ("skip", "model-00002");
      ("done", "model-00007");
    ];
  close_out oc;
  let options =
    {
      Fleet_sweep.table1_bench with
      Fleet_sweep.models = 3;
      populations = [ 1 ];
      exact_upto = 0;
    }
  in
  let done_ = Fleet_sweep.completed options hb in
  Alcotest.(check (list string)) "only this run's ids"
    [ "model-00001"; "model-00002" ]
    done_;
  let t = Fleet_sweep.run ~options ~skip:(fun id -> List.mem id done_) () in
  Alcotest.(check int) "skipped = counted" 2 t.Fleet_sweep.skipped;
  Alcotest.(check (list int)) "model 0 ran" [ 0 ]
    (List.map (fun (r : Fleet_sweep.model_row) -> r.index) t.Fleet_sweep.rows)

(* A run killed mid-write leaves a heartbeat file and a rows file that
   each end in a torn line. The next run opens both through
   [Export.open_append], so its first heartbeat and first row start
   lines of their own and parse; only the torn line stays unreadable. *)
let test_append_after_torn_tail () =
  let hb = Filename.temp_file "mapqn_fleet_hb" ".jsonl" in
  let rows = Filename.temp_file "mapqn_fleet_rows" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove hb;
      Sys.remove rows)
  @@ fun () ->
  List.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        "{\"event\":\"done\",\"model\":\"model-99999\"}\n{\"event\":\"do";
      close_out oc)
    [ hb; rows ];
  let hb_oc = Mapqn_obs.Export.open_append hb in
  let rows_oc = Mapqn_obs.Export.open_append rows in
  (Fun.protect
     ~finally:(fun () ->
       close_out hb_oc;
       close_out rows_oc)
   @@ fun () ->
   let p = Mapqn_obs.Progress.create ~quiet:true ~heartbeat:hb_oc ~total:1 "test" in
   let options =
     { table1_options with Fleet_sweep.models = 1; populations = [ 1 ] }
   in
   ignore
     (Fleet_sweep.run ~options ~progress:p
        ~sink:(fun row ->
          output_string rows_oc (Json.to_string (Fleet_sweep.row_to_json row));
          output_char rows_oc '\n')
        ());
   Mapqn_obs.Progress.close p);
  let parses l = Result.is_ok (Json.parse l) in
  List.iter
    (fun path ->
      match read_lines path with
      | first :: torn :: fresh ->
        Alcotest.(check bool) "old record intact" true (parses first);
        Alcotest.(check bool) "torn line stays torn" false (parses torn);
        Alcotest.(check bool) "new records follow" true (fresh <> []);
        List.iter
          (fun l -> Alcotest.(check bool) ("parses: " ^ l) true (parses l))
          fresh
      | _ -> Alcotest.failf "%s lost its old lines" path)
    [ hb; rows ];
  Alcotest.(check (list string)) "new done heartbeat is a checkpoint"
    [ "model-99999"; "model-00000" ]
    (Mapqn_obs.Progress.load_completed hb);
  match List.rev (read_lines rows) with
  | row :: _ ->
    Alcotest.(check (option string)) "new row names its model"
      (Some "model-00000")
      (Option.bind (Json.member "model" (Json.parse_exn row)) Json.get_string)
  | [] -> Alcotest.fail "no rows"

let () =
  Alcotest.run "fleet"
    [
      ( "map",
        [
          Alcotest.test_case "parallel equals sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "exceptions become Error" `Quick
            test_map_captures_exceptions;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "derived seeds deterministic + distinct" `Quick
            test_task_seed_deterministic;
        ] );
      ( "run-ctx",
        [
          Alcotest.test_case "scoping" `Quick test_run_ctx_scoping;
          Alcotest.test_case "slots isolated per context" `Quick
            test_run_ctx_slot_isolated;
          Alcotest.test_case "domain-local current" `Quick
            test_run_ctx_domain_local_current;
        ] );
      ( "run-tasks",
        [
          Alcotest.test_case "outcomes + derived seeds" `Quick
            test_run_tasks_outcomes;
          Alcotest.test_case "resume checkpoint round-trip" `Quick
            test_run_tasks_resume_checkpoint;
          Alcotest.test_case "resume counts only this run's ids" `Quick
            test_resume_counts_this_runs_ids;
          Alcotest.test_case "heartbeat and row append after a torn tail"
            `Quick test_append_after_torn_tail;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_parallel_bit_identical ] );
      ( "concurrency",
        [
          Alcotest.test_case "two-domain eval, no torn records" `Slow
            test_concurrent_eval_no_torn_records;
        ] );
    ]
