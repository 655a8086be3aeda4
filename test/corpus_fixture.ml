(* The hard-model regression corpus fixture (corpus/hard_models.jsonl),
   shared by the corpus suite and the differential LU test: the fixture
   records and the models they name, regenerated and checked against
   their recorded fingerprints. *)

module Network = Mapqn_model.Network
module Random_models = Mapqn_workloads.Random_models
module Json = Mapqn_obs.Json

type entry = {
  index : int;
  id : string;
  master_seed : int;
  seed : int;
  fingerprint : string;
  fail_population : int;
}

(* `dune runtest` runs the suite from test/ inside _build (where the
   dune deps put the fixture); `dune exec test/test_corpus.exe` runs
   from the project root. *)
let corpus_path =
  List.find_opt Sys.file_exists
    [ "corpus/hard_models.jsonl"; "test/corpus/hard_models.jsonl" ]

let grid = [ 1; 2; 4; 8 ]

let load_corpus () =
  let corpus_path =
    match corpus_path with
    | Some p -> p
    | None -> Alcotest.fail "corpus fixture missing: corpus/hard_models.jsonl"
  in
  let ic = open_in corpus_path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.parse line with
         | Error msg -> Alcotest.failf "corpus: unparsable line: %s" msg
         | Ok j ->
           let num name =
             match Json.member name j with
             | Some (Json.Number v) -> int_of_float v
             | _ -> Alcotest.failf "corpus: missing field %s" name
           in
           let str name =
             match Json.member name j with
             | Some (Json.String s) -> s
             | _ -> Alcotest.failf "corpus: missing field %s" name
           in
           entries :=
             {
               index = num "index";
               id = str "model";
               master_seed = num "master_seed";
               seed = num "seed";
               fingerprint = str "fingerprint";
               fail_population = num "fail_population";
             }
             :: !entries
     done
   with End_of_file -> ());
  close_in ic;
  let entries = List.rev !entries in
  if entries = [] then Alcotest.fail "corpus fixture is empty";
  entries

(* Regenerate the corpus models exactly as `mapqn fleet` does:
   sequentially from the master seed, default spec. Shared across tests
   (generation is microseconds per model, but there is no reason to do
   it three times). *)
let corpus_models =
  lazy
    (let entries = load_corpus () in
     let master_seed =
       match entries with
       | e :: rest ->
         List.iter
           (fun e' ->
             if e'.master_seed <> e.master_seed then
               Alcotest.fail "corpus: mixed master seeds")
           rest;
         e.master_seed
       | [] -> assert false
     in
     let count = 1 + List.fold_left (fun a e -> max a e.index) 0 entries in
     let models =
       Array.of_list (Random_models.generate_many ~seed:master_seed count)
     in
     List.map
       (fun e ->
         if e.index < 0 || e.index >= Array.length models then
           Alcotest.failf "corpus: index %d out of range" e.index;
         let model = models.(e.index) in
         let fp = Network.fingerprint model.Random_models.network in
         if fp <> e.fingerprint then
           Alcotest.failf
             "corpus: %s fingerprint drift (fixture %s, generated %s) — the \
              random-model generator no longer reproduces the corpus"
             e.id e.fingerprint fp;
         if Mapqn_fleet.Fleet.task_seed ~seed:e.master_seed e.index <> e.seed
         then Alcotest.failf "corpus: %s derived-seed drift" e.id;
         (e, model))
       entries)
