(* The LP solve must not depend on the process's hash-table seed.

   Simplex trajectories on the marginal-balance LPs are chaotic in the
   last bit of the basis factorization, so any [Hashtbl] iteration
   order that reaches the solver (the LU's pivot choice, the order of
   an eta's entries) turns the seed into a different pivot path: before
   the LU's visiting order was pinned to the seed-free [Hashtbl.hash],
   [OCAMLRUNPARAM=R] moved the tandem at N=120 between 2,798 and 5,402
   pivots. This suite solves the same model before and after
   [Hashtbl.randomize ()] and demands the same pivot count and
   bit-identical bounds. It is its own executable because randomizing
   is process-wide and irreversible. *)

module Bounds = Mapqn_core.Bounds
module Metrics = Mapqn_obs.Metrics
module Tandem = Mapqn_workloads.Tandem

let population = 60

let counter name =
  match Metrics.find name with
  | [ { Metrics.value = Metrics.Counter v; _ } ] -> v
  | _ -> Alcotest.failf "metric %s missing" name

let metrics =
  Bounds.
    [
      Utilization 0;
      Throughput 0;
      Mean_queue_length 0;
      Utilization 1;
      Throughput 1;
      Mean_queue_length 1;
      Response_time { reference = 0 };
    ]

(* Pivots and bounds of one cold create + report. *)
let solve () =
  let p0 = counter "revised_pivots_total" in
  let b = Bounds.create_exn (Tandem.network ~population ()) in
  let report = Bounds.eval b metrics in
  (counter "revised_pivots_total" -. p0, report)

let bits x = Printf.sprintf "%h" x

let test_seed_independent () =
  let pivots0, report0 = solve () in
  Hashtbl.randomize ();
  let pivots1, report1 = solve () in
  Alcotest.(check (float 0.)) "pivots with a randomized hash seed" pivots0 pivots1;
  List.iter2
    (fun (metric, (a : Bounds.interval)) (_, (b : Bounds.interval)) ->
      let name = Bounds.metric_to_string metric in
      Alcotest.(check string) (name ^ " lower") (bits a.lower) (bits b.lower);
      Alcotest.(check string) (name ^ " upper") (bits a.upper) (bits b.upper))
    report0 report1

let () =
  Alcotest.run "seed"
    [
      ( "hash-seed",
        [
          Alcotest.test_case "tandem solve independent of the hash seed" `Quick
            test_seed_independent;
        ] );
    ]
