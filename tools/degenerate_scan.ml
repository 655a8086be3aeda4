(* Fixed-seed scans of the near-degenerate generator that
   test/test_corpus.ml's property samples. Each scan draws 3,000
   triples (seed in [0, 99999], population in [1, 3], tie exponent in
   [0, 12]) from OCaml's [Random.State.make [| s |]] for s = 2026 and
   s = 77, and solves each with both LP backends. A draw fails when the
   dense and revised bounds on the response time or a throughput differ
   by more than 1e-8 (relative above 1), as the property demands, or
   when either raises. The property draws 25 fresh triples per run;
   these counts estimate how often such a run fails. Both scans read 0,
   and the solves are deterministic, so the scan exits 1 when any draw
   fails. Usage (~2 min):

     dune exec tools/degenerate_scan.exe *)

module Bounds = Mapqn_core.Bounds
module Random_models = Mapqn_workloads.Random_models

let close a b = Float.abs (a -. b) <= 1e-8 *. Float.max 1. (Float.abs a)

let agree (d : Bounds.interval) (r : Bounds.interval) =
  close d.lower r.lower && close d.upper r.upper

let disagreement (seed, population, tie_exp) =
  let net = Random_models.near_degenerate ~seed ~tie_exp population in
  let bd = Bounds.create_exn ~solver:Bounds.Dense net in
  let br = Bounds.create_exn ~solver:Bounds.Revised net in
  let pair name f = (name, f bd, f br) in
  List.find_opt
    (fun (_, d, r) -> not (agree d r))
    (pair "R" (fun b -> Bounds.response_time b)
    :: List.init 3 (fun k ->
           pair (Printf.sprintf "X[%d]" k) (fun b -> Bounds.throughput b k)))

let scan seed =
  let st = Random.State.make [| seed |] in
  let failed = ref 0 in
  for _ = 1 to 3000 do
    let s = Random.State.int st 100_000 in
    let n = 1 + Random.State.int st 3 in
    let e = Random.State.int st 13 in
    let fail fmt =
      incr failed;
      Printf.printf ("(%d, %d, %d): " ^^ fmt ^^ "\n%!") s n e
    in
    match disagreement (s, n, e) with
    | None -> ()
    | Some (name, (d : Bounds.interval), (r : Bounds.interval)) ->
      fail "%s dense [%.12g, %.12g] revised [%.12g, %.12g]" name d.lower
        d.upper r.lower r.upper
    | exception ex -> fail "raised %s" (Printexc.to_string ex)
  done;
  Printf.printf "scan seed %d: %d of 3000 draws failed\n%!" seed !failed;
  !failed

let () =
  let failed = List.fold_left (fun n seed -> n + scan seed) 0 [ 2026; 77 ] in
  if failed > 0 then exit 1
