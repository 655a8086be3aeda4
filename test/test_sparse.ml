open Mapqn_sparse
module Mat = Mapqn_linalg.Mat
module Vec = Mapqn_linalg.Vec

let check_float = Alcotest.(check (float 1e-9))

let check_vec ?(tol = 1e-9) msg expected got =
  if not (Mapqn_util.Tol.close_arrays ~rel:tol ~abs:tol expected got) then
    Alcotest.failf "%s: expected %s got %s" msg
      (Format.asprintf "%a" Vec.pp expected)
      (Format.asprintf "%a" Vec.pp got)

(* ---------------- Csr ---------------- *)

let sample () =
  Csr.of_coo ~rows:3 ~cols:3 [ (0, 0, 1.); (0, 2, 2.); (1, 1, 3.); (2, 0, 4.) ]

let test_build_and_get () =
  let m = sample () in
  Alcotest.(check int) "nnz" 4 (Csr.nnz m);
  check_float "(0,0)" 1. (Csr.get m 0 0);
  check_float "(0,2)" 2. (Csr.get m 0 2);
  check_float "(1,1)" 3. (Csr.get m 1 1);
  check_float "(2,0)" 4. (Csr.get m 2 0);
  check_float "absent" 0. (Csr.get m 2 2)

let test_duplicates_summed () =
  let m = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 0, 2.5) ] in
  Alcotest.(check int) "merged" 1 (Csr.nnz m);
  check_float "summed" 3.5 (Csr.get m 0 0)

let test_explicit_zero_dropped () =
  let m = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 0.); (1, 1, 1.) ] in
  Alcotest.(check int) "nnz" 1 (Csr.nnz m)

let test_cancelling_duplicates_dropped () =
  let m = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 2.); (0, 0, -2.); (1, 0, 1.) ] in
  Alcotest.(check int) "nnz" 1 (Csr.nnz m)

let test_out_of_range () =
  (try
     ignore (Csr.of_coo ~rows:2 ~cols:2 [ (2, 0, 1.) ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_mat_vec () =
  let m = sample () in
  check_vec "A x" [| 7.; 6.; 4. |] (Csr.mat_vec m [| 1.; 2.; 3. |])

let test_vec_mat () =
  let m = sample () in
  check_vec "x A" [| 13.; 6.; 2. |] (Csr.vec_mat [| 1.; 2.; 3. |] m)

let test_roundtrip_dense () =
  let d = Mat.of_arrays [| [| 0.; 1.5 |]; [| -2.; 0. |] |] in
  let m = Csr.of_dense d in
  Alcotest.(check bool) "roundtrip" true (Mat.equal (Csr.to_dense m) d)

let test_transpose () =
  let m = sample () in
  let t = Csr.transpose m in
  check_float "(0,2)" 4. (Csr.get t 0 2);
  check_float "(2,0)" 2. (Csr.get t 2 0);
  Alcotest.(check int) "nnz preserved" (Csr.nnz m) (Csr.nnz t)

let test_row_sums_scale () =
  let m = sample () in
  check_vec "row sums" [| 3.; 3.; 4. |] (Csr.row_sums m);
  check_vec "scaled" [| 6.; 6.; 8. |] (Csr.row_sums (Csr.scale 2. m))

let test_iter_order () =
  let m = sample () in
  let seen = ref [] in
  Csr.iter m (fun i j v -> seen := (i, j, v) :: !seen);
  Alcotest.(check int) "count" 4 (List.length !seen);
  (* Row-major: first recorded (reversed) is the last nonzero. *)
  match !seen with
  | (2, 0, 4.) :: _ -> ()
  | _ -> Alcotest.fail "unexpected order"

(* The closure-free position accessors walk each row exactly as
   [iter_row] does. *)
let test_positions () =
  let m = sample () in
  for i = 0 to Csr.nrows m - 1 do
    let via_iter = ref [] and via_pos = ref [] in
    Csr.iter_row m i (fun j v -> via_iter := (j, v) :: !via_iter);
    for p = Csr.row_start m i to Csr.row_start m (i + 1) - 1 do
      via_pos := (Csr.entry_col m p, Csr.entry_value m p) :: !via_pos
    done;
    Alcotest.(check (list (pair int (float 0.))))
      (Printf.sprintf "row %d" i) !via_iter !via_pos
  done;
  Alcotest.(check int) "last row ends at nnz" (Csr.nnz m)
    (Csr.row_start m (Csr.nrows m))

(* The row kernels check their row index and vector lengths once per
   call, then run unchecked: every bad argument must be refused. *)
let test_kernels_reject () =
  let m = Csr.of_coo ~rows:3 ~cols:4 [ (0, 0, 1.); (0, 3, 2.); (2, 1, 3.) ] in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let short = Array.make 3 1. and full = Array.make 4 1. in
  raises "dot_row short vector" (fun () -> ignore (Csr.dot_row m 0 short));
  raises "dot_row row past the end" (fun () -> ignore (Csr.dot_row m 3 full));
  raises "dot_row negative row" (fun () -> ignore (Csr.dot_row m (-1) full));
  raises "scatter_row short vector" (fun () -> Csr.scatter_row m 0 short);
  raises "scatter_row row past the end" (fun () -> Csr.scatter_row m 3 full);
  raises "scatter_row negative row" (fun () -> Csr.scatter_row m (-1) full);
  let none = Array.make 3 false in
  raises "dot_rows short vector" (fun () ->
      Csr.dot_rows m short ~skip:none (Array.make 3 0.));
  raises "dot_rows short skip mask" (fun () ->
      Csr.dot_rows m full ~skip:(Array.make 2 false) (Array.make 3 0.));
  raises "dot_rows short output" (fun () ->
      Csr.dot_rows m full ~skip:none (Array.make 2 0.));
  raises "mat_vec short vector" (fun () -> ignore (Csr.mat_vec m short));
  raises "mat_vec long vector" (fun () -> ignore (Csr.mat_vec m (Array.make 5 1.)));
  raises "vec_mat short vector" (fun () -> ignore (Csr.vec_mat [| 1.; 1. |] m));
  raises "vec_mat long vector" (fun () -> ignore (Csr.vec_mat full m));
  (* A longer vector is fine for the row kernels; dot_rows leaves the
     rows it skips alone. *)
  check_float "dot_row long vector" 3. (Csr.dot_row m 0 (Array.make 6 1.));
  let out = [| -1.; -1.; -1. |] in
  Csr.dot_rows m [| 1.; 2.; 3.; 4. |] ~skip:[| false; true; false |] out;
  check_vec "dot_rows" [| 9.; -1.; 6. |] out

(* ---------------- Stationary ---------------- *)

let birth_death_generator n ~birth ~death =
  let triplets = ref [] in
  for i = 0 to n - 1 do
    let out = ref 0. in
    if i < n - 1 then begin
      triplets := (i, i + 1, birth) :: !triplets;
      out := !out +. birth
    end;
    if i > 0 then begin
      triplets := (i, i - 1, death) :: !triplets;
      out := !out +. death
    end;
    triplets := (i, i, -. !out) :: !triplets
  done;
  Csr.of_coo ~rows:n ~cols:n !triplets

let analytic_birth_death n ~birth ~death =
  let rho = birth /. death in
  let weights = Array.init n (fun i -> rho ** float_of_int i) in
  Vec.normalize1 weights

let test_solver expected_method () =
  let n = 40 in
  let q = birth_death_generator n ~birth:1. ~death:2. in
  let options = { Stationary.default_options with method_ = expected_method } in
  let pi = Stationary.solve ~options q in
  let expected = analytic_birth_death n ~birth:1. ~death:2. in
  check_vec ~tol:1e-8 "birth-death stationary" expected pi

let test_methods_agree () =
  let n = 60 in
  let q = birth_death_generator n ~birth:3. ~death:2.5 in
  let solve m =
    Stationary.solve ~options:{ Stationary.default_options with method_ = m } q
  in
  let gth = solve Stationary.Gth in
  let gs = solve Stationary.Gauss_seidel in
  let pw = solve Stationary.Power in
  check_vec ~tol:1e-7 "gs vs gth" gth gs;
  check_vec ~tol:1e-6 "power vs gth" gth pw

let test_auto_threshold_large () =
  (* Above the GTH threshold the Auto path must still solve correctly. *)
  let n = Stationary.gth_threshold + 100 in
  let q = birth_death_generator n ~birth:1. ~death:1.01 in
  let pi = Stationary.solve q in
  check_float "normalized" 1. (Mapqn_util.Ksum.sum pi);
  Alcotest.(check bool) "residual small" true (Stationary.residual q pi < 1e-8)

let test_rejects_bad_generator () =
  let q = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, -1.); (0, 1, 2.); (1, 0, 1.); (1, 1, -1.) ] in
  (try
     ignore (Stationary.solve q);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_random_generator_stationary =
  QCheck.Test.make ~name:"iterative solvers find pi Q = 0 on random chains" ~count:40
    QCheck.(pair (int_range 3 25) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Mapqn_prng.Rng.create ~seed in
      let triplets = ref [] in
      for i = 0 to n - 1 do
        let out = ref 0. in
        for j = 0 to n - 1 do
          if i <> j then begin
            let r = Mapqn_prng.Dist.uniform rng ~lo:0.05 ~hi:2. in
            triplets := (i, j, r) :: !triplets;
            out := !out +. r
          end
        done;
        triplets := (i, i, -. !out) :: !triplets
      done;
      let q = Csr.of_coo ~rows:n ~cols:n !triplets in
      let pi =
        Stationary.solve
          ~options:{ Stationary.default_options with method_ = Stationary.Gauss_seidel }
          q
      in
      Stationary.residual q pi < 1e-8
      && Mapqn_util.Tol.close (Mapqn_util.Ksum.sum pi) 1.)

let () =
  Alcotest.run "sparse"
    [
      ( "csr",
        [
          Alcotest.test_case "build and get" `Quick test_build_and_get;
          Alcotest.test_case "duplicates summed" `Quick test_duplicates_summed;
          Alcotest.test_case "explicit zero dropped" `Quick test_explicit_zero_dropped;
          Alcotest.test_case "cancelling duplicates" `Quick test_cancelling_duplicates_dropped;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "mat_vec" `Quick test_mat_vec;
          Alcotest.test_case "vec_mat" `Quick test_vec_mat;
          Alcotest.test_case "dense roundtrip" `Quick test_roundtrip_dense;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "row sums and scale" `Quick test_row_sums_scale;
          Alcotest.test_case "iteration order" `Quick test_iter_order;
          Alcotest.test_case "entry positions" `Quick test_positions;
          Alcotest.test_case "kernels reject bad arguments" `Quick
            test_kernels_reject;
        ] );
      ( "stationary",
        [
          Alcotest.test_case "gth birth-death" `Quick (test_solver Stationary.Gth);
          Alcotest.test_case "gauss-seidel birth-death" `Quick
            (test_solver Stationary.Gauss_seidel);
          Alcotest.test_case "power birth-death" `Quick (test_solver Stationary.Power);
          Alcotest.test_case "methods agree" `Quick test_methods_agree;
          Alcotest.test_case "auto path large" `Slow test_auto_threshold_large;
          Alcotest.test_case "rejects bad generator" `Quick test_rejects_bad_generator;
          QCheck_alcotest.to_alcotest prop_random_generator_stationary;
        ] );
    ]
