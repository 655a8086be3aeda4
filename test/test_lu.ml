(* Differential test of the sparse LU: {!Mapqn_lp.Markowitz} against the
   hash-table implementation it replaced ({!Legacy_lu}, run with the
   default unrandomized hash seed).

   Simplex trajectories are chaotic in the last bit of the eta file, so
   "agrees to 1e-12" is not the contract: both implementations must
   emit the same etas in the same order — rows, entry order, and the
   bit patterns of every pivot and value — the same row assignment,
   the same deferred, dropped and repaired sets, and the same health
   extremes. The bases come from real solves (the Fig-4 tandem, random
   3- and 4-queue models, every hard corpus model, harvested through
   {!Markowitz.observe}) and from a generator of near-singular bases
   that drives the deferred-column and basis-repair paths.

   The same bases, factorized and extended with simplex pivots, check
   {!Eta_file.btran_unit} against {!Eta_file.btran} on every unit
   vector, bit for bit up to the sign of zero, and the check-once
   kernels of {!Eta_file} and {!Csr} against the checked loops they
   replaced ({!Legacy_kernels}), bit for bit. *)

module Markowitz = Mapqn_lp.Markowitz
module Eta_file = Mapqn_lp.Eta_file
module Csr = Mapqn_sparse.Csr
module Bounds = Mapqn_core.Bounds
module Constraints = Mapqn_core.Constraints
module Network = Mapqn_model.Network
module Random_models = Mapqn_workloads.Random_models
module Tandem = Mapqn_workloads.Tandem

(* ---------------- running both implementations ---------------- *)

(* One workspace for every input, grown when a basis outgrows it (as the
   solver does), so state one factorization left behind — for a basis of
   any size — would corrupt the next. *)
let shared = ref (Markowitz.workspace 0)

let workspace m =
  if Markowitz.rows !shared < m then shared := Markowitz.workspace m;
  !shared

let copy (inp : Markowitz.input) = { inp with basis = Array.copy inp.basis }
let bits = Int64.bits_of_float

(* The first difference between the two factorizations of [inp], if
   any. *)
let difference (inp : Markowitz.input) =
  let file_ref = Eta_file.create () and file_new = Eta_file.create () in
  let inp_ref = copy inp and inp_new = copy inp in
  let r_ref = Legacy_lu.factorize file_ref inp_ref in
  let r_new =
    Markowitz.factorize (workspace (Array.length inp.basis)) file_new inp_new
  in
  let float_diff what a b =
    if bits a <> bits b then Some (Printf.sprintf "%s: %h vs %h" what a b)
    else None
  in
  let first = List.find_map Fun.id in
  let eta_diff k =
    let a = Eta_file.get file_ref k and b = Eta_file.get file_new k in
    let what s = Printf.sprintf "eta %d %s" k s in
    if a.row <> b.row then Some (what (Printf.sprintf "row %d vs %d" a.row b.row))
    else if a.idx <> b.idx then Some (what "entry rows/order")
    else
      first
        (float_diff (what "pivot") a.pivot b.pivot
        :: List.init (Array.length a.vals) (fun p ->
               float_diff (what (Printf.sprintf "value %d" p)) a.vals.(p) b.vals.(p)))
  in
  first
    [
      (if Eta_file.length file_ref <> Eta_file.length file_new then
         Some
           (Printf.sprintf "eta count %d vs %d" (Eta_file.length file_ref)
              (Eta_file.length file_new))
       else first (List.init (Eta_file.length file_ref) eta_diff));
      (if inp_ref.basis <> inp_new.basis then Some "row assignment" else None);
      (if r_ref.deferred <> r_new.deferred then Some "deferred columns" else None);
      (if r_ref.dropped <> r_new.dropped then Some "dropped columns" else None);
      (if r_ref.repaired <> r_new.repaired then Some "repaired rows" else None);
      float_diff "growth" r_ref.growth r_new.growth;
      float_diff "min pivot" r_ref.min_pivot r_new.min_pivot;
      float_diff "max pivot" r_ref.max_pivot r_new.max_pivot;
    ]

let check_all what inputs =
  if inputs = [] then Alcotest.failf "%s: no bases harvested" what;
  List.iteri
    (fun n inp ->
      match difference inp with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s, basis %d (%d rows): %s" what n
          (Array.length inp.Markowitz.basis) d)
    inputs

(* Every basis the solver factorizes while [f] runs, or [keep] (>= 2) of
   them evenly spaced from the first to the last — the reference
   implementation costs O(m²) per basis, and the suite has a 10 s
   budget. *)
let harvest ?keep f =
  let acc = ref [] in
  Markowitz.observe (fun inp -> acc := copy inp :: !acc) f;
  let all = Array.of_list (List.rev !acc) in
  let n = Array.length all in
  match keep with
  | Some k when k < n ->
    List.init k (fun j -> all.(j * (n - 1) / (k - 1)))
  | _ -> Array.to_list all

(* ---------------- bases from real solves ---------------- *)

let report =
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

let test_tandem ?keep population () =
  check_all
    (Printf.sprintf "tandem N=%d" population)
    (harvest ?keep (fun () ->
         let b = Bounds.create_exn (Tandem.network ~population ()) in
         ignore (Bounds.eval b report : (Bounds.metric * Bounds.interval) list)))

let random_models ~spec ~count ~populations () =
  let models = Random_models.generate_many ~spec ~seed:2008 count in
  let inputs =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun population ->
            let net =
              Network.with_population model.Random_models.network population
            in
            harvest ~keep:4 (fun () ->
                ignore
                  (Bounds.response_time (Bounds.create_exn net) : Bounds.interval)))
          populations)
      models
  in
  check_all
    (Printf.sprintf "random %d-queue models" spec.Random_models.stations)
    inputs

let test_random3 =
  random_models ~spec:Random_models.default_spec ~count:12 ~populations:[ 2; 6 ]

let test_random4 =
  random_models
    ~spec:{ Random_models.default_spec with stations = 4; map_stations = 2 }
    ~count:6 ~populations:[ 1; 3 ]

(* Every hard corpus model, cold at the population that once failed its
   certificate: the first, middle and last basis of its phase 1 (which
   includes any rescue re-preparation). *)
let test_corpus () =
  let models = Lazy.force Corpus_fixture.corpus_models in
  let inputs =
    List.concat_map
      (fun ((e : Corpus_fixture.entry), model) ->
        let net =
          Network.with_population model.Random_models.network e.fail_population
        in
        harvest ~keep:3 (fun () ->
            ignore (Bounds.create_exn ~config:Constraints.standard net : Bounds.t)))
      models
  in
  check_all (Printf.sprintf "%d corpus models" (List.length models)) inputs

(* ---------------- near-singular bases ---------------- *)

(* A random square basis whose columns mix fresh sparse columns with
   exact, scaled and near copies of earlier ones, combinations of two,
   all-tiny and empty columns, and artificial unit columns — the inputs
   that reach column deferral (no entry above 1e-11 left), the dense
   FTRAN pass, dropped columns and basis repair. *)
let gen_basis =
  let open QCheck.Gen in
  int_range 2 18 >>= fun m ->
  let value =
    frequency
      [
        (4, oneofl [ 1.; -1.; 0.5; 2.; -0.25 ]);
        (4, float_range (-3.) 3.);
        (1, map (fun u -> 1e-12 *. u) (float_range 0.1 9.));
        (1, map (fun u -> 1e-7 *. u) (float_range (-1.) 1.));
      ]
  in
  let sparse_col =
    int_range 1 (min m 4) >>= fun k ->
    list_repeat k (pair (int_bound (m - 1)) value)
  in
  (* Kinds 0-6 are the special species below, 7 a fresh column (half of
     them with a diagonal entry); the mix runs from all-fresh to mostly
     special. *)
  oneofl [ 0; 1; 3; 12 ] >>= fun special ->
  let kind = frequency [ (special, int_bound 6); (12, return 7) ] in
  list_repeat m
    (triple kind sparse_col (pair (float_range (-2.) 2.) (int_bound (m - 1))))
  >>= fun specs ->
  list_repeat m bool >|= fun signs ->
  let struct_cols = Array.make m [] and n = ref 0 in
  let add entries =
    struct_cols.(!n) <- entries;
    incr n;
    !n - 1
  in
  let scaled c = List.map (fun (i, v) -> (i, c *. v)) in
  let art_used = Array.make m false in
  let basis =
    List.mapi
      (fun k (kind, fresh, (scale, row)) ->
        let earlier = if !n = 0 then None else Some struct_cols.(k * 7919 mod !n) in
        match (kind, earlier) with
        | 0, _ when not art_used.(row) ->
          art_used.(row) <- true;
          -1 - row
        | 1, Some col -> add col
        | 2, Some col -> add (scaled scale col)
        | 3, Some col -> add ((row, 1e-12 *. scale) :: col)
        | 4, Some col -> add (col @ scaled scale struct_cols.(k mod !n))
        | 5, _ -> add (scaled 1e-12 fresh)
        | 6, _ -> add []
        | _ when row mod 2 = 0 -> add ((k, 2.5 +. scale) :: fresh)
        | _ -> add fresh)
      specs
  in
  let n_struct = max 1 !n in
  let triplets =
    List.concat
      (List.init !n (fun j -> List.map (fun (i, v) -> (j, i, v)) struct_cols.(j)))
  in
  {
    Markowitz.cols = Csr.of_coo ~rows:n_struct ~cols:m triplets;
    n_struct;
    art_row = Array.init m Fun.id;
    art_sign = Array.of_list (List.map (fun s -> if s then 1. else -1.) signs);
    basis =
      Array.of_list
        (List.map (fun c -> if c < 0 then n_struct + (-1 - c) else c) basis);
  }

let print_basis (inp : Markowitz.input) =
  let b = Buffer.create 256 in
  Printf.bprintf b "m=%d n_struct=%d basis=[%s]\n" (Array.length inp.basis)
    inp.n_struct
    (String.concat ";" (Array.to_list (Array.map string_of_int inp.basis)));
  Csr.iter inp.cols (fun j i v -> Printf.bprintf b "  col %d row %d %h\n" j i v);
  Buffer.contents b

let arb_basis = QCheck.make ~print:print_basis gen_basis

let prop_near_singular =
  QCheck.Test.make ~name:"near-singular bases factorize identically" ~count:400
    arb_basis (fun inp ->
      match difference inp with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* The generator must actually reach the fallback paths it exists for. *)
let test_paths_reached () =
  let rand = Random.State.make [| 2008 |] in
  let deferred = ref 0 and kept = ref 0 and dropped = ref 0 and repaired = ref 0 in
  List.iter
    (fun inp ->
      let r =
        Markowitz.factorize
          (workspace (Array.length inp.Markowitz.basis))
          (Eta_file.create ()) (copy inp)
      in
      if r.deferred <> [] then incr deferred;
      if List.length r.dropped < List.length r.deferred then incr kept;
      if r.dropped <> [] then incr dropped;
      if r.repaired <> [] then incr repaired)
    (QCheck.Gen.generate ~rand ~n:400 gen_basis);
  Printf.printf
    "near-singular sample: %d deferred, %d with a deferred column kept, %d \
     dropped, %d repaired\n"
    !deferred !kept !dropped !repaired;
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "generator never reaches %s" what)
    [
      ("deferral", !deferred);
      ("a kept deferred column", !kept);
      ("drops", !dropped);
      ("repair", !repaired);
    ]

(* ---------------- hypersparse unit BTRAN ---------------- *)

(* Bits with -0 read as +0: [btran_unit] may differ from [btran] in the
   sign of an exact zero only. *)
let canon x = if x = 0. then 0L else bits x

(* The first row i where [btran_unit file i] differs from [btran] on eᵢ,
   and the number of rows whose result has more than m/32 nonzeros —
   rows that must have reached the dense switch, since until it the
   tracked support (at most m/32 rows) covers every nonzero. *)
let btran_unit_check file m =
  let y = Array.make m 0. and z = Array.make m 0. in
  let wide = ref 0 in
  let rec row i =
    if i >= m then None
    else begin
      Array.fill z 0 m 0.;
      z.(i) <- 1.;
      Eta_file.btran file z;
      Eta_file.btran_unit file i y;
      let nz = ref 0 and bad = ref (-1) in
      for j = m - 1 downto 0 do
        if z.(j) <> 0. then incr nz;
        if canon y.(j) <> canon z.(j) then bad := j
      done;
      if !nz > m / 32 then incr wide;
      if !bad >= 0 then
        Some
          (Printf.sprintf "row %d, entry %d: %h vs %h" i !bad y.(!bad) z.(!bad))
      else row (i + 1)
    end
  in
  let diff = row 0 in
  (diff, !wide)

let same_eta (a : Eta_file.eta) (b : Eta_file.eta) =
  a.row = b.row && bits a.pivot = bits b.pivot && a.idx = b.idx
  && Array.for_all2 (fun u v -> bits u = bits v) a.vals b.vals

(* Factorize [inp], then append up to [extra] simplex pivots the way the
   solver does: FTRAN a nonbasic structural column and [push_pivot] it
   on its largest entry, checking each stored eta against [of_pivot]. *)
let extended_file ~extra (inp : Markowitz.input) =
  let m = Array.length inp.basis in
  let inp = copy inp in
  let file = Eta_file.create () in
  ignore (Markowitz.factorize (workspace m) file inp : Markowitz.result);
  let basic = Array.make inp.n_struct false in
  Array.iter (fun c -> if c < inp.n_struct then basic.(c) <- true) inp.basis;
  let w = Array.make m 0. in
  let stride = max 1 (inp.n_struct / max 1 extra) in
  let j = ref 0 in
  while !j < inp.n_struct do
    if not basic.(!j) then begin
      Array.fill w 0 m 0.;
      Csr.scatter_row inp.cols !j w;
      Eta_file.ftran file w;
      let r = ref 0 in
      for i = 1 to m - 1 do
        if Float.abs w.(i) > Float.abs w.(!r) then r := i
      done;
      if Float.abs w.(!r) > 1e-9 then begin
        let n0 = Eta_file.length file in
        let expected = Eta_file.of_pivot w !r m in
        Eta_file.push_pivot file w !r m;
        match expected with
        | None ->
          if Eta_file.length file <> n0 then
            Alcotest.fail "push_pivot stored an identity eta"
        | Some e ->
          if not (Eta_file.length file = n0 + 1 && same_eta e (Eta_file.get file n0))
          then Alcotest.fail "push_pivot stored a different eta than of_pivot"
      end
    end;
    j := !j + stride
  done;
  file

let check_btran_unit what inputs =
  if inputs = [] then Alcotest.failf "%s: no bases harvested" what;
  List.iteri
    (fun n (inp : Markowitz.input) ->
      let m = Array.length inp.basis in
      match btran_unit_check (extended_file ~extra:24 inp) m with
      | None, _ -> ()
      | Some d, _ -> Alcotest.failf "%s, basis %d (%d rows): %s" what n m d)
    inputs

(* The bases both the btran-unit and the check-once groups run on,
   harvested once. *)
let tandem_bases ~keep population =
  lazy
    (harvest ~keep (fun () ->
         ignore (Bounds.create_exn (Tandem.network ~population ()) : Bounds.t)))

let tandem20 = tandem_bases ~keep:4 20
let tandem60 = tandem_bases ~keep:3 60

let corpus_bases =
  lazy
    (List.concat_map
       (fun ((e : Corpus_fixture.entry), model) ->
         let net =
           Network.with_population model.Random_models.network e.fail_population
         in
         harvest ~keep:2 (fun () ->
             ignore (Bounds.create_exn ~config:Constraints.standard net : Bounds.t)))
       (Lazy.force Corpus_fixture.corpus_models))

let test_btran_unit_tandem population bases () =
  check_btran_unit
    (Printf.sprintf "tandem N=%d" population)
    (Lazy.force bases)

let test_btran_unit_corpus () =
  check_btran_unit
    (Printf.sprintf "%d corpus models"
       (List.length (Lazy.force Corpus_fixture.corpus_models)))
    (Lazy.force corpus_bases)

(* A random eta file mixing ascending etas stored by [push_pivot] with
   unordered ones stored by [push]: short and long, with values that
   cancel exactly (so results pass through ±0), over m = 32..160 rows,
   where the m/32 dense switch comes after one to five support rows. *)
let gen_eta_file =
  let open QCheck.Gen in
  int_range 32 160 >>= fun m ->
  let value =
    frequency
      [ (3, oneofl [ 1.; -1.; 0.5; -2. ]); (2, float_range (-3.) 3.) ]
  in
  let eta =
    quad bool (int_bound (m - 1)) value
      (frequency
         [
           (3, int_range 0 4);
           (2, int_range 5 24);
           (1, int_range 25 (m - 1));
         ]
      >>= fun len -> list_repeat len (pair (int_bound (m - 1)) value))
  in
  int_range 1 40 >>= fun k ->
  list_repeat k eta >|= fun etas -> (m, etas)

let eta_file_of (m, etas) =
  let file = Eta_file.create () in
  List.iter
    (fun (ascending, row, pivot, entries) ->
      let pivot = if pivot = 0. then 1. else pivot in
      let w = Array.make m 0. in
      List.iter (fun (i, v) -> if i <> row then w.(i) <- v) entries;
      w.(row) <- pivot;
      if ascending then Eta_file.push_pivot file w row m
      else begin
        (* The same entries, newest draw first: not ascending. *)
        let seen = Array.make m false in
        let entries =
          List.filter
            (fun (i, _) ->
              let fresh = i <> row && w.(i) <> 0. && not seen.(i) in
              if fresh then seen.(i) <- true;
              fresh)
            (List.rev entries)
        in
        Eta_file.push file
          {
            Eta_file.row;
            pivot;
            idx = Array.of_list (List.map fst entries);
            vals = Array.of_list (List.map (fun (i, _) -> w.(i)) entries);
          }
      end)
    etas;
  file

let print_eta_file (m, etas) =
  let b = Buffer.create 256 in
  Printf.bprintf b "m=%d\n" m;
  List.iter
    (fun (ascending, row, pivot, entries) ->
      Printf.bprintf b "  %s row %d pivot %h:%s\n"
        (if ascending then "push_pivot" else "push")
        row pivot
        (String.concat ""
           (List.map (fun (i, v) -> Printf.sprintf " %d:%h" i v) entries)))
    etas;
  Buffer.contents b

let prop_btran_unit =
  QCheck.Test.make ~name:"btran_unit = btran on every unit vector" ~count:300
    (QCheck.make ~print:print_eta_file gen_eta_file)
    (fun ((m, _) as spec) ->
      match btran_unit_check (eta_file_of spec) m with
      | None, _ -> true
      | Some d, _ -> QCheck.Test.fail_report d)

(* The generator must reach the dense switch, on some rows but not
   all. *)
let test_btran_unit_paths () =
  let rand = Random.State.make [| 2008 |] in
  let wide = ref 0 and narrow = ref 0 in
  List.iter
    (fun ((m, _) as spec) ->
      let _, w = btran_unit_check (eta_file_of spec) m in
      wide := !wide + w;
      narrow := !narrow + (m - w))
    (QCheck.Gen.generate ~rand ~n:300 gen_eta_file);
  Printf.printf
    "unit BTRAN sample: %d rows past the dense switch, %d ending below it\n"
    !wide !narrow;
  if !wide = 0 then Alcotest.fail "generator never reaches the dense switch";
  if !narrow = 0 then Alcotest.fail "every row ends past the dense switch"

(* ---------------- check-once kernels ---------------- *)

(* {!Eta_file} and {!Csr} validate each eta at push and each vector once
   per call, then run their loops unchecked; {!Legacy_kernels} is the
   same arithmetic with every access checked. The results must agree in
   every bit, the sign of zero included. *)

(* The first entry where [a] and [b] differ in their bits. *)
let bit_diff what a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then None
    else if bits a.(i) <> bits b.(i) then
      Some (Printf.sprintf "%s, entry %d: %h vs %h" what i a.(i) b.(i))
    else go (i + 1)
  in
  go 0

(* Dense probes of length [m]: all ones, and a pseudo-random vector with
   exact zeros in every third entry. *)
let probes m =
  let rand = Random.State.make [| m |] in
  [
    Array.make m 1.;
    Array.init m (fun i ->
        if i mod 3 = 0 then 0. else Random.State.float rand 4. -. 2.);
  ]

(* FTRAN and BTRAN of every probe and of every [stride]-th unit vector,
   and [btran_unit] of every row, against the reference. *)
let eta_kernels_diff ?(stride = 1) file m =
  let legacy = Legacy_kernels.of_eta_file file in
  let first = List.find_map Fun.id in
  let apply what kernel reference v =
    let x = Array.copy v and y = Array.copy v in
    kernel file x;
    reference legacy y;
    bit_diff what x y
  in
  let unit i = Array.init m (fun j -> if j = i then 1. else 0.) in
  let both i v =
    first
      [
        apply (Printf.sprintf "ftran %s" i) Eta_file.ftran Legacy_kernels.ftran v;
        apply (Printf.sprintf "btran %s" i) Eta_file.btran Legacy_kernels.btran v;
      ]
  in
  first
    (List.mapi (fun n v -> both (Printf.sprintf "probe %d" n) v) (probes m)
    @ List.init m (fun i ->
          first
            [
              (if i mod stride = 0 then both (Printf.sprintf "e_%d" i) (unit i)
               else None);
              (let y = Array.make m 0. and z = Array.make m 0. in
               Eta_file.btran_unit file i y;
               Legacy_kernels.btran_unit legacy i z;
               bit_diff (Printf.sprintf "btran_unit %d" i) y z);
            ]))

(* The CSR kernels on the basis's column matrix ([n_struct] rows of
   length m) against the reference. *)
let csr_kernels_diff (inp : Markowitz.input) =
  let a = inp.cols in
  let m = Csr.ncols a and n = Csr.nrows a in
  let first = List.find_map Fun.id in
  let skip = Array.init n (fun j -> j mod 5 = 2) in
  let keep j = not skip.(j) in
  first
    (List.concat_map
       (fun x ->
         let dots = Array.make n nan in
         Csr.dot_rows a x ~skip dots;
         let expected =
           Array.init n (fun j ->
               if keep j then Legacy_kernels.dot_row a j x else nan)
         in
         let singles = Array.init n (fun j -> Csr.dot_row a j x) in
         let scatter kernel =
           let w = Array.copy x in
           for j = 0 to n - 1 do
             if keep j then kernel a j w
           done;
           w
         in
         let xt = Array.init n (fun j -> x.(j mod m)) in
         [
           bit_diff "dot_rows" dots expected;
           bit_diff "dot_row" singles (Legacy_kernels.mat_vec a x);
           bit_diff "scatter_row" (scatter Csr.scatter_row)
             (scatter Legacy_kernels.scatter_row);
           bit_diff "mat_vec" (Csr.mat_vec a x) (Legacy_kernels.mat_vec a x);
           bit_diff "vec_mat" (Csr.vec_mat xt a) (Legacy_kernels.vec_mat xt a);
         ])
       (probes m))

let check_kernels what inputs =
  if inputs = [] then Alcotest.failf "%s: no bases harvested" what;
  List.iteri
    (fun n (inp : Markowitz.input) ->
      let m = Array.length inp.basis in
      let diff =
        match eta_kernels_diff ~stride:8 (extended_file ~extra:24 inp) m with
        | None -> csr_kernels_diff inp
        | diff -> diff
      in
      Option.iter
        (fun d -> Alcotest.failf "%s, basis %d (%d rows): %s" what n m d)
        diff)
    inputs

let test_kernels_tandem population bases () =
  check_kernels (Printf.sprintf "tandem N=%d" population) (Lazy.force bases)

let test_kernels_corpus () =
  check_kernels "corpus models" (Lazy.force corpus_bases)

let prop_kernels =
  QCheck.Test.make ~name:"eta kernels = checked reference, bit for bit"
    ~count:300
    (QCheck.make ~print:print_eta_file gen_eta_file)
    (fun ((m, _) as spec) ->
      match eta_kernels_diff (eta_file_of spec) m with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let raises what f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* An eta that would let a kernel leave its vector is refused at push,
   and the file is left as it was. *)
let test_push_rejects () =
  let file = Eta_file.create () in
  Eta_file.push file { Eta_file.row = 2; pivot = 2.; idx = [| 0; 5 |]; vals = [| 1.; -1. |] };
  let bad =
    [
      ("negative index", { Eta_file.row = 1; pivot = 1.; idx = [| 3; -1 |]; vals = [| 1.; 1. |] });
      ("negative row", { Eta_file.row = -1; pivot = 1.; idx = [||]; vals = [||] });
      ("more vals than idx", { Eta_file.row = 1; pivot = 1.; idx = [| 3 |]; vals = [| 1.; 2. |] });
      ("more idx than vals", { Eta_file.row = 1; pivot = 1.; idx = [| 3; 4 |]; vals = [| 1. |] });
    ]
  in
  List.iter
    (fun (what, e) -> raises ("push: " ^ what) (fun () -> Eta_file.push file e))
    bad;
  Alcotest.(check int) "etas after the refused pushes" 1 (Eta_file.length file);
  Alcotest.(check int) "nnz after the refused pushes" 3 (Eta_file.nnz file);
  Alcotest.(check int) "row bound" 6 (Eta_file.row_bound file)

(* Every kernel refuses a vector shorter than the row bound; one of
   exactly the bound's length, or longer, is fine. *)
let test_short_vectors_rejected () =
  let file = Eta_file.create () in
  Alcotest.(check int) "empty bound" 0 (Eta_file.row_bound file);
  Eta_file.ftran file [||];
  Eta_file.push file { Eta_file.row = 1; pivot = 2.; idx = [| 4 |]; vals = [| 1. |] };
  let w = [| 1.; 2.; 0.; 3.; 0.; 0.; 5.; 7. |] in
  Eta_file.push_pivot file w 3 7;
  Alcotest.(check int) "bound covers the pivot etas" 7 (Eta_file.row_bound file);
  let kernels =
    [
      ("ftran", fun v -> Eta_file.ftran file v);
      ("btran", fun v -> Eta_file.btran file v);
      ("btran_unit", fun v -> Eta_file.btran_unit file 0 v);
    ]
  in
  List.iter
    (fun (what, kernel) ->
      raises (what ^ " on a short vector") (fun () -> kernel (Array.make 6 1.));
      raises (what ^ " on an empty vector") (fun () -> kernel [||]);
      kernel (Array.make 7 1.);
      kernel (Array.make 9 1.))
    kernels;
  raises "btran_unit row past the vector" (fun () ->
      Eta_file.btran_unit file 7 (Array.make 7 0.));
  raises "btran_unit negative row" (fun () ->
      Eta_file.btran_unit file (-1) (Array.make 7 0.));
  raises "push_pivot row outside w" (fun () -> Eta_file.push_pivot file w 8 7);
  raises "push_pivot m past w" (fun () -> Eta_file.push_pivot file w 3 9);
  Eta_file.clear file;
  Alcotest.(check int) "cleared bound" 0 (Eta_file.row_bound file);
  Eta_file.btran file [||]

(* [get] hands out copies: writing to them changes neither the file nor
   what its kernels compute. *)
let test_get_copies () =
  let file = Eta_file.create () in
  Eta_file.push file { Eta_file.row = 0; pivot = 2.; idx = [| 1; 2 |]; vals = [| 0.5; -1. |] };
  let before = Array.init 3 (fun i -> Array.init 3 (fun j -> if i = j then 1. else 0.)) in
  Array.iter (Eta_file.ftran file) before;
  let e = Eta_file.get file 0 in
  e.idx.(0) <- 1_000_000;
  e.vals.(1) <- 42.;
  let again = Eta_file.get file 0 in
  Alcotest.(check (array int)) "idx unchanged" [| 1; 2 |] again.idx;
  Alcotest.(check (array (float 0.))) "vals unchanged" [| 0.5; -1. |] again.vals;
  Alcotest.(check int) "row bound unchanged" 3 (Eta_file.row_bound file);
  let after = Array.init 3 (fun i -> Array.init 3 (fun j -> if i = j then 1. else 0.)) in
  Array.iter (Eta_file.ftran file) after;
  Array.iteri
    (fun i v ->
      Option.iter Alcotest.fail (bit_diff (Printf.sprintf "ftran e_%d" i) v after.(i)))
    before

let () =
  Alcotest.run "lu"
    [
      ( "harvested",
        [
          Alcotest.test_case "tandem N=5" `Quick (test_tandem 5);
          Alcotest.test_case "tandem N=20" `Quick (test_tandem 20);
          Alcotest.test_case "tandem N=60" `Quick (test_tandem ~keep:12 60);
          Alcotest.test_case "random 3-queue models" `Quick test_random3;
          Alcotest.test_case "random 4-queue models" `Quick test_random4;
          Alcotest.test_case "hard corpus models" `Quick test_corpus;
        ] );
      ( "near-singular",
        [
          QCheck_alcotest.to_alcotest prop_near_singular;
          Alcotest.test_case "fallback paths reached" `Quick test_paths_reached;
        ] );
      ( "btran-unit",
        [
          Alcotest.test_case "tandem N=20" `Quick
            (test_btran_unit_tandem 20 tandem20);
          Alcotest.test_case "tandem N=60" `Quick
            (test_btran_unit_tandem 60 tandem60);
          Alcotest.test_case "hard corpus models" `Quick test_btran_unit_corpus;
          QCheck_alcotest.to_alcotest prop_btran_unit;
          Alcotest.test_case "dense switch reached" `Quick test_btran_unit_paths;
        ] );
      ( "check-once",
        [
          Alcotest.test_case "tandem N=20" `Quick
            (test_kernels_tandem 20 tandem20);
          Alcotest.test_case "tandem N=60" `Quick
            (test_kernels_tandem 60 tandem60);
          Alcotest.test_case "hard corpus models" `Quick test_kernels_corpus;
          QCheck_alcotest.to_alcotest prop_kernels;
          Alcotest.test_case "push rejects invalid etas" `Quick test_push_rejects;
          Alcotest.test_case "short vectors rejected" `Quick
            test_short_vectors_rejected;
          Alcotest.test_case "get returns a copy" `Quick test_get_copies;
        ] );
    ]
