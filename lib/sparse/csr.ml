module Mat = Mapqn_linalg.Mat

type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows + 1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

let nrows t = t.nrows
let ncols t = t.ncols
let nnz t = Array.length t.values

let of_coo_array ~rows ~cols triplets =
  if rows <= 0 || cols <= 0 then invalid_arg "Csr.of_coo_array: bad dims";
  Array.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_coo_array: (%d,%d) out of %dx%d" i j rows cols))
    triplets;
  let sorted = Array.copy triplets in
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    sorted;
  (* Merge duplicates and drop zeros in one pass. *)
  let n = Array.length sorted in
  let keep_col = Array.make n 0 and keep_val = Array.make n 0. in
  let keep_row = Array.make n 0 in
  let count = ref 0 in
  let flush i j v =
    if v <> 0. then begin
      keep_row.(!count) <- i;
      keep_col.(!count) <- j;
      keep_val.(!count) <- v;
      incr count
    end
  in
  let pending = ref None in
  Array.iter
    (fun (i, j, v) ->
      match !pending with
      | Some (pi, pj, pv) when pi = i && pj = j -> pending := Some (i, j, pv +. v)
      | Some (pi, pj, pv) ->
        flush pi pj pv;
        pending := Some (i, j, v)
      | None -> pending := Some (i, j, v))
    sorted;
  (match !pending with Some (pi, pj, pv) -> flush pi pj pv | None -> ());
  let m = !count in
  let row_ptr = Array.make (rows + 1) 0 in
  for k = 0 to m - 1 do
    row_ptr.(keep_row.(k) + 1) <- row_ptr.(keep_row.(k) + 1) + 1
  done;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  {
    nrows = rows;
    ncols = cols;
    row_ptr;
    col_idx = Array.sub keep_col 0 m;
    values = Array.sub keep_val 0 m;
  }

let of_coo ~rows ~cols triplets = of_coo_array ~rows ~cols (Array.of_list triplets)

let of_dense m =
  let triplets = ref [] in
  for i = Mat.rows m - 1 downto 0 do
    for j = Mat.cols m - 1 downto 0 do
      let v = Mat.get m i j in
      if v <> 0. then triplets := (i, j, v) :: !triplets
    done
  done;
  of_coo ~rows:(Mat.rows m) ~cols:(Mat.cols m) !triplets

let to_dense t =
  let m = Mat.create ~rows:t.nrows ~cols:t.ncols in
  for i = 0 to t.nrows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let get t i j =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg "Csr.get: out of range";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      found := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let nnz_row t i = t.row_ptr.(i + 1) - t.row_ptr.(i)
let row_start t i = t.row_ptr.(i)
let entry_col t p = t.col_idx.(p)
let entry_value t p = t.values.(p)

(* The row kernels below read [row_ptr], [col_idx], [values] and the
   dense vector unchecked. [of_coo_array], the only constructor that
   builds a structure ([scale] and [map_values] keep one), puts every
   column index in [0, ncols) and makes [row_ptr] ascend from 0 to nnz
   over [nrows + 1] entries. So once [i] is a row and the vector covers
   [ncols] columns, no read or write leaves its array. *)
let check_row t i x what =
  if i < 0 || i >= t.nrows then
    invalid_arg (Printf.sprintf "Csr.%s: row %d of %d" what i t.nrows);
  if Array.length x < t.ncols then
    invalid_arg
      (Printf.sprintf "Csr.%s: vector of length %d, %d columns" what
         (Array.length x) t.ncols)

(* Row [i] dotted with [x], the terms added in stored order, for a
   caller that has checked [i] and [x]. Inlined, so no caller boxes the
   sum. *)
let[@inline] row_dot t i (x : float array) =
  let acc = ref 0. in
  for k = Array.unsafe_get t.row_ptr i to Array.unsafe_get t.row_ptr (i + 1) - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get t.values k
         *. Array.unsafe_get x (Array.unsafe_get t.col_idx k))
  done;
  !acc

let dot_row t i x =
  check_row t i x "dot_row";
  row_dot t i x

let dot_rows t (x : float array) ~(skip : bool array) (out : float array) =
  if Array.length x < t.ncols then
    invalid_arg
      (Printf.sprintf "Csr.dot_rows: vector of length %d, %d columns"
         (Array.length x) t.ncols);
  if Array.length skip < t.nrows || Array.length out < t.nrows then
    invalid_arg
      (Printf.sprintf "Csr.dot_rows: skip of length %d, output of length %d, %d rows"
         (Array.length skip) (Array.length out) t.nrows);
  for i = 0 to t.nrows - 1 do
    if not (Array.unsafe_get skip i) then Array.unsafe_set out i (row_dot t i x)
  done

let scatter_row t i (x : float array) =
  check_row t i x "scatter_row";
  for k = Array.unsafe_get t.row_ptr i to Array.unsafe_get t.row_ptr (i + 1) - 1 do
    let j = Array.unsafe_get t.col_idx k in
    Array.unsafe_set x j (Array.unsafe_get x j +. Array.unsafe_get t.values k)
  done

let iter t f =
  for i = 0 to t.nrows - 1 do
    iter_row t i (fun j v -> f i j v)
  done

let mat_vec t (x : float array) =
  if Array.length x <> t.ncols then invalid_arg "Csr.mat_vec: dim mismatch";
  let y = Array.make t.nrows 0. in
  for i = 0 to t.nrows - 1 do
    Array.unsafe_set y i (row_dot t i x)
  done;
  y

let vec_mat (x : float array) t =
  if Array.length x <> t.nrows then invalid_arg "Csr.vec_mat: dim mismatch";
  let y = Array.make t.ncols 0. in
  for i = 0 to t.nrows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then
      for k = Array.unsafe_get t.row_ptr i to Array.unsafe_get t.row_ptr (i + 1) - 1 do
        let j = Array.unsafe_get t.col_idx k in
        Array.unsafe_set y j (Array.unsafe_get y j +. (xi *. Array.unsafe_get t.values k))
      done
  done;
  y

let transpose t =
  let triplets = Array.make (nnz t) (0, 0, 0.) in
  let pos = ref 0 in
  iter t (fun i j v ->
      triplets.(!pos) <- (j, i, v);
      incr pos);
  of_coo_array ~rows:t.ncols ~cols:t.nrows triplets

let row_sums t =
  Array.init t.nrows (fun i ->
      let acc = ref 0. in
      iter_row t i (fun _ v -> acc := !acc +. v);
      !acc)

let scale alpha t = { t with values = Array.map (fun v -> alpha *. v) t.values }
let map_values f t = { t with values = Array.map f t.values }
