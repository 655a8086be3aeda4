(* Reference implementation for the differential kernel test: the
   eta-file and CSR loops as they were before {!Mapqn_lp.Eta_file} and
   {!Mapqn_sparse.Csr} checked each eta once at push and each vector once
   per call, with every array access bounds-checked. The check-once
   kernels must reproduce these results bit for bit, the sign of zero
   included: they perform the same operations in the same order. *)

module Csr = Mapqn_sparse.Csr
module Eta_file = Mapqn_lp.Eta_file

(* ---------------- eta file ---------------- *)

(* A snapshot of an eta file: its etas oldest first, each with the flag
   that lets [btran_unit] binary-search it. *)
type file = { etas : Eta_file.eta array; ascending : bool array }

let of_eta_file f =
  let n = Eta_file.length f in
  {
    etas = Array.init n (Eta_file.get f);
    ascending = Array.init n (Eta_file.is_ascending f);
  }

let ftran t x =
  for k = 0 to Array.length t.etas - 1 do
    let e = t.etas.(k) in
    let xr = x.(e.Eta_file.row) in
    if xr <> 0. then begin
      let xr = xr /. e.pivot in
      x.(e.row) <- xr;
      let idx = e.idx and vals = e.vals in
      for p = 0 to Array.length idx - 1 do
        x.(idx.(p)) <- x.(idx.(p)) -. (vals.(p) *. xr)
      done
    end
  done

let btran_step (e : Eta_file.eta) y =
  let acc = ref y.(e.row) in
  let idx = e.idx and vals = e.vals in
  for p = 0 to Array.length idx - 1 do
    acc := !acc -. (vals.(p) *. y.(idx.(p)))
  done;
  y.(e.row) <- !acc /. e.pivot

let btran t y =
  for k = Array.length t.etas - 1 downto 0 do
    btran_step t.etas.(k) y
  done

let search a lo hi q =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) lsr 1 in
    if a.(mid) < q then l := mid + 1 else h := mid
  done;
  if !l < hi && a.(!l) = q then !l else -1 - !l

let btran_unit t i y =
  let m = Array.length y in
  Array.fill y 0 m 0.;
  y.(i) <- 1.;
  let limit = m / 32 in
  let supp = Array.make (limit + 1) i in
  let ns = ref 1 in
  let k = ref (Array.length t.etas - 1) in
  while !k >= 0 && !ns <= limit do
    let e = t.etas.(!k) in
    let r = e.Eta_file.row in
    let idx = e.idx in
    if t.ascending.(!k) && Array.length idx > 8 * !ns then begin
      let vals = e.vals in
      let acc = ref y.(r) and hit = ref false and lo = ref 0 in
      for s = 0 to !ns - 1 do
        let q = supp.(s) in
        let p = search idx !lo (Array.length idx) q in
        if p >= 0 then begin
          acc := !acc -. (vals.(p) *. y.(q));
          hit := true;
          lo := p + 1
        end
        else lo := -1 - p
      done;
      if !hit || y.(r) <> 0. then y.(r) <- !acc /. e.pivot
    end
    else btran_step e y;
    if y.(r) <> 0. then begin
      let p = search supp 0 !ns r in
      if p < 0 then begin
        let p = -1 - p in
        Array.blit supp p supp (p + 1) (!ns - p);
        supp.(p) <- r;
        incr ns
      end
    end;
    decr k
  done;
  while !k >= 0 do
    btran_step t.etas.(!k) y;
    decr k
  done

(* ---------------- CSR ---------------- *)

(* The same loops over the checked position accessors. *)

let dot_row a i x =
  let acc = ref 0. in
  for k = Csr.row_start a i to Csr.row_start a (i + 1) - 1 do
    acc := !acc +. (Csr.entry_value a k *. x.(Csr.entry_col a k))
  done;
  !acc

let scatter_row a i x =
  for k = Csr.row_start a i to Csr.row_start a (i + 1) - 1 do
    let j = Csr.entry_col a k in
    x.(j) <- x.(j) +. Csr.entry_value a k
  done

let mat_vec a x = Array.init (Csr.nrows a) (fun i -> dot_row a i x)

let vec_mat x a =
  let y = Array.make (Csr.ncols a) 0. in
  for i = 0 to Csr.nrows a - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = Csr.row_start a i to Csr.row_start a (i + 1) - 1 do
        let j = Csr.entry_col a k in
        y.(j) <- y.(j) +. (xi *. Csr.entry_value a k)
      done
  done;
  y
