type eta = { row : int; pivot : float; idx : int array; vals : float array }

type t = {
  mutable etas : eta array;
  mutable ascending : bool array;
      (* eta k's [idx] is strictly increasing (it came from [of_pivot]),
         so [btran_unit] may binary-search it *)
  mutable n : int;
  mutable nnz : int;
}

let dummy = { row = -1; pivot = 1.; idx = [||]; vals = [||] }

let create () =
  { etas = Array.make 64 dummy; ascending = Array.make 64 false; n = 0; nnz = 0 }

let clear t =
  Array.fill t.etas 0 t.n dummy;
  t.n <- 0;
  t.nnz <- 0

let length t = t.n
let nnz t = t.nnz
let get t k = if k < 0 || k >= t.n then invalid_arg "Eta_file.get" else t.etas.(k)

let append t e ~ascending =
  if t.n = Array.length t.etas then begin
    let cap = max 64 (2 * t.n) in
    let bigger = Array.make cap dummy and flags = Array.make cap false in
    Array.blit t.etas 0 bigger 0 t.n;
    Array.blit t.ascending 0 flags 0 t.n;
    t.etas <- bigger;
    t.ascending <- flags
  end;
  t.etas.(t.n) <- e;
  t.ascending.(t.n) <- ascending;
  t.n <- t.n + 1;
  t.nnz <- t.nnz + Array.length e.idx + 1

let push t e = append t e ~ascending:false

let of_pivot w r m =
  let cnt = ref 0 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then incr cnt
  done;
  if !cnt = 0 && Float.abs (w.(r) -. 1.) < 1e-15 then None
  else begin
    let idx = Array.make !cnt 0 and vals = Array.make !cnt 0. in
    let p = ref 0 in
    for i = 0 to m - 1 do
      if i <> r && w.(i) <> 0. then begin
        idx.(!p) <- i;
        vals.(!p) <- w.(i);
        incr p
      end
    done;
    Some { row = r; pivot = w.(r); idx; vals }
  end

let push_pivot t w r m =
  match of_pivot w r m with Some e -> append t e ~ascending:true | None -> ()

let ftran t x =
  for k = 0 to t.n - 1 do
    let e = t.etas.(k) in
    let xr = x.(e.row) in
    if xr <> 0. then begin
      let xr = xr /. e.pivot in
      x.(e.row) <- xr;
      let idx = e.idx and vals = e.vals in
      for p = 0 to Array.length idx - 1 do
        x.(idx.(p)) <- x.(idx.(p)) -. (vals.(p) *. xr)
      done
    end
  done

(* One transposed eta inverse: y_row <- (y_row − Σ vals·y_idx) / pivot,
   the terms subtracted in entry order. *)
let[@inline] btran_step e y =
  let acc = ref y.(e.row) in
  let idx = e.idx and vals = e.vals in
  for p = 0 to Array.length idx - 1 do
    acc := !acc -. (vals.(p) *. y.(idx.(p)))
  done;
  y.(e.row) <- !acc /. e.pivot

let btran t y =
  for k = t.n - 1 downto 0 do
    btran_step t.etas.(k) y
  done

(* Position of [q] in the ascending [a.(lo .. hi-1)], or [-1 - p]
   where [p] is where it would go. *)
let search a lo hi q =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) lsr 1 in
    if a.(mid) < q then l := mid + 1 else h := mid
  done;
  if !l < hi && a.(!l) = q then !l else -1 - !l

(* Hypersparse BTRAN of a unit vector (Hall & McKinnon, "Hyper-sparsity
   in the revised simplex method and how to exploit it", 2005).  [supp]
   holds, ascending, every row where y may be nonzero.  On an ascending
   eta much longer than the support, the support rows are looked up in
   [idx] instead of reading every entry: the hits are exactly the terms
   of [btran_step] whose y entry may be nonzero, in the same order.
   Skipping a term vals·(±0) leaves a nonzero accumulator unchanged and
   a zero one zero, and ±0 − t is exactly −t, so every nonzero entry of
   the result equals [btran]'s bit for bit (for finite eta entries);
   only the sign of an exact zero may differ.  Past m/32 support rows
   the lookups no longer pay and the sorted inserts would grow
   quadratic, so the rest of the file runs the dense step. *)
let btran_unit t i y =
  let m = Array.length y in
  Array.fill y 0 m 0.;
  y.(i) <- 1.;
  let limit = m / 32 in
  let supp = Array.make (limit + 1) i in
  let ns = ref 1 in
  let k = ref (t.n - 1) in
  while !k >= 0 && !ns <= limit do
    let e = t.etas.(!k) in
    let r = e.row in
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
