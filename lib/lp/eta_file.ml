type eta = { row : int; pivot : float; idx : int array; vals : float array }

(* Every eta in [etas.(0 .. n-1)] was validated when it entered the file:
   [row] and every [idx] entry lie in [0, bound), and [idx] and [vals]
   have equal lengths; [push] takes ownership of the arrays and [get]
   hands out copies, so nothing outside this module can change them
   later. The kernels check the vector's length against [bound] once per
   call and then read and write every entry unchecked. *)
type t = {
  mutable etas : eta array;
  mutable ascending : bool array;
      (* eta k's [idx] is strictly increasing (it came from [of_pivot]),
         so [btran_unit] may binary-search it *)
  mutable n : int;
  mutable nnz : int;
  mutable bound : int;
      (* one more than the largest row any eta touches: the shortest
         vector the kernels accept *)
}

let dummy = { row = -1; pivot = 1.; idx = [||]; vals = [||] }

let create () =
  {
    etas = Array.make 64 dummy;
    ascending = Array.make 64 false;
    n = 0;
    nnz = 0;
    bound = 0;
  }

let clear t =
  Array.fill t.etas 0 t.n dummy;
  t.n <- 0;
  t.nnz <- 0;
  t.bound <- 0

let length t = t.n
let nnz t = t.nnz
let row_bound t = t.bound

let get t k =
  if k < 0 || k >= t.n then invalid_arg "Eta_file.get"
  else
    let e = t.etas.(k) in
    { e with idx = Array.copy e.idx; vals = Array.copy e.vals }

let is_ascending t k =
  if k < 0 || k >= t.n then invalid_arg "Eta_file.is_ascending"
  else t.ascending.(k)

(* [top] is the largest row [e] touches. *)
let append t e ~ascending ~top =
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
  t.nnz <- t.nnz + Array.length e.idx + 1;
  if top >= t.bound then t.bound <- top + 1

let push t e =
  let len = Array.length e.idx in
  if e.row < 0 then invalid_arg "Eta_file.push: negative row";
  if Array.length e.vals <> len then
    invalid_arg "Eta_file.push: idx and vals differ in length";
  let top = ref e.row in
  for p = 0 to len - 1 do
    let i = e.idx.(p) in
    if i < 0 then invalid_arg "Eta_file.push: negative index";
    if i > !top then top := i
  done;
  append t e ~ascending:false ~top:!top

(* Once [r] and [m] are checked against [w], every read of [w] is in
   range, and the second pass writes exactly the [cnt] entries the first
   counted. *)
let of_pivot (w : float array) r m =
  if r < 0 || r >= Array.length w || m > Array.length w then
    invalid_arg "Eta_file.of_pivot: row or length outside the column";
  let cnt = ref 0 in
  for i = 0 to m - 1 do
    if i <> r && Array.unsafe_get w i <> 0. then incr cnt
  done;
  let pivot = Array.unsafe_get w r in
  if !cnt = 0 && Float.abs (pivot -. 1.) < 1e-15 then None
  else begin
    let idx = Array.make !cnt 0 and vals = Array.make !cnt 0. in
    let p = ref 0 in
    for i = 0 to m - 1 do
      let v = Array.unsafe_get w i in
      if i <> r && v <> 0. then begin
        Array.unsafe_set idx !p i;
        Array.unsafe_set vals !p v;
        incr p
      end
    done;
    Some { row = r; pivot; idx; vals }
  end

(* [of_pivot]'s eta is valid by construction: [r] and every index are
   rows of [w], and the indices ascend, the last being the largest. *)
let push_pivot t w r m =
  match of_pivot w r m with
  | Some e ->
    let len = Array.length e.idx in
    let top = if len > 0 then max r e.idx.(len - 1) else r in
    append t e ~ascending:true ~top
  | None -> ()

let check_length t v what =
  if Array.length v < t.bound then
    invalid_arg
      (Printf.sprintf "Eta_file.%s: vector of length %d, row bound %d" what
         (Array.length v) t.bound)

let ftran t (x : float array) =
  check_length t x "ftran";
  for k = 0 to t.n - 1 do
    let e = Array.unsafe_get t.etas k in
    let xr = Array.unsafe_get x e.row in
    if xr <> 0. then begin
      let xr = xr /. e.pivot in
      Array.unsafe_set x e.row xr;
      let idx = e.idx and vals = e.vals in
      for p = 0 to Array.length idx - 1 do
        let i = Array.unsafe_get idx p in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get vals p *. xr))
      done
    end
  done

(* One transposed eta inverse: y_row <- (y_row − Σ vals·y_idx) / pivot,
   the terms subtracted in entry order. The caller has checked [y]
   against the row bound. *)
let[@inline] btran_step e (y : float array) =
  let acc = ref (Array.unsafe_get y e.row) in
  let idx = e.idx and vals = e.vals in
  for p = 0 to Array.length idx - 1 do
    acc :=
      !acc
      -. (Array.unsafe_get vals p *. Array.unsafe_get y (Array.unsafe_get idx p))
  done;
  Array.unsafe_set y e.row (!acc /. e.pivot)

let btran t y =
  check_length t y "btran";
  for k = t.n - 1 downto 0 do
    btran_step (Array.unsafe_get t.etas k) y
  done

(* Position of [q] in the ascending [a.(lo .. hi-1)], or [-1 - p]
   where [p] is where it would go. Requires [0 <= lo <= hi <= length a]:
   every probe then lies in [lo, hi). *)
let search (a : int array) lo hi q =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) lsr 1 in
    if Array.unsafe_get a mid < q then l := mid + 1 else h := mid
  done;
  if !l < hi && Array.unsafe_get a !l = q then !l else -1 - !l

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
   quadratic, so the rest of the file runs the dense step.

   Unchecked accesses: [i] is checked against [m], and every other
   support row is an eta row, below the bound; the support holds at most
   [limit + 1] rows, its length, because a row is only inserted while
   [ns <= limit]. *)
let btran_unit t i (y : float array) =
  check_length t y "btran_unit";
  let m = Array.length y in
  if i < 0 || i >= m then invalid_arg "Eta_file.btran_unit: row out of range";
  Array.fill y 0 m 0.;
  Array.unsafe_set y i 1.;
  let limit = m / 32 in
  let supp = Array.make (limit + 1) i in
  let ns = ref 1 in
  let k = ref (t.n - 1) in
  while !k >= 0 && !ns <= limit do
    let e = Array.unsafe_get t.etas !k in
    let r = e.row in
    let idx = e.idx in
    if Array.unsafe_get t.ascending !k && Array.length idx > 8 * !ns then begin
      let vals = e.vals in
      let acc = ref (Array.unsafe_get y r) and hit = ref false and lo = ref 0 in
      for s = 0 to !ns - 1 do
        let q = Array.unsafe_get supp s in
        let p = search idx !lo (Array.length idx) q in
        if p >= 0 then begin
          acc := !acc -. (Array.unsafe_get vals p *. Array.unsafe_get y q);
          hit := true;
          lo := p + 1
        end
        else lo := -1 - p
      done;
      if !hit || Array.unsafe_get y r <> 0. then
        Array.unsafe_set y r (!acc /. e.pivot)
    end
    else btran_step e y;
    if Array.unsafe_get y r <> 0. then begin
      let p = search supp 0 !ns r in
      if p < 0 then begin
        let p = -1 - p in
        Array.blit supp p supp (p + 1) (!ns - p);
        Array.unsafe_set supp p r;
        incr ns
      end
    end;
    decr k
  done;
  while !k >= 0 do
    btran_step (Array.unsafe_get t.etas !k) y;
    decr k
  done
