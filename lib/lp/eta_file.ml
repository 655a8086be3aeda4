type eta = { row : int; pivot : float; idx : int array; vals : float array }

type t = { mutable etas : eta array; mutable n : int; mutable nnz : int }

let dummy = { row = -1; pivot = 1.; idx = [||]; vals = [||] }
let create () = { etas = Array.make 64 dummy; n = 0; nnz = 0 }

let clear t =
  Array.fill t.etas 0 t.n dummy;
  t.n <- 0;
  t.nnz <- 0

let length t = t.n
let nnz t = t.nnz
let get t k = if k < 0 || k >= t.n then invalid_arg "Eta_file.get" else t.etas.(k)

let push t e =
  if t.n = Array.length t.etas then begin
    let bigger = Array.make (max 64 (2 * t.n)) dummy in
    Array.blit t.etas 0 bigger 0 t.n;
    t.etas <- bigger
  end;
  t.etas.(t.n) <- e;
  t.n <- t.n + 1;
  t.nnz <- t.nnz + Array.length e.idx + 1

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

let btran t y =
  for k = t.n - 1 downto 0 do
    let e = t.etas.(k) in
    let acc = ref y.(e.row) in
    let idx = e.idx and vals = e.vals in
    for p = 0 to Array.length idx - 1 do
      acc := !acc -. (vals.(p) *. y.(idx.(p)))
    done;
    y.(e.row) <- !acc /. e.pivot
  done

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
