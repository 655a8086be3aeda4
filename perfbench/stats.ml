(* Order statistics shared by the run aggregation and the comparison
   gate. Quartiles follow Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so a spread computed here matches
   one computed from the same samples by a script. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> Float.nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median: the run-to-run spread
   the gate compares against a metric's bound. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then if q3 -. q1 = 0. then 0. else infinity
  else (q3 -. q1) /. Float.abs med

(* Linear-interpolation percentile, [p] in [0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> Float.nan
  | n ->
    let r = p *. float_of_int (n - 1) in
    let i = truncate r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let minimum xs = List.fold_left Float.min infinity xs
let maximum xs = List.fold_left Float.max neg_infinity xs
