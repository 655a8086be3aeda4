(* Reference implementation for the differential LU test: the
   hash-table Markowitz refactorization the revised simplex used before
   {!Mapqn_lp.Markowitz}, kept verbatim up to its interface (it reads a
   {!Markowitz.input} and fills an {!Eta_file} instead of mutating the
   solver state). Its [Hashtbl.iter] visiting order is the contract the
   array implementation replays; with randomized hash tables that order
   (and so the eta file) changes from run to run. *)

module Csr = Mapqn_sparse.Csr
module Eta_file = Mapqn_lp.Eta_file
module Markowitz = Mapqn_lp.Markowitz

let factorize file (inp : Markowitz.input) =
  Eta_file.clear file;
  let m = Array.length inp.basis in
  let push_eta e = Eta_file.push file e in
  let assigned = Array.make m false in
  let new_basis = Array.make m (-1) in
  let colv = Array.init m (fun _ -> Hashtbl.create 8) in
  let rowocc = Array.init m (fun _ -> Hashtbl.create 8) in
  let col_cnt = Array.make m 0 in
  let row_cnt = Array.make m 0 in
  let h_bmax = ref 0. and h_fmax = ref 0. in
  let h_pmin = ref infinity and h_pmax = ref 0. in
  let grow v =
    let a = Float.abs v in
    if a > !h_fmax then h_fmax := a
  in
  let pivot_mag p =
    let a = Float.abs p in
    if a < !h_pmin then h_pmin := a;
    if a > !h_pmax then h_pmax := a;
    if a > !h_fmax then h_fmax := a
  in
  Array.iteri
    (fun k c ->
      if c < inp.n_struct then
        Csr.iter_row inp.cols c (fun i v ->
            if v <> 0. then begin
              if Float.abs v > !h_bmax then h_bmax := Float.abs v;
              Hashtbl.replace colv.(k) i v;
              Hashtbl.replace rowocc.(i) k ();
              col_cnt.(k) <- col_cnt.(k) + 1;
              row_cnt.(i) <- row_cnt.(i) + 1
            end)
      else begin
        if 1. > !h_bmax then h_bmax := 1.;
        let i = inp.art_row.(c - inp.n_struct) in
        Hashtbl.replace colv.(k) i inp.art_sign.(i);
        Hashtbl.replace rowocc.(i) k ();
        col_cnt.(k) <- col_cnt.(k) + 1;
        row_cnt.(i) <- row_cnt.(i) + 1
      end)
    inp.basis;
  let remaining = Array.make m true in
  let deferred = ref [] in
  let u_etas = ref [] in
  let n_left = ref m in
  let retire k =
    remaining.(k) <- false;
    decr n_left;
    Hashtbl.iter (fun i _ -> row_cnt.(i) <- row_cnt.(i) - 1) colv.(k)
  in
  while !n_left > 0 do
    let cmin = ref max_int in
    for k = 0 to m - 1 do
      if remaining.(k) && col_cnt.(k) < !cmin then cmin := col_cnt.(k)
    done;
    if !cmin = max_int then n_left := 0
    else begin
      let cands = ref [] and n_cands = ref 0 in
      (let k = ref 0 in
       while !n_cands < 8 && !k < m do
         if remaining.(!k) && col_cnt.(!k) <= !cmin + 1 then begin
           cands := !k :: !cands;
           incr n_cands
         end;
         incr k
       done);
      let k_best = ref (-1)
      and r_best = ref (-1)
      and p_best = ref 0.
      and score_best = ref max_int in
      List.iter
        (fun k ->
          let colmax = ref 0. in
          Hashtbl.iter
            (fun i v ->
              if (not assigned.(i)) && Float.abs v > !colmax then
                colmax := Float.abs v)
            colv.(k);
          if !colmax <= 1e-11 then begin
            retire k;
            deferred := k :: !deferred
          end
          else
            Hashtbl.iter
              (fun i v ->
                if (not assigned.(i)) && Float.abs v >= 0.1 *. !colmax then begin
                  let score = (row_cnt.(i) - 1) * (col_cnt.(k) - 1) in
                  if
                    score < !score_best
                    || (score = !score_best && Float.abs v > Float.abs !p_best)
                  then begin
                    k_best := k;
                    r_best := i;
                    p_best := v;
                    score_best := score
                  end
                end)
              colv.(k))
        !cands;
      if !k_best >= 0 then begin
        let k = !k_best in
        let r = !r_best in
        let p = !p_best in
        pivot_mag p;
        retire k;
        let lidx = ref [] and lvals = ref [] and ln = ref 0 in
        let uidx = ref [] and uvals = ref [] and un = ref 0 in
        Hashtbl.iter
          (fun i v ->
            if i <> r then begin
              grow v;
              if assigned.(i) then begin
                uidx := i :: !uidx;
                uvals := v :: !uvals;
                incr un
              end
              else begin
                lidx := i :: !lidx;
                lvals := v :: !lvals;
                incr ln
              end
            end)
          colv.(k);
        let lidx = Array.of_list !lidx and lvals = Array.of_list !lvals in
        if !ln > 0 || Float.abs (p -. 1.) >= 1e-15 then
          push_eta { row = r; pivot = p; idx = lidx; vals = lvals };
        if !un > 0 then
          u_etas :=
            {
              Eta_file.row = r;
              pivot = 1.;
              idx = Array.of_list !uidx;
              vals = Array.of_list !uvals;
            }
            :: !u_etas;
        assigned.(r) <- true;
        new_basis.(r) <- inp.basis.(k);
        let touched = Hashtbl.fold (fun k' () acc -> k' :: acc) rowocc.(r) [] in
        List.iter
          (fun k' ->
            if k' <> k && remaining.(k') then begin
              match Hashtbl.find_opt colv.(k') r with
              | None -> ()
              | Some vr ->
                col_cnt.(k') <- col_cnt.(k') - 1;
                let f = vr /. p in
                Hashtbl.replace colv.(k') r f;
                Array.iteri
                  (fun q i ->
                    let old =
                      match Hashtbl.find_opt colv.(k') i with
                      | Some v -> v
                      | None -> 0.
                    in
                    let nv = old -. (lvals.(q) *. f) in
                    if Float.abs nv < 1e-13 then begin
                      if old <> 0. then begin
                        Hashtbl.remove colv.(k') i;
                        row_cnt.(i) <- row_cnt.(i) - 1;
                        col_cnt.(k') <- col_cnt.(k') - 1
                      end
                    end
                    else begin
                      grow nv;
                      Hashtbl.replace colv.(k') i nv;
                      if old = 0. then begin
                        Hashtbl.replace rowocc.(i) k' ();
                        row_cnt.(i) <- row_cnt.(i) + 1;
                        col_cnt.(k') <- col_cnt.(k') + 1
                      end
                    end)
                  lidx
            end)
          touched;
        Hashtbl.iter (fun i _ -> Hashtbl.remove rowocc.(i) k) colv.(k);
        Hashtbl.reset colv.(k)
      end
    end
  done;
  List.iter push_eta !u_etas;
  let w = Array.make m 0. in
  let dropped = ref [] in
  List.iter
    (fun k ->
      let c = inp.basis.(k) in
      Array.fill w 0 m 0.;
      if c < inp.n_struct then Csr.scatter_row inp.cols c w
      else begin
        let i = inp.art_row.(c - inp.n_struct) in
        w.(i) <- inp.art_sign.(i)
      end;
      Eta_file.ftran file w;
      let r = ref (-1) and best = ref 1e-11 in
      for i = 0 to m - 1 do
        if (not assigned.(i)) && Float.abs w.(i) > !best then begin
          r := i;
          best := Float.abs w.(i)
        end
      done;
      if !r < 0 then dropped := c :: !dropped
      else begin
        pivot_mag w.(!r);
        (match Eta_file.of_pivot w !r m with Some e -> push_eta e | None -> ());
        assigned.(!r) <- true;
        new_basis.(!r) <- c
      end)
    (List.rev !deferred);
  let repaired = ref [] in
  for i = 0 to m - 1 do
    if new_basis.(i) < 0 then begin
      new_basis.(i) <- inp.n_struct + i;
      repaired := i :: !repaired;
      if inp.art_sign.(i) <> 1. then
        push_eta { row = i; pivot = inp.art_sign.(i); idx = [||]; vals = [||] }
    end
  done;
  Array.blit new_basis 0 inp.basis 0 m;
  {
    Markowitz.deferred = List.rev !deferred;
    dropped = List.rev !dropped;
    repaired = List.rev !repaired;
    growth = (if !h_bmax > 0. then !h_fmax /. !h_bmax else 0.);
    min_pivot = (if !h_pmin = infinity then 0. else !h_pmin);
    max_pivot = !h_pmax;
  }
