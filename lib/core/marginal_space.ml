module Comb = Mapqn_util.Comb

type t = {
  network : Mapqn_model.Network.t;
  m : int;
  n : int;
  phase_dims : int array;
  h : int; (* joint phase count *)
  strides : int array; (* phase rank strides per station *)
  tuples : int array array; (* joint phase rank -> tuple *)
  level2 : bool;
  (* Ordered pairs (j, k), j <> k, in row-major order; pair_index.(j).(k)
     gives the pair slot, -1 on the diagonal. *)
  pair_index : int array array;
  v_base : int;
  w_base : int;
  z_base : int;
  total : int;
}

let create ?(level2 = false) network =
  let m = Mapqn_model.Network.num_stations network in
  let n = Mapqn_model.Network.population network in
  let phase_dims = Mapqn_model.Network.phase_dims network in
  let h = Comb.ranges_count phase_dims in
  let strides = Array.make m 1 in
  for k = m - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * phase_dims.(k + 1)
  done;
  let tuples = Array.init h (Comb.unrank_range phase_dims) in
  let pair_index = Array.init m (fun _ -> Array.make m (-1)) in
  let next = ref 0 in
  for j = 0 to m - 1 do
    for k = 0 to m - 1 do
      if j <> k then begin
        pair_index.(j).(k) <- !next;
        incr next
      end
    done
  done;
  let npairs = !next in
  let v_count = m * (n + 1) * h in
  let w_count = npairs * (n + 1) * h in
  let z_count = if level2 then w_count else 0 in
  {
    network;
    m;
    n;
    phase_dims;
    h;
    strides;
    tuples;
    level2;
    pair_index;
    v_base = 0;
    w_base = v_count;
    z_base = v_count + w_count;
    total = v_count + w_count + z_count;
  }

let network t = t.network
let num_stations t = t.m
let population t = t.n
let num_phase_vectors t = t.h
let has_level2 t = t.level2
let num_vars t = t.total

let check_slot t ~station ~level ~phase =
  if station < 0 || station >= t.m then invalid_arg "Marginal_space: bad station";
  if level < 0 || level > t.n then invalid_arg "Marginal_space: bad level";
  if phase < 0 || phase >= t.h then invalid_arg "Marginal_space: bad phase"

let v t ~station ~level ~phase =
  check_slot t ~station ~level ~phase;
  t.v_base + ((((station * (t.n + 1)) + level) * t.h) + phase)

let pair t j k =
  let p = t.pair_index.(j).(k) in
  if p < 0 then invalid_arg "Marginal_space: diagonal pair";
  p

let w t ~busy ~station ~level ~phase =
  check_slot t ~station ~level ~phase;
  if busy < 0 || busy >= t.m then invalid_arg "Marginal_space: bad busy station";
  t.w_base + ((((pair t busy station * (t.n + 1)) + level) * t.h) + phase)

let z t ~counted ~station ~level ~phase =
  if not t.level2 then invalid_arg "Marginal_space.z: level-2 space not allocated";
  check_slot t ~station ~level ~phase;
  t.z_base + ((((pair t counted station * (t.n + 1)) + level) * t.h) + phase)

let describe t idx =
  if idx < 0 || idx >= t.total then invalid_arg "Marginal_space.describe";
  let block, name =
    if idx < t.w_base then (idx - t.v_base, "v")
    else if idx < t.z_base then (idx - t.w_base, "w")
    else (idx - t.z_base, "z")
  in
  if name = "v" then begin
    let phase = block mod t.h in
    let rest = block / t.h in
    let level = rest mod (t.n + 1) in
    let station = rest / (t.n + 1) in
    Printf.sprintf "v[%d](n=%d,h=%d)" station level phase
  end
  else begin
    let phase = block mod t.h in
    let rest = block / t.h in
    let level = rest mod (t.n + 1) in
    let p = rest / (t.n + 1) in
    (* Invert the pair index. *)
    let j = ref (-1) and k = ref (-1) in
    for a = 0 to t.m - 1 do
      for b = 0 to t.m - 1 do
        if t.pair_index.(a).(b) = p then begin
          j := a;
          k := b
        end
      done
    done;
    Printf.sprintf "%s[%d,%d](n=%d,h=%d)" name !j !k level phase
  end

type role =
  | Role_v of { station : int; level : int; phase : int }
  | Role_w of { busy : int; station : int; level : int; phase : int }
  | Role_z of { counted : int; station : int; level : int; phase : int }

(* The pair index is row-major over ordered pairs skipping the diagonal,
   so it inverts in closed form. *)
let unpair t p =
  let j = p / (t.m - 1) in
  let r = p mod (t.m - 1) in
  let k = if r >= j then r + 1 else r in
  (j, k)

let classify t idx =
  if idx < 0 || idx >= t.total then invalid_arg "Marginal_space.classify";
  let split base block =
    let phase = block mod t.h in
    let rest = block / t.h in
    let level = rest mod (t.n + 1) in
    (base + (rest / (t.n + 1)), level, phase)
  in
  if idx < t.w_base then begin
    let station, level, phase = split 0 (idx - t.v_base) in
    Role_v { station; level; phase }
  end
  else if idx < t.z_base then begin
    let p, level, phase = split 0 (idx - t.w_base) in
    let busy, station = unpair t p in
    Role_w { busy; station; level; phase }
  end
  else begin
    let p, level, phase = split 0 (idx - t.z_base) in
    let counted, station = unpair t p in
    Role_z { counted; station; level; phase }
  end

(* [v] and [w] are probabilities; [z] counts at most the population. *)
let upper_bound t idx =
  if idx < 0 || idx >= t.total then invalid_arg "Marginal_space.upper_bound";
  if idx < t.z_base then 1. else float_of_int t.n

let phase_component t h k = t.tuples.(h).(k)

let phase_subst t h k b =
  if b < 0 || b >= t.phase_dims.(k) then invalid_arg "Marginal_space.phase_subst";
  h + ((b - t.tuples.(h).(k)) * t.strides.(k))

let station_order t k = t.phase_dims.(k)

let iter_phases t f =
  for h = 0 to t.h - 1 do
    f h
  done

let aggregate_exact t solution =
  let space = Mapqn_ctmc.Solution.space solution in
  let net_sol = Mapqn_ctmc.Solution.network solution in
  if
    Mapqn_model.Network.num_stations net_sol <> t.m
    || Mapqn_model.Network.population net_sol <> t.n
  then invalid_arg "Marginal_space.aggregate_exact: network mismatch";
  let out = Array.make t.total 0. in
  Mapqn_ctmc.State_space.iter space (fun idx qlen phases ->
      let p = Mapqn_ctmc.Solution.probability solution idx in
      if p <> 0. then begin
        let hrank = Comb.rank_range t.phase_dims phases in
        for k = 0 to t.m - 1 do
          let vi = v t ~station:k ~level:qlen.(k) ~phase:hrank in
          out.(vi) <- out.(vi) +. p;
          for j = 0 to t.m - 1 do
            if j <> k then begin
              if qlen.(j) >= 1 then begin
                let wi = w t ~busy:j ~station:k ~level:qlen.(k) ~phase:hrank in
                out.(wi) <- out.(wi) +. p
              end;
              if t.level2 && qlen.(j) >= 1 then begin
                let zi = z t ~counted:j ~station:k ~level:qlen.(k) ~phase:hrank in
                out.(zi) <- out.(zi) +. (p *. float_of_int qlen.(j))
              end
            end
          done
        done
      end);
  out
