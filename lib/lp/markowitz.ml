module Csr = Mapqn_sparse.Csr

type input = {
  cols : Csr.t;
  n_struct : int;
  art_row : int array;
  art_sign : float array;
  basis : int array;
}

type result = {
  deferred : int list;
  dropped : int list;
  repaired : int list;
  growth : float;
  min_pivot : float;
  max_pivot : float;
}

(* The elimination order below is a frozen contract: it replays, entry
   for entry, the visiting order of the hash-table LU this module
   replaced, because the simplex trajectories downstream are chaotic in
   the last bit of every eta value.  Each partially eliminated column
   was a [Hashtbl] created with 16 buckets, doubled whenever an
   insertion took its size past twice the bucket count; [Hashtbl.iter]
   walked the buckets in ascending [Hashtbl.hash row land (buckets - 1)]
   and, within a bucket, the newest insertion first.  Here each column
   keeps, per entry, its row, value and insertion stamp plus that
   bucket count; the visiting order is recomputed from them when it
   matters (pivot choice ties and the order of an eta's entries). *)
let initial_buckets = 16
let stamp_bits = 40
let stamp_max = (1 lsl stamp_bits) - 1

(* Storage is pooled, so that its size follows the live part of one
   factorization rather than the largest column ever seen at each basis
   position:

   - the active entries (unassigned rows) of column k occupy a segment
     [cstart k, cstart k + ccap k) of the arena (row, value, stamp), in
     arbitrary order; a full segment moves to the arena's end with twice
     the room, and a full arena is compacted (retired columns' segments
     are dead);
   - the frozen U entries (assigned rows) of column k form a linked list
     in the U pool, newest first, returned to a free list once the
     column pivots and its U eta is written;
   - the occupancy of row i — remaining columns that may hold an entry
     there, a superset deduplicated through [seen] — is a linked list in
     the occupancy pool, freed once row i is pivoted.

   All three are emptied at the start of each factorization and keep
   their capacity. *)
type workspace = {
  rows : int;  (* the largest basis it can factorize *)
  mutable m : int;  (* rows of the basis being factorized *)
  rhash : int array;  (* Hashtbl.hash of each row index *)
  (* Per basis position. *)
  cstart : int array;
  ccap : int array;
  alen : int array;  (* active entries = the column's Markowitz count *)
  fhead : int array;
  flen : int array;
  buckets : int array;
  remaining : bool array;
  seen : int array;  (* last pivot step that updated the column *)
  (* Per row. *)
  ohead : int array;
  row_cnt : int array;  (* remaining columns with an entry at the row *)
  assigned : bool array;
  slot : int array;  (* row -> segment offset in the column being updated *)
  new_basis : int array;
  (* Arena. *)
  mutable arow : int array;
  mutable aval : float array;
  mutable astamp : int array;
  mutable afree : int;
  (* U pool. *)
  mutable urow : int array;
  mutable uval : float array;
  mutable ustamp : int array;
  mutable unext : int array;
  mutable ufree : int;
  mutable ureuse : int;  (* free list of released U-pool nodes *)
  (* Occupancy pool. *)
  mutable ocol : int array;
  mutable onext : int array;
  mutable ofree : int;
  mutable oreuse : int;  (* free list of released occupancy nodes *)
  (* Per active count c, the set of remaining columns with that count,
     as a bitset over basis positions (32 positions per word, allocated
     on first use); [lb] is a lower bound on the smallest populated
     count.  Every column leaves its set when it is retired, so the sets
     are empty between calls unless one was interrupted ([busy]). *)
  words : int;
  bits : int array array;
  pop : int array;
  mutable lb : int;
  mutable busy : bool;
  health : float array;  (* gauges, indexed by [h_bmax] .. [h_pmax] *)
  (* Scratch. *)
  keys : int array;
  perm : int array;
  work : float array;
}

let workspace m =
  (* Visiting keys pack a bucket (below m) above a 40-bit stamp. *)
  if m < 0 || m >= 1 lsl 21 then invalid_arg "Markowitz.workspace: size";
  let pool = max 64 (4 * m) in
  {
    rows = m;
    m = 0;
    rhash = Array.init m Hashtbl.hash;
    cstart = Array.make m 0;
    ccap = Array.make m 0;
    alen = Array.make m 0;
    fhead = Array.make m (-1);
    flen = Array.make m 0;
    buckets = Array.make m initial_buckets;
    remaining = Array.make m false;
    seen = Array.make m 0;
    ohead = Array.make m (-1);
    row_cnt = Array.make m 0;
    assigned = Array.make m false;
    slot = Array.make m (-1);
    new_basis = Array.make m (-1);
    arow = Array.make pool 0;
    aval = Array.make pool 0.;
    astamp = Array.make pool 0;
    afree = 0;
    urow = Array.make pool 0;
    uval = Array.make pool 0.;
    ustamp = Array.make pool 0;
    unext = Array.make pool 0;
    ufree = 0;
    ureuse = -1;
    ocol = Array.make pool 0;
    onext = Array.make pool 0;
    ofree = 0;
    oreuse = -1;
    words = (m + 31) / 32;
    bits = Array.make (m + 2) [||];
    pop = Array.make (m + 2) 0;
    lb = 0;
    busy = false;
    health = Array.make 4 0.;
    keys = Array.make m 0;
    perm = Array.make m 0;
    work = Array.make m 0.;
  }

let rows ws = ws.rows

(* ---------------- health gauges ---------------- *)

(* Largest |basis entry| (the growth denominator), largest |entry|
   produced during elimination, and the range of accepted pivot
   magnitudes.  Kept in a float array and updated by inlined helpers so
   the elimination loops box no floats. *)
let h_bmax = 0
let h_fmax = 1
let h_pmin = 2
let h_pmax = 3

let[@inline] note_max (h : float array) g v =
  let a = Float.abs v in
  if a > h.(g) then h.(g) <- a

let[@inline] note_pivot (h : float array) p =
  let a = Float.abs p in
  if a < h.(h_pmin) then h.(h_pmin) <- a;
  if a > h.(h_pmax) then h.(h_pmax) <- a;
  if a > h.(h_fmax) then h.(h_fmax) <- a

(* ---------------- count bitsets ---------------- *)

let ctz_table =
  let t = Array.make 32 0 in
  for b = 0 to 31 do
    t.((((1 lsl b) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- b
  done;
  t

(* Index of the single set bit of [x], a power of two below 2^32. *)
let ctz32 x = ctz_table.(((x * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let bits_add ws k c =
  if Array.length ws.bits.(c) = 0 then ws.bits.(c) <- Array.make ws.words 0;
  let b = ws.bits.(c) in
  b.(k lsr 5) <- b.(k lsr 5) lor (1 lsl (k land 31));
  ws.pop.(c) <- ws.pop.(c) + 1;
  if c < ws.lb then ws.lb <- c

let bits_remove ws k c =
  let b = ws.bits.(c) in
  b.(k lsr 5) <- b.(k lsr 5) land lnot (1 lsl (k land 31));
  ws.pop.(c) <- ws.pop.(c) - 1

(* The first (up to) 8 remaining positions, by index, whose count is
   [c] or [c + 1], ascending into [out]; returns how many.  Positions
   are below [m], so [words] = ceil(m / 32) words are scanned. *)
let candidates ws ~words c out =
  let b0 = ws.bits.(c) and b1 = ws.bits.(c + 1) in
  let n0 = Array.length b0 and n1 = Array.length b1 in
  let n = ref 0 and w = ref 0 in
  while !n < 8 && !w < words do
    let x =
      ref
        ((if n0 > 0 then b0.(!w) else 0) lor if n1 > 0 then b1.(!w) else 0)
    in
    while !x <> 0 && !n < 8 do
      let low = !x land - !x in
      out.(!n) <- (!w lsl 5) + ctz32 low;
      incr n;
      x := !x lxor low
    done;
    incr w
  done;
  !n

(* ---------------- sorting ---------------- *)

(* Sort [perm.(0..n-1)] by ascending [keys] (parallel arrays): insertion
   sort for short runs, heapsort beyond. *)
let sort_by_key keys perm n =
  let swap a b =
    let k = keys.(a) and p = perm.(a) in
    keys.(a) <- keys.(b);
    perm.(a) <- perm.(b);
    keys.(b) <- k;
    perm.(b) <- p
  in
  if n <= 16 then
    for a = 1 to n - 1 do
      let b = ref a in
      while !b > 0 && keys.(!b - 1) > keys.(!b) do
        swap (!b - 1) !b;
        decr b
      done
    done
  else begin
    let rec sift root len =
      let child = (2 * root) + 1 in
      if child < len then begin
        let c =
          if child + 1 < len && keys.(child + 1) > keys.(child) then child + 1
          else child
        in
        if keys.(c) > keys.(root) then begin
          swap root c;
          sift c len
        end
      end
    in
    for root = (n / 2) - 1 downto 0 do
      sift root n
    done;
    for last = n - 1 downto 1 do
      swap 0 last;
      sift 0 last
    done
  end

(* ---------------- pooled storage ---------------- *)

let grown_int a len used =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 used;
  b

let grown_float a len used =
  let b = Array.make len 0. in
  Array.blit a 0 b 0 used;
  b

(* Make the arena at least [len] slots long. *)
let grow_arena ws len =
  if len > Array.length ws.arow then begin
    let len = max len (2 * Array.length ws.arow) and used = ws.afree in
    ws.arow <- grown_int ws.arow len used;
    ws.aval <- grown_float ws.aval len used;
    ws.astamp <- grown_int ws.astamp len used
  end

(* Slide the segments of the remaining columns to the front of the
   arena, in address order (so no segment overwrites one still to
   move), each trimmed to its active entries. *)
let compact ws =
  let n = ref 0 in
  for k = 0 to ws.m - 1 do
    if ws.remaining.(k) then begin
      ws.keys.(!n) <- ws.cstart.(k);
      ws.perm.(!n) <- k;
      incr n
    end
  done;
  sort_by_key ws.keys ws.perm !n;
  let dst = ref 0 in
  for j = 0 to !n - 1 do
    let k = ws.perm.(j) in
    let src = ws.cstart.(k) and a = ws.alen.(k) in
    Array.blit ws.arow src ws.arow !dst a;
    Array.blit ws.aval src ws.aval !dst a;
    Array.blit ws.astamp src ws.astamp !dst a;
    ws.cstart.(k) <- !dst;
    ws.ccap.(k) <- a;
    dst := !dst + a
  done;
  ws.afree <- !dst

(* Move column [k]'s active entries to a fresh segment of [cap] slots,
   compacting the arena when it is full and growing it when compaction
   frees less than half. *)
let relocate ws k cap =
  if ws.afree + cap > Array.length ws.arow then begin
    compact ws;
    if 2 * (ws.afree + cap) > Array.length ws.arow then
      grow_arena ws (2 * (ws.afree + cap))
  end;
  let used = ws.afree in
  let src = ws.cstart.(k) and a = ws.alen.(k) in
  Array.blit ws.arow src ws.arow used a;
  Array.blit ws.aval src ws.aval used a;
  Array.blit ws.astamp src ws.astamp used a;
  ws.cstart.(k) <- used;
  ws.ccap.(k) <- cap;
  ws.afree <- used + cap

(* Insert a new active entry at row [i] and return its segment offset,
   for the caller to store the value at [cstart k + offset] (floats
   passed through a call would be boxed).  Grows the bucket count
   exactly when the replaced hash table would have resized. *)
let insert ws k i stamp =
  let a = ws.alen.(k) in
  if a = ws.ccap.(k) then relocate ws k (max 4 (2 * a));
  let p = ws.cstart.(k) + a in
  ws.arow.(p) <- i;
  ws.astamp.(p) <- stamp;
  ws.alen.(k) <- a + 1;
  if a + 1 + ws.flen.(k) > 2 * ws.buckets.(k) then
    ws.buckets.(k) <- 2 * ws.buckets.(k);
  a

(* Remove the active entry at offset [off], filling its place with the
   last active entry (whose [slot] mapping follows it). *)
let remove_active ws k off =
  let base = ws.cstart.(k) in
  let last = ws.alen.(k) - 1 in
  ws.slot.(ws.arow.(base + off)) <- -1;
  if off < last then begin
    let p = base + off and q = base + last in
    ws.arow.(p) <- ws.arow.(q);
    ws.aval.(p) <- ws.aval.(q);
    ws.astamp.(p) <- ws.astamp.(q);
    ws.slot.(ws.arow.(p)) <- off
  end;
  ws.alen.(k) <- last

(* Move the active entry at offset [off] onto the column's frozen list,
   keeping its insertion stamp (the hash table updated the entry in
   place); returns its U-pool index for the caller to store the new
   value at. *)
let freeze ws k off =
  let p = ws.cstart.(k) + off in
  let row = ws.arow.(p) and stamp = ws.astamp.(p) in
  remove_active ws k off;
  let u =
    if ws.ureuse >= 0 then begin
      let u = ws.ureuse in
      ws.ureuse <- ws.unext.(u);
      u
    end
    else begin
      let u = ws.ufree in
      if u = Array.length ws.urow then begin
        let len = 2 * u in
        ws.urow <- grown_int ws.urow len u;
        ws.uval <- grown_float ws.uval len u;
        ws.ustamp <- grown_int ws.ustamp len u;
        ws.unext <- grown_int ws.unext len u
      end;
      ws.ufree <- u + 1;
      u
    end
  in
  ws.urow.(u) <- row;
  ws.ustamp.(u) <- stamp;
  ws.unext.(u) <- ws.fhead.(k);
  ws.fhead.(k) <- u;
  ws.flen.(k) <- ws.flen.(k) + 1;
  u

let add_occ ws i k =
  let e =
    if ws.oreuse >= 0 then begin
      let e = ws.oreuse in
      ws.oreuse <- ws.onext.(e);
      e
    end
    else begin
      let e = ws.ofree in
      if e = Array.length ws.ocol then begin
        ws.ocol <- grown_int ws.ocol (2 * e) e;
        ws.onext <- grown_int ws.onext (2 * e) e
      end;
      ws.ofree <- e + 1;
      e
    end
  in
  ws.ocol.(e) <- k;
  ws.onext.(e) <- ws.ohead.(i);
  ws.ohead.(i) <- e

(* Visiting key of an entry of column [k]: ascending key = the replaced
   hash table's iteration order (bucket ascending, newest first). *)
let visit_key ws k row stamp =
  let b = ws.rhash.(row) land (ws.buckets.(k) - 1) in
  (b lsl stamp_bits) lor (stamp_max - stamp)

(* The [n] entries at positions [perm.(0..n-1)] of [rows]/[vals], keyed
   in [keys], as eta arrays in the REVERSE of the replaced hash table's
   iteration order — the order etas list their entries in. *)
let eta_arrays ws n rows vals =
  sort_by_key ws.keys ws.perm n;
  let idx = Array.make n 0 and v = Array.make n 0. in
  for j = 0 to n - 1 do
    let p = ws.perm.(j) in
    idx.(n - 1 - j) <- rows.(p);
    v.(n - 1 - j) <- vals.(p)
  done;
  (idx, v)

(* Column [k]'s active entries except row [skip] (the L eta). *)
let active_entries ws k skip =
  let n = ref 0 in
  let base = ws.cstart.(k) in
  for p = base to base + ws.alen.(k) - 1 do
    let row = ws.arow.(p) in
    if row <> skip then begin
      ws.keys.(!n) <- visit_key ws k row ws.astamp.(p);
      ws.perm.(!n) <- p;
      incr n
    end
  done;
  eta_arrays ws !n ws.arow ws.aval

(* Column [k]'s frozen entries (the U eta); their nodes go back to the
   free list. *)
let take_frozen ws k =
  let n = ref 0 and u = ref ws.fhead.(k) in
  while !u >= 0 do
    ws.keys.(!n) <- visit_key ws k ws.urow.(!u) ws.ustamp.(!u);
    ws.perm.(!n) <- !u;
    incr n;
    u := ws.unext.(!u)
  done;
  let entries = eta_arrays ws !n ws.urow ws.uval in
  for j = 0 to !n - 1 do
    let u = ws.perm.(j) in
    ws.unext.(u) <- ws.ureuse;
    ws.ureuse <- u
  done;
  ws.fhead.(k) <- -1;
  entries

(* ---------------- test hook ---------------- *)

let observer : (input -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let observe f k =
  let prev = Domain.DLS.get observer in
  Domain.DLS.set observer (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set observer prev) k

(* ---------------- factorization ---------------- *)

let factorize ws file inp =
  let m = Array.length inp.basis in
  if m > ws.rows then invalid_arg "Markowitz.factorize: basis too large";
  (match Domain.DLS.get observer with Some f -> f inp | None -> ());
  Eta_file.clear file;
  let basis = inp.basis and n_struct = inp.n_struct in
  let assigned = ws.assigned and row_cnt = ws.row_cnt in
  let alen = ws.alen and remaining = ws.remaining and slot = ws.slot in
  let new_basis = ws.new_basis in
  Array.fill ws.ohead 0 m (-1);
  Array.fill row_cnt 0 m 0;
  Array.fill assigned 0 m false;
  Array.fill new_basis 0 m (-1);
  Array.fill ws.seen 0 m 0;
  ws.m <- m;
  ws.afree <- 0;
  ws.ufree <- 0;
  ws.ureuse <- -1;
  ws.ofree <- 0;
  ws.oreuse <- -1;
  if ws.busy then
    Array.iteri
      (fun c n ->
        if n <> 0 then begin
          Array.fill ws.bits.(c) 0 ws.words 0;
          ws.pop.(c) <- 0
        end)
      ws.pop;
  ws.busy <- true;
  let h = ws.health in
  h.(h_bmax) <- 0.;
  h.(h_fmax) <- 0.;
  h.(h_pmin) <- infinity;
  h.(h_pmax) <- 0.;
  let stamp = ref 0 in
  let add k i =
    incr stamp;
    let off = insert ws k i !stamp in
    add_occ ws i k;
    row_cnt.(i) <- row_cnt.(i) + 1;
    ws.cstart.(k) + off
  in
  let cols = inp.cols in
  (* Each column starts in a segment with room for a few fill-ins. *)
  let room c =
    4 + if c < n_struct then Csr.row_start cols (c + 1) - Csr.row_start cols c else 1
  in
  grow_arena ws (Array.fold_left (fun acc c -> acc + room c) 0 basis);
  for k = 0 to m - 1 do
    alen.(k) <- 0;
    ws.fhead.(k) <- -1;
    ws.flen.(k) <- 0;
    ws.buckets.(k) <- initial_buckets;
    remaining.(k) <- true;
    let c = basis.(k) in
    ws.cstart.(k) <- ws.afree;
    ws.ccap.(k) <- room c;
    ws.afree <- ws.afree + room c;
    if c < n_struct then
      for q = Csr.row_start cols c to Csr.row_start cols (c + 1) - 1 do
        let v = Csr.entry_value cols q in
        if v <> 0. then begin
          note_max h h_bmax v;
          let p = add k (Csr.entry_col cols q) in
          ws.aval.(p) <- v
        end
      done
    else begin
      note_max h h_bmax 1.;
      let i = inp.art_row.(c - n_struct) in
      let p = add k i in
      ws.aval.(p) <- inp.art_sign.(i)
    end
  done;
  ws.lb <- m + 1;
  for k = 0 to m - 1 do
    bits_add ws k alen.(k)
  done;
  let deferred = ref [] and u_etas = ref [] in
  let n_left = ref m in
  (* Take column [k] out of the active submatrix counts. *)
  let retire k =
    remaining.(k) <- false;
    decr n_left;
    let base = ws.cstart.(k) in
    for p = base to base + alen.(k) - 1 do
      row_cnt.(ws.arow.(p)) <- row_cnt.(ws.arow.(p)) - 1
    done;
    bits_remove ws k alen.(k)
  in
  let cands = Array.make 8 0 and words = (m + 31) / 32 in
  let step = ref 0 in
  while !n_left > 0 do
    (* Markowitz pivot choice: among a short list of the sparsest
       remaining columns (the first 8 by position whose count is the
       minimum or one more), the entry minimizing
       (row_cnt − 1)·(col_cnt − 1) over candidates no smaller than a
       tenth of their column max — the classic fill-in estimate, with a
       relative stability threshold.  Candidates are examined in
       descending position; exact (score, |v|) ties go to the entry
       examined first. *)
    while ws.lb <= m && ws.pop.(ws.lb) = 0 do
      ws.lb <- ws.lb + 1
    done;
    if ws.lb > m then n_left := 0
    else begin
      let n_cands = candidates ws ~words ws.lb cands in
      let k_best = ref (-1)
      and r_best = ref (-1)
      and p_best = ref 0.
      and score_best = ref max_int
      and key_best = ref 0 in
      for ci = n_cands - 1 downto 0 do
        let k = cands.(ci) in
        let base = ws.cstart.(k) and top = ws.cstart.(k) + alen.(k) - 1 in
        let colmax = ref 0. in
        for p = base to top do
          if Float.abs ws.aval.(p) > !colmax then colmax := Float.abs ws.aval.(p)
        done;
        if !colmax <= 1e-11 then begin
          retire k;
          deferred := k :: !deferred
        end
        else
          for p = base to top do
            let v = ws.aval.(p) in
            let a = Float.abs v in
            if a >= 0.1 *. !colmax then begin
              let row = ws.arow.(p) in
              let score = (row_cnt.(row) - 1) * (alen.(k) - 1) in
              if
                score < !score_best
                || score = !score_best
                   && (a > Float.abs !p_best
                      || a = Float.abs !p_best && !k_best = k
                         && visit_key ws k row ws.astamp.(p) < !key_best)
              then begin
                k_best := k;
                r_best := row;
                p_best := v;
                score_best := score;
                key_best := visit_key ws k row ws.astamp.(p)
              end
            end
          done
      done;
      if !k_best >= 0 then begin
        let k = !k_best and r = !r_best and p = !p_best in
        note_pivot h p;
        retire k;
        (* Split the pivot column: entries at unassigned rows are the
           multipliers (the L eta emitted now); entries at assigned rows
           are frozen U values (buffered, appended in reverse order after
           the elimination so that FTRAN performs back substitution). *)
        let lidx, lvals = active_entries ws k r in
        let uidx, uvals = take_frozen ws k in
        for q = 0 to Array.length lvals - 1 do
          note_max h h_fmax lvals.(q)
        done;
        for q = 0 to Array.length uvals - 1 do
          note_max h h_fmax uvals.(q)
        done;
        let ln = Array.length lidx in
        if ln > 0 || Float.abs (p -. 1.) >= 1e-15 then
          Eta_file.push file { row = r; pivot = p; idx = lidx; vals = lvals };
        if Array.length uidx > 0 then
          u_etas :=
            { Eta_file.row = r; pivot = 1.; idx = uidx; vals = uvals } :: !u_etas;
        assigned.(r) <- true;
        new_basis.(r) <- basis.(k);
        (* Eagerly eliminate the pivot row from the remaining columns:
           their entry at [r] becomes the frozen multiplier f = v_r / p
           (a future U value), and only active-submatrix rows are
           updated — this is what keeps LU fill-in small where a full
           product-form column transform would smear into the assigned
           rows.  Fill-ins are stamped in L-eta order.  The pools may
           grow (and move) during the update, so their arrays are read
           through [ws] each time. *)
        incr step;
        let e = ref ws.ohead.(r) and last = ref (-1) in
        while !e >= 0 do
          let k' = ws.ocol.(!e) in
          last := !e;
          e := ws.onext.(!e);
          if remaining.(k') && ws.seen.(k') <> !step then begin
            ws.seen.(k') <- !step;
            let base = ws.cstart.(k') in
            for off = 0 to alen.(k') - 1 do
              slot.(ws.arow.(base + off)) <- off
            done;
            let off = slot.(r) in
            if off >= 0 then begin
              let count0 = alen.(k') in
              let f = ws.aval.(base + off) /. p in
              let u = freeze ws k' off in
              ws.uval.(u) <- f;
              for q = 0 to ln - 1 do
                let i = lidx.(q) in
                let off = slot.(i) in
                if off >= 0 then begin
                  let pos = ws.cstart.(k') + off in
                  let old = ws.aval.(pos) in
                  let nv = old -. (lvals.(q) *. f) in
                  if Float.abs nv < 1e-13 then begin
                    if old <> 0. then begin
                      remove_active ws k' off;
                      row_cnt.(i) <- row_cnt.(i) - 1
                    end
                  end
                  else begin
                    note_max h h_fmax nv;
                    ws.aval.(pos) <- nv
                  end
                end
                else begin
                  let nv = 0. -. (lvals.(q) *. f) in
                  if not (Float.abs nv < 1e-13) then begin
                    note_max h h_fmax nv;
                    incr stamp;
                    let off = insert ws k' i !stamp in
                    ws.aval.(ws.cstart.(k') + off) <- nv;
                    slot.(i) <- off;
                    add_occ ws i k';
                    row_cnt.(i) <- row_cnt.(i) + 1
                  end
                end
              done;
              if alen.(k') <> count0 then begin
                bits_remove ws k' count0;
                bits_add ws k' alen.(k')
              end
            end;
            let base = ws.cstart.(k') in
            for off = 0 to alen.(k') - 1 do
              slot.(ws.arow.(base + off)) <- -1
            done
          end
        done;
        (* Row [r] is never traversed again: free its list. *)
        if !last >= 0 then begin
          ws.onext.(!last) <- ws.oreuse;
          ws.oreuse <- ws.ohead.(r);
          ws.ohead.(r) <- -1
        end
      end
    end
  done;
  ws.busy <- false;
  (* Back-substitution etas: U_m, …, U_1 (reverse pivot order). *)
  List.iter (Eta_file.push file) !u_etas;
  (* Numerically deferred columns: pivot them through the eta file built
     so far, on the largest unassigned entry of B⁻¹a — the dense
     fallback of last resort.  A column whose transform has no usable
     entry left is (numerically) dependent on the rest of the basis and
     is dropped here. *)
  let deferred = List.rev !deferred in
  let dropped = ref [] in
  let w = ws.work in
  List.iter
    (fun k ->
      let c = basis.(k) in
      Array.fill w 0 m 0.;
      if c < n_struct then Csr.scatter_row inp.cols c w
      else begin
        let i = inp.art_row.(c - n_struct) in
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
        note_pivot h w.(!r);
        Eta_file.push_pivot file w !r m;
        assigned.(!r) <- true;
        new_basis.(!r) <- c
      end)
    deferred;
  (* Basis repair: cover each still-unassigned row with its artificial
     unit column ±e_r.  At an unassigned row, ±e_r is untouched by every
     eta built above (they all pivot on assigned rows), so the repair
     needs no eta beyond a sign flip when the artificial is −e_r — and
     the repaired basis is nonsingular by construction. *)
  let repaired = ref [] in
  for i = m - 1 downto 0 do
    if new_basis.(i) < 0 then repaired := i :: !repaired
  done;
  List.iter
    (fun i ->
      new_basis.(i) <- n_struct + i;
      if inp.art_sign.(i) <> 1. then
        Eta_file.push file
          { row = i; pivot = inp.art_sign.(i); idx = [||]; vals = [||] })
    !repaired;
  Array.blit new_basis 0 basis 0 m;
  {
    deferred;
    dropped = List.rev !dropped;
    repaired = !repaired;
    growth = (if h.(h_bmax) > 0. then h.(h_fmax) /. h.(h_bmax) else 0.);
    min_pivot = (if h.(h_pmin) = infinity then 0. else h.(h_pmin));
    max_pivot = h.(h_pmax);
  }
