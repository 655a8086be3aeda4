type event =
  | Pivot of {
      solver : string;
      iteration : int;
      entering : int;
      leaving : int;
      step : float;
      objective : float;
      degenerate : bool;
    }
  | Refactor of { solver : string; eta_nnz : int }
  | Sweep of { solver : string; iteration : int; delta : float }
  | Batch of { events : int; sim_time : float; heap_size : int }
  | Certificate of {
      label : string;
      primal_residual : float;
      gap : float;
      accepted : bool;
    }
  | Mark of { name : string; detail : string }

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  lock : Mutex.t;
  cap : int;
  buf : (float * event) option array;
  mutable next : int; (* ring write index, [0, cap) *)
  mutable total : int; (* events ever emitted *)
  clock : unit -> float;
  mutable last_ts : float; (* monotonicity clamp *)
}

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
    Mutex.unlock t.lock;
    x
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let create ?(capacity = 65536) ?(clock = Span.now) () =
  let cap = max 1 capacity in
  {
    lock = Mutex.create ();
    cap;
    buf = Array.make cap None;
    next = 0;
    total = 0;
    clock;
    last_ts = neg_infinity;
  }

let emit t ev =
  locked t (fun () ->
      let ts = Float.max (t.clock ()) t.last_ts in
      t.last_ts <- ts;
      t.buf.(t.next) <- Some (ts, ev);
      t.next <- (t.next + 1) mod t.cap;
      t.total <- t.total + 1)

let capacity t = t.cap
let emitted t = locked t (fun () -> t.total)
let retained t = locked t (fun () -> min t.total t.cap)
let dropped t = locked t (fun () -> t.total - min t.total t.cap)

let events t =
  locked t (fun () ->
      let n = min t.total t.cap in
      (* Oldest retained event sits at [next] once the ring has wrapped,
         at 0 before. *)
      let start = if t.total > t.cap then t.next else 0 in
      List.init n (fun i ->
          match t.buf.((start + i) mod t.cap) with
          | Some e -> e
          | None -> assert false))

let clear t =
  locked t (fun () ->
      Array.fill t.buf 0 t.cap None;
      t.next <- 0;
      t.total <- 0;
      t.last_ts <- neg_infinity)

(* ------------------------------------------------------------------ *)
(* Global trace                                                        *)
(* ------------------------------------------------------------------ *)

(* Atomics, not bare refs: worker domains consult [enabled] on their
   per-pivot hot paths and the ring itself is mutex-guarded, so a trace
   enabled around a fleet run collects from all workers. *)
let enabled = Atomic.make false
let global : t option Atomic.t = Atomic.make None

let enable ?capacity () =
  Atomic.set global (Some (create ?capacity ()));
  Atomic.set enabled true

let disable () =
  Atomic.set enabled false;
  Atomic.set global None

let is_enabled () = Atomic.get enabled
let current () = Atomic.get global
let record ev = match Atomic.get global with Some t -> emit t ev | None -> ()

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type format = Jsonl | Chrome

let format_names = [ "jsonl"; "chrome" ]

let format_of_string = function
  | "jsonl" -> Ok Jsonl
  | "chrome" -> Ok Chrome
  | other ->
    Error
      (Printf.sprintf "unknown trace format %S (expected %s)" other
         (String.concat "|" format_names))

let event_name = function
  | Pivot _ -> "pivot"
  | Refactor _ -> "refactor"
  | Sweep _ -> "sweep"
  | Batch _ -> "batch"
  | Certificate _ -> "certificate"
  | Mark m -> m.name

(* Category groups events into Perfetto-filterable families. *)
let event_cat = function
  | Pivot p -> "lp." ^ p.solver
  | Refactor r -> "lp." ^ r.solver
  | Sweep s -> s.solver
  | Batch _ -> "sim"
  | Certificate _ -> "lp.certificate"
  | Mark _ -> "mark"

let event_args ev : (string * Json.t) list =
  match ev with
  | Pivot p ->
    [
      ("solver", Json.String p.solver);
      ("iteration", Json.Number (float_of_int p.iteration));
      ("entering", Json.Number (float_of_int p.entering));
      ("leaving", Json.Number (float_of_int p.leaving));
      ("step", Json.Number p.step);
      ("objective", Json.Number p.objective);
      ("degenerate", Json.Bool p.degenerate);
    ]
  | Refactor r ->
    [
      ("solver", Json.String r.solver);
      ("eta_nnz", Json.Number (float_of_int r.eta_nnz));
    ]
  | Sweep s ->
    [
      ("solver", Json.String s.solver);
      ("iteration", Json.Number (float_of_int s.iteration));
      ("delta", Json.Number s.delta);
    ]
  | Batch b ->
    [
      ("events", Json.Number (float_of_int b.events));
      ("sim_time", Json.Number b.sim_time);
      ("heap_size", Json.Number (float_of_int b.heap_size));
    ]
  | Certificate c ->
    [
      ("label", Json.String c.label);
      ("primal_residual", Json.Number c.primal_residual);
      ("gap", Json.Number c.gap);
      ("accepted", Json.Bool c.accepted);
    ]
  | Mark m -> [ ("detail", Json.String m.detail) ]

let jsonl_line (ts, ev) =
  Json.to_string
    (Json.Object
       (("ts", Json.Number ts)
       :: ("event", Json.String (event_name ev))
       :: event_args ev))

let render_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (jsonl_line e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* Chrome trace-event format: instant events carry the full payload;
   scalar series (objective per pivot, residual per sweep) additionally
   become "C" counter events so Perfetto draws them as tracks. *)
let chrome_events t =
  let evs = events t in
  let t0 = match evs with (ts, _) :: _ -> ts | [] -> 0. in
  let us ts = (ts -. t0) *. 1e6 in
  let base ~ph ~name ~cat ~ts args =
    Json.Object
      [
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("ph", Json.String ph);
        ("ts", Json.Number (us ts));
        ("pid", Json.Number 1.);
        ("tid", Json.Number 1.);
        ("args", Json.Object args);
      ]
  in
  let instant ~name ~cat ~ts args =
    (* "s":"t" scopes the instant marker to its thread track. *)
    match base ~ph:"i" ~name ~cat ~ts args with
    | Json.Object fields -> Json.Object (fields @ [ ("s", Json.String "t") ])
    | _ -> assert false
  in
  List.concat_map
    (fun (ts, ev) ->
      let inst = instant ~name:(event_name ev) ~cat:(event_cat ev) ~ts (event_args ev) in
      let counters =
        match ev with
        | Pivot p ->
          [
            base ~ph:"C" ~name:(p.solver ^ " objective") ~cat:(event_cat ev)
              ~ts
              [ ("objective", Json.Number p.objective) ];
          ]
        | Sweep s ->
          [
            base ~ph:"C" ~name:(s.solver ^ " residual") ~cat:(event_cat ev)
              ~ts
              [ ("delta", Json.Number s.delta) ];
          ]
        | Batch b ->
          [
            base ~ph:"C" ~name:"sim heap" ~cat:"sim" ~ts
              [ ("heap_size", Json.Number (float_of_int b.heap_size)) ];
          ]
        | _ -> []
      in
      inst :: counters)
    evs

let render_chrome t =
  Json.to_string
    (Json.Object
       [
         ("displayTimeUnit", Json.String "ms");
         ("traceEvents", Json.List (chrome_events t));
         ( "metadata",
           Json.Object
             [
               ("emitted", Json.Number (float_of_int (emitted t)));
               ("dropped", Json.Number (float_of_int (dropped t)));
             ] );
       ])

let render fmt t =
  match fmt with Jsonl -> render_jsonl t | Chrome -> render_chrome t

let write fmt ~path t =
  let contents = render fmt t in
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  end
