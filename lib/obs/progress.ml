(* Sweep progress reporting for long experiment runs (Fig 4/8, Table 1):
   per-model status with an ETA, a TTY-aware live status line, and JSONL
   heartbeat records that double as a checkpoint/resume substrate — a
   rerun can load the heartbeat file and skip models already marked
   done.

   One mutex guards all mutable state AND the console/heartbeat
   rendering: fleet workers on different domains report through the same
   reporter, and without the lock their heartbeats would interleave
   mid-record and the TTY line would tear. Every event carries its model
   id explicitly, so a "done" heartbeat can never be attributed to
   whichever model another worker started last. *)

type t = {
  clock : unit -> float;
  label : string;
  total : int;
  out : out_channel option;
  tty : bool;
  heartbeat : out_channel option;
  t0 : float;
  lock : Mutex.t;
  mutable completed : int;
  mutable skipped : int;
  mutable current : string option;
  mutable phase : string option;
  mutable live_len : int;
}

let create ?(clock = Span.now) ?(quiet = false) ?heartbeat ~total label =
  let out = if quiet then None else Some stderr in
  let tty = (not quiet) && try Unix.isatty Unix.stderr with _ -> false in
  let t0 = clock () in
  (* A sweep killed mid-run (Ctrl-C, OOM, timeout) must keep its last
     completed heartbeat records — --resume-from depends on them. Each
     heartbeat already flushes, but an at_exit flush also covers records
     buffered by any writer sharing the channel, and costs nothing. *)
  (match heartbeat with
  | Some oc -> at_exit (fun () -> try flush oc with _ -> ())
  | None -> ());
  {
    clock;
    label;
    total = max 0 total;
    out;
    tty;
    heartbeat;
    t0;
    lock = Mutex.create ();
    completed = 0;
    skipped = 0;
    current = None;
    phase = None;
    live_len = 0;
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

let elapsed_u t = Float.max 0. (t.clock () -. t.t0)
let completed t = locked t (fun () -> t.completed)
let elapsed t = elapsed_u t

(* elapsed / completed * remaining: deterministic given an injected
   clock, and skipped models count as completed work so a resumed run
   does not project the skipped prefix onto the remainder. *)
let eta_seconds_u t =
  if t.completed <= 0 || t.completed >= t.total then None
  else Some (elapsed_u t /. float_of_int t.completed *. float_of_int (t.total - t.completed))

let eta_seconds t = locked t (fun () -> eta_seconds_u t)

let duration s =
  if s < 60. then Printf.sprintf "%.0fs" s
  else if s < 3600. then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)

let eta_cell_u t =
  match eta_seconds_u t with None -> "" | Some s -> " eta " ^ duration s

(* ------------------------------------------------------------------ *)
(* Heartbeats (caller holds the lock)                                  *)
(* ------------------------------------------------------------------ *)

let heartbeat_u t ~event ~model ~seed ~phase ~elapsed:dt =
  match t.heartbeat with
  | None -> ()
  | Some oc ->
    let opt name f v = match v with None -> [] | Some v -> [ (name, f v) ] in
    let record =
      Json.Object
        (("ts", Json.Number (elapsed_u t))
        :: ("label", Json.String t.label)
        :: ("event", Json.String event)
        :: (opt "model" (fun m -> Json.String m) model
           @ opt "seed" (fun s -> Json.Number (float_of_int s)) seed
           @ opt "phase" (fun p -> Json.String p) phase
           @ [
               ("elapsed", Json.Number (Float.max 0. dt));
               ("completed", Json.Number (float_of_int t.completed));
               ("total", Json.Number (float_of_int t.total));
             ]))
    in
    output_string oc (Json.to_string record);
    output_char oc '\n';
    flush oc

(* ------------------------------------------------------------------ *)
(* Console output (caller holds the lock)                              *)
(* ------------------------------------------------------------------ *)

let live_line_u t =
  let pct =
    if t.total = 0 then 100.
    else 100. *. float_of_int t.completed /. float_of_int t.total
  in
  let where =
    match t.current with
    | None -> ""
    | Some id -> (
      match t.phase with
      | None -> "  " ^ id
      | Some p -> Printf.sprintf "  %s:%s" id p)
  in
  Printf.sprintf "%s %d/%d (%.0f%%)%s%s" t.label t.completed t.total pct
    (eta_cell_u t) where

let redraw_u t =
  match t.out with
  | Some oc when t.tty ->
    let line = live_line_u t in
    let pad = max 0 (t.live_len - String.length line) in
    output_string oc ("\r" ^ line ^ String.make pad ' ');
    t.live_len <- String.length line;
    flush oc
  | _ -> ()

let println_u t msg =
  match t.out with
  | None -> ()
  | Some oc ->
    if t.tty then begin
      (* Clear the live line before emitting a scrolling record. *)
      output_string oc ("\r" ^ String.make t.live_len ' ' ^ "\r");
      t.live_len <- 0
    end;
    output_string oc msg;
    output_char oc '\n';
    flush oc

(* ------------------------------------------------------------------ *)
(* Events (explicit model ids)                                         *)
(* ------------------------------------------------------------------ *)

let skip t ?seed id =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      t.skipped <- t.skipped + 1;
      heartbeat_u t ~event:"skip" ~model:(Some id) ~seed ~phase:None ~elapsed:0.;
      redraw_u t)

let task_start t ?seed id =
  locked t (fun () ->
      (* The live line shows the most recently started task — with
         several in flight there is no single "current" model, only a
         representative one. *)
      t.current <- Some id;
      t.phase <- None;
      heartbeat_u t ~event:"start" ~model:(Some id) ~seed ~phase:None
        ~elapsed:0.;
      redraw_u t)

let task_phase t ~id name =
  locked t (fun () ->
      (if t.current = Some id then t.phase <- Some name);
      (* No seed: the reporter cannot tell which of several in-flight
         tasks' seeds is [id]'s; its start and done records carry it. *)
      heartbeat_u t ~event:"phase" ~model:(Some id) ~seed:None
        ~phase:(Some name) ~elapsed:0.;
      redraw_u t)

let task_done t ?seed ?(elapsed = 0.) id =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      heartbeat_u t ~event:"done" ~model:(Some id) ~seed ~phase:None ~elapsed;
      if not t.tty && t.out <> None then
        println_u t
          (Printf.sprintf "%s [%d/%d] %s done in %s%s" t.label t.completed
             t.total id (duration elapsed) (eta_cell_u t));
      if t.current = Some id then begin
        t.current <- None;
        t.phase <- None
      end;
      redraw_u t)

let close t =
  locked t (fun () ->
      (match t.out with
      | Some oc when t.tty ->
        output_string oc ("\r" ^ String.make t.live_len ' ' ^ "\r");
        t.live_len <- 0;
        flush oc
      | _ -> ());
      println_u t
        (Printf.sprintf "%s: %d/%d done%s in %s" t.label t.completed t.total
           (if t.skipped > 0 then Printf.sprintf " (%d skipped)" t.skipped
            else "")
           (duration (elapsed_u t)));
      match t.heartbeat with Some oc -> flush oc | None -> ())

(* ------------------------------------------------------------------ *)
(* Resume                                                               *)
(* ------------------------------------------------------------------ *)

(* Model ids recorded as completed ("done" — or "skip", which a resumed
   run emits for models it found already done) in a heartbeat JSONL
   file. Missing files and unparsable lines yield no ids rather than
   errors: a heartbeat file is best-effort by design. *)
let load_completed path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let ids = ref [] in
    let seen = Hashtbl.create 16 in
    (try
       while true do
         let line = input_line ic in
         match Json.parse line with
         | Error _ -> ()
         | Ok j -> (
           match (Json.member "event" j, Json.member "model" j) with
           | Some (Json.String ("done" | "skip")), Some (Json.String id) ->
             if not (Hashtbl.mem seen id) then begin
               Hashtbl.add seen id ();
               ids := id :: !ids
             end
           | _ -> ())
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !ids
  end
