(* Keeps unchecked array access in the two audited modules.

   Usage: check_unsafe.exe LIB_DIR

   Scans every file under LIB_DIR and exits 1, listing each hit, when
   [unsafe_get], [unsafe_set] or [%array_unsafe] appears outside
   lp/eta_file.ml and sparse/csr.ml, or when a dune file there asks for
   the [-unsafe] compiler flag. Those two modules validate their data
   once (each eta at push, each CSR structure at construction) and each
   vector once per call; anywhere else an unchecked access would go
   unaudited. `dune runtest` runs it over lib/ (tools/dune). *)

let allowed = [ "lp/eta_file.ml"; "sparse/csr.ml" ]
let source_patterns = [ "unsafe_get"; "unsafe_set"; "%array_unsafe" ]
let dune_patterns = [ "-unsafe" ]

let contains line pattern =
  let n = String.length pattern and m = String.length line in
  let rec at i = i + n <= m && (String.sub line i n = pattern || at (i + 1)) in
  at 0

(* The offending lines of one file, given its path relative to lib/. *)
let hits rel lines =
  let patterns =
    if Filename.basename rel = "dune" then dune_patterns
    else if List.mem rel allowed then []
    else source_patterns
  in
  List.concat
    (List.mapi
       (fun n line ->
         if List.exists (contains line) patterns then
           [ Printf.sprintf "lib/%s:%d: %s" rel (n + 1) (String.trim line) ]
         else [])
       lines)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'

(* Paths of the sources under [dir] (.ml, .mli and dune files, outside
   hidden directories such as a build's object directories), relative
   to it. *)
let rec files dir rel =
  Sys.readdir (Filename.concat dir rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = if rel = "" then name else Filename.concat rel name in
         if name.[0] = '.' then []
         else if Sys.is_directory (Filename.concat dir rel) then files dir rel
         else if
           name = "dune"
           || Filename.check_suffix name ".ml"
           || Filename.check_suffix name ".mli"
         then [ rel ]
         else [])

(* The scanner must see what it is there to catch. *)
let self_test () =
  let expect what rel lines want =
    if hits rel lines <> want then begin
      Printf.eprintf "check_unsafe: self-test failed: %s\n" what;
      exit 2
    end
  in
  let line = "  let v = Array.unsafe_get a i in" in
  expect "unsafe_get outside the allowlist" "lp/revised.ml" [ line ]
    [ "lib/lp/revised.ml:1: let v = Array.unsafe_get a i in" ];
  expect "unsafe_get in an audited module" "lp/eta_file.ml" [ line ] [];
  expect "%array_unsafe primitive" "util/x.ml"
    [ "external g : 'a array -> int -> 'a = \"%array_unsafe_get\"" ]
    [ "lib/util/x.ml:1: external g : 'a array -> int -> 'a = \"%array_unsafe_get\"" ];
  expect "-unsafe flag" "lp/dune" [ " (ocamlopt_flags (:standard -O3 -unsafe))" ]
    [ "lib/lp/dune:1: (ocamlopt_flags (:standard -O3 -unsafe))" ]

let () =
  self_test ();
  match Sys.argv with
  | [| _; dir |] ->
    let found =
      List.concat_map (fun rel -> hits rel (read_lines (Filename.concat dir rel))) (files dir "")
    in
    if found <> [] then begin
      List.iter prerr_endline found;
      Printf.eprintf
        "check_unsafe: unchecked access outside %s (%d hit(s))\n"
        (String.concat " and " allowed) (List.length found);
      exit 1
    end
  | _ ->
    prerr_endline "usage: check_unsafe.exe LIB_DIR";
    exit 2
