(* DESIGN.md must name what the code has. Its §8b table documents exactly
   the fuzzer's properties: the property names of the table, in order, are
   [Check.Property.names]. The Modules column of its §5 table names only
   modules that exist: [Lib.Module...] needs [Module]'s file in [Lib]'s
   directory under lib/, a bare [Module...] a file in any of them, and a
   wildcard [Lib.*] is exempt. An added property without a row, a row for a
   removed one, or a renamed module fails [dune runtest]. *)

let lines =
  In_channel.with_open_text "../DESIGN.md" In_channel.input_all |> String.split_on_char '\n'

(* the lines of the section whose heading starts with [prefix] *)
let section prefix =
  let rec find = function
    | l :: rest when String.starts_with ~prefix l -> body rest
    | _ :: rest -> find rest
    | [] -> []
  and body = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest -> l :: body rest
    | [] -> []
  in
  find lines

(* the backquoted names of a table cell, in order *)
let quoted cell = List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' cell)

let failures = ref 0

let fail fmt =
  incr failures;
  Printf.eprintf fmt

let () =
  (* a table row "| `name` | ..." names one property *)
  let documented =
    List.filter_map
      (fun l ->
        match String.split_on_char '`' l with
        | "| " :: name :: _ -> Some name
        | _ -> None)
      (section "## 8b.")
  in
  if documented <> Check.Property.names then
    fail "DESIGN.md §8b lists [%s]\nbut the fuzzer has [%s]\n"
      (String.concat "; " documented)
      (String.concat "; " Check.Property.names)

(* the [(name ...)] of a dune file's library stanza *)
let library_name text =
  let key = "(name " in
  let k = String.length key in
  let rec find i =
    if i + k > String.length text then None
    else if String.sub text i k = key then Some (i + k)
    else find (i + 1)
  in
  Option.map (fun i -> String.trim (String.sub text i (String.index_from text i ')' - i))) (find 0)

(* (library module name, its directory), from each lib/*/dune *)
let libraries =
  List.filter_map
    (fun d ->
      let dir = Filename.concat "../lib" d in
      let dune = Filename.concat dir "dune" in
      if not (Sys.file_exists dune) then None
      else
        In_channel.with_open_text dune In_channel.input_all
        |> library_name
        |> Option.map (fun name -> (String.capitalize_ascii name, dir)))
    (Array.to_list (Sys.readdir "../lib"))

let has_module dir m = Sys.file_exists (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml"))

let exists entry =
  match String.split_on_char '.' entry with
  | lib :: rest when List.mem_assoc lib libraries -> (
    match rest with
    | [] | "*" :: _ -> true
    | m :: _ -> has_module (List.assoc lib libraries) m)
  | m :: _ -> List.exists (fun (_, dir) -> has_module dir m) libraries
  | [] -> false

let () =
  List.iter
    (fun l ->
      match String.split_on_char '|' l with
      | _ :: exp :: _ :: _ :: modules :: _ when String.starts_with ~prefix:" E" exp ->
        List.iter
          (fun m ->
            if not (exists m) then
              fail "DESIGN.md §5, %s: `%s` names no module under lib/\n" (String.trim exp) m)
          (quoted modules)
      | _ -> ())
    (section "## 5.");
  if !failures > 0 then exit 1
