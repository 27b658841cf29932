(* DESIGN.md §8b must document exactly the fuzzer's properties: the
   property names of its table, in order, are [Check.Property.names]. An
   added property without a row (or a row for a removed one) fails
   [dune runtest]. *)

let () =
  let lines =
    In_channel.with_open_text "../DESIGN.md" In_channel.input_all |> String.split_on_char '\n'
  in
  let rec section = function
    | l :: rest when String.starts_with ~prefix:"## 8b." l -> body rest
    | _ :: rest -> section rest
    | [] -> []
  and body = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest -> l :: body rest
    | [] -> []
  in
  (* a table row "| `name` | ..." names one property *)
  let documented =
    List.filter_map
      (fun l ->
        match String.split_on_char '`' l with
        | "| " :: name :: _ -> Some name
        | _ -> None)
      (section lines)
  in
  if documented <> Check.Property.names then begin
    Printf.eprintf "DESIGN.md §8b lists [%s]\nbut the fuzzer has [%s]\n"
      (String.concat "; " documented)
      (String.concat "; " Check.Property.names);
    exit 1
  end
