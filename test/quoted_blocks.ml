(* EXPERIMENTS.md quotes tables of the figure harness. A fenced block right
   after a line [<!-- quoted: test/bench_golden.txt -->] must appear, byte
   for byte, in that golden, which runtest pins to [bench/main.exe]'s
   stdout: a quoted table cannot drift from the tool that prints it. *)

let marker = "<!-- quoted: test/bench_golden.txt -->"
let read f = In_channel.with_open_text f In_channel.input_all
let golden = read "bench_golden.txt"

(* the fenced blocks that follow a marker line, each with its lines
   newline-terminated *)
let rec blocks = function
  | m :: fence :: rest when String.equal m marker && String.starts_with ~prefix:"```" fence ->
    let rec body acc = function
      | l :: rest when String.starts_with ~prefix:"```" l -> (List.rev acc, rest)
      | l :: rest -> body (l :: acc) rest
      | [] -> (List.rev acc, [])
    in
    let lines, rest = body [] rest in
    String.concat "" (List.map (fun l -> l ^ "\n") lines) :: blocks rest
  | _ :: rest -> blocks rest
  | [] -> []

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let () =
  match blocks (String.split_on_char '\n' (read "../EXPERIMENTS.md")) with
  | [] ->
    prerr_endline "EXPERIMENTS.md quotes no block of test/bench_golden.txt";
    exit 1
  | quoted ->
    let stale = List.filter (fun b -> not (contains golden b)) quoted in
    List.iter
      (fun b -> Printf.eprintf "EXPERIMENTS.md quotes a block test/bench_golden.txt lacks:\n%s" b)
      stale;
    if stale <> [] then exit 1
