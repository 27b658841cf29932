(* Section 4.4 extensions: hidden transitions and alarm patterns.

   1. Hidden transitions — "the peers may decide to report to the supervisor
      only part of the alarms": peer p2's transitions fire silently; the
      supervisor still reconstructs them as unobserved causes.
   2. Alarm patterns — "rather than analyzing one particular alarm sequence,
      we may seek explanation of a pattern described by some regular
      language, e.g. a.b*.a": the alarmSeq relation encodes an automaton.
   3. Forbidden patterns — explanations avoiding a bad factor, via automaton
      complementation.

   Run with:  dune exec examples/patterns.exe *)

open Diagnosis

let print_diagnosis label d =
  Printf.printf "%s: %d explanation(s)\n" label (List.length d);
  List.iteri
    (fun i c ->
      Printf.printf "  #%d: {%s}\n" (i + 1) (String.concat ", " (Canon.config_transitions c)))
    d

let () =
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in

  (* ---------------- hidden transitions ---------------- *)
  Printf.printf "== Hidden transitions ==\n";
  Printf.printf "Transition ii (alarm a at p2) is unobservable; we see only (b,p1)(c,p1).\n";
  let hidden = [ "ii" ] in
  let observations = [ ("p1", Pattern.word [ "b"; "c" ]) ] in
  let prepared, unbounded = Diagnoser.prepare_general ~hidden net observations in
  Printf.printf "Program flagged as needing the depth gadget: %b\n" unbounded;
  let eval_options =
    { Datalog.Eval.default_options with
      Datalog.Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:3) }
  in
  let r = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
  print_diagnosis "Hidden-transition diagnosis (<= 3 events)"
    (Diagnoser.restrict_size r.Diagnoser.diagnosis 3);
  Printf.printf
    "Note {i, ii, iv}: the silent firing of ii is inferred as the only way iv\n\
     could have been enabled.\n\n";

  (* ---------------- alarm patterns ---------------- *)
  Printf.printf "== Alarm patterns ==\n";
  Printf.printf "p1 matches the regular pattern b.c*; p2 matches the word a.\n";
  let p1_pattern =
    Pattern.concat (Pattern.word [ "b" ]) (Pattern.star (Pattern.word [ "c" ]))
  in
  let observations = [ ("p1", p1_pattern); ("p2", Pattern.word [ "a" ]) ] in
  let prepared, unbounded = Diagnoser.prepare_general net observations in
  Printf.printf "Pattern accepts unbounded words: %b (depth gadget engaged)\n" unbounded;
  let eval_options =
    { Datalog.Eval.default_options with
      Datalog.Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:4) }
  in
  let r = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
  print_diagnosis "Pattern diagnosis (<= 4 events)"
    (Diagnoser.restrict_size r.Diagnoser.diagnosis 4);
  Printf.printf "\n";

  (* ---------------- forbidden patterns ---------------- *)
  Printf.printf "== Forbidden patterns ==\n";
  Printf.printf "Explanations whose p1 word avoids the factor \"b c\" (p2 silent).\n";
  let alphabet = [ "b"; "c" ] in
  let forbid =
    Pattern.complement ~alphabet (Pattern.contains_factor ~alphabet [ "b"; "c" ])
  in
  let r =
    Reference.diagnose_general ~max_config_size:2 ~hidden:[] net
      [ ("p1", forbid) ]
  in
  print_diagnosis "Forbidden-pattern diagnosis (<= 2 events)" r.Reference.diagnosis;
  Printf.printf "The empty explanation and {i} survive; {i, iii} spells \"b c\" and is blocked.\n"
