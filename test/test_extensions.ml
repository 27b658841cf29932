(* Tests for the Section 4.4 extensions: regular alarm patterns, hidden
   transitions, forbidden patterns — plus the documented divergence between
   the literal Definition and the algorithmic (global) reading. *)

open Datalog
open Diagnosis

let alarms l = Petri.Alarm.make l
let running_net () = Petri.Net.binarize (Petri.Examples.running_example ())

let show = Canon.diagnosis_to_string

let check_diag msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s\nexpected:\n%s\nactual:\n%s" msg (show expected) (show actual))
    true
    (Canon.equal_diagnosis expected actual)

(* ------------------------------------------------------------------ *)
(* Pattern automata                                                   *)
(* ------------------------------------------------------------------ *)

let test_pattern_word () =
  let p = Pattern.word [ "a"; "b" ] in
  Alcotest.(check bool) "accepts ab" true (Pattern.accepts p [ "a"; "b" ]);
  Alcotest.(check bool) "rejects a" false (Pattern.accepts p [ "a" ]);
  Alcotest.(check bool) "rejects ba" false (Pattern.accepts p [ "b"; "a" ]);
  Alcotest.(check bool) "rejects empty" false (Pattern.accepts p []);
  Alcotest.(check bool) "bounded" false (Pattern.unbounded p)

let test_pattern_star () =
  (* the paper's example pattern: a.b*.a *)
  let p = Pattern.concat (Pattern.word [ "a" ]) (Pattern.concat (Pattern.star (Pattern.word [ "b" ])) (Pattern.word [ "a" ])) in
  Alcotest.(check bool) "aa" true (Pattern.accepts p [ "a"; "a" ]);
  Alcotest.(check bool) "aba" true (Pattern.accepts p [ "a"; "b"; "a" ]);
  Alcotest.(check bool) "abbba" true (Pattern.accepts p [ "a"; "b"; "b"; "b"; "a" ]);
  Alcotest.(check bool) "ab" false (Pattern.accepts p [ "a"; "b" ]);
  Alcotest.(check bool) "ba" false (Pattern.accepts p [ "b"; "a" ]);
  Alcotest.(check bool) "unbounded" true (Pattern.unbounded p)

let test_pattern_union () =
  let p = Pattern.union (Pattern.word [ "a" ]) (Pattern.word [ "b"; "b" ]) in
  Alcotest.(check bool) "a" true (Pattern.accepts p [ "a" ]);
  Alcotest.(check bool) "bb" true (Pattern.accepts p [ "b"; "b" ]);
  Alcotest.(check bool) "b" false (Pattern.accepts p [ "b" ])

let test_pattern_determinize_complement () =
  let alphabet = [ "a"; "b" ] in
  let p = Pattern.concat (Pattern.word [ "a" ]) (Pattern.star (Pattern.word [ "b" ])) in
  let d = Pattern.determinize ~alphabet p in
  let words =
    [ []; [ "a" ]; [ "b" ]; [ "a"; "b" ]; [ "a"; "b"; "b" ]; [ "a"; "a" ]; [ "b"; "a" ] ]
  in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "determinize preserves %s" (String.concat "" w))
        (Pattern.accepts p w) (Pattern.accepts d w))
    words;
  let c = Pattern.complement ~alphabet p in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "complement flips %s" (String.concat "" w))
        (not (Pattern.accepts p w))
        (Pattern.accepts c w))
    words

let test_pattern_contains_factor () =
  let alphabet = [ "a"; "b"; "c" ] in
  let p = Pattern.contains_factor ~alphabet [ "a"; "b" ] in
  Alcotest.(check bool) "cabc has ab" true (Pattern.accepts p [ "c"; "a"; "b"; "c" ]);
  Alcotest.(check bool) "acb lacks ab" false (Pattern.accepts p [ "a"; "c"; "b" ]);
  let forbid = Pattern.complement ~alphabet p in
  Alcotest.(check bool) "acb allowed" true (Pattern.accepts forbid [ "a"; "c"; "b" ]);
  Alcotest.(check bool) "cabc forbidden" false (Pattern.accepts forbid [ "c"; "a"; "b"; "c" ])

(* qcheck: determinize/complement agree with the NFA on random words *)
let gen_word = QCheck.Gen.(list_size (0 -- 6) (oneofl [ "a"; "b" ]))

let arb_word = QCheck.make ~print:(String.concat "") gen_word

let prop_complement_correct =
  QCheck.Test.make ~count:200 ~name:"complement accepts exactly the rejected words" arb_word
    (fun w ->
      let alphabet = [ "a"; "b" ] in
      let p =
        Pattern.union
          (Pattern.concat (Pattern.word [ "a" ]) (Pattern.star (Pattern.word [ "b"; "a" ])))
          (Pattern.word [ "b" ])
      in
      let c = Pattern.complement ~alphabet p in
      Pattern.accepts c w = not (Pattern.accepts p w))

(* ------------------------------------------------------------------ *)
(* Hidden transitions                                                 *)
(* ------------------------------------------------------------------ *)

let hidden_case () =
  (* hide transition ii (alarm a at p2); observe only (b,p1)(c,p1) *)
  let net = running_net () in
  let hidden = [ "ii" ] in
  let observations = [ ("p1", Pattern.word [ "b"; "c" ]) ] in
  (net, hidden, observations)

let test_hidden_reference () =
  let net, hidden, observations = hidden_case () in
  let r = Reference.diagnose_general ~max_config_size:3 ~hidden net observations in
  (* {i,iii}, {i,ii,iii} (ii silently fired), {i,ii,iv} *)
  let transitions = List.sort compare (List.map Canon.config_transitions r.Reference.diagnosis) in
  Alcotest.(check (list (list string)))
    "hidden explanations"
    [ [ "i"; "ii"; "iii" ]; [ "i"; "ii"; "iv" ]; [ "i"; "iii" ] ]
    transitions

let test_hidden_product_matches_reference () =
  let net, hidden, observations = hidden_case () in
  let r = Reference.diagnose_general ~max_config_size:3 ~hidden net observations in
  let p = Product.diagnose_general ~max_config_size:3 ~hidden net observations in
  check_diag "product == reference (hidden)" r.Reference.diagnosis p.Product.diagnosis

let test_hidden_datalog_matches_reference () =
  let net, hidden, observations = hidden_case () in
  let r = Reference.diagnose_general ~max_config_size:3 ~hidden net observations in
  let prepared, unbounded = Diagnoser.prepare_general ~hidden net observations in
  Alcotest.(check bool) "flagged unbounded" true unbounded;
  let eval_options =
    { Eval.default_options with Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:3) }
  in
  let out = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
  check_diag "datalog == reference (hidden)"
    r.Reference.diagnosis
    (Diagnoser.restrict_size out.Diagnoser.diagnosis 3)

let test_hidden_dqsq () =
  let net, hidden, observations = hidden_case () in
  let r = Reference.diagnose_general ~max_config_size:3 ~hidden net observations in
  let prepared, _ = Diagnoser.prepare_general ~hidden net observations in
  let eval_options =
    { Eval.default_options with Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:3) }
  in
  let out =
    Diagnoser.run ~eval_options prepared
      (Diagnoser.Distributed { seed = 7; policy = Network.Sim.Random_interleaving })
  in
  check_diag "dQSQ == reference (hidden)"
    r.Reference.diagnosis
    (Diagnoser.restrict_size out.Diagnoser.diagnosis 3)

(* ------------------------------------------------------------------ *)
(* Alarm patterns                                                     *)
(* ------------------------------------------------------------------ *)

let pattern_case () =
  (* p1 observes b.c*, p2 observes the single word a *)
  let net = running_net () in
  let p1_pattern =
    Pattern.concat (Pattern.word [ "b" ]) (Pattern.star (Pattern.word [ "c" ]))
  in
  let observations =
    [ ("p1", p1_pattern); ("p2", Pattern.word [ "a" ]) ]
  in
  (net, observations)

let test_pattern_reference () =
  let net, observations = pattern_case () in
  let r = Reference.diagnose_general ~max_config_size:4 ~hidden:[] net observations in
  let transitions = List.sort compare (List.map Canon.config_transitions r.Reference.diagnosis) in
  Alcotest.(check (list (list string)))
    "pattern explanations"
    [ [ "i"; "ii" ];
      [ "i"; "ii"; "iii" ];
      [ "i"; "ii"; "iii"; "iv" ];
      [ "i"; "ii"; "iv" ];
      [ "i"; "iii"; "v" ];
      [ "i"; "v" ] ]
    transitions

let test_pattern_product_matches_reference () =
  let net, observations = pattern_case () in
  let r = Reference.diagnose_general ~max_config_size:4 ~hidden:[] net observations in
  let p = Product.diagnose_general ~max_config_size:4 ~hidden:[] net observations in
  check_diag "product == reference (pattern)" r.Reference.diagnosis p.Product.diagnosis

let test_pattern_datalog_matches_reference () =
  let net, observations = pattern_case () in
  let r = Reference.diagnose_general ~max_config_size:4 ~hidden:[] net observations in
  let prepared, unbounded = Diagnoser.prepare_general net observations in
  Alcotest.(check bool) "starred pattern flagged unbounded" true unbounded;
  let eval_options =
    { Eval.default_options with Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:4) }
  in
  let out = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
  check_diag "datalog == reference (pattern)"
    r.Reference.diagnosis
    (Diagnoser.restrict_size out.Diagnoser.diagnosis 4)

let test_forbidden_pattern () =
  (* explanations of length <= 3 at p1 avoiding the factor "b c", with p2
     silent: complement automaton as the observation *)
  let net = running_net () in
  let alphabet = [ "b"; "c" ] in
  let forbid = Pattern.complement ~alphabet (Pattern.contains_factor ~alphabet [ "b"; "c" ]) in
  let observations = [ ("p1", forbid) ] in
  let r = Reference.diagnose_general ~max_config_size:2 ~hidden:[] net observations in
  (* p1 words possible in 2 events: [], [b], [b;c] (from i;iii) — the factor
     bc is forbidden, so only the empty and singleton-b explanations stay *)
  let p1_words =
    List.sort compare (List.map Canon.config_transitions r.Reference.diagnosis)
  in
  Alcotest.(check (list (list string)))
    "forbidden-pattern explanations" [ []; [ "i" ] ] p1_words;
  let p = Product.diagnose_general ~max_config_size:2 ~hidden:[] net observations in
  check_diag "product == reference (forbidden)" r.Reference.diagnosis p.Product.diagnosis

(* ------------------------------------------------------------------ *)
(* Definition vs algorithm divergence (documented)                     *)
(* ------------------------------------------------------------------ *)

(* A net where the literal per-peer reading of condition (iii) accepts a
   configuration no global interleaving realizes: e2 < f1 and f2 < e1
   across peers, with observations p:[a;b] (e1 before e2) and q:[c;d]
   (f1 before f2). *)
let divergence_net () =
  Petri.Net.binarize
    (Petri.Net.make
       ~places:
         [ Petri.Net.mk_place ~peer:"p" "pe1";
           Petri.Net.mk_place ~peer:"p" "pe2";
           Petri.Net.mk_place ~peer:"q" "qf1";
           Petri.Net.mk_place ~peer:"q" "qf2";
           Petri.Net.mk_place ~peer:"q" "s1";
           Petri.Net.mk_place ~peer:"p" "s2" ]
       ~transitions:
         [ Petri.Net.mk_transition ~peer:"p" ~alarm:"a" ~pre:[ "pe1"; "s2" ] ~post:[] "e1";
           Petri.Net.mk_transition ~peer:"p" ~alarm:"b" ~pre:[ "pe2" ] ~post:[ "s1" ] "e2";
           Petri.Net.mk_transition ~peer:"q" ~alarm:"c" ~pre:[ "qf1"; "s1" ] ~post:[] "f1";
           Petri.Net.mk_transition ~peer:"q" ~alarm:"d" ~pre:[ "qf2" ] ~post:[ "s2" ] "f2" ]
       ~marking:[ "pe1"; "pe2"; "qf1"; "qf2" ])

let divergence_alarms () = alarms [ ("a", "p"); ("b", "p"); ("c", "q"); ("d", "q") ]

let test_divergence () =
  let net = divergence_net () in
  let a = divergence_alarms () in
  let literal = (Reference.diagnose_literal net a).Reference.diagnosis in
  let global = (Reference.diagnose net a).Reference.diagnosis in
  let product = (Product.diagnose net a).Product.diagnosis in
  let datalog = (Diagnoser.diagnose net a).Diagnoser.diagnosis in
  Alcotest.(check int) "literal reading accepts the crossed configuration" 1
    (List.length literal);
  Alcotest.(check int) "global reading rejects it" 0 (List.length global);
  Alcotest.(check int) "the product algorithm agrees with the global reading" 0
    (List.length product);
  Alcotest.(check int) "the paper's Datalog program agrees with the global reading" 0
    (List.length datalog)

let test_divergence_sanity () =
  (* the same net with compatible orders is explainable under both readings *)
  let net = divergence_net () in
  let a = alarms [ ("b", "p"); ("a", "p"); ("c", "q"); ("d", "q") ] in
  let literal = (Reference.diagnose_literal net a).Reference.diagnosis in
  let global = (Reference.diagnose net a).Reference.diagnosis in
  Alcotest.(check int) "literal" 1 (List.length literal);
  Alcotest.(check int) "global" 1 (List.length global);
  check_diag "same diagnosis" literal global

(* ------------------------------------------------------------------ *)
(* Random generalized scenarios                                        *)
(* ------------------------------------------------------------------ *)

let rng seed = Random.State.make [| seed |]

let prop_general_random =
  (* random net, random hidden subset, random observed word: the three
     generalized diagnosers agree at a common size bound *)
  QCheck.Test.make ~count:12 ~name:"hidden extension agrees on random scenarios"
    (QCheck.make
       ~print:(fun (s, k) -> Printf.sprintf "seed=%d steps=%d" s k)
       QCheck.Gen.(tup2 (0 -- 5000) (1 -- 3)))
    (fun (seed, steps) ->
      let spec =
        {
          Petri.Generator.peers = 2;
          components_per_peer = 1;
          places_per_component = 3;
          local_transitions = 2;
          sync_transitions = 1;
          alarm_symbols = 2;
        }
      in
      let net0 = Petri.Generator.generate ~rng:(rng seed) spec in
      let firing, a = Petri.Generator.scenario ~rng:(rng (seed + 1)) ~steps net0 in
      QCheck.assume (List.length firing >= 2);
      let net = Petri.Net.binarize net0 in
      (* hide the transition that fired first; observe the remaining alarms *)
      let hidden_tid = List.hd firing in
      let hidden_peer = (Petri.Net.transition net hidden_tid).Petri.Net.t_peer in
      let hidden =
        (* hide every transition sharing the first firing's alarm+peer, so
           the observation is well-defined *)
        List.filter_map
          (fun (tr : Petri.Net.transition) ->
            if
              String.equal tr.Petri.Net.t_peer hidden_peer
              && String.equal tr.Petri.Net.t_alarm
                   (Petri.Net.transition net hidden_tid).Petri.Net.t_alarm
            then Some tr.Petri.Net.t_id
            else None)
          (Petri.Net.transitions net)
      in
      let observed =
        List.filter
          (fun (al : Petri.Alarm.alarm) ->
            not
              (String.equal al.Petri.Alarm.peer hidden_peer
              && String.equal al.Petri.Alarm.symbol
                   (Petri.Net.transition net hidden_tid).Petri.Net.t_alarm))
          a
      in
      let observations = Supervisor.words observed in
      let k = List.length firing + 1 in
      let r = Reference.diagnose_general ~max_config_size:k ~hidden net observations in
      let p = Product.diagnose_general ~max_config_size:k ~hidden net observations in
      let prepared, _ = Diagnoser.prepare_general ~hidden net observations in
      let eval_options =
        { Eval.default_options with
          Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:k) }
      in
      let d = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
      let dd = Diagnoser.restrict_size d.Diagnoser.diagnosis k in
      Canon.equal_diagnosis r.Reference.diagnosis p.Product.diagnosis
      && Canon.equal_diagnosis r.Reference.diagnosis dd
      && r.Reference.diagnosis <> [] (* the real execution explains itself *))

let test_supervisor_name_collision () =
  let net =
    Petri.Net.make
      ~places:[ Petri.Net.mk_place ~peer:"supervisor" "s" ]
      ~transitions:
        [ Petri.Net.mk_transition ~peer:"supervisor" ~alarm:"a" ~pre:[ "s" ] ~post:[] "t" ]
      ~marking:[ "s" ]
  in
  match Diagnoser.prepare net (alarms [ ("a", "supervisor") ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "supervisor name collision accepted"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "pattern",
      [ Alcotest.test_case "word" `Quick test_pattern_word;
        Alcotest.test_case "a.b*.a" `Quick test_pattern_star;
        Alcotest.test_case "union" `Quick test_pattern_union;
        Alcotest.test_case "determinize/complement" `Quick test_pattern_determinize_complement;
        Alcotest.test_case "contains factor" `Quick test_pattern_contains_factor ]
      @ qcheck [ prop_complement_correct ] );
    ( "hidden",
      [ Alcotest.test_case "reference" `Quick test_hidden_reference;
        Alcotest.test_case "product == reference" `Quick test_hidden_product_matches_reference;
        Alcotest.test_case "datalog == reference" `Quick test_hidden_datalog_matches_reference;
        Alcotest.test_case "dQSQ == reference" `Quick test_hidden_dqsq ] );
    ( "patterns-diagnosis",
      [ Alcotest.test_case "reference" `Quick test_pattern_reference;
        Alcotest.test_case "product == reference" `Quick test_pattern_product_matches_reference;
        Alcotest.test_case "datalog == reference" `Quick test_pattern_datalog_matches_reference;
        Alcotest.test_case "forbidden pattern" `Quick test_forbidden_pattern ] );
    ( "random-general",
      [ Alcotest.test_case "supervisor name collision" `Quick test_supervisor_name_collision ]
      @ qcheck [ prop_general_random ] );
    ( "definition-vs-algorithm",
      [ Alcotest.test_case "divergence case" `Quick test_divergence;
        Alcotest.test_case "sanity (compatible orders)" `Quick test_divergence_sanity ] ) ]

let () = Alcotest.run "extensions" suite
