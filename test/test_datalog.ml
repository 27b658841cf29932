(* Unit and property tests for the centralized Datalog engine:
   terms, parser, naive/semi-naive evaluation, QSQ and magic. *)

open Datalog

let atom = Alcotest.testable Atom.pp Atom.equal

let sorted_answers answers = List.sort_uniq String.compare (List.map Atom.to_string answers)

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let test_term_basics () =
  let t = Term.app "f" [ Term.const "a"; Term.var "X" ] in
  Alcotest.(check bool) "not ground" false (Term.is_ground t);
  Alcotest.(check int) "depth" 2 (Term.depth t);
  Alcotest.(check int) "size" 3 (Term.size t);
  Alcotest.(check (list string)) "vars" [ "X" ] (Term.vars t);
  Alcotest.(check string) "print" "f(a, X)" (Term.to_string t)

(* qcheck generators for ground-ish terms *)
let gen_term : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 1 then
        oneof
          [ map (fun i -> Term.const (Printf.sprintf "c%d" (abs i mod 5))) small_int;
            map (fun i -> Term.var (Printf.sprintf "V%d" (abs i mod 4))) small_int ]
      else
        frequency
          [ (2, map (fun i -> Term.const (Printf.sprintf "c%d" (abs i mod 5))) small_int);
            (2, map (fun i -> Term.var (Printf.sprintf "V%d" (abs i mod 4))) small_int);
            ( 3,
              map2
                (fun f args -> Term.capp (Symbol.intern (Printf.sprintf "f%d" (abs f mod 3))) args)
                small_int
                (list_size (1 -- 3) (self (n / 2))) ) ])

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_program () =
  let p =
    Parser.parse_program
      {| % a comment
         tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- edge(X, Y), tc(Y, Z), X != Z.
         edge(a, b). edge(b, c). |}
  in
  Alcotest.(check int) "4 rules" 4 (Program.size p);
  let edbs = List.map Symbol.name (Program.edb_relations p) in
  Alcotest.(check (list string)) "no edb (edge defined by facts)" [] edbs;
  let r = List.nth (Program.rules p) 1 in
  Alcotest.(check string)
    "roundtrip" "tc(X, Z) :- edge(X, Y), tc(Y, Z), X != Z." (Rule.to_string r)

let test_parse_terms () =
  let a = Parser.parse_atom {| q(f(X, "lit"), c1) |} in
  Alcotest.check atom "atom"
    (Atom.make "q" [ Term.app "f" [ Term.var "X"; Term.const "lit" ]; Term.const "c1" ])
    a

let test_parse_errors () =
  let fails s =
    match Parser.parse_program s with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing dot" true (fails "p(X) :- q(X)");
  Alcotest.(check bool) "unterminated string" true (fails {| p("x). |});
  Alcotest.(check bool) "bad char" true (fails "p(X) :- q(X) & r(X).")

let test_range_restriction () =
  let p = Parser.parse_program "p(X, Y) :- q(X)." in
  (match Program.check_range_restricted p with
  | Error (_, x) -> Alcotest.(check string) "offending var" "Y" x
  | Ok () -> Alcotest.fail "should be rejected");
  let p2 = Parser.parse_program "p(X) :- q(X), X != Y." in
  Alcotest.(check bool) "neq var unbound" false
    (Result.is_ok (Program.check_range_restricted p2))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let tc_program =
  {| tc(X, Y) :- edge(X, Y).
     tc(X, Z) :- edge(X, Y), tc(Y, Z). |}

let chain_edb n =
  let store = Fact_store.create () in
  for i = 0 to n - 1 do
    ignore
      (Fact_store.add store
         (Atom.make "edge"
            [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ]))
  done;
  store

let test_naive_tc () =
  let p = Parser.parse_program tc_program in
  let store = chain_edb 5 in
  let res = Eval.naive p store in
  Alcotest.(check bool) "fixpoint" true (res.Eval.status = Eval.Fixpoint);
  Alcotest.(check int) "tc facts" 15 (Fact_store.count_rel store (Symbol.intern "tc"))

let test_seminaive_tc () =
  let p = Parser.parse_program tc_program in
  let store = chain_edb 5 in
  let res = Eval.seminaive p store in
  Alcotest.(check bool) "fixpoint" true (res.Eval.status = Eval.Fixpoint);
  Alcotest.(check int) "tc facts" 15 (Fact_store.count_rel store (Symbol.intern "tc"))

let test_seminaive_fewer_derivations () =
  let p = Parser.parse_program tc_program in
  let s1 = chain_edb 30 and s2 = chain_edb 30 in
  let r_naive = Eval.naive p s1 in
  let r_semi = Eval.seminaive p s2 in
  Alcotest.(check bool) "same facts" true
    (Fact_store.to_sorted_strings s1 = Fact_store.to_sorted_strings s2);
  Alcotest.(check bool)
    (Printf.sprintf "semi-naive fires fewer rules (%d < %d)"
       r_semi.Eval.stats.Eval.derivations r_naive.Eval.stats.Eval.derivations)
    true
    (r_semi.Eval.stats.Eval.derivations < r_naive.Eval.stats.Eval.derivations)

let test_neq_semantics () =
  let p =
    Parser.parse_program
      {| sib(X, Y) :- parent(X, P), parent(Y, P), X != Y.
         parent(a, p). parent(b, p). parent(c, q). |}
  in
  let store = Fact_store.create () in
  ignore (Eval.seminaive p store);
  let answers = Eval.answers store (Atom.make "sib" [ Term.var "X"; Term.var "Y" ]) in
  Alcotest.(check (list string))
    "siblings" [ "sib(a, b)"; "sib(b, a)" ] (sorted_answers answers)

let test_function_symbols_depth_bound () =
  (* count(s(X)) :- count(X) diverges; the depth bound clips it. *)
  let p = Parser.parse_program {| count(z). count(s(X)) :- count(X). |} in
  let store = Fact_store.create () in
  let options = { Eval.default_options with Eval.max_depth = Some 5 } in
  let res = Eval.seminaive ~options p store in
  Alcotest.(check bool) "clipped" true (res.Eval.status = Eval.Depth_clipped);
  Alcotest.(check int) "5 facts: z..s^4(z)" 5 (Fact_store.count store)

let test_budget () =
  let p = Parser.parse_program {| count(z). count(s(X)) :- count(X). |} in
  let store = Fact_store.create () in
  let options = { Eval.default_options with Eval.max_facts = Some 10 } in
  let res = Eval.seminaive ~options p store in
  Alcotest.(check bool) "budget" true (res.Eval.status = Eval.Budget_exhausted);
  Alcotest.(check int) "10 facts" 10 (Fact_store.count store)

(* random program generator: random edges, then compare strategies *)
let gen_edges : (int * int) list QCheck.Gen.t =
  QCheck.Gen.(list_size (5 -- 40) (pair (0 -- 12) (0 -- 12)))

let arb_edges =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l))
    gen_edges

let store_of_edges edges =
  let store = Fact_store.create () in
  List.iter
    (fun (a, b) ->
      ignore
        (Fact_store.add store
           (Atom.make "edge"
              [ Term.const (Printf.sprintf "n%d" a); Term.const (Printf.sprintf "n%d" b) ])))
    edges;
  store

let prop_naive_eq_seminaive =
  QCheck.Test.make ~count:100 ~name:"naive == semi-naive on random graphs" arb_edges
    (fun edges ->
      let p =
        Parser.parse_program
          {| tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- tc(X, Y), tc(Y, Z).
             peak(X) :- tc(X, Y), tc(Y, X), X != Y. |}
      in
      let s1 = store_of_edges edges and s2 = store_of_edges edges in
      ignore (Eval.naive p s1);
      ignore (Eval.seminaive p s2);
      Fact_store.to_sorted_strings s1 = Fact_store.to_sorted_strings s2)

(* A one-way matcher over association lists, independent of the compiled
   joins: [p] against the ground [t]. *)
let rec match_term env p t =
  match Term.view p, Term.view t with
  | Term.Var x, _ -> (
    match List.assoc_opt x env with
    | Some u -> if Term.equal u t then Some env else None
    | None -> Some ((x, t) :: env))
  | Term.Const a, Term.Const b -> if Symbol.equal a b then Some env else None
  | Term.App (f, ps), Term.App (g, ts) when Symbol.equal f g -> match_args env ps ts
  | (Term.Const _ | Term.App _), _ -> None

and match_args env ps ts =
  match ps, ts with
  | [], [] -> Some env
  | p :: ps, t :: ts -> Option.bind (match_term env p t) (fun env -> match_args env ps ts)
  | _ :: _, [] | [], _ :: _ -> None

let rec instantiate env t =
  match Term.view t with
  | Term.Var x -> Option.value (List.assoc_opt x env) ~default:t
  | Term.App (f, args) -> Term.capp f (List.map (instantiate env) args)
  | Term.Const _ -> t

(* Ground a generated term: each variable V becomes the constant v. *)
let rec close t =
  match Term.view t with
  | Term.Var x -> Term.const (String.lowercase_ascii x)
  | Term.App (f, args) -> Term.capp f (List.map close args)
  | Term.Const _ -> t

(* Stores of relations r0..r2 holding tuples of arity 1-3 (so arities
   mismatch), filled in two batches with an answer read between them (so
   the index the first read builds is maintained through the second
   batch); patterns from [gen_term], with repeated variables, nested
   function terms and constants. *)
let arb_answers_case =
  let open QCheck.Gen in
  let atom term =
    map2 Atom.make (map (fun i -> Printf.sprintf "r%d" (abs i mod 3)) small_int)
      (list_size (1 -- 3) term)
  in
  let fact = atom (map close gen_term) in
  QCheck.make
    ~print:(fun (before, after, pattern) ->
      Printf.sprintf "facts: %s | %s\npattern: %s"
        (String.concat " " (List.map Atom.to_string before))
        (String.concat " " (List.map Atom.to_string after))
        (Atom.to_string pattern))
    (triple (list_size (0 -- 20) fact) (list_size (0 -- 20) fact) (atom gen_term))

(* The brute force lists every match newest first: the order of a full
   scan, and of an index whether it was built before or after its facts
   arrived. *)
let prop_answers_match =
  QCheck.Test.make ~count:500 ~name:"answers == brute-force matches, in probe order"
    arb_answers_case (fun (before, after, pattern) ->
      let store = Fact_store.create () in
      let head =
        Atom.make "ans" [ Term.app "k" (List.rev_map Term.var (Atom.vars pattern)); Term.const "c0" ]
      in
      let brute head =
        List.filter (fun (fact : Atom.t) -> Symbol.equal fact.Atom.rel pattern.Atom.rel)
          (Fact_store.all store)
        |> List.filter_map (fun (fact : Atom.t) ->
               Option.map
                 (fun env -> Atom.cmake head.Atom.rel (List.map (instantiate env) head.Atom.args))
                 (match_args [] pattern.Atom.args fact.Atom.args))
        |> List.rev
      in
      let agree () =
        List.equal Atom.equal (Eval.answers ~pattern store head) (brute head)
        && List.equal Atom.equal (Eval.answers store pattern) (brute pattern)
      in
      List.iter (fun a -> ignore (Fact_store.add store a)) before;
      let first = agree () in
      List.iter (fun a -> ignore (Fact_store.add store a)) after;
      first && agree ())

(* A probe lists a key's tuples newest first, whether its index was built
   after they arrived (a fresh store builds it at the first probe) or
   before (a reset store keeps its indexes). *)
let test_probe_order () =
  let e a b = Atom.make "e" [ Term.const a; Term.const b ] in
  let fill store =
    List.iter (fun a -> ignore (Fact_store.add store a)) [ e "k" "1"; e "j" "0"; e "k" "2" ]
  in
  let probe store =
    match Fact_store.extent store (Symbol.intern "e") with
    | None -> []
    | Some ext ->
      List.map
        (fun args -> Term.to_string (List.nth args 1))
        (Fact_store.probe ext [ 0 ] [ Term.const "k" ])
  in
  let fresh = Fact_store.create () in
  fill fresh;
  Alcotest.(check (list string)) "index built after its facts" [ "2"; "1" ] (probe fresh);
  let reset = Fact_store.create () in
  fill reset;
  ignore (probe reset);
  Fact_store.reset reset;
  fill reset;
  Alcotest.(check (list string)) "a reset store orders like a fresh one" (probe fresh) (probe reset)

(* ------------------------------------------------------------------ *)
(* QSQ and magic                                                      *)
(* ------------------------------------------------------------------ *)

let test_qsq_tc_answers () =
  let p = Parser.parse_program tc_program in
  let edb = chain_edb 8 in
  let query = Atom.make "tc" [ Term.const "n0"; Term.var "Y" ] in
  let _, res, answers = Qsq.solve p query edb in
  Alcotest.(check bool) "fixpoint" true (res.Eval.status = Eval.Fixpoint);
  Alcotest.(check int) "8 reachable" 8 (List.length answers)

let test_qsq_materializes_less () =
  (* Query tc(n0, Y) on a chain: naive materializes all O(n^2) tc facts,
     QSQ only the n facts reachable from n0 plus auxiliaries. *)
  let p = Parser.parse_program tc_program in
  let n = 30 in
  let edb = chain_edb n in
  let query = Atom.make "tc" [ Term.const (Printf.sprintf "n%d" (n - 1)); Term.var "Y" ] in
  let store_naive = Fact_store.copy edb in
  ignore (Eval.seminaive p store_naive);
  let naive_tc = Fact_store.count_rel store_naive (Symbol.intern "tc") in
  let store_qsq, _, answers = Qsq.solve p query edb in
  let m = Qsq.materialization store_qsq in
  Alcotest.(check int) "one answer" 1 (List.length answers);
  Alcotest.(check bool)
    (Printf.sprintf "QSQ answers (%d) << naive tc (%d)" m.Qsq.answer_facts naive_tc)
    true
    (m.Qsq.answer_facts < naive_tc / 5)

let test_qsq_bound_query () =
  let p = Parser.parse_program tc_program in
  let edb = chain_edb 6 in
  let q_yes = Atom.make "tc" [ Term.const "n0"; Term.const "n6" ] in
  let q_no = Atom.make "tc" [ Term.const "n3"; Term.const "n0" ] in
  let _, _, a_yes = Qsq.solve p q_yes edb in
  let _, _, a_no = Qsq.solve p q_no edb in
  Alcotest.(check int) "yes" 1 (List.length a_yes);
  Alcotest.(check int) "no" 0 (List.length a_no);
  (* a disequality grounded two atoms after its first side is bound: the
     sup in between must keep that side *)
  let p = Parser.parse_program "r(X, Z) :- e(X, W), W != Y, f(X, Z), g(Y)." in
  let edb = Fact_store.create () in
  List.iter
    (fun f -> ignore (Fact_store.add edb (Parser.parse_atom f)))
    [ "e(a, w)"; "f(a, z)"; "g(w)"; "g(y)" ];
  let _, _, a = Qsq.solve p (Parser.parse_atom "r(a, Z)") edb in
  Alcotest.(check (list string)) "pending neq" [ "r(a, z)" ] (sorted_answers a)

let test_qsq_same_generation () =
  (* The classic non-linear same-generation program. *)
  let p =
    Parser.parse_program
      {| sg(X, Y) :- flat(X, Y).
         sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). |}
  in
  let edb = Fact_store.create () in
  let add r a b = ignore (Fact_store.add edb (Atom.make r [ Term.const a; Term.const b ])) in
  add "up" "a" "e";
  add "up" "a" "f";
  add "flat" "e" "g";
  add "flat" "f" "h";
  add "down" "g" "b";
  add "down" "h" "c";
  let query = Atom.make "sg" [ Term.const "a"; Term.var "Y" ] in
  let _, _, answers = Qsq.solve p query edb in
  Alcotest.(check (list string)) "sg answers" [ "sg(a, b)"; "sg(a, c)" ] (sorted_answers answers)

let test_qsq_with_functions () =
  (* Goal-directed evaluation terminates on a program whose naive semantics
     is infinite: list membership over cons-terms. *)
  let p =
    Parser.parse_program
      {| member(X, cons(X, T)) :- islist(cons(X, T)).
         member(X, cons(H, T)) :- islist(cons(H, T)), member(X, T).
         islist(T) :- islist(cons(H, T)). |}
  in
  let edb = Fact_store.create () in
  let lst =
    Term.app "cons"
      [ Term.const "a"; Term.app "cons" [ Term.const "b"; Term.app "cons" [ Term.const "c"; Term.const "nil" ] ] ]
  in
  ignore (Fact_store.add edb (Atom.cmake (Symbol.intern "islist") [ lst ]));
  let query = Atom.cmake (Symbol.intern "member") [ Term.var "X"; lst ] in
  let _, res, answers = Qsq.solve p query edb in
  Alcotest.(check bool) "terminates" true (res.Eval.status = Eval.Fixpoint);
  Alcotest.(check int) "3 members" 3 (List.length answers)

let test_qsq_fig4_shape () =
  (* Golden check against the paper's Figure 4: the rewriting of the
     localized Fig. 3 program for R("1", Y) generates exactly the adorned,
     input and supplementary relations the figure shows (plus one bridge
     rule per adorned relation, our engineering addition). *)
  let p =
    Parser.parse_program
      {| R(X, Y) :- A(X, Y).
         R(X, Y) :- S(X, Z), T(Z, Y).
         S(X, Y) :- R(X, Y), B(Y, Z).
         T(X, Y) :- C(X, Y). |}
  in
  let rw = Qsq.rewrite p (Parser.parse_atom {| R("1", Y) |}) in
  let heads =
    List.sort_uniq String.compare
      (List.map (fun r -> Symbol.name r.Rule.head.Atom.rel) (Program.rules rw.Qsq.program))
  in
  Alcotest.(check (list string))
    "generated relations match Fig. 4"
    [ "R^bf"; "S^bf"; "T^bf";
      "in-R^bf"; "in-S^bf"; "in-T^bf";
      "sup0,0^R^bf"; "sup0,0^S^bf"; "sup0,0^T^bf";
      "sup0,1^R^bf"; "sup0,1^S^bf"; "sup0,1^T^bf";
      "sup0,2^S^bf";
      "sup1,0^R^bf"; "sup1,1^R^bf"; "sup1,2^R^bf" ]
    (List.sort String.compare heads);
  Alcotest.(check string) "seed fact" "in-R^bf(1)" (Atom.to_string rw.Qsq.seed)

let test_magic_tc_answers () =
  let p = Parser.parse_program tc_program in
  let edb = chain_edb 8 in
  let query = Atom.make "tc" [ Term.const "n0"; Term.var "Y" ] in
  let _, _, answers = Magic.solve p query edb in
  Alcotest.(check int) "8 reachable" 8 (List.length answers)

let random_query edges =
  let n = List.length edges in
  let src = Printf.sprintf "n%d" (match edges with (a, _) :: _ -> a | [] -> 0) in
  ignore n;
  Atom.make "tc" [ Term.const src; Term.var "Y" ]

let prop_qsq_eq_naive =
  QCheck.Test.make ~count:100 ~name:"QSQ answers == naive answers (random graphs)" arb_edges
    (fun edges ->
      QCheck.assume (edges <> []);
      let p = Parser.parse_program tc_program in
      let query = random_query edges in
      let edb = store_of_edges edges in
      let store_naive = Fact_store.copy edb in
      ignore (Eval.seminaive p store_naive);
      let naive_answers = Eval.answers store_naive query in
      let _, _, qsq_answers = Qsq.solve p query edb in
      sorted_answers naive_answers = sorted_answers qsq_answers)

let prop_magic_eq_qsq =
  QCheck.Test.make ~count:100 ~name:"magic answers == QSQ answers (random graphs)" arb_edges
    (fun edges ->
      QCheck.assume (edges <> []);
      let p = Parser.parse_program tc_program in
      let query = random_query edges in
      let edb = store_of_edges edges in
      let _, _, magic_answers = Magic.solve p query edb in
      let _, _, qsq_answers = Qsq.solve p query edb in
      sorted_answers magic_answers = sorted_answers qsq_answers)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "term-unify",
      [ Alcotest.test_case "term basics" `Quick test_term_basics ] );
    ( "parser",
      [ Alcotest.test_case "parse program" `Quick test_parse_program;
        Alcotest.test_case "parse terms" `Quick test_parse_terms;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "range restriction" `Quick test_range_restriction ] );
    ( "eval",
      [ Alcotest.test_case "naive tc" `Quick test_naive_tc;
        Alcotest.test_case "semi-naive tc" `Quick test_seminaive_tc;
        Alcotest.test_case "semi-naive cheaper" `Quick test_seminaive_fewer_derivations;
        Alcotest.test_case "neq semantics" `Quick test_neq_semantics;
        Alcotest.test_case "depth bound" `Quick test_function_symbols_depth_bound;
        Alcotest.test_case "fact budget" `Quick test_budget;
        Alcotest.test_case "probe order" `Quick test_probe_order ]
      @ qcheck [ prop_naive_eq_seminaive; prop_answers_match ] );
    ( "qsq-magic",
      [ Alcotest.test_case "qsq tc answers" `Quick test_qsq_tc_answers;
        Alcotest.test_case "qsq materializes less" `Quick test_qsq_materializes_less;
        Alcotest.test_case "qsq bound query" `Quick test_qsq_bound_query;
        Alcotest.test_case "qsq same generation" `Quick test_qsq_same_generation;
        Alcotest.test_case "qsq with functions" `Quick test_qsq_with_functions;
        Alcotest.test_case "qsq Fig. 4 golden shape" `Quick test_qsq_fig4_shape;
        Alcotest.test_case "magic tc answers" `Quick test_magic_tc_answers ]
      @ qcheck [ prop_qsq_eq_naive; prop_magic_eq_qsq ] ) ]

let () = Alcotest.run "datalog" suite
