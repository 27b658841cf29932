(* Fine-grained unit tests for the supporting modules: symbols,
   substitutions, fact stores, adornments, programs, the dDatalog layer,
   canonical names, the supervisor's program shape, and the encoders. *)

open Datalog

let term = Alcotest.testable Term.pp Term.equal

(* ------------------------------------------------------------------ *)
(* Symbol                                                             *)
(* ------------------------------------------------------------------ *)

let test_symbol () =
  let a = Symbol.intern "hello" and b = Symbol.intern "hello" in
  Alcotest.(check bool) "interning is stable" true (Symbol.equal a b);
  Alcotest.(check string) "name roundtrip" "hello" (Symbol.name a);
  let f1 = Symbol.fresh "tmp" and f2 = Symbol.fresh "tmp" in
  Alcotest.(check bool) "fresh symbols differ" false (Symbol.equal f1 f2)

(* ------------------------------------------------------------------ *)
(* Term (hash-consing invariants)                                     *)
(* ------------------------------------------------------------------ *)

(* reference recomputations of the cached fields, by structure *)
let rec recompute_depth t =
  match Term.view t with
  | Term.Const _ | Term.Var _ -> 1
  | Term.App (_, args) ->
    1 + List.fold_left (fun acc a -> max acc (recompute_depth a)) 0 args

let rec recompute_size t =
  match Term.view t with
  | Term.Const _ | Term.Var _ -> 1
  | Term.App (_, args) -> List.fold_left (fun acc a -> acc + recompute_size a) 1 args

let rec recompute_ground t =
  match Term.view t with
  | Term.Const _ -> true
  | Term.Var _ -> false
  | Term.App (_, args) -> List.for_all recompute_ground args

(* a Skolem-like spine f(f(...f(leaf, c)..., c), c) of [n] applications *)
let deep_term n =
  let rec go n acc =
    if n = 0 then acc else go (n - 1) (Term.app "f" [ acc; Term.const "c" ])
  in
  go n (Term.const "leaf")

let test_term_hashcons () =
  let a = Term.app "f" [ Term.const "a"; Term.var "X" ] in
  let b = Term.app "f" [ Term.const "a"; Term.var "X" ] in
  Alcotest.(check bool) "structural equality is physical" true (a == b);
  Alcotest.(check bool) "Term.equal agrees" true (Term.equal a b);
  Alcotest.(check int) "hashes agree" (Term.hash a) (Term.hash b);
  Alcotest.(check bool) "deep spines are shared" true (deep_term 64 == deep_term 64);
  let c = Term.app "f" [ Term.const "a"; Term.var "Y" ] in
  Alcotest.(check bool) "distinct terms stay distinct" false (Term.equal a c);
  Alcotest.(check int) "structural compare is reflexive" 0 (Term.compare_structural a b)

let test_term_cached_fields () =
  let samples =
    [ Term.const "a";
      Term.var "X";
      deep_term 40;
      Term.app "g" [ deep_term 3; Term.var "Z" ];
      Term.app "f" [ Term.app "g" [ Term.var "X" ]; Term.const "k"; deep_term 5 ] ]
  in
  List.iter
    (fun t ->
      Alcotest.(check int) "depth cached" (recompute_depth t) (Term.depth t);
      Alcotest.(check int) "size cached" (recompute_size t) (Term.size t);
      Alcotest.(check bool) "ground cached" (recompute_ground t) (Term.is_ground t))
    samples

let test_term_subst_sharing () =
  let s = Subst.of_list [ ("X", Term.const "a") ] in
  let t = Term.app "f" [ deep_term 10; Term.const "b" ] in
  Alcotest.(check bool) "ground term returned physically unchanged" true
    (Subst.apply s t == t);
  let u = Term.app "f" [ Term.var "Y"; deep_term 10 ] in
  Alcotest.(check bool) "untouched variables leave term physically unchanged" true
    (Subst.apply s u == u);
  let v = Subst.apply (Subst.of_list [ ("Y", Term.const "a") ]) u in
  Alcotest.(check bool) "a bound variable rebuilds the term" false (v == u);
  Alcotest.(check bool) "result is ground" true (Term.is_ground v)

let test_term_weak_collection () =
  (* terms without live roots must be collectable from the weak table *)
  let build () =
    let ts =
      List.init 100 (fun i -> Term.app "wkc" [ Term.const (Printf.sprintf "wk%d" i) ])
    in
    let peak = Term.live_terms () in
    ignore (Sys.opaque_identity ts);
    peak
  in
  let peak = build () in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "dead terms are collected" true (Term.live_terms () < peak)

let test_term_parallel_intern () =
  (* N domains race to intern the same deep Skolem spines; the sharded
     intern table must still hand out one physical representative per
     structure, so the lists built on different domains are pointwise
     [==] — to each other and to the main domain's copy. *)
  let domains = 4 and variants = 32 and depth = 48 in
  let n = variants * 4 in
  let build i =
    Term.app "par" [ deep_term depth; Term.const (string_of_int (i mod variants)) ]
  in
  let workers = List.init domains (fun _ -> Domain.spawn (fun () -> List.init n build)) in
  let per_domain = List.map Domain.join workers in
  let reference = List.init n build in
  List.iteri
    (fun d ts ->
      List.iteri
        (fun i t ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d, term %d shares the representative" d i)
            true
            (t == List.nth reference i))
        ts)
    per_domain

(* ------------------------------------------------------------------ *)
(* Subst                                                              *)
(* ------------------------------------------------------------------ *)

let test_subst_compose () =
  let s1 = Subst.of_list [ ("X", Term.const "a") ] in
  let s2 = Subst.of_list [ ("Y", Term.var "X") ] in
  let s = Subst.compose s1 s2 in
  (* compose s1 s2 = apply s2 then s1: Y -> X -> a *)
  Alcotest.check term "Y resolves through both" (Term.const "a")
    (Subst.apply s (Term.var "Y"));
  Alcotest.check term "X still bound" (Term.const "a") (Subst.apply s (Term.var "X"))

let test_subst_restrict () =
  let s = Subst.of_list [ ("X", Term.const "a"); ("Y", Term.const "b") ] in
  let s' = Subst.restrict [ "X" ] s in
  Alcotest.(check int) "one binding left" 1 (Subst.cardinal s');
  Alcotest.(check bool) "Y gone" false (Subst.mem "Y" s')

(* ------------------------------------------------------------------ *)
(* Fact_store                                                         *)
(* ------------------------------------------------------------------ *)

let test_store_basics () =
  let store = Fact_store.create () in
  let f1 = Atom.make "r" [ Term.const "a"; Term.const "b" ] in
  Alcotest.(check bool) "first add is new" true (Fact_store.add store f1);
  Alcotest.(check bool) "second add is not" false (Fact_store.add store f1);
  Alcotest.(check bool) "mem" true (Fact_store.mem store f1);
  Alcotest.(check int) "count" 1 (Fact_store.count store);
  Alcotest.(check int) "count_rel" 1 (Fact_store.count_rel store (Symbol.intern "r"));
  (match Fact_store.add store (Atom.make "r" [ Term.var "X" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ground fact accepted")

let test_store_indexing () =
  (* matching with a bound position must find exactly the right tuples even
     after the lazy index is built and more facts are inserted *)
  let store = Fact_store.create () in
  let add a b = ignore (Fact_store.add store (Atom.make "e" [ Term.const a; Term.const b ])) in
  add "a" "b";
  add "a" "c";
  add "x" "y";
  let pattern = Atom.make "e" [ Term.const "a"; Term.var "Y" ] in
  Alcotest.(check int) "two matches" 2
    (List.length (Fact_store.matches store pattern ~init:Subst.empty));
  add "a" "d";
  Alcotest.(check int) "index maintained on insert" 3
    (List.length (Fact_store.matches store pattern ~init:Subst.empty));
  (* second-position index *)
  let pattern2 = Atom.make "e" [ Term.var "X"; Term.const "y" ] in
  Alcotest.(check int) "one match on pos 2" 1
    (List.length (Fact_store.matches store pattern2 ~init:Subst.empty))

let test_store_copy_isolated () =
  let store = Fact_store.create () in
  ignore (Fact_store.add store (Atom.make "r" [ Term.const "a" ]));
  let copy = Fact_store.copy store in
  ignore (Fact_store.add copy (Atom.make "r" [ Term.const "b" ]));
  Alcotest.(check int) "original unchanged" 1 (Fact_store.count store);
  Alcotest.(check int) "copy grew" 2 (Fact_store.count copy)

(* Dead stores are freed by the first major cycle that finds them dead:
   the live-gauge finalizer must not resurrect them for one more cycle. *)
let test_store_finalised_promptly () =
  let live = Obs.Metrics.gauge "fact_store.live" in
  Gc.full_major ();
  Gc.full_major ();
  let before = Obs.Metrics.gauge_value live in
  let w = Weak.create 8 in
  let fill () =
    for i = 0 to 7 do
      let s = if i mod 2 = 0 then Fact_store.create () else Fact_store.copy (Fact_store.create ()) in
      ignore (Fact_store.add s (Atom.make "r" [ Term.const (string_of_int i) ]));
      Weak.set w i (Some (Sys.opaque_identity s))
    done
  in
  fill ();
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "store %d freed by one cycle" i) false (Weak.check w i)
  done;
  Gc.full_major ();
  Alcotest.(check int) "gauge back at its start value" before (Obs.Metrics.gauge_value live)

let test_store_function_terms () =
  let store = Fact_store.create () in
  let node = Term.app "g" [ Term.app "f" [ Term.const "i" ]; Term.const "c1" ] in
  ignore (Fact_store.add store (Atom.make "places" [ node; Term.const "p" ]));
  (* pattern with structure binds inner variables *)
  let pattern =
    Atom.make "places" [ Term.app "g" [ Term.var "X"; Term.const "c1" ]; Term.var "Y" ]
  in
  match Fact_store.matches store pattern ~init:Subst.empty with
  | [ s ] ->
    Alcotest.check term "X bound inside structure" (Term.app "f" [ Term.const "i" ])
      (Subst.apply s (Term.var "X"))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 match, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Adornment                                                          *)
(* ------------------------------------------------------------------ *)

let test_adornment () =
  let q = Parser.parse_atom {| r("1", Y, f(Y)) |} in
  let ad = Adornment.of_query q in
  Alcotest.(check string) "query adornment" "bff" (Adornment.to_string ad);
  let bound = Adornment.Var_set.of_list [ "Y" ] in
  let ad2 = Adornment.of_atom bound q in
  Alcotest.(check string) "atom adornment with Y bound" "bbb" (Adornment.to_string ad2);
  Alcotest.(check int) "bound count" 3 (Adornment.bound_count ad2);
  Alcotest.(check (list string)) "bound args" [ "p" ]
    (Adornment.bound_args [| true; false |] [ "p"; "q" ])

let test_adornment_classify () =
  let ad = [| true; false |] in
  let r = Symbol.intern "trans" in
  (match Adornment.classify (Adornment.adorned_sym r ad) with
  | `Answer ("trans", "bf") -> ()
  | _ -> Alcotest.fail "adorned misclassified");
  (match Adornment.classify (Adornment.input_sym r ad) with
  | `Input ("trans", "bf") -> ()
  | _ -> Alcotest.fail "input misclassified");
  (match Adornment.classify (Adornment.magic_sym r ad) with
  | `Input ("trans", "bf") -> ()
  | _ -> Alcotest.fail "magic misclassified");
  (match Adornment.classify (Adornment.sup_sym r ad ~rule_index:1 ~pos:2) with
  | `Sup _ -> ()
  | _ -> Alcotest.fail "sup misclassified");
  match Adornment.classify r with
  | `Plain -> ()
  | _ -> Alcotest.fail "plain misclassified"

(* ------------------------------------------------------------------ *)
(* Rule / Program                                                     *)
(* ------------------------------------------------------------------ *)

let test_rule_freshen () =
  let r = Parser.parse_rule "p(X, Y) :- q(X, Z), r(Z, Y)." in
  let r' = Rule.freshen r in
  Alcotest.(check int) "same var count" (List.length (Rule.vars r))
    (List.length (Rule.vars r'));
  Alcotest.(check bool) "vars disjoint" true
    (List.for_all (fun x -> not (List.mem x (Rule.vars r))) (Rule.vars r'));
  Alcotest.(check bool) "still range restricted" true (Rule.is_range_restricted r')

let test_program_partition_facts () =
  let p = Parser.parse_program "e(a, b). e(b, c). p(X) :- e(X, Y)." in
  let facts, rest = Program.partition_facts p in
  Alcotest.(check int) "two facts" 2 (List.length facts);
  Alcotest.(check int) "one rule" 1 (Program.size rest)

let test_eval_max_rounds () =
  let p = Parser.parse_program "n(z). n(s(X)) :- n(X)." in
  let store = Fact_store.create () in
  let options = { Eval.default_options with Eval.max_rounds = Some 3 } in
  let res = Eval.seminaive ~options p store in
  Alcotest.(check bool) "budget status" true (res.Eval.status = Eval.Budget_exhausted)

(* The [closed] promise only skips firings: after an install, a pass that
   skips the rules the store is closed under derives the same facts, in the
   same order, as a pass that fires everything. *)
let test_eval_closed_skips_only_dead_firings () =
  let ix = Eval.index_create () in
  List.iter
    (fun r -> Eval.index_add ix (Parser.parse_rule r))
    [ "t(X, Y) :- e(X, Y)."; "t(X, Z) :- e(X, Y), t(Y, Z)." ];
  let store = Fact_store.create () in
  List.iter
    (fun (a, b) -> ignore (Fact_store.add store (Atom.make "e" [ Term.const a; Term.const b ])))
    [ ("a", "b"); ("b", "c"); ("c", "d") ];
  let pass ~closed store =
    let seen = ref [] in
    let r =
      Eval.seminaive_indexed ~options:Eval.default_options ~init_delta:None
        ~on_new:(fun a -> seen := Atom.to_string a :: !seen)
        ~closed ix store
    in
    (List.rev !seen, r.Eval.stats.Eval.derivations)
  in
  ignore (pass ~closed:0 store);
  (* a redundant rule: nothing new, and only its own firings run *)
  let closed = Eval.index_size ix in
  Eval.index_add ix (Parser.parse_rule "t(X, Z) :- t(X, Y), e(Y, Z).");
  let full, full_fired = pass ~closed:0 (Fact_store.copy store) in
  let skipped, skipped_fired = pass ~closed (Fact_store.copy store) in
  Alcotest.(check (list string)) "nothing new either way" [] (full @ skipped);
  Alcotest.(check bool) "fewer firings" true (skipped_fired < full_fired);
  (* a productive rule: every rule fires again from its first new fact *)
  let closed = Eval.index_size ix in
  Eval.index_add ix (Parser.parse_rule "s(X) :- t(X, d), t(a, X).");
  let full, _ = pass ~closed:0 (Fact_store.copy store) in
  let skipped, _ = pass ~closed (Fact_store.copy store) in
  Alcotest.(check (list string)) "same facts, same order" full skipped;
  Alcotest.(check (list string)) "the new rule's facts" [ "s(b)"; "s(c)" ]
    (List.sort String.compare skipped)

(* ------------------------------------------------------------------ *)
(* Compiled joins (Eval's per-(rule, delta position) plans)           *)
(* ------------------------------------------------------------------ *)

(* The sorted facts of [rel] after evaluating [text] from an empty store. *)
let derived ?(eval = fun p s -> ignore (Eval.seminaive p s)) text rel =
  let store = Fact_store.create () in
  eval (Parser.parse_program text) store;
  List.map Atom.to_string (Fact_store.facts_of store (Symbol.intern rel))
  |> List.sort String.compare

let strings = Alcotest.(list string)

let test_plan_repeated_vars () =
  Alcotest.check strings "within one atom" [ "r(a)"; "r(b)" ]
    (derived "e(a, a). e(a, b). e(b, b). e(c, d). r(X) :- e(X, X)." "r");
  (* the probe's key covers X, the repeated Y is checked on each candidate *)
  Alcotest.check strings "within a probe" [ "s(a, c)" ]
    (derived
       "e(a, b). e(a, c). e(a, d). t(b, c, c). t(b, d, c). s(X, Z) :- e(X, Y), t(Y, Z, Z), e(X, Z)."
       "s")

let test_plan_compound_patterns () =
  Alcotest.check strings "compound scan" [ "q(a)"; "q(b)" ]
    (derived "p(f(a), a). p(f(a), b). p(g(c), c). p(f(b), b). q(X) :- p(f(X), X)." "q");
  (* the probe key holds f(X), built from the slots *)
  Alcotest.check strings "compound key" [ "r(a, b)" ]
    (derived "e(a, b). e(b, a). p(f(a), b). p(f(a), a). r(X, Y) :- e(X, Y), p(f(X), Y)." "r");
  (* a compound at a non-key position binds its variables *)
  Alcotest.check strings "compound binds" [ "r(a, c)" ]
    (derived "e(a). p(a, g(c, c)). p(a, g(c, d)). p(a, h(d, d)). r(X, Y) :- e(X), p(X, g(Y, Y))." "r")

let test_plan_deferred_constraints () =
  let stratified p s = ignore (Eval.stratified p s) in
  (* [not b(X)] and [X != Y] come before anything binds them: with
     negation in the body the order is static, so both wait for the end *)
  Alcotest.check strings "negation and disequality deferred" [ "r(a, c)"; "r(c, a)" ]
    (derived ~eval:stratified
       "a(a). a(b). a(c). b(b). r(X, Y) :- not b(X), X != Y, a(X), a(Y), not b(Y)." "r");
  (* without negation a disequality is checked right after its step *)
  Alcotest.check strings "disequality after its step" [ "r(a, b)"; "r(b, a)" ]
    (derived "a(a). a(b). r(X, Y) :- X != Y, a(X), a(Y)." "r")

let test_plan_never_checkable () =
  (* [Z] is bound by no atom: the rule never fires, but its probes run *)
  let p = Parser.parse_program "a(x). a(y). b(x). r(X) :- a(X), b(X), X != Z." in
  let store = Fact_store.create () in
  let probes = Obs.Metrics.counter_value "fact_store.probes" in
  let res = Eval.naive p store in
  Alcotest.(check int) "no firing" 0 res.Eval.stats.Eval.derivations;
  Alcotest.(check int) "nothing derived" 0 (Fact_store.count_rel store (Symbol.intern "r"));
  Alcotest.(check bool) "probes still counted" true
    (Obs.Metrics.counter_value "fact_store.probes" > probes)

let test_plan_unbound_head_var () =
  let ix = Eval.index_create () in
  (* compiling is lazy: adding the unsafe rule does not fail *)
  Eval.index_add ix (Parser.parse_rule "r(X, Y) :- a(X).");
  let store = Fact_store.create () in
  ignore (Fact_store.add store (Atom.make "a" [ Term.const "c" ]));
  Alcotest.check_raises "fails at firing"
    (Invalid_argument "Eval: rule r(X, Y) :- a(X). derived non-ground fact r(c, Y)")
    (fun () ->
      ignore
        (Eval.seminaive_indexed ~options:Eval.default_options ~init_delta:None
           ~on_new:ignore ~closed:0 ix store))

let test_plan_many_vars () =
  (* 21 variables, more than the shared slot constructors *)
  let n = 20 in
  let v i = Printf.sprintf "X%d" i in
  let body = List.init n (fun i -> Printf.sprintf "e(%s, %s)" (v i) (v (i + 1))) in
  let text =
    String.concat " " (List.init (n + 5) (fun i -> Printf.sprintf "e(n%d, n%d)." i (i + 1)))
    ^ Printf.sprintf " r(%s, %s) :- %s, %s != %s." (v 0) (v n) (String.concat ", " body) (v 0)
        (v 17)
  in
  Alcotest.check strings "chains of 20 edges"
    (List.sort String.compare (List.init 6 (fun i -> Printf.sprintf "r(n%d, n%d)" i (i + n))))
    (derived text "r")

let test_plan_lazy () =
  let compiled () = Obs.Metrics.counter_value "eval.plans_compiled" in
  let ix = Eval.index_create () in
  let c0 = compiled () in
  Eval.index_add ix (Parser.parse_rule "t(X, Z) :- e(X, Y), f(Y, Z).");
  Alcotest.(check int) "adding compiles nothing" c0 (compiled ());
  let store = Fact_store.create () in
  let fact rel a b = Atom.make rel [ Term.const a; Term.const b ] in
  let pass delta =
    List.iter (fun a -> ignore (Fact_store.add store a)) delta;
    ignore
      (Eval.seminaive_indexed ~options:Eval.default_options ~init_delta:(Some delta)
         ~on_new:ignore ~closed:0 ix store)
  in
  pass [ fact "e" "a" "b" ];
  Alcotest.(check int) "only the e position compiles" (c0 + 1) (compiled ());
  pass [ fact "e" "b" "c" ];
  Alcotest.(check int) "and is reused" (c0 + 1) (compiled ());
  pass [ fact "f" "b" "d" ];
  Alcotest.(check int) "the f position on its first firing" (c0 + 2) (compiled ());
  Alcotest.(check bool) "derived through it" true (Fact_store.mem store (fact "t" "a" "d"))

let test_eval_run_wrapper () =
  let p = Parser.parse_program "tc(X, Y) :- e(X, Y). e(a, b)." in
  let _, res, answers = Eval.run ~strategy:`Naive p (Atom.make "tc" [ Term.var "X"; Term.var "Y" ]) in
  Alcotest.(check bool) "fixpoint" true (res.Eval.status = Eval.Fixpoint);
  Alcotest.(check int) "one answer" 1 (List.length answers)

(* ------------------------------------------------------------------ *)
(* dDatalog layer                                                     *)
(* ------------------------------------------------------------------ *)

open Dqsq

let test_names_not_distinct () =
  let p = Dprogram.parse "R@a(X) :- E@a(X). R@b(X) :- E@b(X)." in
  Alcotest.(check bool) "same name at two peers" false
    (Dprogram.names_distinct_across_peers p)

let test_drule_peers () =
  let p = Dprogram.parse "Q@r(X) :- S@s(X), T@t(X), L@r(X)." in
  let r = List.hd (Dprogram.rules p) in
  Alcotest.(check string) "site" "r" (Drule.site r);
  Alcotest.(check (list string)) "body peers" [ "r"; "s"; "t" ] (Drule.body_peers r);
  Alcotest.(check bool) "not local" false (Drule.is_local r)

let test_message_wire () =
  let fact = Message.Fact (Atom.make "r" [ Term.app "f" [ Term.const "a" ] ]) in
  Alcotest.(check bool) "is fact" true (Message.is_fact fact);
  Alcotest.(check bool) "batch of facts is fact" true
    (Message.is_fact (Message.Batch [ fact; fact ]));
  Alcotest.(check bool) "subscribe is control" true
    (Message.is_control (Message.Subscribe (Symbol.intern "r")));
  (* encode/decode through one connection: physically identical result,
     and a repeated spine costs fewer bytes the second time *)
  let e = Wire.encoder () and d = Wire.decoder () in
  let f1 = Wire.encode_message e fact in
  Alcotest.(check bool) "roundtrip equal" true
    (Message.equal fact (Wire.decode_message d f1));
  let f2 = Wire.encode_message e fact in
  Alcotest.(check bool) "second encode is a back-reference" true
    (String.length f2 < String.length f1);
  Alcotest.(check bool) "decoded again, still equal" true
    (Message.equal fact (Wire.decode_message d f2));
  (* corrupt frames are rejected *)
  (match Wire.decode_message (Wire.decoder ()) "\255\255" with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt frame accepted")

let test_runtime_subscribe () =
  let rt = Runtime.create "p" in
  let rel = Symbol.intern "r@p" in
  ignore (Runtime.add_fact rt (Atom.cmake rel [ Term.const "a" ]));
  let snapshot = Runtime.subscribe rt rel ~dst:"q" in
  Alcotest.(check int) "snapshot has the existing fact" 1 (List.length snapshot);
  Alcotest.(check (list string)) "subscriber recorded" [ "q" ] (Runtime.subscribers_of rt rel);
  Alcotest.(check int) "re-subscribe is empty" 0
    (List.length (Runtime.subscribe rt rel ~dst:"q"))

let test_runtime_install_idempotent () =
  let rt = Runtime.create "p" in
  let r = Parser.parse_rule "a(X) :- b(X)." in
  Alcotest.(check bool) "first install" true (Runtime.install rt r);
  Alcotest.(check bool) "second install" false (Runtime.install rt r);
  Alcotest.(check int) "one rule" 1 (List.length (Runtime.rules rt))

(* Structural dedup: the same rule rebuilt from scratch is a duplicate, a
   variable renaming or a different literal is not. *)
let test_runtime_install_structural () =
  let rt = Runtime.create "p" in
  let install s = Runtime.install rt (Parser.parse_rule s) in
  Alcotest.(check bool) "first" true (install "a(X) :- b(X), X != c.");
  Alcotest.(check bool) "re-parsed: duplicate" false (install "a(X) :- b(X), X != c.");
  let rebuilt =
    Rule.make
      (Atom.make "a" [ Term.var "X" ])
      [ Rule.Pos (Atom.make "b" [ Term.var "X" ]); Rule.Neq (Term.var "X", Term.const "c") ]
  in
  Alcotest.(check bool) "rebuilt by hand: duplicate" false (Runtime.install rt rebuilt);
  Alcotest.(check bool) "renamed variable: distinct" true (install "a(Y) :- b(Y), Y != c.");
  Alcotest.(check bool) "other constant: distinct" true (install "a(X) :- b(X), X != d.");
  Alcotest.(check bool) "no constraint: distinct" true (install "a(X) :- b(X).");
  Alcotest.(check (list string)) "install order kept"
    [ "a(X) :- b(X), X != c."; "a(Y) :- b(Y), Y != c."; "a(X) :- b(X), X != d.";
      "a(X) :- b(X)." ]
    (List.map Rule.to_string (Runtime.rules rt))

let tc_rules = [ "t(X, Y) :- e(X, Y)."; "t(X, Z) :- e(X, Y), t(Y, Z)."; "u(X) :- t(X, X)." ]

let tc_facts =
  List.map
    (fun (a, b) -> Atom.make "e" [ Term.const a; Term.const b ])
    [ ("a", "b"); ("b", "c"); ("c", "a"); ("c", "d") ]

(* A fact added without an evaluation, then an unrelated install: the
   evaluation the install triggers must still push that fact through the
   rules installed before it (the Batch case of a fact followed by a
   delegation in dQSQ). *)
let test_runtime_unevaluated_fact_then_install () =
  let rt = Runtime.create "p" in
  ignore (Runtime.install rt (Parser.parse_rule "b(X) :- a(X)."));
  Alcotest.(check int) "nothing to derive yet" 0 (List.length (Runtime.evaluate rt));
  Alcotest.(check bool) "fact is new" true (Runtime.add_fact rt (Atom.make "a" [ Term.const "1" ]));
  ignore (Runtime.install rt (Parser.parse_rule "d(X) :- c(X)."));
  let derived = List.map (fun (a, _) -> Atom.to_string a) (Runtime.evaluate rt) in
  Alcotest.(check (list string)) "old rule fired on the new fact" [ "b(1)" ] derived

(* Rules installed and facts added in any order reach the same store as a
   from-scratch evaluation. *)
let test_runtime_order_independent () =
  let expected =
    let store = Fact_store.create () in
    List.iter (fun a -> ignore (Fact_store.add store a)) tc_facts;
    ignore (Eval.seminaive (Program.make (List.map Parser.parse_rule tc_rules)) store);
    Fact_store.to_sorted_strings store
  in
  let install_all rt =
    List.iter
      (fun r -> if Runtime.install rt (Parser.parse_rule r) then ignore (Runtime.evaluate rt))
      tc_rules
  in
  let add_all rt =
    List.iter
      (fun a -> if Runtime.add_fact rt a then ignore (Runtime.evaluate ~delta:[ a ] rt))
      tc_facts
  in
  let rules_first = Runtime.create "p" and facts_first = Runtime.create "p" in
  install_all rules_first;
  add_all rules_first;
  add_all facts_first;
  install_all facts_first;
  (* interleaved: half the facts, the rules, the rest of the facts *)
  let mixed = Runtime.create "p" in
  List.iteri (fun i a -> if i < 2 then ignore (Runtime.add_fact mixed a)) tc_facts;
  install_all mixed;
  List.iteri
    (fun i a ->
      if i >= 2 && Runtime.add_fact mixed a then ignore (Runtime.evaluate ~delta:[ a ] mixed))
    tc_facts;
  List.iter
    (fun (name, rt) ->
      Alcotest.(check (list string)) name expected
        (Fact_store.to_sorted_strings (Runtime.store rt)))
    [ ("rules first", rules_first); ("facts first", facts_first); ("interleaved", mixed) ]

(* ------------------------------------------------------------------ *)
(* Canon                                                              *)
(* ------------------------------------------------------------------ *)

open Diagnosis

let test_canon_roundtrip () =
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in
  let u = Petri.Unfolding.unfold net in
  List.iter
    (fun e ->
      let t = Canon.term_of_name e.Petri.Unfolding.e_name in
      Alcotest.(check bool) "event term recognized" true (Canon.is_event_term t);
      Alcotest.(check int) "name/term roundtrip" 0
        (Petri.Unfolding.name_compare e.Petri.Unfolding.e_name (Canon.name_of_term t));
      Alcotest.(check (option string)) "transition recovered"
        (Some e.Petri.Unfolding.e_trans)
        (Canon.transition_of_event_term t))
    (Petri.Unfolding.events u);
  List.iter
    (fun c ->
      let t = Canon.term_of_name c.Petri.Unfolding.c_name in
      Alcotest.(check bool) "cond term recognized" true (Canon.is_cond_term t);
      Alcotest.(check int) "roundtrip" 0
        (Petri.Unfolding.name_compare c.Petri.Unfolding.c_name (Canon.name_of_term t)))
    (Petri.Unfolding.conds u);
  match Canon.name_of_term (Term.const "zzz") with
  | exception Canon.Not_a_node _ -> ()
  | _ -> Alcotest.fail "junk term accepted as node"

let test_canon_depth_agreement () =
  (* Term.depth of the canonical term == Unfolding.name_depth *)
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in
  let u = Petri.Unfolding.unfold net in
  List.iter
    (fun e ->
      Alcotest.(check int) "depth agreement"
        (Petri.Unfolding.name_depth e.Petri.Unfolding.e_name)
        (Term.depth (Canon.term_of_name e.Petri.Unfolding.e_name)))
    (Petri.Unfolding.events u)

(* ------------------------------------------------------------------ *)
(* Supervisor / Encode program shapes                                 *)
(* ------------------------------------------------------------------ *)

let test_supervisor_shape () =
  let a = Petri.Alarm.make [ ("x", "p1"); ("y", "p2"); ("z", "p1") ] in
  let sup = Supervisor.build ~place_peers:[ "p1"; "p2"; "p3" ] a in
  Alcotest.(check (list string)) "sequence peers" [ "p1"; "p2" ]
    sup.Supervisor.sequence_peers;
  Alcotest.(check bool) "bounded" false sup.Supervisor.unbounded;
  (* alarmSeq: 3 transitions; accept: one per peer *)
  let rels l = List.length (List.filter (fun (d : Datom.t) -> d.Datom.rel = l) sup.Supervisor.facts) in
  Alcotest.(check int) "alarmSeq facts" 3 (rels "alarmSeq");
  Alcotest.(check int) "accept facts" 2 (rels "accept");
  (* notParent base rules range over all place peers *)
  let base_notparent =
    List.filter
      (fun r ->
        r.Drule.head.Datom.rel = "notParent"
        && (match r.Drule.head.Datom.args with
           | [ id; _ ] -> Term.equal id Supervisor.initial_id
           | _ -> false))
      (Dprogram.rules sup.Supervisor.program)
  in
  Alcotest.(check int) "notParent base per place peer" 3 (List.length base_notparent)

let test_encode_shape () =
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in
  let prog = Encode.unfolding_program net in
  (* root facts: one places + one map per marked place *)
  let marked = Petri.Net.String_set.cardinal (Petri.Net.marking net) in
  let facts =
    List.filter (fun r -> r.Drule.body = []) (Dprogram.rules prog)
  in
  Alcotest.(check int) "root facts" (2 * marked) (List.length facts);
  (* every rule's site is a net peer *)
  Alcotest.(check bool) "rule sites are net peers" true
    (List.for_all
       (fun r -> List.mem (Drule.site r) (Petri.Net.peers net))
       (Dprogram.rules prog));
  Alcotest.(check bool) "range restricted" true
    (Result.is_ok (Dprogram.check_range_restricted prog))

let test_encode_rejects_nonbinary () =
  let net = Petri.Examples.running_example () in
  match Encode.unfolding_program net with
  | exception Encode.Unsupported _ -> ()
  | _ -> Alcotest.fail "non-binary net accepted"

let test_producer_peers () =
  let net = Petri.Examples.running_example () in
  (* place 5 is produced by ii (peer p2), not marked *)
  Alcotest.(check (list string)) "producers of 5" [ "p2" ] (Encode.producer_peers net "5");
  (* place 7 is marked (peer p2) and has no producer transitions *)
  Alcotest.(check (list string)) "producers of 7" [ "p2" ] (Encode.producer_peers net "7");
  (* place 2 is produced by i (peer p1) *)
  Alcotest.(check (list string)) "producers of 2" [ "p1" ] (Encode.producer_peers net "2")

let test_paper_encoding_range_restricted () =
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in
  let prog = Encode_paper.unfolding_program net in
  Alcotest.(check bool) "range restricted" true
    (Result.is_ok (Dprogram.check_range_restricted prog));
  Alcotest.(check bool) "bigger than the co encoding" true
    (Dprogram.size prog > Dprogram.size (Encode.unfolding_program net))

(* ------------------------------------------------------------------ *)
(* Pattern validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_pattern_validation () =
  (match Pattern.make ~states:[ "a" ] ~initial:[ "b" ] ~accepting:[] ~transitions:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown initial accepted");
  match
    Pattern.make ~states:[ "a" ] ~initial:[ "a" ] ~accepting:[ "a" ]
      ~transitions:[ ("a", "x", "zz") ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown transition target accepted"

let suite =
  [ ( "term",
      [ Alcotest.test_case "hash-consing identity" `Quick test_term_hashcons;
        Alcotest.test_case "cached fields" `Quick test_term_cached_fields;
        Alcotest.test_case "subst sharing" `Quick test_term_subst_sharing;
        Alcotest.test_case "weak collection" `Quick test_term_weak_collection;
        Alcotest.test_case "parallel interning" `Quick test_term_parallel_intern ] );
    ( "symbol-subst",
      [ Alcotest.test_case "symbol" `Quick test_symbol;
        Alcotest.test_case "subst compose" `Quick test_subst_compose;
        Alcotest.test_case "subst restrict" `Quick test_subst_restrict ] );
    ( "fact-store",
      [ Alcotest.test_case "basics" `Quick test_store_basics;
        Alcotest.test_case "indexing" `Quick test_store_indexing;
        Alcotest.test_case "copy isolation" `Quick test_store_copy_isolated;
        Alcotest.test_case "dead stores freed promptly" `Quick test_store_finalised_promptly;
        Alcotest.test_case "function terms" `Quick test_store_function_terms ] );
    ( "adornment",
      [ Alcotest.test_case "binding patterns" `Quick test_adornment;
        Alcotest.test_case "classify" `Quick test_adornment_classify ] );
    ( "rule-program-eval",
      [ Alcotest.test_case "freshen" `Quick test_rule_freshen;
        Alcotest.test_case "partition facts" `Quick test_program_partition_facts;
        Alcotest.test_case "max rounds" `Quick test_eval_max_rounds;
        Alcotest.test_case "closed rules skipped, same facts" `Quick
          test_eval_closed_skips_only_dead_firings;
        Alcotest.test_case "run wrapper" `Quick test_eval_run_wrapper ] );
    ( "compiled joins",
      [ Alcotest.test_case "repeated variables" `Quick test_plan_repeated_vars;
        Alcotest.test_case "compound patterns" `Quick test_plan_compound_patterns;
        Alcotest.test_case "deferred constraints" `Quick test_plan_deferred_constraints;
        Alcotest.test_case "never-checkable constraint" `Quick test_plan_never_checkable;
        Alcotest.test_case "unbound head variable" `Quick test_plan_unbound_head_var;
        Alcotest.test_case "more variables than shared slots" `Quick test_plan_many_vars;
        Alcotest.test_case "plans compile lazily" `Quick test_plan_lazy ] );
    ( "ddatalog",
      [ Alcotest.test_case "name distinctness" `Quick test_names_not_distinct;
        Alcotest.test_case "rule peers" `Quick test_drule_peers;
        Alcotest.test_case "message wire codec" `Quick test_message_wire;
        Alcotest.test_case "runtime subscribe" `Quick test_runtime_subscribe;
        Alcotest.test_case "runtime install" `Quick test_runtime_install_idempotent;
        Alcotest.test_case "runtime structural dedup" `Quick test_runtime_install_structural;
        Alcotest.test_case "runtime unevaluated fact, then install" `Quick
          test_runtime_unevaluated_fact_then_install;
        Alcotest.test_case "runtime order independence" `Quick test_runtime_order_independent ] );
    ( "canon",
      [ Alcotest.test_case "roundtrip" `Quick test_canon_roundtrip;
        Alcotest.test_case "depth agreement" `Quick test_canon_depth_agreement ] );
    ( "program-shapes",
      [ Alcotest.test_case "supervisor" `Quick test_supervisor_shape;
        Alcotest.test_case "encode" `Quick test_encode_shape;
        Alcotest.test_case "encode rejects non-binary" `Quick test_encode_rejects_nonbinary;
        Alcotest.test_case "producer peers" `Quick test_producer_peers;
        Alcotest.test_case "paper encoding checks" `Quick test_paper_encoding_range_restricted ] );
    ( "pattern-validation",
      [ Alcotest.test_case "rejects unknown states" `Quick test_pattern_validation ] ) ]

let () = Alcotest.run "units" suite
