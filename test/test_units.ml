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
  (* N domains race to intern the same deep Skolem spines; the intern
     table must still hand out one physical representative per structure,
     so the lists built on different domains are pointwise [==] — to each
     other and to the main domain's copy. Each domain also interns terms
     no other domain builds. *)
  let domains = 4 and variants = 32 and depth = 48 in
  let n = variants * 4 in
  let build i =
    Term.app "par" [ deep_term depth; Term.const (string_of_int (i mod variants)) ]
  in
  let own d i = Term.app "own" [ Term.const (Printf.sprintf "%d/%d" d i) ] in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () -> (List.init n build, List.init n (own d))))
  in
  let per_domain = List.map Domain.join workers in
  let reference = List.init n build in
  List.iteri
    (fun d (ts, _) ->
      List.iteri
        (fun i t ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d, term %d shares the representative" d i)
            true
            (t == List.nth reference i))
        ts)
    per_domain;
  (* [Term.compare] orders by tag, so no two structures interned
     concurrently, shared or not, may carry the same tag *)
  let by_tag = Hashtbl.create 1024 and clashes = ref 0 in
  let rec visit t =
    match Hashtbl.find_opt by_tag (Term.tag t) with
    | Some u -> if u != t then incr clashes
    | None -> (
      Hashtbl.add by_tag (Term.tag t) t;
      match Term.view t with
      | Term.App (_, args) -> List.iter visit args
      | Term.Const _ | Term.Var _ -> ())
  in
  List.iter (fun (ts, mine) -> List.iter visit ts; List.iter visit mine) per_domain;
  Alcotest.(check bool) "every own term visited" true
    (Hashtbl.length by_tag >= 2 * domains * n);
  Alcotest.(check int) "tags are pairwise distinct" 0 !clashes

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
  Alcotest.(check int) "two matches" 2 (List.length (Eval.answers store pattern));
  add "a" "d";
  Alcotest.(check int) "index maintained on insert" 3 (List.length (Eval.answers store pattern));
  (* second-position index *)
  let pattern2 = Atom.make "e" [ Term.var "X"; Term.const "y" ] in
  Alcotest.(check int) "one match on pos 2" 1 (List.length (Eval.answers store pattern2))

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
  match Eval.answers ~pattern store (Atom.make "x" [ Term.var "X" ]) with
  | [ a ] ->
    Alcotest.check term "X bound inside structure" (Term.app "f" [ Term.const "i" ])
      (List.hd a.Atom.args)
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
  let store = Fact_store.create () in
  let res = Eval.naive p store in
  let answers = Eval.answers store (Atom.make "tc" [ Term.var "X"; Term.var "Y" ]) in
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
  (* encode/decode through one connection: a repeated spine costs fewer
     bytes the second time, and each decoded copy is the message itself,
     terms physically equal: on the connection that sent [fact], it
     re-encodes to exactly [fact]'s all-back-reference frame (a term with
     another tag would be defined anew) *)
  let e = Wire.encoder () and d = Wire.decoder () in
  let f1 = Wire.encode_message e fact in
  let m1 = Wire.decode_message d f1 in
  let f2 = Wire.encode_message e fact in
  Alcotest.(check bool) "second encode is a back-reference" true
    (String.length f2 < String.length f1);
  Alcotest.(check string) "roundtrip equal" f2 (Wire.encode_message e m1);
  Alcotest.(check string) "decoded again, still equal" f2
    (Wire.encode_message e (Wire.decode_message d f2));
  (* corrupt frames are rejected *)
  (match Wire.decode_message (Wire.decoder ()) "\255\255" with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt frame accepted")

(* Delegations through one connection. A delegation carries neither its
   dedup key nor its [sup_{i,j-1}] relation, so the decoded copy must
   still derive the sender's key; and every name (origin, adornment,
   owner, located relations and peers) crosses the connection once. *)
let delegation ~lit_index remaining =
  let v = Term.var in
  { Message.d_origin_rel = "reach_rel@origin_peer"; d_origin_ad = "bf"; d_rule_index = 2;
    d_pos = 1; d_lit_index = lit_index; d_prev_args = [ v "Xv"; v "Yv" ];
    d_prev_owner = "origin_peer"; d_remaining = remaining;
    d_pending = [ (v "Xv", Term.const "c") ];
    d_head = Datom.make ~rel:"reach_rel" ~peer:"origin_peer" [ v "Xv"; v "Zv" ] }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_delegation_wire () =
  let lit rel = Drule.Pos (Datom.make ~rel ~peer:"remote_peer" [ Term.var "Yv"; Term.var "Zv" ]) in
  let d1 = delegation ~lit_index:1 [ lit "edge_rel"; Drule.Neq (Term.var "Zv", Term.const "c") ] in
  let d2 = delegation ~lit_index:3 [ lit "edge_rel" ] in
  let d3 = delegation ~lit_index:4 [] in
  Alcotest.(check string) "key of a remainder" "reach_rel@origin_peer^bf/2@1" (Message.key d1);
  Alcotest.(check string) "key of an answer" "reach_rel@origin_peer^bf/2@answer" (Message.key d3);
  let e = Wire.encoder () and d = Wire.decoder () in
  let frames = List.map (fun m -> Wire.encode_message e (Message.Delegate m)) [ d1; d2; d3 ] in
  List.iter2
    (fun (sent : Message.delegation) frame ->
      match Wire.decode_message d frame with
      | Message.Delegate got ->
        Alcotest.(check string) "derived key" (Message.key sent) (Message.key got);
        Alcotest.(check string) "origin" sent.Message.d_origin_rel got.Message.d_origin_rel;
        Alcotest.(check string) "adornment" sent.Message.d_origin_ad got.Message.d_origin_ad;
        Alcotest.(check string) "owner" sent.Message.d_prev_owner got.Message.d_prev_owner;
        Alcotest.(check (list int)) "positions"
          [ sent.Message.d_rule_index; sent.Message.d_pos; sent.Message.d_lit_index ]
          [ got.Message.d_rule_index; got.Message.d_pos; got.Message.d_lit_index ];
        Alcotest.(check bool) "sup arguments, physically" true
          (List.for_all2 ( == ) sent.Message.d_prev_args got.Message.d_prev_args);
        Alcotest.(check bool) "head" true (Datom.equal sent.Message.d_head got.Message.d_head);
        let rest (m : Message.delegation) =
          Drule.to_string (Drule.make m.Message.d_head m.Message.d_remaining)
        in
        Alcotest.(check string) "remaining" (rest sent) (rest got);
        (* the decoded copy re-encodes to the sender's all-backref frame *)
        Alcotest.(check string) "re-encodes alike"
          (Wire.encode_message e (Message.Delegate sent))
          (Wire.encode_message e (Message.Delegate got))
      | _ -> Alcotest.fail "not a delegation")
    [ d1; d2; d3 ] frames;
  let f1 = List.hd frames and f2 = List.nth frames 1 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " defined in the first frame") true (contains f1 name);
      Alcotest.(check bool) (name ^ " a backref in the second") false (contains f2 name))
    [ "reach_rel@origin_peer"; "origin_peer"; "remote_peer"; "edge_rel"; "Xv" ];
  (* sent again, a delegation is one byte per field: its tag, origin and
     adornment, three positions, the sup arguments (count, two), owner, the
     remainder (count; a literal's tag, two names, count, two arguments),
     the pending pair (count, two) and the head (two names, count, two
     arguments); the bound variables are the sup arguments' *)
  let body = String.length (Wire.encode_message e (Message.Delegate d2)) - 3 in
  Alcotest.(check int) "one byte per repeated name and term"
    (1 + 2 + 3 + 3 + 1 + 7 + 3 + 5) body

(* A hostile delegation frame raises [Wire.Corrupt], and only that. *)
let test_delegation_wire_corrupt () =
  let frame body =
    let buf = Buffer.create 16 in
    Wire.put_uvarint buf (String.length body + 2);
    Buffer.add_string buf "\001\000";
    Buffer.add_string buf body;
    Buffer.contents buf
  in
  let expect_corrupt name s =
    match Wire.decode_message (Wire.decoder ()) s with
    | exception Wire.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: %s, not Wire.Corrupt" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" name
  in
  expect_corrupt "forged name id" (frame "\003\100");
  expect_corrupt "name id past the table" (frame "\003\000\001R\002");
  expect_corrupt "truncated name" (frame "\003\000\010abc");
  (* a frame of backrefs to names its decoder never saw: a delegation
     with no terms, sent twice on one connection, the second frame
     decoded alone *)
  let e = Wire.encoder () in
  let bare =
    Message.Delegate
      { (delegation ~lit_index:0 []) with
        Message.d_prev_args = []; d_pending = [];
        d_head = Datom.make ~rel:"reach_rel" ~peer:"origin_peer" [] }
  in
  ignore (Wire.encode_message e bare);
  expect_corrupt "names never defined" (Wire.encode_message e bare);
  (* origin "R@p", adornment "b", positions 0 0 0, no sup argument,
     owner "p", no remainder or pending pair, then a head whose relation
     is name 8 of a table of three *)
  expect_corrupt "head name past the table"
    (frame "\003\000\003R@p\000\001b\000\000\000\000\000\001p\000\000\009")

(* A located supplementary relation crosses a channel as its parts. [p]
   owns [sup]: its facts go p -> q and subscriptions to it q -> p, so the
   channel's ends give the owner and neither frame carries the name. *)
let sup_rel () =
  Qsq_engine.sup_at ~rel:"reach_rel@origin_peer" ~ad:"bf" ~rule_index:1 ~pos:2 ~peer:"p"

let test_sup_wire () =
  let sup = sup_rel () in
  let fact = Message.Fact (Atom.cmake sup [ Term.const "a" ]) in
  let roundtrip ~src ~dst m rel_of =
    let e = Wire.encoder ~src ~dst () and d = Wire.decoder ~src ~dst () in
    let first = Wire.encode_message e m in
    Alcotest.(check bool) "first use: the parts, not the name" false
      (contains first (Symbol.name sup));
    Alcotest.(check bool) "first use: origin through the names table" true
      (contains first "reach_rel@origin_peer");
    Alcotest.(check bool) "decoded relation, physically" true
      (rel_of (Wire.decode_message d first) == sup);
    let second = Wire.encode_message e m in
    Alcotest.(check bool) "decoded again, physically" true
      (rel_of (Wire.decode_message d second) == sup);
    second
  in
  let fact_rel = function Message.Fact a -> a.Atom.rel | _ -> Alcotest.fail "not a fact" in
  let sub_rel = function Message.Subscribe s -> s | _ -> Alcotest.fail "not a subscription" in
  (* a frame is its length, version, kind and message tag, then the
     relation: after its first use, one varint *)
  Alcotest.(check int) "second subscription: one varint" 5
    (String.length (roundtrip ~src:"q" ~dst:"p" (Message.Subscribe sup) sub_rel));
  (* a fact then adds its argument count and a term backref *)
  Alcotest.(check int) "second fact: one varint" 7
    (String.length (roundtrip ~src:"p" ~dst:"q" fact fact_rel))

(* Parts are never longer than the name they replace; a relation that is
   not a supplementary relation of the channel's owner goes by its name. *)
let test_sup_wire_sizes () =
  let plain m = Wire.encode_message (Wire.encoder ()) m in
  List.iter
    (fun (rel, ad, rule_index, pos) ->
      let sup = Qsq_engine.sup_at ~rel ~ad ~rule_index ~pos ~peer:"p" in
      let m = Message.Subscribe sup in
      let parts = Wire.encode_message (Wire.encoder ~src:"q" ~dst:"p" ()) m in
      Alcotest.(check bool) (Symbol.name sup ^ ": parts not longer") true
        (String.length parts <= String.length (plain m));
      Alcotest.(check string) (Symbol.name sup ^ ": to a non-owner, by name") (plain m)
        (Wire.encode_message (Wire.encoder ~src:"p" ~dst:"q" ()) m))
    [ ("r@p", "b", 0, 0); ("r@p", "", 0, 1); ("r@p", "bf", 200, 300);
      ("a_long_relation_name@a_long_peer_name", "bbffbb", 3, 1) ];
  let r = Symbol.intern "plain_rel@p" in
  List.iter
    (fun m ->
      Alcotest.(check string) "a plain relation goes by its name" (plain m)
        (Wire.encode_message (Wire.encoder ~src:"p" ~dst:"q" ()) m))
    [ Message.Subscribe r; Message.Fact (Atom.cmake r [ Term.const "a" ]) ]

(* Hostile parts raise [Wire.Corrupt] and intern nothing. *)
let test_sup_wire_corrupt () =
  ignore (sup_rel ());
  (* a subscription q -> p whose relation is parts (tag 1, then 1) *)
  let frame parts =
    let body = "\001\000\001\001" ^ parts in
    let buf = Buffer.create 16 in
    Wire.put_uvarint buf (String.length body);
    Buffer.add_string buf body;
    Buffer.contents buf
  in
  let symbols = Symbol.count () in
  let expect_corrupt ?(d = Wire.decoder ~src:"q" ~dst:"p" ()) name s =
    match Wire.decode_message d s with
    | exception Wire.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: %s, not Wire.Corrupt" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" name
  in
  let name s = "\000" ^ String.make 1 (Char.chr (String.length s)) ^ s in
  let origin = name "reach_rel@origin_peer" and ad = name "bf" in
  (* the well-formed record decodes *)
  (match Wire.decode_message (Wire.decoder ~src:"q" ~dst:"p" ()) (frame (origin ^ ad ^ "\001\002")) with
  | Message.Subscribe s -> Alcotest.(check bool) "well-formed parts" true (s == sup_rel ())
  | _ -> Alcotest.fail "not a subscription");
  expect_corrupt "truncated parts" (frame (origin ^ ad ^ "\001"));
  expect_corrupt "truncated name" (frame (String.sub origin 0 5));
  expect_corrupt "names id out of range" (frame ("\005" ^ ad ^ "\001\002"));
  expect_corrupt "parts no sup_at built" (frame (name "never_built@nowhere" ^ ad ^ "\001\002"));
  expect_corrupt "another position" (frame (origin ^ ad ^ "\001\003"));
  expect_corrupt "another owner" ~d:(Wire.decoder ~src:"p" ~dst:"q" ())
    (frame (origin ^ ad ^ "\001\002"));
  expect_corrupt "parts off a channel" ~d:(Wire.decoder ()) (frame (origin ^ ad ^ "\001\002"));
  Alcotest.(check int) "no symbol interned" symbols (Symbol.count ())

(* Two or more consecutive facts over one relation and one arity cross a
   batch as one run: the relation, the arity and the count once, then the
   tuples. [p] owns [sup], so its facts go p -> q. *)
let test_fact_runs () =
  let sup = sup_rel () and plain = Symbol.intern "plain_rel@p" in
  let c i = Term.const (Printf.sprintf "k%d" i) in
  let fact rel args = Message.Fact (Atom.cmake rel args) in
  let ms =
    [ fact sup [ c 1 ]; fact sup [ c 2 ]; fact sup [ c 3 ];
      Message.Subscribe plain;
      fact sup [ c 4 ];
      fact sup [ c 4; c 5 ]; fact sup [ c 5; c 6 ];
      fact plain [ c 1 ];
      fact sup [ c 6 ];
      Message.Activate "r";
      fact plain [ c 2 ]; fact plain [ c 3 ] ]
  in
  let e = Wire.encoder ~src:"p" ~dst:"q" () and d = Wire.decoder ~src:"p" ~dst:"q" () in
  let roundtrip ms =
    match Wire.decode_message d (Wire.encode_message e (Message.Batch ms)) with
    | Message.Batch got -> got
    | _ -> Alcotest.fail "not a batch"
  in
  let got = roundtrip ms in
  Alcotest.(check (list string)) "same messages, in order" (List.map Message.describe ms)
    (List.map Message.describe got);
  Alcotest.(check bool) "relations, physically" true
    (List.for_all2
       (fun m m' ->
         match m, m' with
         | Message.Fact a, Message.Fact a' -> a.Atom.rel == a'.Atom.rel
         | _ -> true)
       ms got);
  Alcotest.(check string) "the decoded copy re-encodes alike"
    (Wire.encode_message e (Message.Batch ms)) (Wire.encode_message e (Message.Batch got));
  (* everything is a backref now: a run of k facts is the batch's tag and
     count, then the run's tag, relation, arity and count, then a byte per
     tuple, behind the frame's length, version and kind *)
  let fact_bytes = Obs.Metrics.counter "wire.bytes.fact" in
  List.iter
    (fun k ->
      let run = List.init k (fun i -> fact sup [ c (1 + (i mod 6)) ]) in
      let billed = Obs.Metrics.value fact_bytes in
      let frame = Wire.encode_message e (Message.Batch run) in
      Alcotest.(check int) (Printf.sprintf "run of %d: relation once" k) (3 + 2 + 4 + k)
        (String.length frame);
      Alcotest.(check int) (Printf.sprintf "run of %d: billed to facts" k) (4 + k)
        (Obs.Metrics.value fact_bytes - billed);
      match Wire.decode_message d frame with
      | Message.Batch got -> Alcotest.(check int) "run expanded" k (List.length got)
      | _ -> Alcotest.fail "not a batch")
    [ 2; 3; 10 ]

(* A hostile run raises [Wire.Corrupt], and only that, before it builds
   more facts than its frame holds bytes. *)
let test_fact_runs_corrupt () =
  ignore (sup_rel ());
  let uv n =
    let b = Buffer.create 8 in
    Wire.put_uvarint b n;
    Buffer.contents b
  in
  let frame body =
    let body = "\001\000" ^ body in
    uv (String.length body) ^ body
  in
  let name s = "\000" ^ String.make 1 (Char.chr (String.length s)) ^ s in
  (* the relation as the parts of [sup_rel]: tag 1, origin, adornment,
     rule 1, position 2 *)
  let rel = "\001" ^ name "reach_rel@origin_peer" ^ name "bf" ^ "\001\002" in
  (* a batch of [n] messages, the first a run over [rel] *)
  let run ~n ~arity ~count tuples =
    frame ("\004" ^ uv n ^ "\005" ^ rel ^ uv arity ^ uv count ^ tuples)
  in
  (* constant k1, defined, then a backref to it *)
  let k1 = "\000\000\000\002k1" and k1' = "\001" in
  let expect_corrupt ?(d = Wire.decoder ~src:"p" ~dst:"q" ()) name s =
    match Wire.decode_message d s with
    | exception Wire.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: %s, not Wire.Corrupt" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" name
  in
  (match Wire.decode_message (Wire.decoder ~src:"p" ~dst:"q" ()) (run ~n:2 ~arity:1 ~count:2 (k1 ^ k1')) with
  | Message.Batch [ Message.Fact a; Message.Fact b ] ->
    Alcotest.(check bool) "well-formed run" true (a.Atom.rel == sup_rel () && Atom.equal a b)
  | _ -> Alcotest.fail "not a run of two facts");
  let huge = 1 lsl 40 in
  expect_corrupt "arity 0, count 2^40" (run ~n:huge ~arity:0 ~count:huge "");
  expect_corrupt "count above the bytes left" (run ~n:1000 ~arity:1 ~count:1000 (k1 ^ k1' ^ k1'));
  expect_corrupt "count above the batch" (run ~n:2 ~arity:1 ~count:3 (k1 ^ k1' ^ k1'));
  expect_corrupt "run of one" (run ~n:1 ~arity:1 ~count:1 k1);
  expect_corrupt "truncated tuple" (run ~n:2 ~arity:2 ~count:2 (k1 ^ k1' ^ k1' ^ "\000\000\000\005ab"));
  expect_corrupt "run outside a batch" (frame ("\005" ^ rel ^ "\001\002" ^ k1 ^ k1'));
  expect_corrupt "parts from the wrong end" ~d:(Wire.decoder ~src:"q" ~dst:"p" ())
    (run ~n:2 ~arity:1 ~count:2 (k1 ^ k1'))

(* Distributed naive evaluation ships plain relations, which still go by
   their names and roundtrip: it answers as dQSQ does. *)
let test_naive_wire () =
  let program = Dprogram.parse "T@a(X, Y) :- E@b(X, Y). T@a(X, Z) :- E@b(X, Y), T@a(Y, Z)." in
  let node i = Term.const (Printf.sprintf "n%d" i) in
  let edb = List.init 4 (fun i -> Datom.make ~rel:"E" ~peer:"b" [ node i; node (i + 1) ]) in
  let query = Datom.make ~rel:"T" ~peer:"a" [ node 0; Term.var "Y" ] in
  let naive = Naive_engine.solve ~seed:2 program ~edb ~query in
  let dqsq = Qsq_engine.solve ~seed:2 program ~edb ~query in
  let answers l = List.sort compare (List.map Atom.to_string l) in
  Alcotest.(check bool) "facts crossed" true
    (naive.Naive_engine.net_stats.Network.Sim.sent > 0);
  Alcotest.(check (list string)) "naive == dQSQ" (answers dqsq.Qsq_engine.answers)
    (answers naive.Naive_engine.answers);
  Alcotest.(check int) "four answers" 4 (List.length naive.Naive_engine.answers)

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

(* Rules installed and facts added in any order, evaluated after every
   change or once at the end, reach the same store as a from-scratch
   evaluation. *)
let test_runtime_order_independent () =
  let expected =
    let store = Fact_store.create () in
    List.iter (fun a -> ignore (Fact_store.add store a)) tc_facts;
    ignore (Eval.seminaive (Program.make (List.map Parser.parse_rule tc_rules)) store);
    Fact_store.to_sorted_strings store
  in
  let install r rt = ignore (Runtime.install rt (Parser.parse_rule r)) in
  let add a rt = ignore (Runtime.add_fact rt a) in
  let then_eval step rt =
    step rt;
    ignore (Runtime.evaluate rt)
  in
  let rules = List.map install tc_rules and facts = List.map add tc_facts in
  let each = List.map then_eval in
  let run steps =
    let rt = Runtime.create "p" in
    List.iter (fun step -> step rt) steps;
    ignore (Runtime.evaluate rt);
    Fact_store.to_sorted_strings (Runtime.store rt)
  in
  List.iter
    (fun (name, steps) -> Alcotest.(check (list string)) name expected (run steps))
    [
      ("rules first", each rules @ each facts);
      ("facts first", each facts @ each rules);
      (* half the facts unevaluated, the rules, the rest of the facts *)
      ( "interleaved",
        List.filteri (fun i _ -> i < 2) facts
        @ each rules
        @ each (List.filteri (fun i _ -> i >= 2) facts) );
      ("one evaluation", facts @ rules);
    ]

(* Nothing installed and nothing pending since the last pass: no pass, not
   even a round. *)
let test_runtime_idle_evaluate () =
  let rt = Runtime.create "p" in
  let rule = Parser.parse_rule "b(X) :- a(X)." and fact = Atom.make "a" [ Term.const "1" ] in
  ignore (Runtime.install rt rule);
  ignore (Runtime.add_fact rt fact);
  Alcotest.(check int) "one fact derived" 1 (List.length (Runtime.evaluate rt));
  let rounds = Obs.Metrics.counter_value "eval.rounds" in
  Alcotest.(check int) "nothing derived" 0 (List.length (Runtime.evaluate rt));
  Alcotest.(check int) "no round" rounds (Obs.Metrics.counter_value "eval.rounds");
  ignore (Runtime.install rt rule);
  ignore (Runtime.add_fact rt fact);
  ignore (Runtime.evaluate rt);
  Alcotest.(check int) "duplicates change nothing" rounds (Obs.Metrics.counter_value "eval.rounds")

(* R@p joins q's A with p's own IDB relation B, which reads q's C. q's
   delegation of the B literal makes p demand B, so p's answer to q is one
   envelope: the sup0 facts q subscribed to, a subscription and the
   delegation of B's C literal. q absorbs it all and runs one pass, as
   does every other delivery. *)
let test_batch_one_pass () =
  let program = Dprogram.parse "R@p(X, Y) :- A@q(X, Z), B@p(Z, Y). B@p(Z, Y) :- C@q(Z, Y)." in
  let edb rel a b = Datom.make ~rel ~peer:"q" [ Term.const a; Term.const b ] in
  let query = Datom.make ~rel:"R" ~peer:"p" [ Term.const "0"; Term.var "Y" ] in
  let t = Qsq_engine.create program ~edb:[ edb "A" "0" "1"; edb "C" "1" "2" ] ~query in
  Qsq_engine.set_tracing t true;
  let passes () = Obs.Metrics.counter_value "qsq.local_passes" in
  let before = passes () in
  Qsq_engine.start t;
  Alcotest.(check int) "the query injection: one pass" 1 (passes () - before);
  let rec costs () =
    let before = passes () in
    if Qsq_engine.step t then
      let cost = passes () - before in
      cost :: costs ()
    else []
  in
  let costs = costs () in
  let trace = Qsq_engine.delivery_trace t in
  let src, dst, what = List.nth trace 2 in
  Alcotest.(check string)
    "p's envelope to q" "p -> q batch[3]" (Printf.sprintf "%s -> %s %s" src dst what);
  Alcotest.(check (list int)) "one pass per delivery" (List.map (fun _ -> 1) trace) costs;
  let out = Qsq_engine.finish t in
  Alcotest.(check (list string)) "answers" [ "R@p(0, 2)" ]
    (List.map Atom.to_string out.Qsq_engine.answers)

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
  let sup = Supervisor.build ~place_peers:[ "p1"; "p2"; "p3" ] (Supervisor.words a) in
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
        Alcotest.test_case "weak collection" `Quick test_term_weak_collection;
        Alcotest.test_case "parallel interning" `Quick test_term_parallel_intern ] );
    ( "symbol-subst",
      [ Alcotest.test_case "symbol" `Quick test_symbol ] );
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
      [ Alcotest.test_case "partition facts" `Quick test_program_partition_facts;
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
        Alcotest.test_case "delegation wire codec" `Quick test_delegation_wire;
        Alcotest.test_case "hostile delegation frames" `Quick test_delegation_wire_corrupt;
        Alcotest.test_case "sup relation wire codec" `Quick test_sup_wire;
        Alcotest.test_case "sup relation parts sizes" `Quick test_sup_wire_sizes;
        Alcotest.test_case "hostile sup relation parts" `Quick test_sup_wire_corrupt;
        Alcotest.test_case "fact runs" `Quick test_fact_runs;
        Alcotest.test_case "hostile fact runs" `Quick test_fact_runs_corrupt;
        Alcotest.test_case "naive evaluation wire codec" `Quick test_naive_wire;
        Alcotest.test_case "runtime subscribe" `Quick test_runtime_subscribe;
        Alcotest.test_case "runtime install" `Quick test_runtime_install_idempotent;
        Alcotest.test_case "runtime structural dedup" `Quick test_runtime_install_structural;
        Alcotest.test_case "runtime unevaluated fact, then install" `Quick
          test_runtime_unevaluated_fact_then_install;
        Alcotest.test_case "runtime order independence" `Quick test_runtime_order_independent;
        Alcotest.test_case "runtime idle evaluation" `Quick test_runtime_idle_evaluate;
        Alcotest.test_case "a batch costs one pass" `Quick test_batch_one_pass ] );
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
