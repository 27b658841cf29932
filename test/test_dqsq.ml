(* Tests for dDatalog and the distributed engines: the Figure 3/4/5 program,
   distributed naive evaluation, dQSQ, and Theorem 1 (dQSQ computes exactly
   the facts QSQ computes on the localized program, modulo zeta). *)

open Datalog
open Dqsq

let sorted_strings l = List.sort_uniq String.compare l
let atom_strings answers = sorted_strings (List.map Atom.to_string answers)

(* ------------------------------------------------------------------ *)
(* dDatalog syntax                                                    *)
(* ------------------------------------------------------------------ *)

let test_parse_ddatalog () =
  let p = Dprogram.figure3 () in
  Alcotest.(check int) "4 rules" 4 (Dprogram.size p);
  Alcotest.(check (list string)) "peers" [ "r"; "s"; "t" ] (Dprogram.peers p);
  Alcotest.(check int) "rules at r" 2 (List.length (Dprogram.rules_at p "r"));
  Alcotest.(check int) "rules at s" 1 (List.length (Dprogram.rules_at p "s"));
  let r2 = List.nth (Dprogram.rules p) 1 in
  Alcotest.(check string) "rule 2 print" "R@r(X, Y) :- S@s(X, Z), T@t(Z, Y)."
    (Drule.to_string r2);
  Alcotest.(check bool) "rule 2 not local" false (Drule.is_local r2);
  Alcotest.(check bool) "names distinct" true (Dprogram.names_distinct_across_peers p)

let test_default_peer () =
  let p = Dprogram.parse "Q@r(X) :- R(X), S@s(X)." in
  match Dprogram.rules p with
  | [ r ] -> (
    match Drule.body_atoms r with
    | [ a; b ] ->
      Alcotest.(check string) "R defaults to head peer" "r" a.Datom.peer;
      Alcotest.(check string) "S explicit" "s" b.Datom.peer
    | _ -> Alcotest.fail "expected two atoms")
  | _ -> Alcotest.fail "expected one rule"

let test_global_translation () =
  let p = Dprogram.figure3 () in
  let g = Dprogram.globalize p in
  (* each atom gains a peer column *)
  let r2 = List.nth (Program.rules g) 1 in
  Alcotest.(check string) "global rule"
    "Rg(X, Y, r) :- Sg(X, Z, s), Tg(Z, Y, t)." (Rule.to_string r2)

let test_mangle_roundtrip () =
  let a = Datom.make ~rel:"R" ~peer:"p1" [ Term.const "c" ] in
  let atom = Datom.to_atom a in
  Alcotest.(check string) "mangled" "R@p1(c)" (Atom.to_string atom);
  match Datom.of_atom atom with
  | Some a' -> Alcotest.(check bool) "roundtrip" true (Datom.equal a a')
  | None -> Alcotest.fail "unmangle failed"

(* ------------------------------------------------------------------ *)
(* The Figure 3 instance                                              *)
(* ------------------------------------------------------------------ *)

(* A, B, C base facts such that R@r("1", y) has interesting answers through
   both rules: A directly, and S/T via the recursion. *)
let fig3_edb () : Datom.t list =
  let d rel peer a b = Datom.make ~rel ~peer [ Term.const a; Term.const b ] in
  [ d "A" "r" "1" "2";
    d "A" "r" "2" "3";
    d "B" "s" "2" "7";
    d "B" "s" "3" "8";
    d "C" "t" "7" "4";
    d "C" "t" "8" "5" ]

let fig3_query () = Datom.make ~rel:"R" ~peer:"r" [ Term.const "1"; Term.var "Y" ]

(* Oracle: centralized naive evaluation of the localized program. *)
let fig3_expected () =
  let p = Dprogram.localize (Dprogram.figure3 ()) in
  let store = Fact_store.create () in
  List.iter
    (fun (a : Datom.t) -> ignore (Fact_store.add store (Datom.to_local_atom a)))
    (fig3_edb ());
  ignore (Eval.naive p store);
  Eval.answers store (Atom.make "R" [ Term.const "1"; Term.var "Y" ])

let strip_answers answers =
  sorted_strings
    (List.map
       (fun (a : Atom.t) ->
         match Datom.of_atom a with
         | Some d -> Atom.to_string (Datom.to_local_atom d)
         | None -> Atom.to_string a)
       answers)

let test_fig3_distributed_naive () =
  let out =
    Naive_engine.solve ~seed:5 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  Alcotest.(check (list string)) "answers == centralized naive"
    (atom_strings (fig3_expected ()))
    (strip_answers out.Naive_engine.answers)

let test_fig3_dqsq () =
  let out =
    Qsq_engine.solve ~seed:5 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  Alcotest.(check (list string)) "answers == centralized naive"
    (atom_strings (fig3_expected ()))
    (strip_answers out.Qsq_engine.answers);
  Alcotest.(check bool) "some delegations happened" true (out.Qsq_engine.delegations > 0);
  Alcotest.(check int) "nothing clipped" 0 out.Qsq_engine.clipped

let test_fig3_dqsq_all_policies () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let out =
            Qsq_engine.solve ~seed ~policy (Dprogram.figure3 ()) ~edb:(fig3_edb ())
              ~query:(fig3_query ())
          in
          Alcotest.(check (list string))
            (Printf.sprintf "answers stable (seed %d)" seed)
            (atom_strings (fig3_expected ()))
            (strip_answers out.Qsq_engine.answers))
        [ 0; 1; 2; 3 ])
    [ Network.Sim.Random_interleaving; Network.Sim.Round_robin; Network.Sim.Global_fifo ]

(* Thread-local intern arenas: a term interned inside another domain's
   arena must come out as THE process-wide representative — [equal] stays
   [(==)] against the same structure built independently on this domain,
   and against a copy that crossed the wire codec (whose decoder
   re-interns). This is the promotion rule: every representative a
   domain-local arena hands out is already in the global sharded table. *)
let test_arena_cross_domain_intern () =
  let spine tag depth =
    (* a deep Skolem-style spine like the unfolding builds *)
    let rec go d acc =
      if d = 0 then acc
      else go (d - 1) (Term.app "g" [ Term.const (Printf.sprintf "%s%d" tag d); acc ])
    in
    go depth (Term.const "bottom")
  in
  let remote = Domain.spawn (fun () -> spine "arena" 40) in
  let theirs = Domain.join remote in
  let mine = spine "arena" 40 in
  Alcotest.(check bool) "cross-domain representative is shared" true (theirs == mine);
  (* a fresh encoder/decoder pair: decode re-interns through this domain's
     arena and must land on the same physical term *)
  let frame = Wire.encode_configs (Wire.encoder ()) [ [ theirs ] ] in
  match Wire.decode_configs (Wire.decoder ()) frame with
  | [ [ decoded ] ] ->
    Alcotest.(check bool) "decoded copy is physically equal" true (decoded == theirs);
    Alcotest.(check bool) "Term.equal agrees" true (Term.equal decoded mine)
  | _ -> Alcotest.fail "decode_configs shape"

(* Confluence: the domain-parallel scheduler must reproduce the sequential
   run exactly — answers (sorted structurally by the engine), fact totals,
   and per-peer fact counts. *)
let test_fig3_parallel_eq_sequential () =
  let seq =
    Qsq_engine.solve ~seed:5 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  List.iter
    (fun jobs ->
      let par =
        Qsq_engine.solve ~jobs (Dprogram.figure3 ()) ~edb:(fig3_edb ())
          ~query:(fig3_query ())
      in
      Alcotest.(check (list string))
        (Printf.sprintf "answers equal at jobs=%d" jobs)
        (List.map Atom.to_string seq.Qsq_engine.answers)
        (List.map Atom.to_string par.Qsq_engine.answers);
      Alcotest.(check int)
        (Printf.sprintf "fact totals equal at jobs=%d" jobs)
        seq.Qsq_engine.total_facts par.Qsq_engine.total_facts;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "per-peer facts equal at jobs=%d" jobs)
        seq.Qsq_engine.facts_per_peer par.Qsq_engine.facts_per_peer)
    [ 1; 2; 4 ]

(* Same confluence check on ring programs large enough that delegation
   chains cross every peer. *)
let test_ring_parallel_eq_sequential () =
  List.iter
    (fun (k, seed) ->
      let v x = Term.var x in
      let rules =
        List.concat_map
          (fun i ->
            let next = (i + 1) mod k in
            let pi = Printf.sprintf "p%d" i and pn = Printf.sprintf "p%d" next in
            let ri = Printf.sprintf "R%d" i and rn = Printf.sprintf "R%d" next in
            let ei = Printf.sprintf "E%d" i in
            [ Drule.make
                (Datom.make ~rel:ri ~peer:pi [ v "X"; v "Y" ])
                [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ v "X"; v "Y" ]) ];
              Drule.make
                (Datom.make ~rel:ri ~peer:pi [ v "X"; v "Z" ])
                [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ v "X"; v "Y" ]);
                  Drule.Pos (Datom.make ~rel:rn ~peer:pn [ v "Y"; v "Z" ]) ] ])
          (List.init k Fun.id)
      in
      let program = Dprogram.make rules in
      let rg = Random.State.make [| seed |] in
      let edb =
        List.init (k * 12) (fun _ ->
            let i = Random.State.int rg k in
            let c () = Term.const (Printf.sprintf "n%d" (Random.State.int rg 8)) in
            Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i)
              [ c (); c () ])
      in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let seq = Qsq_engine.solve ~seed program ~edb ~query in
      List.iter
        (fun jobs ->
          let par = Qsq_engine.solve ~jobs program ~edb ~query in
          Alcotest.(check (list string))
            (Printf.sprintf "ring %d answers equal at jobs=%d" k jobs)
            (List.map Atom.to_string seq.Qsq_engine.answers)
            (List.map Atom.to_string par.Qsq_engine.answers);
          Alcotest.(check int)
            (Printf.sprintf "ring %d fact totals equal at jobs=%d" k jobs)
            seq.Qsq_engine.total_facts par.Qsq_engine.total_facts)
        [ 2; 3 ])
    [ (3, 11); (4, 12); (5, 13) ]

(* Skewed pinning homes every peer on domain 0, so domains 1..n only get
   work by stealing boxes off domain 0's run queue: the steal hand-off
   (peer migration between domains mid-run) must leave the outcome
   byte-identical. The steal count is timing-dependent (a fast worker 0
   may drain everything first on an oversubscribed host), so only the
   outcome is asserted; the counter is checked for monotonicity. *)
let test_skewed_pinning_forced_steals () =
  let steals_c = Obs.Metrics.counter "sim.steals" in
  let before = Obs.Metrics.value steals_c in
  let seq =
    Qsq_engine.solve ~seed:5 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  List.iter
    (fun jobs ->
      let par =
        Qsq_engine.solve ~jobs ~pinning:Network.Sim.Skewed (Dprogram.figure3 ())
          ~edb:(fig3_edb ()) ~query:(fig3_query ())
      in
      Alcotest.(check (list string))
        (Printf.sprintf "answers equal at jobs=%d (skewed)" jobs)
        (List.map Atom.to_string seq.Qsq_engine.answers)
        (List.map Atom.to_string par.Qsq_engine.answers);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "per-peer facts equal at jobs=%d (skewed)" jobs)
        seq.Qsq_engine.facts_per_peer par.Qsq_engine.facts_per_peer)
    [ 2; 4 ];
  Alcotest.(check bool) "steal counter monotone" true
    (Obs.Metrics.value steals_c >= before)

(* Theorem 1: dQSQ's facts (modulo zeta) == centralized QSQ's facts on the
   localized program. *)
let check_theorem1 program edb query seed =
  let t = Qsq_engine.create ~seed program ~edb ~query in
  let _ = Qsq_engine.run t ~query in
  let dqsq_facts = Qsq_engine.zeta_facts t in
  let local_store = Fact_store.create () in
  List.iter
    (fun (a : Datom.t) -> ignore (Fact_store.add local_store (Datom.to_local_atom a)))
    edb;
  let qsq_store, _, _ =
    Qsq.solve (Dprogram.localize program) (Datom.to_local_atom query) local_store
  in
  (dqsq_facts, sorted_strings (Fact_store.to_sorted_strings qsq_store))

let test_theorem1_fig3 () =
  let dqsq_facts, qsq_facts =
    check_theorem1 (Dprogram.figure3 ()) (fig3_edb ()) (fig3_query ()) 11
  in
  Alcotest.(check (list string)) "same facts modulo zeta" qsq_facts dqsq_facts

(* ------------------------------------------------------------------ *)
(* Random distributed programs (rings of recursive relations)          *)
(* ------------------------------------------------------------------ *)

(* k peers p0..p_{k-1}; peer i holds R_i defined from a local base E_i and
   the next peer's R_{i+1}:
     Ri@pi(X,Y) :- Ei@pi(X,Y).
     Ri@pi(X,Z) :- Ei@pi(X,Y), R(i+1)@p(i+1)(Y,Z).
   EDB: random E_i edges over a small constant domain. *)
let ring_program k =
  let rules =
    List.concat_map
      (fun i ->
        let next = (i + 1) mod k in
        let pi = Printf.sprintf "p%d" i and pn = Printf.sprintf "p%d" next in
        let ri = Printf.sprintf "R%d" i and rn = Printf.sprintf "R%d" next in
        let ei = Printf.sprintf "E%d" i in
        [ Drule.make
            (Datom.make ~rel:ri ~peer:pi [ Term.var "X"; Term.var "Y" ])
            [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ Term.var "X"; Term.var "Y" ]) ];
          Drule.make
            (Datom.make ~rel:ri ~peer:pi [ Term.var "X"; Term.var "Z" ])
            [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ Term.var "X"; Term.var "Y" ]);
              Drule.Pos (Datom.make ~rel:rn ~peer:pn [ Term.var "Y"; Term.var "Z" ]) ] ])
      (List.init k Fun.id)
  in
  Dprogram.make rules

let ring_edb ?(domain = 8) ~rng k ~edges () =
  List.init edges (fun _ ->
      let i = Random.State.int rng k in
      let c () = Term.const (Printf.sprintf "n%d" (Random.State.int rng domain)) in
      Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i) [ c (); c () ])

let arb_ring =
  QCheck.make
    ~print:(fun (k, e, seed) -> Printf.sprintf "peers=%d edges=%d seed=%d" k e seed)
    QCheck.Gen.(tup3 (2 -- 4) (3 -- 15) (0 -- 1000))

let prop_theorem1_random =
  QCheck.Test.make ~count:60 ~name:"Theorem 1 on random ring programs" arb_ring
    (fun (k, e, seed) ->
      let rng = Random.State.make [| seed |] in
      let program = ring_program k in
      let edb = ring_edb ~rng k ~edges:e () in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let dqsq_facts, qsq_facts = check_theorem1 program edb query seed in
      dqsq_facts = qsq_facts)

let prop_dqsq_answers_random =
  QCheck.Test.make ~count:60 ~name:"dQSQ answers == centralized naive (random rings)"
    arb_ring (fun (k, e, seed) ->
      let rng = Random.State.make [| seed |] in
      let program = ring_program k in
      let edb = ring_edb ~rng k ~edges:e () in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let out = Qsq_engine.solve ~seed program ~edb ~query in
      let local_store = Fact_store.create () in
      List.iter
        (fun (a : Datom.t) -> ignore (Fact_store.add local_store (Datom.to_local_atom a)))
        edb;
      ignore (Eval.naive (Dprogram.localize program) local_store);
      let expected = Eval.answers local_store (Datom.to_local_atom query) in
      strip_answers out.Qsq_engine.answers = atom_strings expected)

let prop_dnaive_answers_random =
  QCheck.Test.make ~count:40 ~name:"distributed naive == centralized naive (random rings)"
    arb_ring (fun (k, e, seed) ->
      let rng = Random.State.make [| seed |] in
      let program = ring_program k in
      let edb = ring_edb ~rng k ~edges:e () in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let out = Naive_engine.solve ~seed program ~edb ~query in
      let local_store = Fact_store.create () in
      List.iter
        (fun (a : Datom.t) -> ignore (Fact_store.add local_store (Datom.to_local_atom a)))
        edb;
      ignore (Eval.naive (Dprogram.localize program) local_store);
      let expected = Eval.answers local_store (Datom.to_local_atom query) in
      strip_answers out.Naive_engine.answers = atom_strings expected)

(* ------------------------------------------------------------------ *)
(* Communication behaviour                                            *)
(* ------------------------------------------------------------------ *)

let test_dqsq_ships_fewer_tuples () =
  (* With a bound query on a large base, dQSQ must ship fewer facts than
     distributed naive, which replicates whole relations. *)
  let rng = Random.State.make [| 99 |] in
  let program = ring_program 3 in
  let edb = ring_edb ~domain:60 ~rng 3 ~edges:80 () in
  let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
  let qsq = Qsq_engine.solve ~seed:1 program ~edb ~query in
  let naive = Naive_engine.solve ~seed:1 program ~edb ~query in
  Alcotest.(check bool)
    (Printf.sprintf "dQSQ facts shipped (%d) < naive (%d)" qsq.Qsq_engine.fact_messages
       naive.Naive_engine.net_stats.Network.Sim.sent)
    true
    (qsq.Qsq_engine.fact_messages < naive.Naive_engine.net_stats.Network.Sim.sent);
  Alcotest.(check (list string)) "same answers"
    (strip_answers naive.Naive_engine.answers)
    (strip_answers qsq.Qsq_engine.answers)

let test_dijkstra_scholten_mode () =
  (* the peers detect the fixpoint themselves; same answers, same facts,
     more messages (the acknowledgements) *)
  let god = Qsq_engine.solve ~seed:4 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ()) in
  let ds =
    Qsq_engine.solve ~seed:4 ~termination:Qsq_engine.Dijkstra_scholten (Dprogram.figure3 ())
      ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  Alcotest.(check (option bool)) "god view has no detector" None god.Qsq_engine.ds_terminated;
  Alcotest.(check (option bool)) "detector announced termination" (Some true)
    ds.Qsq_engine.ds_terminated;
  Alcotest.(check (list string)) "same answers"
    (strip_answers god.Qsq_engine.answers) (strip_answers ds.Qsq_engine.answers);
  Alcotest.(check int) "same facts" god.Qsq_engine.total_facts ds.Qsq_engine.total_facts;
  Alcotest.(check bool)
    (Printf.sprintf "acks cost messages (%d > %d)" ds.Qsq_engine.deliveries
       god.Qsq_engine.deliveries)
    true
    (ds.Qsq_engine.deliveries > god.Qsq_engine.deliveries)

let prop_ds_mode_random =
  QCheck.Test.make ~count:25 ~name:"Dijkstra-Scholten mode == god view (random rings)"
    arb_ring (fun (k, e, seed) ->
      let rng = Random.State.make [| seed |] in
      let program = ring_program k in
      let edb = ring_edb ~rng k ~edges:e () in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let god = Qsq_engine.solve ~seed program ~edb ~query in
      let ds =
        Qsq_engine.solve ~seed ~termination:Qsq_engine.Dijkstra_scholten program ~edb ~query
      in
      ds.Qsq_engine.ds_terminated = Some true
      && strip_answers god.Qsq_engine.answers = strip_answers ds.Qsq_engine.answers
      && god.Qsq_engine.total_facts = ds.Qsq_engine.total_facts)

(* failure injection: the paper assumes reliable channels; with lossy
   channels dQSQ degrades monotonically (it can only miss answers, never
   invent them) *)
let test_lossy_channels_degrade_monotonically () =
  (* a chain across 3 peers: every answer beyond the local edge needs
     communication, so losses actually bite *)
  let program = ring_program 3 in
  let edb =
    List.init 3 (fun i ->
        Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i)
          [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ])
  in
  let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
  let reliable = Qsq_engine.solve ~seed:2 program ~edb ~query in
  let reliable_answers = strip_answers reliable.Qsq_engine.answers in
  Alcotest.(check int) "3 answers without loss" 3 (List.length reliable_answers);
  let subset small big = List.for_all (fun a -> List.mem a big) small in
  let observed_loss = ref false in
  List.iter
    (fun seed ->
      let lossy = Qsq_engine.solve ~seed ~loss:0.4 program ~edb ~query in
      let lossy_answers = strip_answers lossy.Qsq_engine.answers in
      Alcotest.(check bool)
        (Printf.sprintf "lossy answers are a subset (seed %d)" seed)
        true
        (subset lossy_answers reliable_answers);
      if List.length lossy_answers < List.length reliable_answers then observed_loss := true)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "40% loss actually loses an answer on some schedule" true
    !observed_loss

let test_lossy_stats () =
  let lossy =
    Qsq_engine.solve ~seed:3 ~loss:0.4 (Dprogram.figure3 ()) ~edb:(fig3_edb ())
      ~query:(fig3_query ())
  in
  Alcotest.(check bool) "drops counted" true
    (lossy.Qsq_engine.net_stats.Network.Sim.dropped > 0)

let test_local_only_program_no_messages () =
  (* A fully local program needs no network at all. *)
  let program = Dprogram.parse "P@r(X) :- Q@r(X)." in
  let edb = [ Datom.make ~rel:"Q" ~peer:"r" [ Term.const "c" ] ] in
  let query = Datom.make ~rel:"P" ~peer:"r" [ Term.var "X" ] in
  let out = Qsq_engine.solve program ~edb ~query in
  Alcotest.(check int) "answers" 1 (List.length out.Qsq_engine.answers);
  Alcotest.(check int) "no deliveries" 0 out.Qsq_engine.deliveries

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Incremental peer evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* Every peer store ends closed under its own installed rules: a
   from-scratch semi-naive pass over them, on a copy, adds no fact. The
   peers evaluate incrementally (kept index, skipped firings), so this is
   the check that nothing they skipped could have fired. *)
let check_closed name t (out : Qsq_engine.outcome) =
  let rules_seen = ref 0 in
  List.iter
    (fun (p, _) ->
      let rules = Qsq_engine.peer_rules t p in
      rules_seen := !rules_seen + List.length rules;
      let store = Fact_store.copy (Qsq_engine.peer_store t p) in
      let r = Eval.seminaive (Program.make rules) store in
      Alcotest.(check int) (Printf.sprintf "%s: peer %s closed" name p) 0
        r.Eval.stats.Eval.new_facts)
    out.Qsq_engine.facts_per_peer;
  Alcotest.(check bool) (name ^ ": rules were installed") true (!rules_seen > 0)

let test_peer_stores_closed () =
  let fig3 =
    Qsq_engine.create ~seed:5 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  check_closed "Fig. 3" fig3 (Qsq_engine.run fig3 ~query:(fig3_query ()));
  let program = ring_program 4 and rng = Random.State.make [| 12 |] in
  let edb = ring_edb ~rng 4 ~edges:48 () in
  let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
  let ring4 = Qsq_engine.create ~seed:12 program ~edb ~query in
  check_closed "ring4" ring4 (Qsq_engine.run ring4 ~query)

(* A warm engine recycled session after session (as [diag serve] pools
   them) must not grow: under the default random interleaving nothing
   may be kept per message sent. *)
let test_recycled_engine_bounded () =
  let program = Dprogram.figure3 () and edb = fig3_edb () and query = fig3_query () in
  let t = Qsq_engine.create ~seed:5 program ~edb ~query in
  let session () =
    Qsq_engine.recycle t program ~edb ~query;
    ignore (Qsq_engine.run t ~query)
  in
  ignore (Qsq_engine.run t ~query);
  for _ = 1 to 5 do session () done;
  let warm = Obj.reachable_words (Obj.repr t) in
  for _ = 1 to 100 do session () done;
  let later = Obj.reachable_words (Obj.repr t) in
  if later > warm + (warm / 20) then
    Alcotest.failf "engine grew from %d to %d words over 100 sessions" warm later

let suite =
  [ ( "ddatalog",
      [ Alcotest.test_case "parse dDatalog" `Quick test_parse_ddatalog;
        Alcotest.test_case "default peer" `Quick test_default_peer;
        Alcotest.test_case "global translation" `Quick test_global_translation;
        Alcotest.test_case "mangle roundtrip" `Quick test_mangle_roundtrip ] );
    ( "fig3",
      [ Alcotest.test_case "distributed naive" `Quick test_fig3_distributed_naive;
        Alcotest.test_case "dQSQ" `Quick test_fig3_dqsq;
        Alcotest.test_case "dQSQ under all policies" `Quick test_fig3_dqsq_all_policies;
        Alcotest.test_case "parallel == sequential (Fig. 3)" `Quick
          test_fig3_parallel_eq_sequential;
        Alcotest.test_case "parallel == sequential (rings)" `Quick
          test_ring_parallel_eq_sequential;
        Alcotest.test_case "arena promotion: cross-domain (==)" `Quick
          test_arena_cross_domain_intern;
        Alcotest.test_case "skewed pinning forces steals" `Quick
          test_skewed_pinning_forced_steals;
        Alcotest.test_case "Theorem 1 on Fig. 3" `Quick test_theorem1_fig3 ] );
    ( "random",
      qcheck [ prop_theorem1_random; prop_dqsq_answers_random; prop_dnaive_answers_random ] );
    ( "communication",
      [ Alcotest.test_case "dQSQ ships fewer tuples" `Quick test_dqsq_ships_fewer_tuples;
        Alcotest.test_case "Dijkstra-Scholten termination" `Quick test_dijkstra_scholten_mode;
        Alcotest.test_case "lossy channels degrade monotonically" `Quick
          test_lossy_channels_degrade_monotonically;
        Alcotest.test_case "lossy stats" `Quick test_lossy_stats;
        Alcotest.test_case "local program, no messages" `Quick
          test_local_only_program_no_messages;
        Alcotest.test_case "peer stores closed under their rules" `Quick
          test_peer_stores_closed;
        Alcotest.test_case "recycled engine stays bounded" `Quick test_recycled_engine_bounded ]
      @ qcheck [ prop_ds_mode_random ] ) ]

let () = Alcotest.run "dqsq" suite
