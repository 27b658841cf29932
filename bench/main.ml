(* Benchmark harness: regenerates every figure and quantitative claim of the
   paper (experiments E1–E17 of DESIGN.md), printing one deterministic table
   per experiment, then records the determinism digests in BENCH_diag.json.
   Results are recorded in EXPERIMENTS.md; performance is measured by
   bench/perf.

   Run with:  dune exec bench/main.exe                       (all tables)
              dune exec bench/main.exe -- --only E5          (one table)
              dune exec bench/main.exe -- --check-baseline   (digest gate) *)

open Datalog
open Dqsq
open Diagnosis

let rng seed = Random.State.make [| seed |]
let line = String.make 78 '-'

let section id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

let alarms l = Petri.Alarm.make l
let running_net () = Petri.Net.binarize (Petri.Examples.running_example ())

(* ------------------------------------------------------------------ *)
(* E1: Figures 1 and 2 — the running example and its unfolding          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "Figures 1-2: running example, unfolding, shaded diagnosis";
  let net = Petri.Examples.running_example () in
  Printf.printf "net: %d places, %d transitions, peers %s, safe=%b\n"
    (Petri.Net.num_places net) (Petri.Net.num_transitions net)
    (String.concat "," (Petri.Net.peers net))
    (Petri.Exec.is_safe net);
  Printf.printf "initially enabled: %s   (paper: i, ii and v)\n"
    (String.concat ", " (List.sort compare (Petri.Exec.enabled net (Petri.Exec.initial net))));
  let bnet = Petri.Net.binarize net in
  let u = Petri.Unfolding.unfold bnet in
  Printf.printf "unfolding (binarized): %d conditions, %d events, complete=%b\n"
    (Petri.Unfolding.num_conds u) (Petri.Unfolding.num_events u)
    (Petri.Unfolding.is_complete u);
  let diagnose a = (Diagnoser.diagnose bnet (alarms a)).Diagnoser.diagnosis in
  let show a =
    let d = diagnose a in
    Printf.printf "  %-30s -> %d explanation(s): %s\n"
      (Petri.Alarm.to_string (alarms a))
      (List.length d)
      (String.concat " | "
         (List.map (fun c -> "{" ^ String.concat "," (Canon.config_transitions c) ^ "}") d))
  in
  Printf.printf "diagnoses (Section 2):\n";
  show [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
  show [ ("b", "p1"); ("c", "p1"); ("a", "p2") ];
  show [ ("c", "p1"); ("b", "p1"); ("a", "p2") ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 3 — the three-peer dDatalog program                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "Figure 3: the dDatalog program (3 peers)";
  let p = Dprogram.figure3 () in
  print_endline (Dprogram.to_string p);
  let roundtrip = Dprogram.parse (Dprogram.to_string p) in
  Printf.printf "parse/print roundtrip: %b; rules per peer: %s\n"
    (Dprogram.to_string roundtrip = Dprogram.to_string p)
    (String.concat ", "
       (List.map
          (fun peer -> Printf.sprintf "%s=%d" peer (List.length (Dprogram.rules_at p peer)))
          (Dprogram.peers p)))

(* shared Fig. 3 instance *)
let fig3_edb () =
  let d rel peer a b = Datom.make ~rel ~peer [ Term.const a; Term.const b ] in
  [ d "A" "r" "1" "2"; d "A" "r" "2" "3"; d "B" "s" "2" "7"; d "B" "s" "3" "8";
    d "C" "t" "7" "4"; d "C" "t" "8" "5" ]

let fig3_query () = Datom.make ~rel:"R" ~peer:"r" [ Term.const "1"; Term.var "Y" ]

(* ------------------------------------------------------------------ *)
(* E3: Figure 4 — the QSQ rewriting                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "Figure 4: QSQ rewriting of the localized program";
  let local = Dprogram.localize (Dprogram.figure3 ()) in
  let query = Parser.parse_atom {| R("1", Y) |} in
  let rw = Qsq.rewrite local query in
  print_endline (Program.to_string rw.Qsq.program);
  let edb = Fact_store.create () in
  List.iter
    (fun (d : Datom.t) -> ignore (Fact_store.add edb (Datom.to_local_atom d)))
    (fig3_edb ());
  let store, _, answers = Qsq.solve local query (Fact_store.copy edb) in
  let m = Qsq.materialization store in
  let naive_store = Fact_store.copy edb in
  ignore (Eval.naive local naive_store);
  Printf.printf
    "\nanswers: %s\nmaterialized: total=%d answers=%d inputs=%d sups=%d (naive total=%d)\n"
    (String.concat ", " (List.map Atom.to_string answers))
    m.Qsq.total m.Qsq.answer_facts m.Qsq.input_facts m.Qsq.sup_facts
    (Fact_store.count naive_store)

(* ------------------------------------------------------------------ *)
(* E4: Figure 5 — the distributed dQSQ rewriting                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "Figure 5: dQSQ over peers r, s, t (delegated remainders)";
  let t =
    Qsq_engine.create ~seed:42 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  let out = Qsq_engine.run t ~query:(fig3_query ()) in
  Printf.printf "answers: %s\n"
    (String.concat ", " (List.map Atom.to_string out.Qsq_engine.answers));
  Printf.printf "delegations=%d subscriptions=%d fact-messages=%d deliveries=%d\n"
    out.Qsq_engine.delegations out.Qsq_engine.subscriptions out.Qsq_engine.fact_messages
    out.Qsq_engine.deliveries;
  Printf.printf "facts per peer: %s (total %d)\n"
    (String.concat ", "
       (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) out.Qsq_engine.facts_per_peer))
    out.Qsq_engine.total_facts

(* ------------------------------------------------------------------ *)
(* E5: Theorem 1 — dQSQ == QSQ modulo zeta                              *)
(* ------------------------------------------------------------------ *)

let ring_program k =
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
  Dprogram.make rules

let ring_edb ~seed ?(domain = 10) k ~edges =
  let rg = rng seed in
  List.init edges (fun _ ->
      let i = Random.State.int rg k in
      let c () = Term.const (Printf.sprintf "n%d" (Random.State.int rg domain)) in
      Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i) [ c (); c () ])

let e5 () =
  section "E5" "Theorem 1: dQSQ facts == QSQ facts (modulo zeta), random programs";
  Printf.printf "%6s %6s %6s | %10s %10s %6s\n" "peers" "edges" "seed" "dQSQ-facts"
    "QSQ-facts" "equal";
  let checked = ref 0 and equal = ref 0 in
  List.iter
    (fun (k, edges, seed) ->
      let program = ring_program k in
      let edb = ring_edb ~seed k ~edges in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
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
      let qsq_facts = List.sort_uniq String.compare (Fact_store.to_sorted_strings qsq_store) in
      let eq = dqsq_facts = qsq_facts in
      incr checked;
      if eq then incr equal;
      Printf.printf "%6d %6d %6d | %10d %10d %6b\n" k edges seed (List.length dqsq_facts)
        (List.length qsq_facts) eq)
    [ (2, 10, 1); (2, 30, 2); (3, 20, 3); (3, 50, 4); (4, 40, 5); (4, 80, 6); (5, 60, 7) ];
  Printf.printf "Theorem 1 holds on %d/%d instances\n" !equal !checked

(* ------------------------------------------------------------------ *)
(* E6: Theorem 2 — encoded unfolding == reference unfolding             *)
(* ------------------------------------------------------------------ *)

(* Nodes of the reference unfolding with canonical names of depth <= depth —
   the exact set the depth-clipped bottom-up evaluation derives (the
   unfolder itself keeps postset conditions one level deeper than its event
   bound, so we filter). *)
let nodes_of_reference net depth =
  let u =
    Petri.Unfolding.unfold
      ~bound:{ Petri.Unfolding.max_events = Some 50_000; max_depth = Some depth }
      net
  in
  let events =
    List.fold_left
      (fun acc e ->
        if Petri.Unfolding.name_depth e.Petri.Unfolding.e_name <= depth then
          Term.Set.add (Canon.term_of_name e.Petri.Unfolding.e_name) acc
        else acc)
      Term.Set.empty (Petri.Unfolding.events u)
  in
  let conds =
    List.fold_left
      (fun acc c ->
        if Petri.Unfolding.name_depth c.Petri.Unfolding.c_name <= depth then
          Term.Set.add (Canon.term_of_name c.Petri.Unfolding.c_name) acc
        else acc)
      Term.Set.empty (Petri.Unfolding.conds u)
  in
  (events, conds)

let e6 () =
  section "E6" "Theorem 2: bottom-up encoded unfolding == reference unfolder";
  Printf.printf "%-18s %5s | %8s %8s | %8s %8s | %6s\n" "net" "depth" "ref-ev" "ref-cond"
    "dl-ev" "dl-cond" "equal";
  List.iter
    (fun (name, net, depth) ->
      let ref_events, ref_conds = nodes_of_reference net depth in
      let dl_events, dl_conds, _ = Diagnoser.full_unfolding_materialization ~depth net in
      Printf.printf "%-18s %5d | %8d %8d | %8d %8d | %6b\n" name depth
        (Term.Set.cardinal ref_events) (Term.Set.cardinal ref_conds)
        (Term.Set.cardinal dl_events) (Term.Set.cardinal dl_conds)
        (Term.Set.equal ref_events dl_events && Term.Set.equal ref_conds dl_conds))
    [ ("running-example", running_net (), 10);
      ("toggles-3", Petri.Net.binarize (Petri.Examples.toggles ~width:3 ~peer:"p" ()), 8);
      ("ring-3", Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()), 7) ]

(* ------------------------------------------------------------------ *)
(* E7: Theorem 3 — the three diagnosers agree                           *)
(* ------------------------------------------------------------------ *)

let scenario_of ~seed ~steps ~peers =
  let spec =
    {
      Petri.Generator.peers;
      components_per_peer = 1;
      places_per_component = 3;
      local_transitions = 2;
      sync_transitions = 1;
      alarm_symbols = 2;
    }
  in
  let net = Petri.Generator.generate ~rng:(rng seed) spec in
  let _, a = Petri.Generator.scenario ~rng:(rng (seed + 1)) ~steps net in
  (Petri.Net.binarize net, a)

let e7 () =
  section "E7" "Theorem 3: diagnosis sets agree (reference == product == datalog)";
  let agree = ref 0 and total = ref 0 in
  Printf.printf "%5s %5s %6s | %8s %8s %8s | %6s\n" "seed" "steps" "peers" "ref" "prod" "qsq"
    "agree";
  List.iter
    (fun (seed, steps, peers) ->
      let net, a = scenario_of ~seed ~steps ~peers in
      if Petri.Alarm.length a > 0 then begin
        let r_ref = (Reference.diagnose net a).Reference.diagnosis in
        let r_prod = (Product.diagnose net a).Product.diagnosis in
        let r_dat = (Diagnoser.diagnose net a).Diagnoser.diagnosis in
        let ok = Canon.equal_diagnosis r_ref r_prod && Canon.equal_diagnosis r_ref r_dat in
        incr total;
        if ok then incr agree;
        Printf.printf "%5d %5d %6d | %8d %8d %8d | %6b\n" seed steps peers
          (List.length r_ref) (List.length r_prod) (List.length r_dat) ok
      end)
    [ (11, 2, 2); (12, 3, 2); (13, 4, 2); (14, 3, 3); (15, 4, 3); (16, 5, 2); (17, 5, 3);
      (18, 2, 3); (19, 4, 2); (20, 3, 2) ];
  Printf.printf "Theorem 3 holds on %d/%d scenarios\n" !agree !total

(* ------------------------------------------------------------------ *)
(* E8: Theorem 4 — materialization vs the dedicated algorithm [8]       *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "Theorem 4: materialized prefix == dedicated algorithm [8]; << full unfolding";
  Printf.printf "%4s | %8s %8s %6s | %9s %9s | %10s\n" "|A|" "[8]-ev" "qsq-ev" "equal"
    "conds<=" "full-ev" "qsq/full";
  let net = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
  List.iter
    (fun steps ->
      let firing = Petri.Exec.random_execution ~rng:(rng (100 + steps)) ~steps net in
      let a = alarms (Petri.Exec.alarms_of_execution net firing) in
      let n = Petri.Alarm.length a in
      if n > 0 then begin
        let prod = Product.diagnose net a in
        let qsq = Diagnoser.diagnose ~engine:Diagnoser.Centralized_qsq net a in
        let full_events, _, _ =
          Diagnoser.full_unfolding_materialization ~depth:((2 * n) + 2) net
        in
        let pe = Term.Set.cardinal prod.Product.events_materialized in
        let qe = Term.Set.cardinal qsq.Diagnoser.events_materialized in
        let fe = Term.Set.cardinal full_events in
        Printf.printf "%4d | %8d %8d %6b | %9b %9d | %9.3f\n" n pe qe
          (Term.Set.equal prod.Product.events_materialized qsq.Diagnoser.events_materialized)
          (Term.Set.subset qsq.Diagnoser.conds_materialized prod.Product.conds_materialized)
          fe
          (float_of_int qe /. float_of_int (max 1 fe))
      end)
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E9: Proposition 1 — dQSQ terminates on diagnosis inputs              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "Proposition 1: dQSQ reaches a fixpoint (no depth gadget, no clipping)";
  Printf.printf "%5s %5s | %10s %10s %8s | %10s\n" "seed" "|A|" "deliveries" "facts" "clipped"
    "explains";
  List.iter
    (fun (seed, steps) ->
      let net, a = scenario_of ~seed ~steps ~peers:2 in
      if Petri.Alarm.length a > 0 then begin
        let prepared = Diagnoser.prepare net a in
        let out =
          Diagnoser.run prepared
            (Diagnoser.Distributed { seed; policy = Network.Sim.Random_interleaving })
        in
        match out.Diagnoser.comm with
        | Some c ->
          Printf.printf "%5d %5d | %10d %10d %8d | %10d\n" seed (Petri.Alarm.length a)
            c.Diagnoser.deliveries out.Diagnoser.facts_total 0
            (List.length out.Diagnoser.diagnosis)
        | None -> ()
      end)
    [ (31, 2); (32, 3); (33, 4); (34, 5); (35, 6); (36, 4); (37, 5); (38, 6); (39, 3) ];
  Printf.printf "(termination itself is the result: every run above completed)\n"

(* ------------------------------------------------------------------ *)
(* E10: strategy sweep — naive / semi-naive / QSQ / magic               *)
(* ------------------------------------------------------------------ *)

let tc_program =
  Parser.parse_program {| tc(X, Y) :- edge(X, Y).  tc(X, Z) :- edge(X, Y), tc(Y, Z). |}

let chain_edb n =
  let store = Fact_store.create () in
  for i = 0 to n - 1 do
    ignore
      (Fact_store.add store
         (Atom.make "edge"
            [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ]))
  done;
  store

let e10 () =
  section "E10" "Strategy sweep: tuples materialized on tc(n_{k-1}, Y), chain of k edges";
  Printf.printf "%6s | %10s %12s %10s %10s\n" "k" "naive" "semi-naive" "QSQ" "magic";
  List.iter
    (fun k ->
      let query = Atom.make "tc" [ Term.const (Printf.sprintf "n%d" (k - 1)); Term.var "Y" ] in
      let s_naive = chain_edb k in
      ignore (Eval.naive tc_program s_naive);
      let s_semi = chain_edb k in
      ignore (Eval.seminaive tc_program s_semi);
      let s_qsq, _, _ = Qsq.solve tc_program query (chain_edb k) in
      let s_magic, _, _ = Magic.solve tc_program query (chain_edb k) in
      Printf.printf "%6d | %10d %12d %10d %10d\n" k (Fact_store.count s_naive)
        (Fact_store.count s_semi) (Fact_store.count s_qsq) (Fact_store.count s_magic))
    [ 8; 16; 32; 64; 128 ];
  Printf.printf
    "(bound queries: QSQ/magic stay linear in the reachable suffix; bottom-up is quadratic)\n"

(* ------------------------------------------------------------------ *)
(* E11: communication — distributed naive vs dQSQ                       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "Communication: whole-relation shipping (naive) vs bindings (dQSQ)";
  Printf.printf "%6s %6s | %12s %10s | %12s %10s\n" "peers" "edges" "naive-msgs" "bytes"
    "dqsq-msgs" "bytes";
  List.iter
    (fun (k, edges, seed) ->
      let program = ring_program k in
      (* a guaranteed chain from n0 keeps the query productive; the random
         bulk is what distributed naive ships and dQSQ avoids *)
      let chain =
        List.init k (fun i ->
            Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i)
              [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ])
      in
      let edb = chain @ ring_edb ~seed ~domain:30 k ~edges in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let nv = Naive_engine.solve ~seed program ~edb ~query in
      let dq = Qsq_engine.solve ~seed program ~edb ~query in
      Printf.printf "%6d %6d | %12d %10d | %12d %10d\n" k edges
        nv.Naive_engine.net_stats.Network.Sim.sent nv.Naive_engine.net_stats.Network.Sim.bytes
        dq.Qsq_engine.net_stats.Network.Sim.sent dq.Qsq_engine.net_stats.Network.Sim.bytes)
    [ (2, 40, 1); (3, 60, 2); (4, 80, 3); (5, 100, 4); (6, 120, 5) ]

(* ------------------------------------------------------------------ *)
(* E12: hidden transitions                                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "Extension: hidden transitions (depth-gadget bounded)";
  let net = running_net () in
  let hidden = [ "ii" ] in
  let observations = [ ("p1", Supervisor.Word (alarms [ ("b", "p1"); ("c", "p1") ])) ] in
  Printf.printf "%10s | %10s %10s %8s | %6s\n" "max-size" "datalog" "reference" "product"
    "agree";
  List.iter
    (fun k ->
      let r = Reference.diagnose_general ~max_config_size:k ~hidden net observations in
      let p = Product.diagnose_general ~max_config_size:k ~hidden net observations in
      let prepared, _ = Diagnoser.prepare_general ~hidden net observations in
      let eval_options =
        { Eval.default_options with
          Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:k) }
      in
      let d = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
      let dd = Diagnoser.restrict_size d.Diagnoser.diagnosis k in
      Printf.printf "%10d | %10d %10d %8d | %6b\n" k (List.length dd)
        (List.length r.Reference.diagnosis) (List.length p.Product.diagnosis)
        (Canon.equal_diagnosis dd r.Reference.diagnosis
        && Canon.equal_diagnosis dd p.Product.diagnosis))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E13: alarm patterns                                                  *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "Extension: regular alarm patterns (b.c* at p1, word a at p2)";
  let net = running_net () in
  let p1_pattern =
    Pattern.concat (Pattern.word [ "b" ]) (Pattern.star (Pattern.word [ "c" ]))
  in
  let observations =
    [ ("p1", Supervisor.Regex p1_pattern); ("p2", Supervisor.Word (alarms [ ("a", "p2") ])) ]
  in
  Printf.printf "%10s | %10s %10s %8s | %6s\n" "max-size" "datalog" "reference" "product"
    "agree";
  List.iter
    (fun k ->
      let r = Reference.diagnose_general ~max_config_size:k ~hidden:[] net observations in
      let p = Product.diagnose_general ~max_config_size:k ~hidden:[] net observations in
      let prepared, _ = Diagnoser.prepare_general net observations in
      let eval_options =
        { Eval.default_options with
          Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:k) }
      in
      let d = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
      let dd = Diagnoser.restrict_size d.Diagnoser.diagnosis k in
      Printf.printf "%10d | %10d %10d %8d | %6b\n" k (List.length dd)
        (List.length r.Reference.diagnosis) (List.length p.Product.diagnosis)
        (Canon.equal_diagnosis dd r.Reference.diagnosis
        && Canon.equal_diagnosis dd p.Product.diagnosis))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E14: encoding ablation — co vs the literal paper rules               *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14"
    "Ablation: the three Section 4.1 encodings (co / literal rules / Remark 4 negation)";
  Printf.printf "%-16s | %6s %8s %7s %6s | %8s %11s %9s\n" "net" "co-ev" "paper-ev" "neg-ev"
    "equal" "co-facts" "paper-facts" "neg-facts";
  List.iter
    (fun (name, net, depth) ->
      let co_events, _, co_total =
        Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Co ~depth net
      in
      let paper_events, _, paper_total =
        Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Paper ~depth net
      in
      let neg_events, _, neg_total = Encode_negation.materialize ~depth net in
      Printf.printf "%-16s | %6d %8d %7d %6b | %8d %11d %9d\n" name
        (Term.Set.cardinal co_events) (Term.Set.cardinal paper_events)
        (Term.Set.cardinal neg_events)
        (Term.Set.equal co_events paper_events && Term.Set.equal co_events neg_events)
        co_total paper_total neg_total)
    [ ("running-example", running_net (), 10);
      ("toggles-2", Petri.Net.binarize (Petri.Examples.toggles ~width:2 ~peer:"p" ()), 7);
      ("ring-2", Petri.Net.binarize (Petri.Examples.ring ~peers:2 ()), 7) ];
  (* diagnosis cost through both encodings *)
  let a = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let run encoding =
    let prepared = Diagnoser.prepare ~encoding (running_net ()) a in
    Diagnoser.run prepared Diagnoser.Centralized_qsq
  in
  let rc = run Diagnoser.Co and rp = run Diagnoser.Paper in
  Printf.printf
    "diagnosis of the running example: co %d facts / %d derivations, paper %d facts / %d derivations\n"
    rc.Diagnoser.facts_total rc.Diagnoser.derivations rp.Diagnoser.facts_total
    rp.Diagnoser.derivations;
  Printf.printf "same diagnosis: %b\n"
    (Canon.equal_diagnosis rc.Diagnoser.diagnosis rp.Diagnoser.diagnosis)

(* ------------------------------------------------------------------ *)
(* E15: scheduler ablation — dQSQ under different delivery policies     *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "Ablation: dQSQ message counts under delivery policies (results invariant)";
  let net = running_net () in
  let a = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let prepared = Diagnoser.prepare net a in
  Printf.printf "%-22s %6s | %10s %8s %8s | %8s\n" "policy" "seed" "deliveries" "facts"
    "answers" "explains";
  let reference = ref None in
  List.iter
    (fun (name, policy, seed) ->
      (* [prepared] is pure data; each run builds a fresh network *)
      let out = Diagnoser.run prepared (Diagnoser.Distributed { seed; policy }) in
      (match !reference with
      | None -> reference := Some out.Diagnoser.diagnosis
      | Some d ->
        if not (Canon.equal_diagnosis d out.Diagnoser.diagnosis) then
          Printf.printf "!! diagnosis differs under %s\n" name);
      match out.Diagnoser.comm with
      | Some comm ->
        Printf.printf "%-22s %6d | %10d %8d %8d | %8d\n" name seed comm.Diagnoser.deliveries
          out.Diagnoser.facts_total
          (Term.Set.cardinal out.Diagnoser.events_materialized)
          (List.length out.Diagnoser.diagnosis)
      | None -> ())
    [ ("random", Network.Sim.Random_interleaving, 1);
      ("random", Network.Sim.Random_interleaving, 2);
      ("random", Network.Sim.Random_interleaving, 3);
      ("round-robin", Network.Sim.Round_robin, 0);
      ("global-fifo", Network.Sim.Global_fifo, 0) ];
  (* Dijkstra-Scholten termination detection: the peers detect the fixpoint
     themselves, paying acknowledgement messages. *)
  let out =
    Diagnoser.run prepared
      (Diagnoser.Distributed_ds { seed = 1; policy = Network.Sim.Random_interleaving })
  in
  (match out.Diagnoser.comm with
  | Some comm ->
    Printf.printf "%-22s %6d | %10d %8d %8d | %8d\n" "random+DS-termination" 1
      comm.Diagnoser.deliveries out.Diagnoser.facts_total
      (Term.Set.cardinal out.Diagnoser.events_materialized)
      (List.length out.Diagnoser.diagnosis)
  | None -> ());
  Printf.printf
    "(delivery order changes message schedules, never results — Remark 2; the\n\
    \ DS row pays the detector's acknowledgements for not needing a god view)\n"

(* ------------------------------------------------------------------ *)
(* E16: online (incremental) diagnosis                                  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "Online diagnosis: per-alarm incremental growth, equal to the batch prefix";
  let net = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
  let firing = Petri.Exec.random_execution ~rng:(rng 303) ~steps:6 net in
  let seq = Petri.Exec.alarms_of_execution net firing in
  let t = Online.start net in
  Printf.printf "%5s %-20s | %10s %10s %10s | %12s\n" "i" "alarm" "explains" "events"
    "states" "batch-ev";
  List.iteri
    (fun i (symbol, peer) ->
      Online.observe t (symbol, peer);
      let prefix = alarms (List.filteri (fun j _ -> j <= i) seq) in
      let batch = Product.diagnose net prefix in
      Printf.printf "%5d %-20s | %10d %10d %10d | %12d\n" (i + 1)
        (Printf.sprintf "(%s, %s)" symbol peer)
        (List.length (Online.diagnosis t))
        (Term.Set.cardinal (Online.events_materialized t))
        (Online.states_explored t)
        (Term.Set.cardinal batch.Product.events_materialized))
    seq;
  let final = Product.diagnose net (alarms seq) in
  Printf.printf "final: online == batch diagnosis: %b; online events == batch events: %b\n"
    (Canon.equal_diagnosis (Online.diagnosis t) final.Product.diagnosis)
    (Term.Set.equal (Online.events_materialized t) final.Product.events_materialized)

(* ------------------------------------------------------------------ *)
(* E17: the differential fuzzing corpus as a workload                   *)
(* ------------------------------------------------------------------ *)

(* Each theorem property of lib/check runs over the same fixed 25-seed
   corpus. Checks are differential — two engines per check — so the time
   column is dominated by the slower engine of the pair (usually the
   reference oracle or the distributed run). A non-zero fails column is a
   regression: the fuzzer would print a one-line replay recipe for it. *)
let e17 () =
  section "E17" "Differential fuzzing corpus: theorem properties over 25 fixed seeds";
  Printf.printf "%-36s %7s %8s %6s %9s\n" "property" "checks" "skipped" "fails" "time";
  let total = ref 0.0 in
  List.iter
    (fun (p : Check.Property.t) ->
      let config =
        {
          Check.Runner.default_config with
          Check.Runner.runs = 25;
          seed = 42;
          properties = [ p ];
        }
      in
      let t0 = Sys.time () in
      let report = Check.Runner.run config in
      let dt = Sys.time () -. t0 in
      total := !total +. dt;
      Printf.printf "%-36s %7d %8d %6d %8.2fs\n" p.Check.Property.name
        report.Check.Runner.checks report.Check.Runner.skipped
        (List.length report.Check.Runner.failures)
        dt)
    Check.Property.all;
  Printf.printf "(total %.2fs; replay any failure with: diag fuzz --runs 1 --seed N\n\
                \ --property NAME — see `diag fuzz --list-properties`)\n" !total

(* ------------------------------------------------------------------ *)
(* determinism digests and --check-baseline                             *)
(* ------------------------------------------------------------------ *)

(* A handful of cheap, fully deterministic end-to-end artifacts, hashed:
   the rendered diagnosis of the running example and its wire configs
   frame, the Figure 3 program text, and — over the synchronized-cycles
   net ([Petri.Examples.sync_cycles]) at a 1k-alarm prefix — the online
   report plus the report of a checkpoint → restore roundtrip. Every run
   records them in BENCH_diag.json; [--check-baseline] recomputes them in
   a fresh process and fails on any drift, so an accidental change to
   term construction, canonical ordering, report rendering, or the
   snapshot codec trips the build before a human has to eyeball a diff. (The raw
   checkpoint frame is deliberately not digested: its node order follows
   hash-cons tags, which depend on process history — only its *meaning*
   is deterministic, which is what the roundtrip report pins.) *)
let output_digests () =
  let net = running_net () in
  let d = (Diagnoser.diagnose net (alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]))
            .Diagnoser.diagnosis
  in
  let frame = Wire.encode_configs (Wire.encoder ()) (List.map Term.Set.elements d) in
  (* the same scenario under the parallel scheduler (4 domains, stealing
     allowed): confluence + structural sorting promise a byte-identical
     report regardless of the schedule, and this digest holds it to that *)
  let d_par =
    (Diagnoser.run
       (Diagnoser.prepare net (alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]))
       (Diagnoser.Distributed_parallel { jobs = 4 }))
      .Diagnoser.diagnosis
  in
  let cycle = Petri.Net.binarize (Petri.Examples.sync_cycles ()) in
  let o = Online.start cycle in
  for k = 0 to 999 do
    Online.observe o (Petri.Examples.sync_cycles_alarm k)
  done;
  let stream_report = Report.to_string cycle (Online.diagnosis o) in
  let restored = Online.restore cycle (Online.checkpoint o) in
  let restored_report = Report.to_string cycle (Online.diagnosis restored) in
  Online.release restored;
  Online.release o;
  let hex s = Digest.to_hex (Digest.string s) in
  [ ("running/report", hex (Report.to_string net d));
    ("running/report_jobs4", hex (Report.to_string net d_par));
    ("running/configs_frame", hex frame);
    ("fig3/program", hex (Dprogram.to_string (Dprogram.figure3 ())));
    ("cycle1k/report", hex stream_report);
    ("cycle1k/restored_report", hex restored_report) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the baseline's digests, without a JSON parser: the digests section
   holds the file's only string-valued fields, so collecting every
   "key": "value" pair is exact *)
let baseline_digests path =
  let s = read_file path in
  let n = String.length s in
  let read_string i =
    let j = String.index_from s (i + 1) '"' in
    (String.sub s (i + 1) (j - i - 1), j + 1)
  in
  let pairs = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let key, j = read_string !i in
      let k = ref j in
      while !k < n && (s.[!k] = ' ' || s.[!k] = ':') do
        incr k
      done;
      if !k < n && s.[!k] = '"' then begin
        let v, j' = read_string !k in
        pairs := (key, v) :: !pairs;
        i := j'
      end
      else i := j
    end
    else incr i
  done;
  List.rev !pairs

let check_baseline path =
  let current = output_digests () in
  let baseline = baseline_digests path in
  Printf.printf "determinism digests vs %s\n" path;
  Printf.printf "%-26s %-34s %s\n" "artifact" "current" "baseline";
  let drift = ref 0 in
  List.iter
    (fun (name, dg) ->
      match List.assoc_opt name baseline with
      | Some b when String.equal b dg -> Printf.printf "%-26s %-34s ok\n" name dg
      | Some b ->
        incr drift;
        Printf.printf "%-26s %-34s DRIFT (was %s)\n" name dg b
      | None ->
        incr drift;
        Printf.printf "%-26s %-34s MISSING from baseline\n" name dg)
    current;
  if !drift > 0 then begin
    Printf.eprintf
      "bench: %d digest(s) drifted from %s — if the change is deliberate, regenerate \
       the baseline with a full bench run\n"
      !drift path;
    exit 1
  end;
  Printf.printf "all %d digests match\n" (List.length current)

(* ------------------------------------------------------------------ *)
(* BENCH_diag.json: the committed determinism baseline                  *)
(* ------------------------------------------------------------------ *)

(* Every run records the digests; commit the file to move the baseline
   that [--check-baseline] compares against. Performance is measured by
   bench/perf, not here. *)
let write_bench_json path digests =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"digests\": {\n%s\n  }\n}\n"
    (String.concat ",\n"
       (List.map (fun (name, dg) -> Printf.sprintf "    %S: %S" name dg) digests));
  close_out oc;
  Printf.printf "(digests written to %s)\n" path

let () =
  let arg_value name =
    let rec go i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
        Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  if Array.exists (fun a -> a = "--check-baseline") Sys.argv then begin
    check_baseline (Option.value ~default:"BENCH_diag.json" (arg_value "--baseline"));
    exit 0
  end;
  let experiments =
    [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
      ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
      ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
      ("E17", e17) ]
  in
  List.iter
    (fun (id, f) -> match arg_value "--only" with Some o when o <> id -> () | _ -> f ())
    experiments;
  write_bench_json
    (Option.value ~default:"BENCH_diag.json" (arg_value "--bench-json"))
    (output_digests ());
  Printf.printf "\n%s\nAll experiments completed.\n" line
