(** The paper's theorems as executable differential properties. Each check
    is total: engine exceptions are findings ([Fail]), not crashes. *)

open Datalog
open Dqsq
open Diagnosis

type instance = {
  net : Petri.Net.t;
  alarms : Petri.Alarm.t;
  policy : Network.Sim.policy;
  loss : float;
  jobs : int;
  sim_seed : int;
}

let instance_of_case (c : Gen.case) =
  { net = c.net; alarms = c.alarms; policy = c.policy; loss = c.loss; jobs = c.jobs;
    sim_seed = c.seed }

type outcome = Pass | Fail of string

type t = {
  name : string;
  theorem : string;
  applies : Gen.case -> bool;
  check : instance -> outcome;
}

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

let guard check i =
  try check i
  with e -> failf "uncaught exception: %s" (Printexc.to_string e)

let bnet i = Petri.Net.binarize i.net

(* Most properties share the same baseline — the prepared program and its
   centralized QSQ run. The runner hands every property the physically
   same instance, so a one-slot cache keyed by physical equality removes
   the repeated work without ever serving a stale result (shrinking
   allocates fresh instances). The Theorem 4 property bypasses it: its
   obs-counter check needs a run of its own to measure deltas. *)
let baseline_cache : (instance * (Diagnoser.prepared * Diagnoser.result)) option ref =
  ref None

let baseline i =
  match !baseline_cache with
  | Some (j, b) when j == i -> b
  | _ ->
    let p = Diagnoser.prepare (bnet i) i.alarms in
    let b = (p, Diagnoser.run p Diagnoser.Centralized_qsq) in
    baseline_cache := Some (i, b);
    b

let check_equal_diagnosis ~left ~right dl dr =
  if Canon.equal_diagnosis dl dr then Pass
  else
    failf "%s %s vs %s %s" left (Canon.diagnosis_to_string dl) right
      (Canon.diagnosis_to_string dr)

(* A hang in a buggy distributed engine must come back as a counterexample,
   not stall the fuzzer: generous delivery budget on the direct runs. *)
let max_steps = 2_000_000

(* --------------- naive vs semi-naive (Section 3) ---------------- *)

(* Both bottom-up strategies saturate the depth-bounded diagnosis program
   (the Section 4.4 gadget keeps the least model finite) and must build the
   very same store. A hard fact budget guards against pathological cases;
   hitting it makes the comparison meaningless, so such runs pass as
   inconclusive rather than report a fake difference. *)
let naive_vs_seminaive i =
  let p, _ = baseline i in
  let program = Dprogram.mangled p.Diagnoser.program in
  (* bottom-up materializes the whole depth-bounded unfolding, observation
     or not — keep the depth small; strategy equivalence is just as
     meaningful on a shallow prefix *)
  let depth =
    Diagnoser.gadget_depth ~max_config_size:(min 3 (Petri.Alarm.length i.alarms))
  in
  let options =
    { Eval.default_options with Eval.max_depth = Some depth; max_facts = Some 50_000 }
  in
  let saturate strategy =
    let store = Fact_store.create () in
    List.iter (fun d -> ignore (Fact_store.add store (Datom.to_atom d))) p.Diagnoser.edb;
    let result =
      match strategy with
      | `Naive -> Eval.naive ~options program store
      | `Seminaive -> Eval.seminaive ~options program store
    in
    (result.Eval.status, Fact_store.to_sorted_strings store)
  in
  let st_n, facts_n = saturate `Naive in
  let st_s, facts_s = saturate `Seminaive in
  if st_n = Eval.Budget_exhausted || st_s = Eval.Budget_exhausted then Pass
  else if facts_n = facts_s then Pass
  else
    failf "stores differ: naive %d facts vs semi-naive %d facts (first diff: %s)"
      (List.length facts_n) (List.length facts_s)
      (match
         List.find_opt (fun f -> not (List.mem f facts_s)) facts_n,
         List.find_opt (fun f -> not (List.mem f facts_n)) facts_s
       with
      | Some f, _ -> "naive-only " ^ f
      | None, Some f -> "semi-naive-only " ^ f
      | None, None -> "?")

(* ------------- QSQ vs the definition (Theorems 2-3) ------------- *)

let qsq_vs_reference i =
  let d_ref = (Reference.diagnose (bnet i) i.alarms).Reference.diagnosis in
  let _, r_qsq = baseline i in
  check_equal_diagnosis ~left:"reference" ~right:"qsq" d_ref r_qsq.Diagnoser.diagnosis

(* ------------------ magic sets vs QSQ (§4.2) -------------------- *)

let magic_vs_qsq i =
  let p, r_qsq = baseline i in
  let d_magic = (Diagnoser.run p Diagnoser.Centralized_magic).Diagnoser.diagnosis in
  check_equal_diagnosis ~left:"magic" ~right:"qsq" d_magic r_qsq.Diagnoser.diagnosis

(* ------- materialized prefix vs algorithm [8] (Theorem 4) ------- *)

(* Set equality on events, subset on conditions (see DESIGN.md note 5), and
   the lib/obs wiring must agree with the result record: the counter delta
   across the run is exactly the cardinality of the returned node sets. *)
let product_vs_qsq i =
  let net = bnet i in
  let events_before = Obs.Metrics.counter_value "diagnoser.events_materialized" in
  let conds_before = Obs.Metrics.counter_value "diagnoser.conds_materialized" in
  let r_qsq = Diagnoser.diagnose net i.alarms in
  let events_delta =
    Obs.Metrics.counter_value "diagnoser.events_materialized" - events_before
  and conds_delta =
    Obs.Metrics.counter_value "diagnoser.conds_materialized" - conds_before
  in
  let r_prod = Product.diagnose net i.alarms in
  if not (Canon.equal_diagnosis r_prod.Product.diagnosis r_qsq.Diagnoser.diagnosis) then
    check_equal_diagnosis ~left:"product" ~right:"qsq" r_prod.Product.diagnosis
      r_qsq.Diagnoser.diagnosis
  else if
    not
      (Term.Set.equal r_prod.Product.events_materialized
         r_qsq.Diagnoser.events_materialized)
  then
    failf "event sets differ: product %d vs qsq %d"
      (Term.Set.cardinal r_prod.Product.events_materialized)
      (Term.Set.cardinal r_qsq.Diagnoser.events_materialized)
  else if
    not
      (Term.Set.subset r_qsq.Diagnoser.conds_materialized
         r_prod.Product.conds_materialized)
  then
    failf "qsq materialized a condition the dedicated algorithm did not (%d vs %d)"
      (Term.Set.cardinal r_qsq.Diagnoser.conds_materialized)
      (Term.Set.cardinal r_prod.Product.conds_materialized)
  else if events_delta <> Term.Set.cardinal r_qsq.Diagnoser.events_materialized then
    failf "obs counter diagnoser.events_materialized moved by %d, result says %d"
      events_delta
      (Term.Set.cardinal r_qsq.Diagnoser.events_materialized)
  else if conds_delta <> Term.Set.cardinal r_qsq.Diagnoser.conds_materialized then
    failf "obs counter diagnoser.conds_materialized moved by %d, result says %d"
      conds_delta
      (Term.Set.cardinal r_qsq.Diagnoser.conds_materialized)
  else Pass

(* ------------- dQSQ vs centralized QSQ (Theorem 1) -------------- *)

let dqsq_vs_qsq i =
  let p, r_qsq = baseline i in
  let r_dist =
    Diagnoser.run p (Diagnoser.Distributed { seed = i.sim_seed; policy = i.policy })
  in
  if not (Canon.equal_diagnosis r_dist.Diagnoser.diagnosis r_qsq.Diagnoser.diagnosis)
  then
    check_equal_diagnosis ~left:"dqsq" ~right:"qsq" r_dist.Diagnoser.diagnosis
      r_qsq.Diagnoser.diagnosis
  else if
    not
      (Term.Set.equal r_dist.Diagnoser.events_materialized
         r_qsq.Diagnoser.events_materialized)
  then
    failf "materialized events differ: dqsq %d vs qsq %d"
      (Term.Set.cardinal r_dist.Diagnoser.events_materialized)
      (Term.Set.cardinal r_qsq.Diagnoser.events_materialized)
  else Pass

(* -------- dQSQ under Dijkstra-Scholten (Proposition 1) ---------- *)

let dqsq_ds_termination i =
  let p, r_qsq = baseline i in
  let out =
    Qsq_engine.solve ~seed:i.sim_seed ~policy:i.policy
      ~termination:Qsq_engine.Dijkstra_scholten ~max_steps p.Diagnoser.program
      ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
  in
  match out.Qsq_engine.ds_terminated with
  | Some false | None -> Fail "Dijkstra-Scholten detector never announced termination"
  | Some true ->
    check_equal_diagnosis ~left:"dqsq+ds" ~right:"qsq"
      (Supervisor.diagnosis_of_answers out.Qsq_engine.answers)
      r_qsq.Diagnoser.diagnosis

(* -------------- soundness under message loss -------------------- *)

(* The paper assumes reliable channels; dropping messages may lose answers
   but must never invent one: Datalog is monotone, so everything a lossy
   run derives is derivable. Every explanation of the lossy run must be an
   explanation of the loss-free run, and the lossy run must still quiesce. *)
let dqsq_loss_soundness i =
  let p, r_qsq = baseline i in
  let out =
    Qsq_engine.solve ~seed:i.sim_seed ~policy:i.policy ~loss:i.loss ~max_steps
      p.Diagnoser.program ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
  in
  let lossy = Supervisor.diagnosis_of_answers out.Qsq_engine.answers in
  match
    List.find_opt
      (fun c -> not (List.exists (Term.Set.equal c) r_qsq.Diagnoser.diagnosis))
      lossy
  with
  | Some c ->
    failf "lossy run invented explanation %s (loss=%.2f, dropped %d)"
      (Canon.config_to_string c) i.loss out.Qsq_engine.net_stats.Network.Sim.dropped
  | None -> Pass

(* ------- the two readings of condition (iii) (Section 2) -------- *)

(* The literal per-peer reading and the global-interleaving reading can
   only diverge when one peer hosts concurrent components (a per-peer
   order choice feeding a cross-peer cycle); with a single one-token
   component per peer each peer's events are causally totally ordered and
   the readings must coincide. *)
let reference_vs_literal i =
  let net = bnet i in
  let d_global = (Reference.diagnose net i.alarms).Reference.diagnosis in
  let d_literal = (Reference.diagnose_literal net i.alarms).Reference.diagnosis in
  check_equal_diagnosis ~left:"global" ~right:"literal" d_global d_literal

(* ---------- parallel dQSQ == sequential dQSQ (confluence) ------- *)

(* The domain-parallel scheduler must reproduce the sequential run byte for
   byte: the protocol's guards make every delegation/subscription idempotent
   and Datalog is monotone, so any delivery schedule reaches the same peer
   fact sets, and the structurally-sorted answer list is schedule-free.
   Loss-free on both sides — the parallel scheduler draws loss coins in a
   racy order, so lossy parallel runs are legitimately nondeterministic. *)
let parallel_eq_sequential i =
  let p, _ = baseline i in
  let seq =
    Qsq_engine.solve ~seed:i.sim_seed ~policy:i.policy ~max_steps
      p.Diagnoser.program ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
  in
  let answer_strings o = List.map Atom.to_string o.Qsq_engine.answers in
  let compare_run label (par : Qsq_engine.outcome) =
    if answer_strings par <> answer_strings seq then
      failf "answers differ under %s: parallel %d vs sequential %d" label
        (List.length par.Qsq_engine.answers)
        (List.length seq.Qsq_engine.answers)
    else if
      not
        (Canon.equal_diagnosis
           (Supervisor.diagnosis_of_answers par.Qsq_engine.answers)
           (Supervisor.diagnosis_of_answers seq.Qsq_engine.answers))
    then
      check_equal_diagnosis ~left:("parallel " ^ label) ~right:"sequential"
        (Supervisor.diagnosis_of_answers par.Qsq_engine.answers)
        (Supervisor.diagnosis_of_answers seq.Qsq_engine.answers)
    else if par.Qsq_engine.total_facts <> seq.Qsq_engine.total_facts then
      failf "fact totals differ under %s: parallel %d vs sequential %d" label
        par.Qsq_engine.total_facts seq.Qsq_engine.total_facts
    else if par.Qsq_engine.facts_per_peer <> seq.Qsq_engine.facts_per_peer then
      failf "per-peer fact counts differ under %s" label
    else Pass
  in
  let balanced =
    compare_run
      (Printf.sprintf "%d domains" i.jobs)
      (Qsq_engine.solve ~max_steps ~jobs:i.jobs p.Diagnoser.program
         ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query)
  in
  match balanced with
  | Pass when i.jobs >= 2 ->
    (* same scenario with every peer homed on domain 0: the other workers
       only get work by stealing, so this pins the steal path (box
       migration between domains, mailbox-segment hand-off) to the same
       byte-identical outcome *)
    compare_run
      (Printf.sprintf "%d domains (skewed pinning, forced steals)" i.jobs)
      (Qsq_engine.solve ~max_steps ~jobs:i.jobs ~pinning:Network.Sim.Skewed
         p.Diagnoser.program ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query)
  | r -> r

(* ------------- the service path == the in-memory path ----------- *)

(* The coordinator runs the same scenario through the full service stack:
   every protocol message crosses the Wire codec with verification on
   (decode must return physically identical terms — Roundtrip_mismatch is
   caught by the guard as a Fail). The diagnosis must survive its
   configuration-set frame: the render of the decoded copy is
   byte-identical to Report.to_string on the direct diagnosis, which is
   what lets the service render without decoding its own report frame.
   The service's report must equal it too, and a session that delivered
   messages must have accounted wire bytes. *)
let codec_roundtrip i =
  let p, r_qsq = baseline i in
  let render = Report.to_string p.Diagnoser.net in
  let direct = render r_qsq.Diagnoser.diagnosis in
  let frame =
    Wire.encode_configs (Wire.encoder ()) (List.map Term.Set.elements r_qsq.Diagnoser.diagnosis)
  in
  let decoded = render (List.map Term.Set.of_list (Wire.decode_configs (Wire.decoder ()) frame)) in
  if decoded <> direct then
    failf "the decoded configs frame renders differently (%d vs %d bytes)"
      (String.length decoded) (String.length direct)
  else
    let coord = Service.Coordinator.create ~quantum:5 () in
    let ( let* ) r f =
      match r with Ok v -> f v | Error m -> failf "service: %s" m
    in
    let* _placement = Service.Coordinator.add_tenant coord ~name:"t" i.net in
    let* sid = Service.Coordinator.open_session coord ~tenant:"t" in
    let rec feed = function
      | [] -> Pass
      | (symbol, peer) :: rest ->
        let* () = Service.Coordinator.add_alarm coord sid ~symbol ~peer in
        feed rest
    in
    match feed (Petri.Alarm.to_pairs i.alarms) with
    | Fail _ as f -> f
    | Pass ->
      let* () = Service.Coordinator.start coord sid in
      let* () = Service.Coordinator.drive ~only:sid coord in
      let* r = Service.Coordinator.report coord sid in
      if r.Service.Coordinator.body <> direct then
        failf "service report differs from the in-memory path (%d vs %d bytes)"
          (String.length r.Service.Coordinator.body) (String.length direct)
      else if r.Service.Coordinator.deliveries > 0 && r.Service.Coordinator.wire_bytes <= 0
      then
        failf "%d deliveries but no wire bytes accounted" r.Service.Coordinator.deliveries
      else Pass

(* -------- online (incremental) == batch at every prefix --------- *)

(* The incremental engine must agree with the batch product diagnoser
   after EVERY prefix of the alarm stream, not just at the end — and not
   just on the diagnosis: the materialized prefix after k alarms must be
   exactly the batch materialization of those k alarms (earlier prefixes'
   state spaces embed in later ones, so the online union telescopes).
   The supervisor sees alarms through asynchronous channels, so the same
   scenario is replayed under a per-peer-order-preserving re-interleaving
   and under the sim's loss policy (a lossy channel delivers a
   subsequence; the survivors are diagnosed as their own stream). *)
let online_check_stream net pairs ~tag =
  let o = Online.start net in
  let rec go k consumed = function
    | [] ->
      Online.release o;
      Pass
    | ((symbol, peer) as alarm) :: rest ->
      Online.observe o alarm;
      let consumed = alarm :: consumed in
      let batch = Product.diagnose net (Petri.Alarm.make (List.rev consumed)) in
      if not (Canon.equal_diagnosis batch.Product.diagnosis (Online.diagnosis o))
      then begin
        Online.release o;
        failf "%s prefix %d (%s@%s): online %s vs batch %s" tag k symbol peer
          (Canon.diagnosis_to_string (Online.diagnosis o))
          (Canon.diagnosis_to_string batch.Product.diagnosis)
      end
      else if
        not
          (Term.Set.equal batch.Product.events_materialized
             (Online.events_materialized o))
      then begin
        Online.release o;
        failf "%s prefix %d: materialized events differ (online %d vs batch %d)" tag k
          (Term.Set.cardinal (Online.events_materialized o))
          (Term.Set.cardinal batch.Product.events_materialized)
      end
      else go (k + 1) consumed rest
  in
  go 1 [] pairs

let online_eq_batch_prefix i =
  let net = bnet i in
  let pairs = Petri.Alarm.to_pairs i.alarms in
  match online_check_stream net pairs ~tag:"arrival order," with
  | Fail _ as f -> f
  | Pass ->
    let rng = Random.State.make [| 0x0a11; i.sim_seed |] in
    let shuffled = Petri.Exec.async_shuffle ~rng pairs in
    (match online_check_stream net shuffled ~tag:"re-interleaved," with
    | Fail _ as f -> f
    | Pass ->
      let survivors = List.filter (fun _ -> Random.State.float rng 1. >= i.loss) pairs in
      online_check_stream net survivors ~tag:"under loss,")

(* ------------- prefix GC never changes the diagnosis ------------ *)

(* GC drops conflict-dead states; the paper's diagnosis is defined over
   complete configurations only, so reclamation must be invisible: with
   GC on and off, the rendered diagnosis is byte-identical after every
   prefix and the monotone materialized views stay equal, while the
   GC'd live set never exceeds the unbounded one. *)
let online_gc_equivalence i =
  let net = bnet i in
  let gc = Online.start ~gc:true net in
  let nogc = Online.start ~gc:false net in
  let finish r =
    Online.release gc;
    Online.release nogc;
    r
  in
  let rec go k = function
    | [] ->
      if Online.gc_reclaimed nogc <> 0 then
        finish (failf "gc:false reclaimed %d states" (Online.gc_reclaimed nogc))
      else finish Pass
    | alarm :: rest ->
      Online.observe gc alarm;
      Online.observe nogc alarm;
      let dg = Canon.diagnosis_to_string (Online.diagnosis gc) in
      let dn = Canon.diagnosis_to_string (Online.diagnosis nogc) in
      if dg <> dn then
        finish (failf "prefix %d: GC changed the diagnosis:\n%s\nvs\n%s" k dg dn)
      else if
        not
          (Term.Set.equal (Online.events_materialized gc) (Online.events_materialized nogc)
          && Term.Set.equal (Online.conds_materialized gc) (Online.conds_materialized nogc))
      then finish (failf "prefix %d: GC changed the materialized views" k)
      else if Online.live_states gc > Online.live_states nogc then
        finish
          (failf "prefix %d: GC'd live set (%d) exceeds the unbounded one (%d)" k
             (Online.live_states gc) (Online.live_states nogc))
      else go (k + 1) rest
  in
  go 1 (Petri.Alarm.to_pairs i.alarms)

(* --------- checkpoint/restore resumes byte-identically ---------- *)

(* A restored engine must be indistinguishable from the uninterrupted one
   for every future alarm: same rendered diagnosis and the same report
   frame bytes (the service's encode_configs over a fresh connection), at
   every later prefix. Checkpointing at EVERY prefix (the empty one
   included) and replaying the remainder covers mid-diamond frontiers,
   budget carry-over, and — with GC on and off — the compaction path
   where inert nodes are dropped from the snapshot. *)
let report_frame o =
  Wire.encode_configs (Wire.encoder ()) (List.map Term.Set.elements (Online.diagnosis o))

let rec drop k l =
  if k = 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

let checkpoint_restore_eq i =
  let net = bnet i in
  let pairs = Petri.Alarm.to_pairs i.alarms in
  let n = List.length pairs in
  let check_gc gc =
    let o = Online.start ~gc net in
    let trace = ref [] in
    let record () =
      trace :=
        (Canon.diagnosis_to_string (Online.diagnosis o), report_frame o, Online.checkpoint o)
        :: !trace
    in
    record ();
    List.iter
      (fun a ->
        Online.observe o a;
        record ())
      pairs;
    Online.release o;
    let trace = Array.of_list (List.rev !trace) in
    let check_from k =
      let _, _, snap = trace.(k) in
      let r = Online.restore net snap in
      let finish res =
        Online.release r;
        res
      in
      let compare_at j =
        let dj, fj, _ = trace.(j) in
        let d = Canon.diagnosis_to_string (Online.diagnosis r) in
        if d <> dj then
          Some
            (failf "gc:%b restore@%d prefix %d: diagnosis differs:\n%s\nvs\n%s" gc k j d dj)
        else if report_frame r <> fj then
          Some (failf "gc:%b restore@%d prefix %d: report frame bytes differ" gc k j)
        else None
      in
      match compare_at k with
      | Some f -> finish f
      | None ->
        let rec go j = function
          | [] -> finish Pass
          | a :: rest -> (
            Online.observe r a;
            match compare_at j with Some f -> finish f | None -> go (j + 1) rest)
        in
        go (k + 1) (drop k pairs)
    in
    let rec loop k =
      if k > n then Pass
      else match check_from k with Fail _ as f -> f | Pass -> loop (k + 1)
    in
    loop 0
  in
  match check_gc true with Fail _ as f -> f | Pass -> check_gc false

(* --------------- seed determinism (sim.mli contract) ------------ *)

let dqsq_run i =
  let p, _ = baseline i in
  let t =
    Qsq_engine.create ~seed:i.sim_seed ~policy:i.policy ~loss:i.loss
      p.Diagnoser.program ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
  in
  Qsq_engine.set_tracing t true;
  let out = Qsq_engine.run ~max_steps t ~query:p.Diagnoser.query in
  let answers =
    List.sort compare (List.map Atom.to_string out.Qsq_engine.answers)
  in
  (answers, Qsq_engine.delivery_trace t, out.Qsq_engine.net_stats)

let seed_determinism i =
  let a1, t1, s1 = dqsq_run i in
  let a2, t2, s2 = dqsq_run i in
  if a1 <> a2 then failf "answers differ across two identical runs"
  else if t1 <> t2 then
    failf "delivery traces differ across two identical runs (%d vs %d deliveries)"
      (List.length t1) (List.length t2)
  else if
    (s1.Network.Sim.sent, s1.delivered, s1.dropped, s1.bytes)
    <> (s2.Network.Sim.sent, s2.delivered, s2.dropped, s2.bytes)
  then failf "network stats differ across two identical runs"
  else Pass

(* ------------------------------ registry ------------------------ *)

let always _ = true
let single_component_per_peer (c : Gen.case) =
  c.Gen.spec.Petri.Generator.components_per_peer = 1

let mk name theorem ?(applies = always) check =
  { name; theorem; applies; check = guard check }

let all =
  [
    mk "naive-vs-seminaive" "Section 3 (fixpoint strategies agree)" naive_vs_seminaive;
    mk "qsq-vs-reference" "Theorems 2-3 (Datalog encoding == definition)"
      qsq_vs_reference;
    mk "magic-vs-qsq" "Section 4.2 (magic sets == QSQ)" magic_vs_qsq;
    mk "product-vs-qsq-materialization" "Theorem 4 (materialized prefix == [8])"
      product_vs_qsq;
    mk "dqsq-vs-qsq" "Theorem 1 (dQSQ == centralized, any interleaving)" dqsq_vs_qsq;
    mk "dqsq-ds-termination" "Proposition 1 (termination detection)"
      dqsq_ds_termination;
    mk "dqsq-loss-soundness" "reliable-channel assumption (soundness under loss)"
      dqsq_loss_soundness;
    mk "reference-vs-literal" "condition (iii), two readings"
      ~applies:single_component_per_peer reference_vs_literal;
    mk "parallel-eq-sequential"
      "confluence (domain-parallel == sequential dQSQ, incl. forced steals)"
      parallel_eq_sequential;
    mk "online-eq-batch-prefix"
      "incrementality (online == batch after every prefix, any interleaving)"
      online_eq_batch_prefix;
    mk "online-gc-equivalence" "prefix GC is invisible (diagnosis byte-identical)"
      online_gc_equivalence;
    mk "checkpoint-restore-eq"
      "durability (checkpoint -> restore resumes byte-identically)"
      checkpoint_restore_eq;
    mk "codec-roundtrip" "wire codec: service reports == in-memory reports"
      codec_roundtrip;
    mk "seed-determinism" "sim.mli: same seed and policy, same run" seed_determinism;
  ]

let find name = List.find_opt (fun p -> p.name = name) all
let names = List.map (fun p -> p.name) all
