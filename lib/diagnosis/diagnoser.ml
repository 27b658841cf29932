(** The paper's diagnoser: the diagnosis problem as a dDatalog query,
    evaluated with QSQ (centralized) or dQSQ (distributed) — Sections 4.1–4.3.

    Both problems are assembled by one path, net half then observation
    half: the unfolding rules of every net peer ({!Encode}) and the
    [petriNet] base facts at the net peers, then the supervisor's rules and
    its [alarmSeq] base facts for the observations ({!Supervisor}); a fixed
    alarm sequence is one word per peer. The diagnosis is the answer to
    [q@supervisor(?, ?)]. *)

open Datalog
open Dqsq

type prepared = {
  net : Petri.Net.t;  (** the binarized net actually encoded *)
  program : Dprogram.t;
  edb : Datom.t list;
  query : Datom.t;
  supervisor : string;
}

(** Which Section 4.1 encoding to use: the primary [co]-based one or the
    paper-literal [notCausal]/[notConf] one (see {!Encode_paper}). *)
type encoding = Co | Paper

let unfolding_rules = function
  | Co -> Encode.unfolding_program
  | Paper -> Encode_paper.unfolding_program

let check_supervisor_name supervisor net =
  if List.mem supervisor (Petri.Net.peers net) then
    invalid_arg
      (Printf.sprintf
         "Diagnoser: supervisor name %S collides with a net peer (pass ~supervisor)"
         supervisor)

(* The Theorem 4 quantity — how much of the unfolding prefix each run
   materializes — is registered so a snapshot can carry it next to the
   engine and network counters. Per-peer splits land under
   [diagnoser.nodes.<peer>] on distributed runs. *)
let runs_c = Obs.Metrics.counter "diagnoser.runs"
let nodes_c = Obs.Metrics.counter "diagnoser.nodes_materialized"
let events_c = Obs.Metrics.counter "diagnoser.events_materialized"
let conds_c = Obs.Metrics.counter "diagnoser.conds_materialized"
let explanations_c = Obs.Metrics.counter "diagnoser.explanations"

let binarized net = if Petri.Net.is_binary net then net else Petri.Net.binarize net

(* The net half of a problem: what the net alone determines. *)
type net_half = { rules : Dprogram.t; facts : Datom.t list }

let encode encoding ~hidden net =
  let facts = Encode.petri_net_facts ~hidden net @ Encode.hidden_net_facts ~hidden net in
  { rules = unfolding_rules encoding net; facts }

let encode_net net = encode Co ~hidden:[] net

(* The one assembly: the program is the net half's unfolding rules followed
   by the supervisor's rules for the observations, and so are the base
   facts. The supervisor is built before [half] is forced, so a caller
   whose net half is not built yet interns the supervisor's names first
   (symbol ids order the fact-store tables). *)
let assemble ~supervisor ~hidden net (half : net_half Lazy.t) observations =
  check_supervisor_name supervisor net;
  let sup =
    Supervisor.build ~supervisor ~place_peers:(Petri.Net.peers net)
      ~hidden_peers:(Encode.hidden_peers ~hidden net) observations
  in
  let half = Lazy.force half in
  ( {
      net;
      program = Dprogram.append half.rules sup.Supervisor.program;
      edb = half.facts @ sup.Supervisor.facts;
      query = sup.Supervisor.query;
      supervisor;
    },
    sup.Supervisor.unbounded )

let prepare ?(supervisor = "supervisor") ?(encoding = Co) (net : Petri.Net.t)
    (alarms : Petri.Alarm.t) : prepared =
  Obs.Trace.with_span "diagnoser.prepare" @@ fun () ->
  let net = binarized net in
  fst
    (assemble ~supervisor ~hidden:[] net (lazy (encode encoding ~hidden:[] net))
       (Supervisor.words alarms))

let prepare_on ~supervisor net half alarms =
  fst (assemble ~supervisor ~hidden:[] net (Lazy.from_val half) (Supervisor.words alarms))

(** Generalized problem (Section 4.4): per-peer regular observations and
    hidden transitions (given by id). The resulting program may have an
    infinite least model (hidden loops, starred patterns) — evaluate with a
    depth gadget ([Eval.options.max_depth], cf. {!gadget_depth}) when
    [Supervisor.unbounded] flags it. *)
let prepare_general ?(supervisor = "supervisor") ?(hidden = []) (net : Petri.Net.t)
    (observations : (string * Pattern.t) list) : prepared * bool =
  let net = binarized net in
  assemble ~supervisor ~hidden net (lazy (encode Co ~hidden net)) observations

(** A term-depth bound admitting every configuration of at most [max_config_size]
    events: configuration ids nest one [h] per event and event names two
    Skolem applications per causal step. *)
let gadget_depth ~max_config_size = (2 * max_config_size) + 3

(** Keep only the configurations of at most [k] events — for comparing
    depth-bounded runs of different engines on a common ground. *)
let restrict_size (d : Canon.diagnosis) k =
  List.filter (fun c -> Term.Set.cardinal c <= k) d

type comm = {
  deliveries : int;
  fact_messages : int;
  delegations : int;
  subscriptions : int;
  bytes : int;
}

type result = {
  diagnosis : Canon.diagnosis;
  events_materialized : Term.Set.t;  (** distinct [trans] node ids derived *)
  conds_materialized : Term.Set.t;  (** distinct [places] node ids derived *)
  facts_total : int;  (** all facts materialized (answers + inputs + sups) *)
  derivations : int;
  comm : comm option;  (** communication stats; [None] for centralized runs *)
}

type engine =
  | Centralized_qsq  (** QSQ on the one-store view of the distributed program *)
  | Centralized_magic  (** magic sets, same view (comparison point) *)
  | Distributed of { seed : int; policy : Network.Sim.policy }  (** dQSQ proper *)
  | Distributed_ds of { seed : int; policy : Network.Sim.policy }
      (** dQSQ with Dijkstra-Scholten termination detection *)
  | Distributed_parallel of { jobs : int }
      (** dQSQ with each peer on an OCaml domain ({!Network.Sim.run_parallel});
          same diagnosis as [Distributed] — the protocol is confluent *)

(* Collect the distinct unfolding nodes from the adorned trans/places/map
   answers of a store. *)
let nodes_of_store (store : Fact_store.t) : Term.Set.t * Term.Set.t =
  let events = ref Term.Set.empty and conds = ref Term.Set.empty in
  let consider_base base tuples =
    (* base is a mangled located name like "trans@p1" *)
    let rel = match String.index_opt base '@' with
      | Some i -> String.sub base 0 i
      | None -> base
    in
    match rel with
    | "trans" ->
      List.iter
        (function x :: _ -> events := Term.Set.add x !events | [] -> ())
        tuples
    | "places" ->
      List.iter
        (function m :: _ -> conds := Term.Set.add m !conds | [] -> ())
        tuples
    | "map" ->
      List.iter
        (function
          | x :: _ ->
            if Canon.is_event_term x then events := Term.Set.add x !events
            else if Canon.is_cond_term x then conds := Term.Set.add x !conds
          | [] -> ())
        tuples
    | _ -> ()
  in
  List.iter
    (fun rel ->
      match Adornment.classify rel with
      | `Answer (base, _) -> consider_base base (Fact_store.tuples_of store rel)
      | `Input _ | `Sup _ | `Plain -> ())
    (Fact_store.relations store);
  (!events, !conds)

let mangled_edb (edb : Datom.t list) : Fact_store.t =
  let store = Fact_store.create () in
  List.iter (fun a -> ignore (Fact_store.add store (Datom.to_atom a))) edb;
  store

let engine_name = function
  | Centralized_qsq -> "qsq"
  | Centralized_magic -> "magic"
  | Distributed _ -> "dqsq"
  | Distributed_ds _ -> "dqsq+ds"
  | Distributed_parallel _ -> "dqsq-par"

let record_result (r : result) =
  Obs.Metrics.incr runs_c;
  let e = Term.Set.cardinal r.events_materialized
  and c = Term.Set.cardinal r.conds_materialized in
  Obs.Metrics.incr ~by:e events_c;
  Obs.Metrics.incr ~by:c conds_c;
  Obs.Metrics.incr ~by:(e + c) nodes_c;
  Obs.Metrics.incr ~by:(List.length r.diagnosis) explanations_c

(** Run the prepared diagnosis query with the chosen engine. *)
let run ?(eval_options = Eval.default_options) (p : prepared) (engine : engine) : result =
  Obs.Trace.with_span "diagnoser.run" ~attrs:[ ("engine", engine_name engine) ]
  @@ fun () ->
  let result =
  match engine with
  | Centralized_qsq | Centralized_magic ->
    let program = Dprogram.mangled p.program in
    let query = Datom.to_atom p.query in
    let edb = mangled_edb p.edb in
    let store, eval_result, answers =
      (match engine with
      | Centralized_qsq -> Qsq.solve
      | Centralized_magic -> Magic.solve
      | Distributed _ | Distributed_ds _ | Distributed_parallel _ -> assert false)
        ~options:eval_options program query edb
    in
    let events, conds = nodes_of_store store in
    {
      diagnosis = Supervisor.diagnosis_of_answers answers;
      events_materialized = events;
      conds_materialized = conds;
      facts_total = Fact_store.count store;
      derivations = eval_result.Eval.stats.Eval.derivations;
      comm = None;
    }
  | Distributed _ | Distributed_ds _ | Distributed_parallel _ ->
    let seed, policy, jobs =
      match engine with
      | Distributed { seed; policy } | Distributed_ds { seed; policy } ->
        (seed, policy, None)
      | Distributed_parallel { jobs } ->
        (* seed/policy are irrelevant under the parallel scheduler *)
        (0, Network.Sim.Random_interleaving, Some jobs)
      | Centralized_qsq | Centralized_magic -> assert false
    in
    let termination =
      match engine with
      | Distributed_ds _ -> Qsq_engine.Dijkstra_scholten
      | Distributed _ | Distributed_parallel _ | Centralized_qsq | Centralized_magic ->
        Qsq_engine.God_view
    in
    let t =
      Qsq_engine.create ~seed ~policy ~eval_options ~termination p.program ~edb:p.edb
        ~query:p.query
    in
    let out = Qsq_engine.run ?jobs t ~query:p.query in
    let events, conds =
      List.fold_left
        (fun (es, cs) peer ->
          let e, c = nodes_of_store (Qsq_engine.peer_store t peer) in
          (* the Theorem 4 number, split by peer *)
          Obs.Metrics.incr
            ~by:(Term.Set.cardinal e + Term.Set.cardinal c)
            (Obs.Metrics.counter ("diagnoser.nodes." ^ peer));
          (Term.Set.union es e, Term.Set.union cs c))
        (Term.Set.empty, Term.Set.empty)
        (Dprogram.peers p.program)
    in
    {
      diagnosis = Supervisor.diagnosis_of_answers out.Qsq_engine.answers;
      events_materialized = events;
      conds_materialized = conds;
      facts_total = out.Qsq_engine.total_facts;
      derivations = 0;
      comm =
        Some
          {
            deliveries = out.Qsq_engine.deliveries;
            fact_messages = out.Qsq_engine.fact_messages;
            delegations = out.Qsq_engine.delegations;
            subscriptions = out.Qsq_engine.subscriptions;
            bytes = out.Qsq_engine.net_stats.Network.Sim.bytes;
          };
    }
  in
  record_result result;
  result

(** One-call convenience. *)
let diagnose ?supervisor ?eval_options ?(engine = Centralized_qsq) net alarms : result =
  run ?eval_options (prepare ?supervisor net alarms) engine

(** Materialization of the {e full} unfolding up to canonical-name depth
    [depth]: bottom-up evaluation of the unfolding rules alone, the
    comparison point showing what diagnosis would cost without
    goal-directed evaluation (Section 4.3's motivation). *)
let full_unfolding_materialization ?(encoding = Co) ~depth (net : Petri.Net.t) :
    Term.Set.t * Term.Set.t * int =
  let net = binarized net in
  let program = Dprogram.mangled (unfolding_rules encoding net) in
  let store = Fact_store.create () in
  let options = { Eval.default_options with Eval.max_depth = Some depth } in
  ignore (Eval.seminaive ~options program store);
  Encode.materialized store
