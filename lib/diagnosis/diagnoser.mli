(** The paper's diagnoser: the diagnosis problem as a dDatalog query
    (Sections 4.1–4.3), evaluated with QSQ, magic sets, or the distributed
    dQSQ protocol. *)

open Datalog
open Dqsq

type prepared = {
  net : Petri.Net.t;  (** the binarized net actually encoded *)
  program : Dprogram.t;  (** unfolding rules + supervisor rules *)
  edb : Datom.t list;  (** [petriNet], [hiddenNet], [alarmSeq], [accept] *)
  query : Datom.t;  (** [q@supervisor(?, ?)] *)
  supervisor : string;
}

type encoding =
  | Co  (** the primary concurrency-relation encoding ({!Encode}) *)
  | Paper  (** the literal Section 4.1 rule set ({!Encode_paper}) *)

val prepare :
  ?supervisor:string -> ?encoding:encoding -> Petri.Net.t -> Petri.Alarm.t -> prepared
(** The basic problem: one word per peer ({!Supervisor.words}) over the
    net. The net is binarized if needed. *)

type net_half
(** The part of a problem the net alone determines: its unfolding rules
    and [petriNet] facts. A prepared program is these followed by the
    supervisor's rules and facts. *)

val encode_net : Petri.Net.t -> net_half
(** The {!Co} net half of a binarized net, for a caller that prepares many
    sequences over one net. *)

val prepare_on : supervisor:string -> Petri.Net.t -> net_half -> Petri.Alarm.t -> prepared
(** {!prepare} over a binarized net and its {!encode_net} half. *)

val prepare_general :
  ?supervisor:string ->
  ?hidden:string list ->
  Petri.Net.t ->
  (string * Pattern.t) list ->
  prepared * bool
(** Section 4.4 extensions; the boolean flags an infinite least model
    (hidden loops, starred patterns) — evaluate with a depth gadget then. *)

val gadget_depth : max_config_size:int -> int
(** A term-depth bound admitting every configuration of at most that many
    events. *)

val restrict_size : Canon.diagnosis -> int -> Canon.diagnosis
(** Keep configurations of at most [k] events (to compare depth-bounded
    runs of different engines on common ground). *)

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
  facts_total : int;
  derivations : int;
  comm : comm option;  (** [None] for centralized runs *)
}

type engine =
  | Centralized_qsq  (** QSQ on the one-store view of the program *)
  | Centralized_magic
  | Distributed of { seed : int; policy : Network.Sim.policy }  (** dQSQ *)
  | Distributed_ds of { seed : int; policy : Network.Sim.policy }
      (** dQSQ with Dijkstra-Scholten termination detection *)
  | Distributed_parallel of { jobs : int }
      (** dQSQ with peers pinned to [jobs] OCaml domains; produces the same
          diagnosis as [Distributed] (confluence), byte-identical reports *)

val run : ?eval_options:Eval.options -> prepared -> engine -> result

val diagnose :
  ?supervisor:string ->
  ?eval_options:Eval.options ->
  ?engine:engine ->
  Petri.Net.t ->
  Petri.Alarm.t ->
  result
(** One-call convenience for the basic problem (default engine: QSQ). *)

val full_unfolding_materialization :
  ?encoding:encoding -> depth:int -> Petri.Net.t -> Term.Set.t * Term.Set.t * int
(** Bottom-up evaluation of the unfolding rules alone up to the given
    canonical depth: (events, conditions, total facts) — what diagnosis
    would cost without goal-directed evaluation. *)
