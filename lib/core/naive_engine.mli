(** Distributed naive evaluation of dDatalog (Section 3.2).

    Activation flows top-down (activating a relation activates its rules,
    which activate and subscribe to the relations in their bodies); tuples
    then stream until no peer can derive anything new. No binding
    information is propagated: entire relations are computed and shipped —
    the baseline dQSQ improves on. *)

open Datalog

type t

type outcome = {
  answers : Atom.t list;  (** instantiations of the query's mangled atom *)
  deliveries : int;
  net_stats : Network.Sim.stats;
  total_facts : int;  (** over all peer stores, replicas included *)
  facts_per_peer : (string * int) list;
}

val solve :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?eval_options:Eval.options ->
  ?max_steps:int ->
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  outcome
