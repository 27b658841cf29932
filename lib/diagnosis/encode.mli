(** The Petri-net unfolding as a dDatalog program (Section 4.1).

    Each peer's rules are generated from its own view of the net (its nodes
    plus the producer peers of its transitions' parent places — the paper's
    [Neighb(p)] sets), with the Skolem functions [f]/[g] creating node
    identities.

    {b Deviation, by design:} the paper's [notCausal]/[notConf]/
    [transTree]/[placesTree] machinery is replaced by one positive [co]
    relation (conditions are concurrent), defined inductively with the same
    locality and node naming; two conditions can jointly fire a transition
    iff they are concurrent, which is the only question those relations
    answer in the event-creation rule. See DESIGN.md. *)

open Dqsq

exception Unsupported of string

val producer_peers : Petri.Net.t -> string -> string list
(** Peers that may produce an instance of the place: peers of transitions
    with it in their postset, plus its own peer if initially marked. *)

val unfolding_program : Petri.Net.t -> Dprogram.t
(** The [places]/[trans]/[map]/[co] rules of every peer.
    @raise Unsupported unless the net is binarized ({!Petri.Net.binarize}). *)

val petri_net_facts : ?hidden:string list -> Petri.Net.t -> Datom.t list
(** [petriNet@p(t, alarm, c0, c00)] base facts for the observable
    transitions ([hidden] ones are omitted — Section 4.4). *)

val hidden_net_facts : hidden:string list -> Petri.Net.t -> Datom.t list
(** [hiddenNet@p(t, c0, c00)] facts for unobservable transitions. *)

val hidden_peers : hidden:string list -> Petri.Net.t -> string list

val materialized : Datalog.Fact_store.t -> Datalog.Term.Set.t * Datalog.Term.Set.t * int
(** The unfolding nodes a plain (un-adorned) store holds: (events from
    [trans], conditions from [places], total facts). *)
