(** The dedicated diagnosis algorithm of Benveniste–Fabre–Haar–Jard [8], as
    sketched in Section 4.3: unfold the product of the net with per-peer
    observation automata on the fly, materializing exactly the prefix of
    the unfolding relevant to the observation. One search serves both
    problems: a fixed alarm sequence is each peer's linear word automaton
    (Section 4.4). Nodes carry the same canonical terms as the Datalog
    encoding, so Theorem 4 is a set comparison. *)

open Datalog

type result = {
  diagnosis : Canon.diagnosis;
  events_materialized : Term.Set.t;
  conds_materialized : Term.Set.t;
  states_explored : int;
}

val diagnose : ?max_states:int -> Petri.Net.t -> Petri.Alarm.t -> result
(** The basic problem: {!diagnose_general} over {!Supervisor.words}, nothing
    hidden, configurations up to the sequence's length.
    @raise Failure when [max_states] is exceeded. *)

val diagnose_general :
  ?max_states:int ->
  max_config_size:int ->
  hidden:string list ->
  Petri.Net.t ->
  (string * Pattern.t) list ->
  result
(** Section 4.4: regular observations (NFA state sets as product states)
    and hidden transitions; configurations up to [max_config_size].
    @raise Failure when [max_states] is exceeded. *)
