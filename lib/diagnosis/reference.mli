(** Definition-level diagnoser: the Output specification of Section 2,
    executed literally on a deep-enough unfolding prefix by enumerating
    configurations. Exponential — the obviously-correct oracle the
    efficient implementations are tested against.

    The paper's condition (iii) admits two readings that can diverge on
    cross-peer cyclic order choices: the literal per-peer one, and the
    global-interleaving one that both the [configPrefixes] program and the
    dedicated algorithm of [8] compute. {!diagnose} uses the global
    reading; {!diagnose_literal} the literal one (see DESIGN.md and the
    [definition-vs-algorithm] tests). *)

module U = Petri.Unfolding

type result = {
  diagnosis : Canon.diagnosis;
  unfolding : U.t;  (** the prefix that was searched *)
  configurations_examined : int;
}

val diagnose : ?max_events:int -> Petri.Net.t -> Petri.Alarm.t -> result
(** The basic problem, global reading. The prefix depth [2n+2] suffices for
    configurations of [n] events. *)

val diagnose_literal : ?max_events:int -> Petri.Net.t -> Petri.Alarm.t -> result
(** The literal per-peer reading of condition (iii). *)

val diagnose_general :
  ?max_events:int ->
  max_config_size:int ->
  hidden:string list ->
  Petri.Net.t ->
  (string * Pattern.t) list ->
  result
(** Section 4.4: per-peer regular observations and hidden transitions; all
    matching configurations of at most [max_config_size] events. *)
