(** The supervisor's rules: diagnosing an observation (Sections 4.2, 4.4).

    The received alarm sequence is split into per-peer subsequences encoded
    in [alarmSeq]; [configPrefixes] builds configurations explaining
    increasingly larger prefixes (k-ary index [ix(i1,...,ik)] across
    peers), with [transInConf] and [notParent] as auxiliaries and [q]
    selecting complete explanations. Observations generalize to regular
    patterns ([alarmSeq] holds automaton transitions, index components are
    automaton states); hidden transitions extend configurations without
    touching the index. *)

open Datalog
open Dqsq

val initial_id : Term.t
(** The empty configuration id [h(r)]. *)

type t = {
  program : Dprogram.t;
  facts : Datom.t list;  (** the [alarmSeq] and [accept] base relations *)
  query : Datom.t;  (** [q@p0(Z, X)] *)
  supervisor : string;
  sequence_peers : string list;
  unbounded : bool;
      (** some pattern accepts arbitrarily long words or hidden transitions
          exist: evaluation needs the depth gadget *)
}

val build :
  ?supervisor:string ->
  ?place_peers:string list ->
  ?hidden_peers:string list ->
  (string * Pattern.t) list ->
  t
(** [place_peers] is the directory of peers whose places events may
    consume; it must include every system peer when transitions synchronize
    across peers that did not alarm (the [notParent] base case ranges over
    it). [hidden_peers] may fire unobserved transitions ([hiddenNet@p]).
    @raise Invalid_argument on duplicate observation peers. *)

val words : Petri.Alarm.t -> (string * Pattern.t) list
(** The basic problem of Section 4.2 as observations: each peer's
    subsequence of one fixed alarm sequence, as a {!Pattern.word}. *)

val diagnosis_of_answers : Atom.t list -> Canon.diagnosis
(** Group the [q(z, x)] answers into a diagnosis (one configuration per id,
    duplicates identified). *)
