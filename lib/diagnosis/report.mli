(** Human-readable reports of diagnoses.

    "In practice, this set will have to be 'explained' to a human
    supervisor and represented (preferably graphically) in a compact form"
    (Section 2). Events are presented in causal order with their peer,
    alarm and immediate causes — all reconstructed from the Skolem-term
    structure of the configuration itself. *)

open Datalog

type event_view = {
  term : Term.t;
  transition : string;
  peer : string;
  alarm : string;
  causes : Term.t list;  (** immediate causal predecessors in the config *)
}

val view_of_config : Petri.Net.t -> Canon.config -> event_view list

val to_string : Petri.Net.t -> Canon.diagnosis -> string
(** A compact textual report of a whole diagnosis: one block per
    explanation, events in causal order, each with its peer, alarm, and
    immediate causes. *)

val frame : Canon.diagnosis -> string
(** The report frame a client receives: the diagnosis as one configs frame
    ({!Dqsq.Wire.encode_configs}) from a fresh encoder. Decoding it gives
    back the same terms, so it renders as {!to_string} does (the
    [codec-roundtrip] fuzz property checks that). *)

val timelines : Petri.Net.t -> Canon.config -> (string * string list) list
(** Per-peer narration: each peer's events in a causal linear order. *)

val dot_of_config : Petri.Net.t -> Canon.config -> string
(** The Fig. 2 rendering: the unfolding prefix with the explanation's
    events highlighted. *)
