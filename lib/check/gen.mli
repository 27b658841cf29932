(** Deterministic case generation for the differential fuzzer.

    A {!case} bundles everything one differential check needs: a random net
    (from {!Petri.Generator}), a random alarm scenario, and a network
    schedule (simulator seed, delivery policy, loss rate). Every choice is
    a pure function of the case seed, so [diag fuzz --seed N] replays a
    case exactly and a failure report is a one-line recipe. *)

type case = {
  seed : int;  (** drives every random choice below *)
  spec : Petri.Generator.spec;
  steps : int;  (** length of the random execution behind the scenario *)
  policy : Network.Sim.policy;
  loss : float;  (** injected message-loss rate for the lossy properties *)
  jobs : int;  (** domain count for the parallel-vs-sequential property *)
  net : Petri.Net.t;  (** as generated (not binarized) *)
  firing : string list;  (** ground-truth execution behind [alarms] *)
  alarms : Petri.Alarm.t;  (** the asynchronously delivered observation *)
}

type pins = {
  pin_spec : Petri.Generator.spec option;  (** fix the net shape *)
  pin_steps : int option;  (** fix the scenario length *)
  pin_policy : Network.Sim.policy option;  (** fix the delivery policy *)
  pin_loss : float option;  (** fix the loss rate *)
  pin_jobs : int option;  (** fix the parallel domain count *)
}
(** Optional overrides: anything not pinned is sampled from the seed. *)

val no_pins : pins

val default_loss : float
(** The loss rate of every case whose loss is not pinned. *)

val case : ?pins:pins -> seed:int -> unit -> case
(** The case of a seed. Deterministic: same seed and pins, same case.

    The observation is truncated to (the asynchronous delivery of) the
    longest {e firing} prefix whose explanation branching (product over
    alarms of the number of same-peer transitions sharing the symbol)
    stays under a fixed budget — both the reference oracle and
    goal-directed evaluation are exponential in that product, and
    unguarded single-symbol cases take minutes. Truncating along the
    firing keeps the observation explainable; unambiguous observations
    are never cut. *)

val policy_name : Network.Sim.policy -> string
val policy_of_string : string -> (Network.Sim.policy, string) result

val spec_of_string : string -> (Petri.Generator.spec, string) result
(** Parse a compact spec like ["peers=2,components=2,places=3,local=3,\
    sync=2,alphabet=3"]; omitted keys keep {!Petri.Generator.default_spec}
    values. Rejects unknown keys and invalid specs. *)

val spec_to_string : Petri.Generator.spec -> string
(** Inverse of {!spec_of_string} (all keys explicit). *)

val describe : case -> string
(** One line: spec, steps, policy, loss, observation length. *)
