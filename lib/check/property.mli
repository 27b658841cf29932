(** The paper's theorems as executable differential properties.

    Each property runs two independent computations of the same quantity —
    one engine pair, or an engine against an oracle — on one {!instance}
    and compares canonical results. The mapping from property to paper
    claim is in DESIGN.md ("Fuzzing: properties and theorems"). *)

type instance = {
  net : Petri.Net.t;  (** not necessarily binarized; properties binarize *)
  alarms : Petri.Alarm.t;
  policy : Network.Sim.policy;  (** schedule for the distributed engines *)
  loss : float;  (** loss rate for the lossy properties only *)
  jobs : int;  (** domain count for the parallel-vs-sequential property *)
  sim_seed : int;  (** network-scheduler seed *)
}
(** Everything a property needs. Concrete net and alarms — not a spec and
    seed — so the shrinker can do net-level surgery and re-check. *)

val instance_of_case : Gen.case -> instance

type outcome =
  | Pass
  | Fail of string  (** why: the two sides' canonical results, or an exception *)

type t = {
  name : string;  (** stable CLI identifier, e.g. ["qsq-vs-reference"] *)
  theorem : string;  (** the paper claim it pins, e.g. ["Theorems 2-3"] *)
  applies : instance -> bool;
      (** a structural precondition on the instance (e.g.
          [reference-vs-literal] needs one token per peer); the runner
          skips the instances outside it, and the shrinker counts them as
          passing, so a shrunk counterexample still satisfies it *)
  check : instance -> outcome;
      (** total: engine exceptions come back as [Fail], never escape *)
}

val all : t list
(** Every property, in the order the fuzzer and [diag verify] run them;
    DESIGN.md §8b lists each with the claim it pins. *)

val find : string -> t option
val names : string list
