(** The fuzz driver: generate cases from consecutive seeds, run the
    selected properties on each, shrink every failure (spec-level first,
    via {!Petri.Generator.shrink_spec}, then net-level via {!Shrink}) and
    render a report whose every failure carries a one-line replay recipe
    and a parseable minimized counterexample. *)

type config = {
  runs : int;  (** cases: seeds [seed], [seed+1], ... [seed+runs-1] *)
  seed : int;
  pins : Gen.pins;  (** pinned case dimensions (printed in recipes) *)
  properties : Property.t list;
  max_shrink_checks : int;  (** per-failure shrinking budget *)
}

val default_config : config
(** 100 runs from seed 0, no pins, every property, 200-check shrinking. *)

type failure = {
  case : Gen.case;  (** the original failing case *)
  property : Property.t;
  reason : string;
  shrunk : Property.instance;  (** minimized; still failing, inside [applies] *)
  shrunk_reason : string;
  shrink_steps : int;  (** accepted reductions (spec- plus net-level) *)
}

type report = {
  cases : int;
  checks : int;  (** property evaluations, shrinking excluded *)
  skipped : int;  (** (case, property) pairs filtered by [applies] *)
  failures : failure list;
}

val run : ?on_case:(Gen.case -> unit) -> config -> report
(** Deterministic for a given config. Never raises: property exceptions
    are failures. *)

val replay_recipe : config -> failure -> string
(** A [diag fuzz] command line reproducing exactly the failing case. *)

val print_failure : config -> failure -> string
(** Multi-line block: case, reason, replay recipe, and the shrunk
    counterexample in {!Petri.Parse} format plus its schedule line. *)

val print_report : config -> report -> string
(** The failure blocks followed by a one-line summary. *)
