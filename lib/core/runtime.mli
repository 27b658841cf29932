(** Per-peer runtime shared by the distributed engines: a fact store over
    mangled located relations, a growing set of installed rules, and a
    subscriber table. Each peer is a little deductive database of its own. *)

open Datalog

type t

val create : ?eval_options:Eval.options -> string -> t

val reset : t -> unit
(** Forget rules, facts and subscribers, keeping tables allocated (via
    {!Datalog.Fact_store.reset}) — the per-session reset for warm engines.
    [eval_options] are preserved. *)

val install : t -> Rule.t -> bool
(** Install a rule, to be fired from the next {!evaluate}; [true] iff new
    (idempotent otherwise). Rules are compared structurally
    ({!Datalog.Rule.equal}): a rule rebuilt from scratch is a duplicate, a
    variable renaming is not. *)

val subscribe : t -> Symbol.t -> dst:string -> Atom.t list
(** Record the subscriber and return the current extent to ship at once. *)

val subscribers_of : t -> Symbol.t -> string list

val add_fact : t -> Atom.t -> bool
(** Add a fact; [true] iff new. A new fact is pending until the next
    {!evaluate}. *)

val evaluate : t -> (Atom.t * string list) list
(** Run the one local semi-naive pass that what changed since the last
    call requires, and return the newly derived facts with the peers
    subscribed to their relations:
    - nothing, when no rule was installed and no fact is pending;
    - a delta pass over the pending facts, when only facts arrived;
    - a full pass, when rules were installed. It skips the firings of the
      rules the store is closed under until it derives a new fact.

    The invariant behind the choice: the store minus the pending facts is
    a fixpoint of the rules installed before the last completed pass, so
    a skipped firing could only re-derive a present fact. A caller may
    install and add as much as it likes between two calls: in monotone
    Datalog one pass at the end derives what a pass after each change
    would have. Each pass run counts in [qsq.local_passes]. *)

val facts_count : t -> int
val store : t -> Fact_store.t
val rules : t -> Rule.t list
(** Installed rules, in install order. *)

val clipped : t -> int
(** Facts discarded by the depth bound, over every evaluation. *)
