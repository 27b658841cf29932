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
(** Install a rule; [true] iff new (idempotent otherwise). Rules are
    compared structurally ({!Datalog.Rule.equal}): a rule rebuilt from
    scratch is a duplicate, a variable renaming is not. *)

val subscribe : t -> Symbol.t -> dst:string -> Atom.t list
(** Record the subscriber and return the current extent to ship at once. *)

val subscribers_of : t -> Symbol.t -> string list

val add_fact : t -> Atom.t -> bool
(** Add a fact; [true] iff new. A new fact clears the record that the store
    is a fixpoint of the installed rules. *)

val evaluate : ?delta:Atom.t list -> t -> (Atom.t * string list) list
(** Local semi-naive evaluation; returns the newly derived facts with the
    peers subscribed to their relations. [delta] restricts the initial
    delta to freshly arrived facts and must hold every fact added since the
    last evaluation (rule installs need a full pass). The peer keeps its
    rule index across calls, and a completed evaluation records that the
    store is a fixpoint of the rules installed so far: the next full pass
    skips their firings until something new is derived. The derived facts
    and their order are those of a from-scratch pass. *)

val facts_count : t -> int
val store : t -> Fact_store.t
val rules : t -> Rule.t list
(** Installed rules, in install order. *)

val clipped : t -> int
(** Facts discarded by the depth bound, over every evaluation. *)
