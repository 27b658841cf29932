(** Per-peer runtime shared by the distributed engines.

    Each peer owns a fact store over mangled located relations, a growing
    set of installed (rewritten or original) rules, and a subscriber table.
    Local evaluation reuses the centralized semi-naive engine: a peer is a
    little deductive database of its own, exactly the paper's picture of
    autonomous peers holding rules and data. *)

open Datalog

type t = {
  peer : string;
  store : Fact_store.t;
  mutable rules : Rule.t list;  (** installed rules, newest first *)
  installed : unit Rule.Tbl.t;  (** dedup of installed rules, up to [Rule.equal] *)
  index : Eval.index;  (** the installed rules, indexed once, kept across evaluations *)
  mutable closed : int;
      (** the store is a fixpoint of the first [closed] installed rules:
          set by a completed evaluation, cleared by a new fact *)
  subscribers : (Symbol.t, string list ref) Hashtbl.t;
  eval_options : Eval.options;
  mutable clipped : int;  (** facts discarded by the depth bound *)
}

let create ?(eval_options = Eval.default_options) peer =
  {
    peer;
    store = Fact_store.create ();
    rules = [];
    installed = Rule.Tbl.create 64;
    index = Eval.index_create ();
    closed = 0;
    subscribers = Hashtbl.create 16;
    eval_options;
    clipped = 0;
  }

(** Forget rules, facts and subscribers but keep every table allocated
    (the store clears-and-reuses its indexes): the cheap per-session reset
    behind warm-engine recycling. [eval_options] survive — they belong to
    the engine, not the session. *)
let reset t =
  Fact_store.reset t.store;
  t.rules <- [];
  Rule.Tbl.clear t.installed;
  Eval.index_clear t.index;
  t.closed <- 0;
  Hashtbl.clear t.subscribers;
  t.clipped <- 0

(** Install a rule; returns [true] if it was new. *)
let install t (r : Rule.t) : bool =
  if Rule.Tbl.mem t.installed r then false
  else begin
    Rule.Tbl.add t.installed r ();
    t.rules <- r :: t.rules;
    Eval.index_add t.index r;
    true
  end

(** Record that [dst] wants the tuples of [rel]; returns the tuples to ship
    immediately (the current extent). *)
let subscribe t (rel : Symbol.t) ~dst : Atom.t list =
  let subs =
    match Hashtbl.find_opt t.subscribers rel with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.subscribers rel l;
      l
  in
  if List.mem dst !subs then []
  else begin
    subs := dst :: !subs;
    Fact_store.facts_of t.store rel
  end

let subscribers_of t rel =
  match Hashtbl.find_opt t.subscribers rel with Some l -> !l | None -> []

(** Add a fact received from the network (or seeded); [true] if new. A new
    fact may enable every installed rule again. *)
let add_fact t (a : Atom.t) : bool =
  let fresh = Fact_store.add t.store a in
  if fresh then t.closed <- 0;
  fresh

(* The same registry names the centralized {!Qsq.solve} increments: the
   distributed engine's local fixpoints count toward the one qsq.* total. *)
let facts_derived_c = Obs.Metrics.counter "qsq.facts_derived"
let rules_fired_c = Obs.Metrics.counter "qsq.rules_fired"
let rounds_c = Obs.Metrics.counter "qsq.fixpoint_rounds"

(** Run local semi-naive evaluation. [delta], when given, restricts the
    initial delta to the given freshly arrived facts, and must hold every
    fact added since the last evaluation. Returns the newly derived facts
    paired with the peers subscribed to their relations at derivation
    time. The firings of rules under which the store is already closed are
    skipped until the first new fact (see {!Eval.seminaive_indexed}), so
    the facts derived and their order do not depend on it. *)
let evaluate ?delta t : (Atom.t * string list) list =
  let out = ref [] in
  let on_new a = out := (a, subscribers_of t a.Atom.rel) :: !out in
  let result =
    Eval.seminaive_indexed ~options:t.eval_options ~init_delta:delta ~on_new
      ~closed:t.closed t.index t.store
  in
  t.closed <-
    (match result.Eval.status with
    | Eval.Budget_exhausted -> 0
    | Eval.Fixpoint | Eval.Depth_clipped -> Eval.index_size t.index);
  t.clipped <- t.clipped + result.Eval.stats.Eval.clipped;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.new_facts facts_derived_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.derivations rules_fired_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.rounds rounds_c;
  List.rev !out

let facts_count t = Fact_store.count t.store
let store t = t.store
let rules t = List.rev t.rules
let clipped t = t.clipped
