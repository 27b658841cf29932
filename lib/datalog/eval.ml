(** Bottom-up evaluation: naive and semi-naive fixpoints.

    Because the paper's programs contain function symbols, the least model
    may be infinite and bottom-up evaluation may diverge (Section 3). The
    engine therefore supports two safety valves, both reported in the result
    status:
    - [max_depth]: derived facts containing a term deeper than the bound are
      discarded ("bounding the depth of the unfolding", Section 4.4);
    - [max_facts] / [max_rounds]: hard budgets. *)

type status =
  | Fixpoint  (** a genuine least fixpoint was reached *)
  | Depth_clipped  (** fixpoint of the depth-bounded program *)
  | Budget_exhausted  (** stopped by [max_facts] or [max_rounds] *)

type stats = {
  mutable derivations : int;  (** successful rule firings, incl. duplicates *)
  mutable new_facts : int;  (** facts actually added *)
  mutable clipped : int;  (** facts discarded by the depth bound *)
  mutable rounds : int;
}

type result = { status : status; stats : stats }

let fresh_stats () = { derivations = 0; new_facts = 0; clipped = 0; rounds = 0 }

type options = {
  max_depth : int option;
  max_facts : int option;
  max_rounds : int option;
}

let default_options = { max_depth = None; max_facts = None; max_rounds = None }

let atom_depth (a : Atom.t) =
  List.fold_left (fun acc t -> max acc (Term.depth t)) 0 a.Atom.args

(** Enumerate the substitutions satisfying [body] (a list of literals) against
    [store], extending [init]. If [delta = Some (j, tuples)], the [j]-th
    positive atom is matched against [tuples] instead of the store (the
    semi-naive delta) and, as the most selective literal, drives the join:
    it is evaluated first. The remaining positive atoms are joined
    most-bound-first: at every step the atom with the most arguments ground
    under the current substitution is matched next (ties keep body order),
    which maximizes the chance of an indexed probe over a full relation
    scan. Disequalities are checked as soon as both sides are ground, and
    rechecked at the end (range restriction guarantees they are ground
    then). Bodies containing negation keep the static literal order: [Neg]
    reads the store, which the surrounding fixpoint mutates between
    derivations, so its check time is part of the (alternating/stratified)
    semantics and must not float. *)
let eval_body store body ~init ?delta f =
  (* A constraint (disequality or negated atom) holds under [s] once ground;
     non-ground ones are deferred. *)
  let constraint_state s = function
    | `Neq (x, y) ->
      let x = Subst.apply s x and y = Subst.apply s y in
      if Term.is_ground x && Term.is_ground y then
        if Term.equal x y then `Fails else `Holds
      else `Deferred
    | `Neg a ->
      let a = Atom.apply s a in
      if Atom.is_ground a then if Fact_store.mem store a then `Fails else `Holds
      else `Deferred
  in
  let tagged =
    let pos_idx = ref (-1) in
    List.map
      (function
        | Rule.Neq (x, y) -> `Neq (x, y)
        | Rule.Neg a -> `Neg a
        | Rule.Pos a -> (
          incr pos_idx;
          match delta with
          | Some (j, tuples) when j = !pos_idx -> `Delta (a, tuples)
          | Some _ | None -> `Pos a))
      body
  in
  let has_negation = List.exists (function `Neg _ -> true | _ -> false) tagged in
  if has_negation then begin
    (* static order (the pre-reordering behavior), delta first *)
    let rec go lits s pending =
      match lits with
      | [] ->
        let ok = List.for_all (fun c -> constraint_state s c = `Holds) pending in
        if ok then f s
      | (`Neq _ | `Neg _) as c :: rest -> (
        match constraint_state s c with
        | `Holds -> go rest s pending
        | `Fails -> ()
        | `Deferred -> go rest s (c :: pending))
      | `Pos a :: rest ->
        Fact_store.iter_matches store a ~init:s (fun s' -> go rest s' pending)
      | `Delta (a, tuples) :: rest ->
        Fact_store.iter_matches_in a tuples ~init:s (fun s' -> go rest s' pending)
    in
    let lits =
      match
        List.partition
          (function `Delta _ -> true | `Pos _ | `Neq _ | `Neg _ -> false)
          tagged
      with
      | [], rest -> rest
      | deltas, rest -> deltas @ rest
    in
    go lits init []
  end
  else begin
    (* Most-bound-first dynamic join. Purely an evaluation-order change:
       disequalities are store-independent, so checking them earlier only
       prunes — the satisfying-substitution set is unchanged. *)
    let deltas, positives, constraints =
      List.fold_right
        (fun lit (ds, ps, cs) ->
          match lit with
          | `Delta (a, tuples) -> ((a, tuples) :: ds, ps, cs)
          | `Pos a -> (ds, a :: ps, cs)
          | (`Neq _) as c -> (ds, ps, c :: cs)
          | `Neg _ -> assert false (* this branch is Neg-free *))
        tagged ([], [], [])
    in
    (* Groundness of [t] under [s] without building [Subst.apply s t]:
       every variable must be bound (matching binds to ground store
       tuples, but double-check groundness of the image to be exact). *)
    let ground_under s t =
      Term.is_ground t
      || Term.vars_fold
           (fun acc x ->
             acc
             && match Subst.find x s with
                | Some u -> Term.is_ground u
                | None -> false)
           true t
    in
    let bound_args s (a : Atom.t) =
      List.fold_left (fun n t -> if ground_under s t then n + 1 else n) 0 a.Atom.args
    in
    (* Check currently-checkable constraints; [None] on failure. *)
    let filter_constraints s cs =
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | c :: rest -> (
          match constraint_state s c with
          | `Holds -> go acc rest
          | `Fails -> None
          | `Deferred -> go (c :: acc) rest)
      in
      go [] cs
    in
    (* Most arguments ground first; [>] keeps ties in body order. *)
    let pick_most_bound s poss =
      let rec go best_a best_score seen = function
        | [] -> (best_a, List.rev seen)
        | a :: rest ->
          let sc = bound_args s a in
          if sc > best_score then go a sc (best_a :: seen) rest
          else go best_a best_score (a :: seen) rest
      in
      match poss with
      | [] -> assert false
      | a :: rest -> go a (bound_args s a) [] rest
    in
    let rec go s cs deltas poss =
      match filter_constraints s cs with
      | None -> ()
      | Some cs -> (
        match deltas with
        | (a, tuples) :: drest ->
          Fact_store.iter_matches_in a tuples ~init:s (fun s' -> go s' cs drest poss)
        | [] -> (
          match poss with
          | [] -> if cs = [] then f s
          | _ :: _ ->
            let a, rest = pick_most_bound s poss in
            Fact_store.iter_matches store a ~init:s (fun s' -> go s' cs [] rest)))
    in
    go init constraints deltas positives
  end

exception Stop of status

(* Cumulative engine instrumentation (lib/obs): [stats] stays the per-call
   result, the registry carries the process-wide totals. *)
let rules_fired_c = Obs.Metrics.counter "eval.rules_fired"
let facts_derived_c = Obs.Metrics.counter "eval.facts_derived"
let clipped_c = Obs.Metrics.counter "eval.clipped"
let rounds_c = Obs.Metrics.counter "eval.rounds"
let delta_size_h = Obs.Metrics.histogram "eval.delta_size"

(** Run one rule against the store, adding derived heads. *)
let fire_rule store opts stats (r : Rule.t) ?delta add_new =
  eval_body store r.Rule.body ~init:Subst.empty ?delta (fun s ->
      stats.derivations <- stats.derivations + 1;
      Obs.Metrics.incr rules_fired_c;
      let head = Atom.apply s r.Rule.head in
      if not (Atom.is_ground head) then
        invalid_arg
          (Printf.sprintf "Eval: rule %s derived non-ground fact %s"
             (Rule.to_string r) (Atom.to_string head));
      let clipped =
        match opts.max_depth with Some d -> atom_depth head > d | None -> false
      in
      if clipped then begin
        stats.clipped <- stats.clipped + 1;
        Obs.Metrics.incr clipped_c
      end
      else if Fact_store.add store head then begin
        stats.new_facts <- stats.new_facts + 1;
        Obs.Metrics.incr facts_derived_c;
        add_new head;
        match opts.max_facts with
        | Some m when Fact_store.count store >= m -> raise (Stop Budget_exhausted)
        | Some _ | None -> ()
      end)

let check_rounds opts stats =
  stats.rounds <- stats.rounds + 1;
  Obs.Metrics.incr rounds_c;
  match opts.max_rounds with
  | Some m when stats.rounds > m -> raise (Stop Budget_exhausted)
  | Some _ | None -> ()

let final_status opts stats =
  if stats.clipped > 0 && opts.max_depth <> None then Depth_clipped else Fixpoint

(** Naive evaluation: every round re-evaluates every rule against the full
    store, until no round adds a fact. *)
let naive ?(options = default_options) (program : Program.t) (store : Fact_store.t) : result =
  let facts, program = Program.partition_facts program in
  List.iter (fun a -> ignore (Fact_store.add store a)) facts;
  let stats = fresh_stats () in
  let rec loop () =
    check_rounds options stats;
    let before = Fact_store.count store in
    List.iter (fun r -> fire_rule store options stats r (fun _ -> ())) (Program.rules program);
    if Fact_store.count store > before then loop ()
  in
  match loop () with
  | () -> { status = final_status options stats; stats }
  | exception Stop st -> { status = st; stats }

(* ------------------------------------------------------------------ *)
(* Rule index                                                          *)
(* ------------------------------------------------------------------ *)

(* The rules of a program indexed by the relations of their positive body
   atoms, so a round only touches the rules whose delta is nonempty. Every
   rule gets a serial (its rank in addition order): an index grows one rule
   at a time, so a caller that keeps it across evaluations (a dQSQ peer)
   never rebuilds it, and a serial bound names "the rules present when the
   store was last a fixpoint". Firing order within a round does not affect
   the fixpoint. *)
type index = {
  mutable size : int;  (* rules added; the next rule's serial *)
  mutable facts : Atom.t list;  (* ground body-less rules, newest first *)
  mutable bodyless : (int * Rule.t) list;  (* newest first *)
  occurrences : (Symbol.t, (int * Rule.t * int) list) Hashtbl.t;
      (* body relation -> (serial, rule, position among positive atoms),
         newest rule first *)
}

let index_create () =
  { size = 0; facts = []; bodyless = []; occurrences = Hashtbl.create 64 }

let index_clear ix =
  ix.size <- 0;
  ix.facts <- [];
  ix.bodyless <- [];
  Hashtbl.clear ix.occurrences

let index_size ix = ix.size

let index_add ix (r : Rule.t) =
  let serial = ix.size in
  ix.size <- serial + 1;
  if Rule.is_fact r && Atom.is_ground r.Rule.head then ix.facts <- r.Rule.head :: ix.facts
  else
    match Rule.body_atoms r with
    | [] ->
      (* Non-ground fact rules fail when fired. Rules whose body is only
         constraints cannot be range restricted unless variable-free. *)
      ix.bodyless <- (serial, r) :: ix.bodyless
    | atoms ->
      List.iteri
        (fun j atom ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt ix.occurrences atom.Atom.rel)
          in
          Hashtbl.replace ix.occurrences atom.Atom.rel ((serial, r, j) :: prev))
        atoms

let index_of_program program =
  let ix = index_create () in
  List.iter (index_add ix) (Program.rules program);
  ix

(** Semi-naive evaluation over an index: each round only considers rule
    instantiations in which at least one body atom matches a fact derived
    in the previous round. [init_delta], when given, replaces the default
    initial delta (the whole store). [closed] promises that the store is a
    fixpoint of the rules with serial below it: until round 1 derives its
    first new fact, their firings are skipped — over an unchanged store
    they could only re-derive present facts. From that fact on every rule
    fires, so the derived facts and their order are those of a run without
    the promise. *)
let seminaive_indexed ~options ~init_delta ~on_new ~closed ix (store : Fact_store.t) :
    result =
  let stats = fresh_stats () in
  let skip = ref closed in
  let delta : (Symbol.t, Term.t list list) Hashtbl.t = Hashtbl.create 64 in
  let delta_add (a : Atom.t) =
    let prev = Option.value ~default:[] (Hashtbl.find_opt delta a.Atom.rel) in
    Hashtbl.replace delta a.Atom.rel (a.Atom.args :: prev)
  in
  (match init_delta with
  | None ->
    (* Initial delta: all facts currently in the store plus program facts;
       the stored newest-first tuple lists are shared as they are. *)
    Fact_store.iter_extents store (fun rel tuples -> Hashtbl.replace delta rel tuples)
  | Some atoms -> List.iter delta_add atoms);
  List.iter
    (fun a ->
      if Fact_store.add store a then begin
        skip := 0;
        delta_add a;
        on_new a
      end)
    (List.rev ix.facts);
  let rec loop () =
    check_rounds options stats;
    Obs.Metrics.observe_int delta_size_h
      (Hashtbl.fold (fun _ tuples acc -> acc + List.length tuples) delta 0);
    let next : (Symbol.t, Term.t list list) Hashtbl.t = Hashtbl.create 64 in
    let next_add (a : Atom.t) =
      let prev = Option.value ~default:[] (Hashtbl.find_opt next a.Atom.rel) in
      Hashtbl.replace next a.Atom.rel (a.Atom.args :: prev)
    in
    let fired = ref false in
    let add_new a =
      skip := 0;
      fired := true;
      next_add a;
      on_new a
    in
    List.iter
      (fun (i, r) -> if i >= !skip then fire_rule store options stats r add_new)
      ix.bodyless;
    Hashtbl.iter
      (fun rel tuples ->
        List.iter
          (fun (i, r, j) ->
            if i >= !skip then fire_rule store options stats r ~delta:(j, tuples) add_new)
          (Option.value ~default:[] (Hashtbl.find_opt ix.occurrences rel)))
      delta;
    skip := 0;
    if !fired then begin
      Hashtbl.reset delta;
      Hashtbl.iter (fun rel tuples -> Hashtbl.replace delta rel tuples) next;
      loop ()
    end
  in
  match loop () with
  | () -> { status = final_status options stats; stats }
  | exception Stop st -> { status = st; stats }

(** Semi-naive evaluation of a whole program: index it, then run the
    rounds. [on_new] observes every fact added to the store. *)
let seminaive ?(options = default_options) ?init_delta ?(on_new = fun (_ : Atom.t) -> ())
    (program : Program.t) (store : Fact_store.t) : result =
  seminaive_indexed ~options ~init_delta ~on_new ~closed:0 (index_of_program program) store

(* ------------------------------------------------------------------ *)
(* Negation (Remark 4)                                                 *)
(* ------------------------------------------------------------------ *)

(** Classical stratification: split the program into strata such that every
    negated relation is fully defined in a strictly lower stratum (positive
    dependencies may stay within a stratum). [Error rel] names a relation on
    a negative cycle. *)
let stratify (program : Program.t) : (Program.t list, string) Stdlib.result =
  let rules = Program.rules program in
  let rels =
    List.sort_uniq Symbol.compare
      (List.concat_map
         (fun r ->
           (r.Rule.head.Atom.rel :: List.map (fun a -> a.Atom.rel) (Rule.body_atoms r))
           @ List.map (fun a -> a.Atom.rel) (Rule.negated_atoms r))
         rules)
  in
  let stratum : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace stratum r 0) rels;
  let get r = Option.value ~default:0 (Hashtbl.find_opt stratum r) in
  let n = List.length rels in
  let changed = ref true in
  let iterations = ref 0 in
  let overflow = ref None in
  while !changed && !overflow = None do
    changed := false;
    incr iterations;
    List.iter
      (fun r ->
        let h = r.Rule.head.Atom.rel in
        let bump v =
          if v > get h then begin
            Hashtbl.replace stratum h v;
            changed := true;
            if v > n then overflow := Some h
          end
        in
        List.iter (fun a -> bump (get a.Atom.rel)) (Rule.body_atoms r);
        List.iter (fun a -> bump (get a.Atom.rel + 1)) (Rule.negated_atoms r))
      rules
  done;
  match !overflow with
  | Some rel -> Error (Symbol.name rel)
  | None ->
    let max_stratum = List.fold_left (fun acc r -> max acc (get r)) 0 rels in
    Ok
      (List.init (max_stratum + 1) (fun i ->
           Program.make
             (List.filter (fun r -> get r.Rule.head.Atom.rel = i) rules)))

exception Not_stratifiable of string

(** Evaluate a stratified program bottom-up: semi-naive per stratum, lowest
    first, so every negated atom is tested against a complete relation.
    @raise Not_stratifiable on negative cycles. *)
let stratified ?(options = default_options) (program : Program.t) (store : Fact_store.t) :
    result =
  match stratify program with
  | Error rel -> raise (Not_stratifiable rel)
  | Ok strata ->
    let merged = fresh_stats () in
    let status =
      List.fold_left
        (fun acc stratum ->
          let r = seminaive ~options stratum store in
          merged.derivations <- merged.derivations + r.stats.derivations;
          merged.new_facts <- merged.new_facts + r.stats.new_facts;
          merged.clipped <- merged.clipped + r.stats.clipped;
          merged.rounds <- merged.rounds + r.stats.rounds;
          match acc, r.status with
          | Budget_exhausted, _ | _, Budget_exhausted -> Budget_exhausted
          | Depth_clipped, _ | _, Depth_clipped -> Depth_clipped
          | Fixpoint, Fixpoint -> Fixpoint)
        Fixpoint strata
    in
    { status; stats = merged }

(** Alternating fixpoint for programs with a "stratified flavor" (Remark 4):
    not classically stratifiable, but {e monotone under derivation} — once a
    negated atom is false of the saturated current store, later derivations
    never make it true (in the unfolding program, new nodes never add
    causality or conflict between existing nodes). Each round saturates the
    negation-free rules, then fires the rules with negation against that
    saturated store; rounds repeat to fixpoint. Sound and complete exactly
    under the monotonicity precondition, which is the caller's obligation. *)
let alternating ?(options = default_options) (program : Program.t) (store : Fact_store.t) :
    result =
  let facts, program = Program.partition_facts program in
  List.iter (fun a -> ignore (Fact_store.add store a)) facts;
  let positive, negated =
    List.partition (fun r -> not (Rule.has_negation r)) (Program.rules program)
  in
  let positive = Program.make positive in
  let merged = fresh_stats () in
  let clipped_status = ref false in
  let budget = ref false in
  let accum (r : result) =
    merged.derivations <- merged.derivations + r.stats.derivations;
    merged.new_facts <- merged.new_facts + r.stats.new_facts;
    merged.clipped <- merged.clipped + r.stats.clipped;
    merged.rounds <- merged.rounds + r.stats.rounds;
    (match r.status with
    | Depth_clipped -> clipped_status := true
    | Budget_exhausted -> budget := true
    | Fixpoint -> ())
  in
  let rec loop () =
    let before = Fact_store.count store in
    accum (seminaive ~options positive store);
    if not !budget then begin
      (* one pass of the negation rules against the saturated store *)
      List.iter
        (fun r ->
          match fire_rule store options merged r (fun _ -> ()) with
          | () -> ()
          | exception Stop _ -> budget := true)
        negated;
      if Fact_store.count store > before && not !budget then loop ()
    end
  in
  loop ();
  let status =
    if !budget then Budget_exhausted
    else if !clipped_status || merged.clipped > 0 then Depth_clipped
    else Fixpoint
  in
  { status; stats = merged }

(** Answers to a query atom: all ground instantiations of [query] present in
    the store. *)
let answers store (query : Atom.t) =
  List.map
    (fun s -> Atom.apply s query)
    (Fact_store.matches store query ~init:Subst.empty)

(** Convenience wrapper: evaluate [program] from scratch with the given
    strategy and return the store, the result, and the answers to [query]. *)
let run ?(options = default_options) ~strategy program query =
  let store = Fact_store.create () in
  let result =
    match strategy with
    | `Naive -> naive ~options program store
    | `Seminaive -> seminaive ~options program store
  in
  (store, result, answers store query)
