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

(* ------------------------------------------------------------------ *)
(* Compiled joins                                                      *)
(* ------------------------------------------------------------------ *)

(* A rule body is joined by a plan compiled once per (rule, delta
   position), on the first firing from that position. Matching a body atom
   binds each of its variables to a ground store term, so which variables
   are bound before every step, which arguments a probe's key covers and
   when a constraint becomes checkable depend only on the rule and the
   delta position, never on the data: the join order below is decided at
   compile time and is exactly the order a per-firing planner would pick.

   The order: the delta atom first (it is the most selective), then the
   remaining positive atoms most-bound-first — at each step the atom with
   the most arguments bound next, ties in body order — with each
   disequality checked right after the step that makes it checkable.
   Bodies containing negation keep the static literal order (delta first):
   [Neg] reads the store, which the surrounding fixpoint mutates between
   derivations, so its check time is part of the (alternating/stratified)
   semantics and must not float. A constraint not yet checkable at its
   place is deferred to the end.

   Variables of the positive atoms are numbered into a per-firing slot
   array. Slots need no undo on backtracking: a slot is written at one
   fixed step and read only after it, so the next candidate simply
   overwrites it. *)

(* How one argument of a body atom matches a ground store term. *)
type pat =
  | Skip  (** covered by the probe key: matches by construction *)
  | Bind of int  (** first occurrence of a variable: store the term in its slot *)
  | Same of int  (** later occurrence: must be the slot's term *)
  | Lit of Term.t  (** ground: must be that very term (hash-consing) *)
  | Sub of Symbol.t * pat array  (** compound with variables *)

(* How a term is built from the slots. *)
type build =
  | Slot of int
  | Ground of Term.t  (** ground, or a variable no positive atom binds *)
  | Make of Symbol.t * build list

type step =
  | Scan_delta of pat array
  | Probe of { rel : Symbol.t; mask : int list; key : build list; pats : pat array }
  | Check_neq of build * build
  | Check_neg of Symbol.t * build list
  | Never  (** a constraint that never becomes checkable: no firing *)

(* One rule's compiled form, built on its first firing: the slot template
   and the head (both the same for every plan, since every plan binds all
   the variables of the positive atoms), and one plan per delta position,
   the last one for firings without a delta. *)
type code = {
  template : Term.t array;
  head : build list;
  plans : step array option array;
}

(* An indexed rule. Its serial is its rank in index addition order. *)
type cell = { serial : int; rule : Rule.t; mutable code : code option }

(* Small slot numbers share their constructors, so that plans stay small. *)
let shared = 16
let binds = Array.init shared (fun k -> Bind k)
let sames = Array.init shared (fun k -> Same k)
let slots = Array.init shared (fun k -> Slot k)
let bind k = if k < shared then binds.(k) else Bind k
let same k = if k < shared then sames.(k) else Same k
let slot k = if k < shared then slots.(k) else Slot k
let plans_compiled_c = Obs.Metrics.counter "eval.plans_compiled"

(* Slot numbers: the variables of the positive atoms in order of first
   occurrence, with the first variable term met (the template's filler, so
   that compiling interns nothing). *)
let number_vars (r : Rule.t) =
  let numbering = ref [] and n = ref 0 and filler = ref None in
  let rec visit t =
    if not (Term.is_ground t) then
      match Term.view t with
      | Term.Var x ->
        if not (List.mem_assoc x !numbering) then begin
          numbering := (x, !n) :: !numbering;
          incr n;
          if Option.is_none !filler then filler := Some t
        end
      | Term.App (_, args) -> List.iter visit args
      | Term.Const _ -> ()
  in
  List.iter (fun (a : Atom.t) -> List.iter visit a.Atom.args) (Rule.body_atoms r);
  (!numbering, !n, !filler)

(* Build [t] from the slots; a variable without a slot stays itself. *)
let rec builder numbering t =
  if Term.is_ground t then Ground t
  else
    match Term.view t with
    | Term.Var x -> (
      match List.assoc_opt x numbering with Some k -> slot k | None -> Ground t)
    | Term.App (f, args) -> Make (f, List.map (builder numbering) args)
    | Term.Const _ -> Ground t

let compile_rule (r : Rule.t) =
  let numbering, n, filler = number_vars r in
  {
    template = (match filler with Some t -> Array.make n t | None -> [||]);
    head = List.map (builder numbering) r.Rule.head.Atom.args;
    plans = Array.make (List.length (Rule.body_atoms r) + 1) None;
  }

(* The plan for delta position [pos] ([npos] for no delta). *)
let compile_plan (r : Rule.t) ~pos =
  let numbering, _, _ = number_vars r in
  let num x = List.assoc x numbering in
  let build = builder numbering in
  let bound = Hashtbl.create 8 in
  let is_bound t = Term.vars_fold (fun acc x -> acc && Hashtbl.mem bound x) true t in
  let rec pat t =
    if Term.is_ground t then Lit t
    else
      match Term.view t with
      | Term.Var x ->
        if Hashtbl.mem bound x then same (num x)
        else begin
          Hashtbl.replace bound x ();
          bind (num x)
        end
      | Term.App (f, args) -> Sub (f, pats (fun _ -> false) (Array.of_list args))
      | Term.Const _ -> Lit t
  and pats covered args =
    (* left to right, so that a variable's first occurrence binds;
       [covered] positions are left to the probe key *)
    let ps = Array.make (Array.length args) Skip in
    for i = 0 to Array.length args - 1 do
      if not (covered i) then ps.(i) <- pat args.(i)
    done;
    ps
  in
  let scan_delta (a : Atom.t) = Scan_delta (pats (fun _ -> false) (Array.of_list a.Atom.args)) in
  let probe (a : Atom.t) =
    (* the key covers every argument bound before the step *)
    let args = Array.of_list a.Atom.args in
    let covered = Array.map is_bound args in
    let mask = ref [] and key = ref [] in
    for i = Array.length args - 1 downto 0 do
      if covered.(i) then begin
        mask := i :: !mask;
        key := build args.(i) :: !key
      end
    done;
    Probe { rel = a.Atom.rel; mask = !mask; key = !key; pats = pats (Array.get covered) args }
  in
  let checkable = function
    | `Neq (x, y) -> is_bound x && is_bound y
    | `Neg (a : Atom.t) -> List.for_all is_bound a.Atom.args
  in
  let check = function
    | `Neq (x, y) -> Check_neq (build x, build y)
    | `Neg (a : Atom.t) -> Check_neg (a.Atom.rel, List.map build a.Atom.args)
  in
  let tagged =
    let j = ref (-1) in
    List.map
      (function
        | Rule.Neq (x, y) -> `Neq (x, y)
        | Rule.Neg a -> `Neg a
        | Rule.Pos a ->
          incr j;
          if !j = pos then `Delta a else `Pos a)
      r.Rule.body
  in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  if Rule.has_negation r then begin
    (* static order, delta first; unready constraints wait for the end *)
    let deltas, rest = List.partition (function `Delta _ -> true | _ -> false) tagged in
    let deferred =
      List.fold_left
        (fun deferred lit ->
          match lit with
          | `Delta a ->
            emit (scan_delta a);
            deferred
          | `Pos a ->
            emit (probe a);
            deferred
          | (`Neq _ | `Neg _) as c ->
            if checkable c then begin
              emit (check c);
              deferred
            end
            else c :: deferred)
        [] (deltas @ rest)
    in
    if List.for_all checkable deferred then List.iter (fun c -> emit (check c)) deferred
    else emit Never
  end
  else begin
    (* delta first, then most-bound-first; each disequality right after
       the step that makes it checkable *)
    let pending = ref (List.filter_map (function `Neq _ as c -> Some c | _ -> None) tagged) in
    let flush () =
      let ready, later = List.partition checkable !pending in
      List.iter (fun c -> emit (check c)) ready;
      pending := later
    in
    flush ();
    List.iter
      (function
        | `Delta a ->
          emit (scan_delta a);
          flush ()
        | _ -> ())
      tagged;
    let score (a : Atom.t) = List.length (List.filter is_bound a.Atom.args) in
    let rec joins = function
      | [] -> ()
      | atoms ->
        (* most arguments bound first; [>] keeps ties in body order *)
        let best, _ =
          List.fold_left
            (fun (best, top) (i, a) ->
              let sc = score a in
              if sc > top then (i, sc) else (best, top))
            (-1, -1) atoms
        in
        emit (probe (List.assoc best atoms));
        flush ();
        joins (List.remove_assoc best atoms)
    in
    joins
      (List.concat
         (List.mapi (fun i -> function `Pos a -> [ (i, a) ] | _ -> []) tagged));
    if !pending <> [] then emit Never
  end;
  Obs.Metrics.incr plans_compiled_c;
  Array.of_list (List.rev !steps)

(* Delta scans count under the store's name, beside its probes. *)
let delta_scans_c = Obs.Metrics.counter "fact_store.delta_scans"

(* Match the ground tuple [args] against [pats] from position [i], binding
   slots. A tuple of another arity never matches. *)
let rec match_args slots pats i = function
  | [] -> i = Array.length pats
  | t :: rest ->
    i < Array.length pats && match_term slots pats.(i) t && match_args slots pats (i + 1) rest

and match_term slots p t =
  match p with
  | Skip -> true
  | Bind k ->
    slots.(k) <- t;
    true
  | Same k -> slots.(k) == t
  | Lit u -> u == t
  | Sub (f, ps) -> (
    match Term.view t with
    | Term.App (g, args) -> Symbol.equal f g && match_args slots ps 0 args
    | Term.Const _ | Term.Var _ -> false)

let rec build slots = function
  | Slot k -> slots.(k)
  | Ground t -> t
  | Make (f, bs) -> Term.capp f (List.map (build slots) bs)

(* Run [steps] from step [i], calling [emit] on every complete match. *)
let rec exec store delta slots steps i emit =
  if i = Array.length steps then emit slots
  else
    match steps.(i) with
    | Scan_delta pats ->
      Obs.Metrics.incr ~by:(List.length delta) delta_scans_c;
      List.iter
        (fun args ->
          if match_args slots pats 0 args then exec store delta slots steps (i + 1) emit)
        delta
    | Probe { rel; mask; key; pats } -> (
      match Fact_store.extent store rel with
      | None -> ()
      | Some ext ->
        List.iter
          (fun args ->
            if match_args slots pats 0 args then exec store delta slots steps (i + 1) emit)
          (Fact_store.probe ext mask (List.map (build slots) key)))
    | Check_neq (x, y) ->
      if build slots x != build slots y then exec store delta slots steps (i + 1) emit
    | Check_neg (rel, args) ->
      if not (Fact_store.mem store (Atom.cmake rel (List.map (build slots) args))) then
        exec store delta slots steps (i + 1) emit
    | Never -> ()

exception Stop of status

(* Cumulative engine instrumentation (lib/obs): [stats] stays the per-call
   result, the registry carries the process-wide totals. *)
let rules_fired_c = Obs.Metrics.counter "eval.rules_fired"
let facts_derived_c = Obs.Metrics.counter "eval.facts_derived"
let clipped_c = Obs.Metrics.counter "eval.clipped"
let rounds_c = Obs.Metrics.counter "eval.rounds"
let delta_size_h = Obs.Metrics.histogram "eval.delta_size"

(** Fire one rule against the store, from the delta [(j, tuples)] on its
    [j]-th positive atom or, without one, against the store alone, adding
    the derived heads. The rule compiles on its first firing, and each
    plan on its first firing from that position. *)
let fire_rule store opts stats cell ?delta add_new =
  let code =
    match cell.code with
    | Some code -> code
    | None ->
      let code = compile_rule cell.rule in
      cell.code <- Some code;
      code
  in
  let pos, tuples =
    match delta with Some (j, tuples) -> (j, tuples) | None -> (Array.length code.plans - 1, [])
  in
  let steps =
    match code.plans.(pos) with
    | Some steps -> steps
    | None ->
      let steps = compile_plan cell.rule ~pos in
      code.plans.(pos) <- Some steps;
      steps
  in
  let rel = cell.rule.Rule.head.Atom.rel in
  exec store tuples (Array.copy code.template) steps 0 (fun slots ->
      stats.derivations <- stats.derivations + 1;
      Obs.Metrics.incr rules_fired_c;
      let head = Atom.cmake rel (List.map (build slots) code.head) in
      if not (Atom.is_ground head) then
        invalid_arg
          (Printf.sprintf "Eval: rule %s derived non-ground fact %s"
             (Rule.to_string cell.rule) (Atom.to_string head));
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
  let cells = List.map (fun rule -> { serial = 0; rule; code = None }) (Program.rules program) in
  let stats = fresh_stats () in
  let rec loop () =
    check_rounds options stats;
    let before = Fact_store.count store in
    List.iter (fun c -> fire_rule store options stats c (fun _ -> ())) cells;
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
  mutable bodyless : cell list;  (* newest first *)
  occurrences : (Symbol.t, (cell * int) list) Hashtbl.t;
      (* body relation -> (rule, position among positive atoms), newest
         rule first; a rule's occurrences share its cell *)
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
    let cell = { serial; rule = r; code = None } in
    match Rule.body_atoms r with
    | [] ->
      (* Non-ground fact rules fail when fired. Rules whose body is only
         constraints cannot be range restricted unless variable-free. *)
      ix.bodyless <- cell :: ix.bodyless
    | atoms ->
      List.iteri
        (fun j atom ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt ix.occurrences atom.Atom.rel)
          in
          Hashtbl.replace ix.occurrences atom.Atom.rel ((cell, j) :: prev))
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
      (fun c -> if c.serial >= !skip then fire_rule store options stats c add_new)
      ix.bodyless;
    Hashtbl.iter
      (fun rel tuples ->
        List.iter
          (fun (c, j) ->
            if c.serial >= !skip then fire_rule store options stats c ~delta:(j, tuples) add_new)
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
  let positive = index_of_program (Program.make positive) in
  let negated = List.map (fun rule -> { serial = 0; rule; code = None }) negated in
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
    accum
      (seminaive_indexed ~options ~init_delta:None ~on_new:ignore ~closed:0 positive store);
    if not !budget then begin
      (* one pass of the negation rules against the saturated store *)
      List.iter
        (fun c ->
          match fire_rule store options merged c (fun _ -> ()) with
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
