(** The Query-Sub-Query rewriting (Fig. 4 of the paper).

    Given a program and a query, QSQ rewrites the program "based on the
    propagation of bindings": for each adorned version of a rule it creates
    supplementary relations [sup_{i,j}] accumulating the bindings of the
    variables relevant at each body position, and input relations [in-R^ad]
    accumulating the subqueries asked of each adorned relation. Evaluating
    the rewritten program bottom-up (we use the semi-naive engine) computes
    exactly the query's answers while materializing only binding-reachable
    facts — the property the diagnosis application exploits.

    We generalize the textbook rewriting to function terms in heads and
    bodies: the input relation for [R^ad] carries the head's bound *argument
    terms*, so that a subquery is connected to a rule by matching the stored
    input facts against those terms (this is what lets the supervisor's
    demand [trans(x, g(u,c), g(v,c'))] select the event-creation rules of
    Section 4.1). *)

module Var_set = Adornment.Var_set

exception Negation_unsupported of Rule.t

type t = {
  program : Program.t;  (** the rewritten rules *)
  seed : Atom.t;  (** the initial input fact [in-Q^ad(constants)] *)
  query : Atom.t;  (** the original query *)
  query_rel : Symbol.t;
  query_ad : Adornment.t;
  answer_pattern : Atom.t;  (** [Q^ad(query args)], to read answers back *)
}

type names = { adorned : Adornment.t -> Symbol.t; input : Adornment.t -> Symbol.t }
type walk = { bound : Var_set.t; prev : Atom.t; pending : (Term.t * Term.t) list }

let names rel = { adorned = Adornment.adorned_sym rel; input = Adornment.input_sym rel }

let var_atom sym vars = Atom.cmake sym (List.map (fun x -> Term.var x) vars)

(* Variables of a list of terms, in order of first occurrence. Runs for
   every rule/adornment pair, so membership is a set test and the order
   list is reverse-accumulated, not appended to. *)
let terms_vars terms =
  let seen = ref Var_set.empty in
  let add acc x =
    if Var_set.mem x !seen then acc
    else begin
      seen := Var_set.add x !seen;
      x :: acc
    end
  in
  List.rev (List.fold_left (Term.vars_fold add) [] terms)

let subquery n ad args = Atom.cmake (n.input ad) (Adornment.bound_args ad args)

(* The attributes of a supplementary relation: the bound variables that
   later literals or the head still need, in name order. *)
let attrs bound need = List.filter (fun x -> Var_set.mem x need) (Var_set.elements bound)

(* The disequalities of [pending] that [bound] grounds, as literals, and
   the rest. *)
let ground bound pending =
  let now, later =
    List.partition
      (fun (x, y) -> List.for_all (fun v -> Var_set.mem v bound) (Term.vars x @ Term.vars y))
      pending
  in
  (List.map (fun (x, y) -> Rule.Neq (x, y)) now, later)

let bridge n ~stored ad =
  let xs = List.init (Array.length ad) (fun k -> Printf.sprintf "X%d" k) in
  let stored = var_atom stored xs in
  let input = subquery n ad stored.Atom.args in
  Rule.make (var_atom (n.adorned ad) xs) [ Rule.Pos input; Rule.Pos stored ]

let start n ad ~sup ~need head_args =
  let bound_terms = Adornment.bound_args ad head_args in
  let bound = Var_set.of_list (terms_vars bound_terms) in
  let sup0 = var_atom sup (attrs bound need) in
  ( { bound; prev = sup0; pending = [] },
    Rule.make sup0 [ Rule.Pos (Atom.cmake (n.input ad) bound_terms) ] )

(* The builders intern in the order the rewriting always has, since
   symbol ids order the fact-store tables: a literal's own names before the
   next supplementary symbol, hence [sup] is a thunk. *)
let step w callee (a : Atom.t) ~need ~sup ~demand =
  let pre, pending = ground w.bound w.pending in
  let guard = Rule.Pos w.prev :: pre in
  let in_rules, body_atom =
    match callee with
    | None -> ([], a)
    | Some n ->
      let ad = Adornment.of_atom w.bound a in
      let in_rule = Rule.make (subquery n ad a.Atom.args) guard in
      demand ad;
      ([ in_rule ], Atom.cmake (n.adorned ad) a.Atom.args)
  in
  let bound = Var_set.union w.bound (Var_set.of_list (Atom.vars a)) in
  let post, pending = ground bound pending in
  (* a disequality still pending keeps its variables for the literal
     that grounds it *)
  let need =
    List.fold_left
      (fun need (x, y) -> Var_set.union need (Var_set.of_list (Term.vars x @ Term.vars y)))
      need pending
  in
  let sup_j = var_atom (sup ()) (attrs bound need) in
  ( { bound; prev = sup_j; pending },
    in_rules @ [ Rule.make sup_j (guard @ (Rule.Pos body_atom :: post)) ] )

let answer w n ad head_args =
  Rule.make
    (Atom.cmake (n.adorned ad) head_args)
    (Rule.Pos w.prev :: List.map (fun (x, y) -> Rule.Neq (x, y)) w.pending)

let rewrite (program : Program.t) (query : Atom.t) : t =
  let idb = Program.idb_relations program in
  let is_idb rel = List.mem rel idb in
  let q_ad = Adornment.of_query query in
  let out : Rule.t list ref = ref [] in
  let emit r = out := r :: !out in
  let seen : (Symbol.t * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let queue = Queue.create () in
  let demand rel ad =
    let key = (rel, Adornment.to_string ad) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (rel, ad) queue
    end
  in
  demand query.Atom.rel q_ad;
  while not (Queue.is_empty queue) do
    let rel, ad = Queue.pop queue in
    let n = names rel in
    emit (bridge n ~stored:rel ad);
    List.iteri
      (fun i r ->
        let head = r.Rule.head in
        let head_vars = Atom.vars head in
        (* the variables of the head and of the literals still to walk *)
        let need lits = Var_set.of_list (head_vars @ List.concat_map Rule.literal_vars lits) in
        let sup pos = Adornment.sup_sym rel ad ~rule_index:i ~pos in
        let w, sup0_rule = start n ad ~sup:(sup 0) ~need:(need r.Rule.body) head.Atom.args in
        emit sup0_rule;
        let rec walk pos w = function
          | [] -> emit (answer w n ad head.Atom.args)
          | Rule.Neg _ :: _ ->
            (* "Extensions of Magic Sets for Datalog with negation were
               studied, e.g. in [29, 15]" — out of scope here (Remark 4);
               use the bottom-up Eval.stratified / Eval.alternating. *)
            raise (Negation_unsupported r)
          | Rule.Neq (x, y) :: rest ->
            (* Disequalities are folded into the next rule whose bindings
               ground them (or into the final answer rule). *)
            walk pos { w with pending = w.pending @ [ (x, y) ] } rest
          | Rule.Pos a :: rest ->
            let callee = if is_idb a.Atom.rel then Some (names a.Atom.rel) else None in
            let w, rules =
              step w callee a ~need:(need rest)
                ~sup:(fun () -> sup (pos + 1))
                ~demand:(demand a.Atom.rel)
            in
            List.iter emit rules;
            walk (pos + 1) w rest
        in
        walk 0 w r.Rule.body)
      (Program.rules_for program rel)
  done;
  let n = names query.Atom.rel in
  {
    program = Program.make (List.rev !out);
    seed = subquery n q_ad query.Atom.args;
    query;
    query_rel = query.Atom.rel;
    query_ad = q_ad;
    answer_pattern = Atom.cmake (n.adorned q_ad) query.Atom.args;
  }


(** Materialization report: how many facts of each kind the evaluation of a
    rewritten program produced. [answers_by_base] strips adornments and
    deduplicates, so it counts *distinct original facts* materialized —
    the quantity Theorem 4 is about. *)
type materialization = {
  total : int;
  answer_facts : int;
  input_facts : int;
  sup_facts : int;
  answers_by_base : (string * int) list;
}

let materialization (store : Fact_store.t) : materialization =
  let answers = ref 0 and inputs = ref 0 and sups = ref 0 in
  let by_base : (string, (Term.t list, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      let n = Fact_store.count_rel store rel in
      match Adornment.classify rel with
      | `Answer (base, _) ->
        answers := !answers + n;
        let tbl =
          match Hashtbl.find_opt by_base base with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 64 in
            Hashtbl.add by_base base t;
            t
        in
        List.iter (fun args -> Hashtbl.replace tbl args ()) (Fact_store.tuples_of store rel)
      | `Input _ -> inputs := !inputs + n
      | `Sup _ -> sups := !sups + n
      | `Plain -> ())
    (Fact_store.relations store);
  let answers_by_base =
    Hashtbl.fold (fun base tbl acc -> (base, Hashtbl.length tbl) :: acc) by_base []
    |> List.sort compare
  in
  {
    total = Fact_store.count store;
    answer_facts = !answers;
    input_facts = !inputs;
    sup_facts = !sups;
    answers_by_base;
  }

(* Shared with the distributed engine ({!Runtime} increments the same
   names): totals across every QSQ-rewritten evaluation in the process. *)
let queries_c = Obs.Metrics.counter "qsq.queries"
let facts_derived_c = Obs.Metrics.counter "qsq.facts_derived"
let rules_fired_c = Obs.Metrics.counter "qsq.rules_fired"
let rounds_c = Obs.Metrics.counter "qsq.fixpoint_rounds"

(** Evaluate a query with QSQ: rewrite, seed, run semi-naive to fixpoint on
    the rewritten program against [edb], and read the answers back as
    instantiations of the original query atom. *)
let solve ?(options = Eval.default_options) (program : Program.t) (query : Atom.t)
    (edb : Fact_store.t) : Fact_store.t * Eval.result * Atom.t list =
  Obs.Trace.with_span "qsq.solve" ~attrs:[ ("query", Atom.to_string query) ] @@ fun () ->
  let rw = Obs.Trace.with_span "qsq.rewrite" (fun () -> rewrite program query) in
  let store = Fact_store.copy edb in
  ignore (Fact_store.add store rw.seed);
  let result = Eval.seminaive ~options rw.program store in
  Obs.Metrics.incr queries_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.new_facts facts_derived_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.derivations rules_fired_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.rounds rounds_c;
  (store, result, Eval.answers ~pattern:rw.answer_pattern store rw.query)
