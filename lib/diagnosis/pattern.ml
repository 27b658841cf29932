(** Regular alarm patterns (Section 4.4).

    "Rather than analyzing one particular alarm sequence, we may seek
    explanation of a pattern described by some regular language, e.g.
    [a.b*.a]"; dually, one may rule out observations containing a forbidden
    pattern. Patterns are finite automata over alarm symbols; the paper
    notes their transitions "can be encoded in the alarmSeq relation", which
    is exactly what {!Supervisor} does.

    The module implements NFAs with the standard constructions needed by
    the extensions: acceptance, word/concatenation/star builders,
    determinization, completion and complementation (for forbidden
    patterns), and an emptiness/boundedness check used to warn when a
    pattern makes the diagnosis space infinite. *)

module S_set = Set.Make (String)
module S_map = Map.Make (String)

type t = {
  states : string list;
  initial : string list;
  accepting : string list;
  transitions : (string * string * string) list;  (** (state, symbol, state') *)
}

let make ~states ~initial ~accepting ~transitions =
  let known s = List.mem s states in
  List.iter
    (fun s -> if not (known s) then invalid_arg ("Pattern.make: unknown state " ^ s))
    (initial @ accepting);
  List.iter
    (fun (q, _, q') ->
      if not (known q && known q') then invalid_arg "Pattern.make: transition on unknown state")
    transitions;
  { states; initial; accepting; transitions }

let initial t = t.initial
let accepting t = t.accepting
let transitions t = t.transitions

let alphabet t =
  List.sort_uniq String.compare (List.map (fun (_, a, _) -> a) t.transitions)

let step t (qs : S_set.t) (symbol : string) : S_set.t =
  List.fold_left
    (fun acc (q, a, q') ->
      if String.equal a symbol && S_set.mem q qs then S_set.add q' acc else acc)
    S_set.empty t.transitions

let accepts t (word : string list) : bool =
  let final = List.fold_left (step t) (S_set.of_list t.initial) word in
  List.exists (fun q -> S_set.mem q final) t.accepting

(* ---------- constructions ---------- *)

(** The linear automaton of a fixed word: states [0..n], accepting [n].
    This is precisely the per-peer [alarmSeq] index chain of Section 4.2. *)
let word (symbols : string list) : t =
  let n = List.length symbols in
  let st i = string_of_int i in
  {
    states = List.init (n + 1) st;
    initial = [ st 0 ];
    accepting = [ st n ];
    transitions = List.mapi (fun i a -> (st i, a, st (i + 1))) symbols;
  }

let rename prefix t =
  let r s = prefix ^ s in
  {
    states = List.map r t.states;
    initial = List.map r t.initial;
    accepting = List.map r t.accepting;
    transitions = List.map (fun (q, a, q') -> (r q, a, r q')) t.transitions;
  }

(** Concatenation (epsilon-free: accepting states of [a] duplicate the
    outgoing transitions of [b]'s initial states). *)
let concat a b =
  let a = rename "l:" a and b = rename "r:" b in
  let bridge =
    List.concat_map
      (fun qa ->
        List.filter_map
          (fun (q, s, q') -> if List.mem q b.initial then Some (qa, s, q') else None)
          b.transitions)
      a.accepting
  in
  let accepting =
    b.accepting
    @ (if List.exists (fun q -> List.mem q b.accepting) b.initial then a.accepting else [])
  in
  {
    states = a.states @ b.states;
    initial = a.initial;
    accepting;
    transitions = a.transitions @ b.transitions @ bridge;
  }

(** Kleene star. *)
let star a =
  let a = rename "s:" a in
  let back =
    List.concat_map
      (fun qa ->
        List.filter_map
          (fun (q, s, q') -> if List.mem q a.initial then Some (qa, s, q') else None)
          a.transitions)
      a.accepting
  in
  {
    states = a.states;
    initial = a.initial;
    accepting = a.accepting @ a.initial;
    transitions = a.transitions @ back;
  }

let union a b =
  let a = rename "u:" a and b = rename "v:" b in
  {
    states = a.states @ b.states;
    initial = a.initial @ b.initial;
    accepting = a.accepting @ b.accepting;
    transitions = a.transitions @ b.transitions;
  }

(* ---------- determinization and complement ---------- *)

let set_name (s : S_set.t) =
  if S_set.is_empty s then "{}" else "{" ^ String.concat "." (S_set.elements s) ^ "}"

(** Subset construction over the given alphabet (defaults to the pattern's
    own). The result is a complete DFA (one successor per symbol, with an
    explicit sink). *)
let determinize ?alphabet:alpha (t : t) : t =
  let alpha = match alpha with Some a -> a | None -> alphabet t in
  let initial = S_set.of_list t.initial in
  let seen = Hashtbl.create 16 in
  let transitions = ref [] in
  let queue = Queue.create () in
  Hashtbl.add seen (set_name initial) initial;
  Queue.add initial queue;
  while not (Queue.is_empty queue) do
    let qs = Queue.pop queue in
    List.iter
      (fun a ->
        let next = step t qs a in
        let name = set_name next in
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name next;
          Queue.add next queue
        end;
        transitions := (set_name qs, a, name) :: !transitions)
      alpha
  done;
  let states = Hashtbl.fold (fun name _ acc -> name :: acc) seen [] in
  let accepting =
    Hashtbl.fold
      (fun name qs acc ->
        if List.exists (fun q -> S_set.mem q qs) t.accepting then name :: acc else acc)
      seen []
  in
  {
    states = List.sort String.compare states;
    initial = [ set_name initial ];
    accepting = List.sort String.compare accepting;
    transitions = List.rev !transitions;
  }

(** Complement w.r.t. the given alphabet: words over [alphabet] NOT matched
    by [t]. Used for the forbidden-pattern extension ("sequences of alarms
    not containing some known patterns"). *)
let complement ~alphabet:alpha (t : t) : t =
  let d = determinize ~alphabet:alpha t in
  { d with accepting = List.filter (fun q -> not (List.mem q d.accepting)) d.states }

(** [contains_factor ~alphabet w] recognizes the words having [w] as a
    factor (contiguous subword); its complement blocks the construction
    "upon detection" of the pattern. *)
let contains_factor ~alphabet:alpha (w : string list) : t =
  let base = word w in
  let loop_sigma states_name =
    List.map (fun a -> (states_name, a, states_name)) alpha
  in
  let n = List.length w in
  {
    states = base.states;
    initial = base.initial;
    accepting = base.accepting;
    transitions = base.transitions @ loop_sigma "0" @ loop_sigma (string_of_int n);
  }

(** Does the pattern accept arbitrarily long words? (If so, diagnosis needs
    the depth gadget of Section 4.4.) Detected as a cycle reachable from an
    initial state that can still reach acceptance. *)
let unbounded (t : t) : bool =
  let succs q =
    List.filter_map (fun (a, _, b) -> if String.equal a q then Some b else None) t.transitions
  in
  (* states reachable from initial *)
  let reach from =
    let seen = Hashtbl.create 16 in
    let rec go q =
      if not (Hashtbl.mem seen q) then begin
        Hashtbl.add seen q ();
        List.iter go (succs q)
      end
    in
    List.iter go from;
    seen
  in
  let from_init = reach t.initial in
  (* states co-reachable to accepting *)
  let preds q =
    List.filter_map (fun (a, _, b) -> if String.equal b q then Some a else None) t.transitions
  in
  let co = Hashtbl.create 16 in
  let rec go_back q =
    if not (Hashtbl.mem co q) then begin
      Hashtbl.add co q ();
      List.iter go_back (preds q)
    end
  in
  List.iter go_back t.accepting;
  let useful q = Hashtbl.mem from_init q && Hashtbl.mem co q in
  (* cycle detection among useful states *)
  let color = Hashtbl.create 16 in
  let rec dfs q =
    match Hashtbl.find_opt color q with
    | Some `Done -> false
    | Some `Active -> true
    | None ->
      Hashtbl.add color q `Active;
      let cyc = List.exists (fun q' -> useful q' && dfs q') (succs q) in
      Hashtbl.replace color q `Done;
      cyc
  in
  List.exists (fun q -> useful q && dfs q) (List.filter useful t.states)
