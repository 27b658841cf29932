(** The dedicated diagnosis algorithm of Benveniste–Fabre–Haar–Jard [8], as
    sketched in Section 4.3 of the paper, with the Section 4.4 extensions.

    The observation is viewed as a product of per-peer automata with the
    net; unfolding the product on the fly materializes exactly the prefix
    of [Unfold(N, M)] relevant to the observation: "starting from the set M
    of initially marked places and an empty alarm sequence, one adds, to
    the net constructed for the prefix of length i-1, the transition nodes
    that emit the i-th alarm in the sequence and can extend some
    configuration of length i-1 already in the net. When the last alarm
    symbol is processed, the net contains all the nodes belonging to the
    possible configurations." A fixed alarm sequence is the product with
    each peer's linear word automaton, so the basic problem is the
    Section 4.4 search over {!Supervisor.words} observations.

    States of the search are (per-peer automaton states, configuration,
    cut); the cut's conditions are pairwise concurrent by construction, so
    extending with transition [t] means picking one cut condition per
    parent place. Nodes carry the same canonical terms as the Datalog
    encoding, making Theorem 4 a set comparison ([events_materialized]). *)

open Datalog

type result = {
  diagnosis : Canon.diagnosis;
  events_materialized : Term.Set.t;
  conds_materialized : Term.Set.t;
  states_explored : int;
}

let place_of_cond cond =
  match Term.view cond with
  | Term.App (_, [ _; p ]) -> (
    match Term.view p with
    | Term.Const p -> Symbol.name p
    | Term.Var _ | Term.App _ -> invalid_arg "place_of_cond: not a condition term")
  | _ -> invalid_arg "place_of_cond: not a condition term"

(* choose, for each place of [places], a distinct condition of the cut
   mapping to it; return every choice (conditions in place-list order) *)
let choices_for (cut : Term.Set.t) (places : string list) : Term.t list list =
  let rec go chosen = function
    | [] -> [ List.rev chosen ]
    | place :: rest ->
      Term.Set.fold
        (fun cond acc ->
          if String.equal (place_of_cond cond) place && not (List.exists (Term.equal cond) chosen)
          then go (cond :: chosen) rest @ acc
          else acc)
        cut []
  in
  go [] places

module SS = Pattern.S_set

type state = {
  states : (string * SS.t) list;  (** NFA state set per observed peer (sorted) *)
  config : Term.Set.t;  (** event terms *)
  cut : Term.Set.t;  (** condition terms available for consumption *)
}

(** Generalized product diagnosis: per-peer regular observations plus
    hidden transitions. Every configuration of at most [max_config_size]
    events whose per-peer observable words are accepted is reported; hidden
    transitions extend configurations without advancing any automaton. *)
let diagnose_general ?(max_states = 2_000_000) ~max_config_size ~(hidden : string list)
    (net : Petri.Net.t) (patterns : (string * Pattern.t) list) : result =
  let initial_cut =
    Petri.Net.String_set.fold
      (fun place acc -> Term.Set.add (Term.app "g" [ Canon.root_term; Term.const place ]) acc)
      (Petri.Net.marking net) Term.Set.empty
  in
  let events_mat = ref Term.Set.empty in
  let conds_mat = ref initial_cut in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let key st =
    String.concat "|"
      (List.map (fun (p, qs) -> p ^ "=" ^ String.concat "." (SS.elements qs)) st.states)
    ^ "||"
    ^ String.concat ";" (List.map Term.to_string (Term.Set.elements st.config))
  in
  let queue = Queue.create () in
  let explored = ref 0 in
  let diagnosis = ref [] in
  let push st =
    let k = key st in
    if not (Hashtbl.mem seen k) then begin
      if Hashtbl.length seen >= max_states then failwith "Product: state budget exceeded";
      Hashtbl.add seen k ();
      Queue.add st queue
    end
  in
  push
    {
      states =
        List.map (fun (p, pat) -> (p, SS.of_list (Pattern.initial pat))) patterns
        |> List.sort compare;
      config = Term.Set.empty;
      cut = initial_cut;
    };
  let fire st (tr : Petri.Net.transition) next_states =
    List.iter
      (fun pre_conds ->
        let event = Term.app "f" (Term.const tr.Petri.Net.t_id :: pre_conds) in
        let children =
          List.map (fun c' -> Term.app "g" [ event; Term.const c' ]) tr.Petri.Net.t_post
        in
        events_mat := Term.Set.add event !events_mat;
        List.iter (fun cd -> conds_mat := Term.Set.add cd !conds_mat) children;
        let cut' =
          List.fold_left (fun acc cd -> Term.Set.add cd acc)
            (List.fold_left (fun acc cd -> Term.Set.remove cd acc) st.cut pre_conds)
            children
        in
        push { states = next_states; config = Term.Set.add event st.config; cut = cut' })
      (choices_for st.cut tr.Petri.Net.t_pre)
  in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    incr explored;
    let all_accepting =
      List.for_all
        (fun (p, qs) ->
          let pat = List.assoc p patterns in
          List.exists (fun q -> SS.mem q qs) (Pattern.accepting pat))
        st.states
    in
    if all_accepting then diagnosis := st.config :: !diagnosis;
    if Term.Set.cardinal st.config < max_config_size then
      List.iter
        (fun (tr : Petri.Net.transition) ->
          if List.mem tr.Petri.Net.t_id hidden then fire st tr st.states
          else
            match List.assoc_opt tr.Petri.Net.t_peer patterns with
            | None -> ()  (* observable event at an unobserved peer: excluded *)
            | Some pat ->
              let qs = List.assoc tr.Petri.Net.t_peer st.states in
              let qs' = Pattern.step pat qs tr.Petri.Net.t_alarm in
              if not (SS.is_empty qs') then
                fire st tr
                  (List.map
                     (fun (p, s) ->
                       if String.equal p tr.Petri.Net.t_peer then (p, qs') else (p, s))
                     st.states))
        (Petri.Net.transitions net)
  done;
  {
    diagnosis = Canon.normalize_diagnosis !diagnosis;
    events_materialized = !events_mat;
    conds_materialized = !conds_mat;
    states_explored = !explored;
  }

(** The basic problem: each peer's alarm subsequence as its word automaton,
    nothing hidden, configurations no larger than the sequence. *)
let diagnose ?max_states (net : Petri.Net.t) (alarms : Petri.Alarm.t) : result =
  diagnose_general ?max_states ~max_config_size:(Petri.Alarm.length alarms) ~hidden:[] net
    (Supervisor.words alarms)
