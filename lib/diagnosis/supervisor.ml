(** The supervisor's rules: diagnosing an observation (Sections 4.2 and 4.4).

    The supervisor [p0] splits the received alarm sequence into one
    subsequence per emitting peer (only per-peer order is trustworthy under
    asynchronous communication) and encodes each in the base relation
    [alarmSeq]. It then defines [configPrefixes] — configurations explaining
    increasingly larger prefixes, built by extending a shorter configuration
    with one event matching the next alarm of some peer — together with the
    auxiliary [transInConf] (membership of an event in a configuration) and
    [notParent] (a condition not yet consumed by a configuration). With
    several peers the prefix index is the k-ary vector [ix(i1,...,ik)]
    recording the position reached in each peer's subsequence.

    Following Section 4.4, the per-peer observation need not be a fixed
    word: [alarmSeq] encodes the transitions of a {e regular automaton}
    ({!Pattern}), the index components are automaton states, and acceptance
    is checked by the final [q] rule. A fixed word is just the linear
    automaton over its symbols, so the basic problem is the special case.
    Hidden (unobserved) transitions extend a configuration without touching
    the index; they are described by the base relation [hiddenNet].

    Crucially, "p0 defines its Datalog program locally": only the alarm
    sequence (or pattern), the peer directory, and nothing else of the net
    is needed — the net structure is consulted remotely through
    [petriNet@p], [hiddenNet@p], [trans@p] and [places@p]. *)

open Datalog
open Dqsq

let v x = Term.var x
let c s = Term.const s

(** Index constant for peer [p] in automaton state [q]. The ['#'] separator
    keeps these from clashing with net node ids. *)
let pos_const p q = Term.const (Printf.sprintf "%s#%s" p q)

(** The initial (empty) configuration id [h(r)]. *)
let initial_id = Term.app "h" [ Canon.root_term ]

type t = {
  program : Dprogram.t;  (** the supervisor's rules *)
  facts : Datom.t list;  (** the [alarmSeq] and [accept] base relations *)
  query : Datom.t;  (** [q@p0(Z, X)] *)
  supervisor : string;
  sequence_peers : string list;  (** observed peers, sorted *)
  unbounded : bool;  (** true if some pattern accepts arbitrarily long
      words — evaluation then needs the depth gadget of Section 4.4 *)
}

let datom ~rel ~peer args = Datom.make ~rel ~peer args
let pos_lit ~rel ~peer args = Drule.Pos (datom ~rel ~peer args)

(** [build observations] generates the supervisor's program for a
    per-peer observation specification. [place_peers] is the directory of
    peers whose places events may consume; it must include every system peer
    when transitions synchronize across peers that did not alarm (a
    condition at a silent peer must still be provably unconsumed).
    [hidden_peers] are peers that may fire unobserved transitions
    (relation [hiddenNet@p]). *)
let builds_c = Obs.Metrics.counter "supervisor.builds"
let observations_c = Obs.Metrics.counter "supervisor.observations_encoded"

let build ?(supervisor = "supervisor") ?place_peers ?(hidden_peers = [])
    (patterns : (string * Pattern.t) list) : t =
  Obs.Metrics.incr builds_c;
  Obs.Metrics.incr ~by:(List.length patterns) observations_c;
  let p0 = supervisor in
  let peers = List.sort String.compare (List.map fst patterns) in
  if List.length (List.sort_uniq String.compare peers) <> List.length peers then
    invalid_arg "Supervisor.build: duplicate peer in observations";
  let place_peers =
    match place_peers with
    | Some l -> List.sort_uniq String.compare (l @ peers @ hidden_peers)
    | None -> List.sort_uniq String.compare (peers @ hidden_peers)
  in
  let event_peers = List.sort_uniq String.compare (peers @ hidden_peers) in
  (* alarmSeq facts: the automaton transitions; accept facts: its final
     states. *)
  let facts =
    List.concat_map
      (fun (p, pat) ->
        List.map
          (fun (q, a, q') ->
            datom ~rel:"alarmSeq" ~peer:p0 [ pos_const p q; c a; c p; pos_const p q' ])
          (Pattern.transitions pat)
        @ List.map
            (fun q -> datom ~rel:"accept" ~peer:p0 [ c p; pos_const p q ])
            (Pattern.accepting pat))
      patterns
  in
  let ix components = Term.app "ix" components in
  let ix_vars = List.map (fun p -> Printf.sprintf "J_%s" p) peers in
  let ix_all_vars = ix (List.map v ix_vars) in
  let ix_with p term =
    ix (List.map2 (fun q x -> if String.equal q p then term else v x) peers ix_vars)
  in
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  (* Initialization: the empty configuration explains the empty prefix —
     one fact per combination of initial automaton states. *)
  let rec initial_indexes = function
    | [] -> [ [] ]
    | (p, pat) :: rest ->
      let tails = initial_indexes rest in
      List.concat_map
        (fun q -> List.map (fun tl -> pos_const p q :: tl) tails)
        (Pattern.initial pat)
  in
  List.iter
    (fun idx ->
      emit
        (Drule.fact
           (datom ~rel:"configPrefixes" ~peer:p0
              [ initial_id; initial_id; Canon.root_term; ix idx ])))
    (initial_indexes patterns);
  emit (Drule.fact (datom ~rel:"transInConf" ~peer:p0 [ initial_id; Canon.root_term ]));
  (* Extension: one rule per observed peer, advancing that peer's slot of
     the index along an automaton transition. *)
  let g_u_c = Term.app "g" [ v "U"; v "C" ] in
  let g_v_c0 = Term.app "g" [ v "V"; v "C0" ] in
  (* The new event is named explicitly: f(T, g(U,C), g(V,C0)) for the
     transition T the alarm (or hiddenNet) row selected. Asking trans@p
     with a free event variable instead would admit any event whose
     parents instantiate the places (C, C0) — when two transitions of one
     peer share a preset, an event of the wrong transition (wrong alarm
     label!) would extend the configuration, and goal-directed evaluation
     would materialize events the dedicated algorithm of Theorem 4 never
     constructs. The bound term makes the head match filter them out
     before any subquery is issued. Found by the lib/check fuzzer
     (seed 2030, qsq-vs-reference). *)
  let new_event = Term.app "f" [ v "T"; g_u_c; g_v_c0 ] in
  let extension_tail p =
    [ pos_lit ~rel:"transInConf" ~peer:p0 [ v "Z"; v "U" ];
      pos_lit ~rel:"transInConf" ~peer:p0 [ v "Z"; v "V" ];
      pos_lit ~rel:"notParent" ~peer:p0 [ v "Z"; g_u_c ];
      pos_lit ~rel:"notParent" ~peer:p0 [ v "Z"; g_v_c0 ];
      pos_lit ~rel:"trans" ~peer:p [ new_event; g_u_c; g_v_c0 ] ]
  in
  List.iter
    (fun p ->
      emit
        (Drule.make
           (datom ~rel:"configPrefixes" ~peer:p0
              [ Term.app "h" [ v "Z"; new_event ]; v "Z"; new_event;
                ix_with p (v "I1") ])
           ([ pos_lit ~rel:"alarmSeq" ~peer:p0 [ v "I0"; v "A"; c p; v "I1" ];
              pos_lit ~rel:"petriNet" ~peer:p [ v "T"; v "A"; v "C"; v "C0" ];
              pos_lit ~rel:"configPrefixes" ~peer:p0
                [ v "Z"; v "W"; v "Y"; ix_with p (v "I0") ] ]
           @ extension_tail p)))
    peers;
  (* Hidden transitions (Section 4.4): extend the configuration without
     consuming an alarm — the index is unchanged. *)
  List.iter
    (fun p ->
      emit
        (Drule.make
           (datom ~rel:"configPrefixes" ~peer:p0
              [ Term.app "h" [ v "Z"; new_event ]; v "Z"; new_event; ix_all_vars ])
           ([ pos_lit ~rel:"hiddenNet" ~peer:p [ v "T"; v "C"; v "C0" ];
              pos_lit ~rel:"configPrefixes" ~peer:p0 [ v "Z"; v "W"; v "Y"; ix_all_vars ] ]
           @ extension_tail p)))
    hidden_peers;
  (* transInConf: collect the events of a configuration by walking the
     shorter prefixes it was built from. *)
  emit
    (Drule.make
       (datom ~rel:"transInConf" ~peer:p0 [ v "Z"; v "X" ])
       [ pos_lit ~rel:"configPrefixes" ~peer:p0 [ v "Z"; v "W"; v "X"; v "I" ] ]);
  emit
    (Drule.make
       (datom ~rel:"transInConf" ~peer:p0 [ v "Z"; v "X" ])
       [ pos_lit ~rel:"configPrefixes" ~peer:p0 [ v "Z"; v "W"; v "Y"; v "I" ];
         pos_lit ~rel:"transInConf" ~peer:p0 [ v "W"; v "X" ] ]);
  (* notParent(z, m): condition m is not consumed by any event of z. Built
     monotonically along the prefix structure. Events may live at any
     observed or hidden peer. *)
  List.iter
    (fun p ->
      emit
        (Drule.make
           (datom ~rel:"notParent" ~peer:p0 [ v "Z"; v "M" ])
           [ pos_lit ~rel:"configPrefixes" ~peer:p0 [ v "Z"; v "W"; v "Y"; v "I" ];
             pos_lit ~rel:"trans" ~peer:p [ v "Y"; v "U"; v "V" ];
             Drule.Neq (v "M", v "U");
             Drule.Neq (v "M", v "V");
             pos_lit ~rel:"notParent" ~peer:p0 [ v "W"; v "M" ] ]))
    event_peers;
  (* base case: in the empty configuration every existing condition is
     unconsumed, wherever it lives *)
  List.iter
    (fun p ->
      emit
        (Drule.make
           (datom ~rel:"notParent" ~peer:p0 [ initial_id; v "M" ])
           [ pos_lit ~rel:"places" ~peer:p [ v "M"; v "Y" ] ]))
    place_peers;
  (* Final selection: configurations whose index is accepting for every
     observed peer. The accept atoms come first so that the configPrefixes
     subquery is asked with a bound index. *)
  let accept_lits =
    List.map (fun p -> pos_lit ~rel:"accept" ~peer:p0 [ c p; v ("Q_" ^ p) ]) peers
  in
  let full = ix (List.map (fun p -> v ("Q_" ^ p)) peers) in
  emit
    (Drule.make
       (datom ~rel:"q" ~peer:p0 [ v "Z"; v "X" ])
       (accept_lits
       @ [ pos_lit ~rel:"configPrefixes" ~peer:p0 [ v "Z"; v "W"; v "Y"; full ];
           pos_lit ~rel:"transInConf" ~peer:p0 [ v "Z"; v "X" ] ]));
  let unbounded =
    hidden_peers <> [] || List.exists (fun (_, pat) -> Pattern.unbounded pat) patterns
  in
  {
    program = Dprogram.make (List.rev !rules);
    facts;
    query = datom ~rel:"q" ~peer:p0 [ v "Z"; v "X" ];
    supervisor = p0;
    sequence_peers = peers;
    unbounded;
  }

(** The basic problem of Section 4.2 as observations: each peer's
    subsequence of one fixed alarm sequence, as a word. *)
let words (alarms : Petri.Alarm.t) : (string * Pattern.t) list =
  List.map
    (fun (p, sub) -> (p, Pattern.word (List.map (fun a -> a.Petri.Alarm.symbol) sub)))
    (Petri.Alarm.split alarms)

(** Group the answers [q(z, x)] into a diagnosis: one configuration (set of
    event terms) per configuration id, duplicates identified. *)
let diagnosis_of_answers (answers : Atom.t list) : Canon.diagnosis =
  let by_id : (Term.t, Term.Set.t ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      match a.Atom.args with
      | [ z; x ] ->
        let set =
          match Hashtbl.find_opt by_id z with
          | Some s -> s
          | None ->
            let s = ref Term.Set.empty in
            Hashtbl.add by_id z s;
            s
        in
        if Canon.is_event_term x then set := Term.Set.add x !set
      | _ -> invalid_arg "diagnosis_of_answers: expected binary q answers")
    answers;
  Canon.normalize_diagnosis (Hashtbl.fold (fun _ s acc -> !s :: acc) by_id [])
