(** The Petri-net unfolding as a dDatalog program (Section 4.1).

    Each peer's rules are generated from its own view of the net: its places
    and transitions, plus the "nearby neighborhood" — for every parent place
    of a local transition, the peers whose transitions can mark that place
    (the paper's [Neighb(p)] sets). Node identities are created with the
    Skolem functions [f] (events) and [g] (conditions), rooted at the
    virtual transition [r]; see {!Canon}.

    {b Deviation from the paper, by design.} The paper constrains event
    creation with four auxiliary relations ([notCausal], [notConf], plus the
    [transTree]/[placesTree] local copies used to keep the conflict check
    local). We obtain the same effect with a single positive relation
    [co(u, v)] — "conditions u and v are concurrent" — defined inductively:
    roots are pairwise concurrent, the children of an event are pairwise
    concurrent, and a child of event [x] is concurrent with [b] iff both
    parents of [x] are. This is the standard incremental concurrency
    relation of unfolders; it is positive, local in the same sense (each
    rule mentions only a peer and its neighbors), uses the same node naming,
    and makes Lemma 1 checkable directly against the reference unfolder.
    Two conditions are concurrent iff they are neither causally related nor
    in conflict, so [co] carries exactly the information [notCausal] +
    [notConf] carry where it matters: deciding whether two conditions can
    jointly fire a transition. *)

open Datalog
open Dqsq

exception Unsupported of string

let v x = Term.var x
let c s = Term.const s

(** Peers that may produce an instance of place [s]: the peers of the
    transitions with [s] in their postset, plus the place's own peer if it
    is initially marked (root conditions are held by the place's peer). *)
let producer_peers (net : Petri.Net.t) (s : string) : string list =
  let from_producers =
    List.map (fun tid -> (Petri.Net.transition net tid).Petri.Net.t_peer)
      (Petri.Net.producers net s)
  in
  let roots =
    if Petri.Net.String_set.mem s (Petri.Net.marking net) then
      [ (Petri.Net.place net s).Petri.Net.p_peer ]
    else []
  in
  List.sort_uniq String.compare (from_producers @ roots)

let datom ~rel ~peer args = Datom.make ~rel ~peer args
let pos ~rel ~peer args = Drule.Pos (datom ~rel ~peer args)

(** The unfolding program of a binarized net: the [places], [trans], [map]
    and [co] rules of every peer. *)
let unfolding_program (net : Petri.Net.t) : Dprogram.t =
  if not (Petri.Net.is_binary net) then
    raise (Unsupported "unfolding_program: net must be binarized (Net.binarize)");
  let peers = Petri.Net.peers net in
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  (* Roots: one condition per initially marked place, held by its peer. *)
  List.iter
    (fun (p : Petri.Net.place) ->
      if Petri.Net.String_set.mem p.Petri.Net.p_id (Petri.Net.marking net) then begin
        let node = Term.app "g" [ Canon.root_term; c p.Petri.Net.p_id ] in
        let peer = p.Petri.Net.p_peer in
        emit (Drule.fact (datom ~rel:"places" ~peer [ node; Canon.root_term ]));
        emit (Drule.fact (datom ~rel:"map" ~peer [ node; c p.Petri.Net.p_id ]))
      end)
    (Petri.Net.places net);
  (* Roots are pairwise concurrent; each peer pairs its own roots with every
     peer's roots (one rule per peer pair — only the peer list is needed). *)
  List.iter
    (fun p ->
      List.iter
        (fun p' ->
          emit
            (Drule.make
               (datom ~rel:"co" ~peer:p [ v "A"; v "B" ])
               [ pos ~rel:"places" ~peer:p [ v "A"; Canon.root_term ];
                 pos ~rel:"places" ~peer:p' [ v "B"; Canon.root_term ];
                 Drule.Neq (v "A", v "B") ]))
        peers)
    peers;
  List.iter
    (fun (tr : Petri.Net.transition) ->
      let p = tr.Petri.Net.t_peer in
      let tid = tr.Petri.Net.t_id in
      let c0, c00 =
        match tr.Petri.Net.t_pre with
        | [ a; b ] -> (a, b)
        | _ -> assert false (* binarized *)
      in
      let event = Term.app "f" [ c tid; v "U"; v "V" ] in
      let combos =
        List.concat_map
          (fun p0 -> List.map (fun p00 -> (p0, p00)) (producer_peers net c00))
          (producer_peers net c0)
      in
      (* Event creation: U, V instantiate the two parent places and are
         concurrent. One rule per producer-peer combination (the paper's
         "grandparent nodes at peers p', p''"). *)
      List.iter
        (fun (p0, p00) ->
          let body =
            [ pos ~rel:"map" ~peer:p0 [ v "U"; c c0 ];
              pos ~rel:"map" ~peer:p00 [ v "V"; c c00 ];
              pos ~rel:"co" ~peer:p0 [ v "U"; v "V" ] ]
          in
          emit (Drule.make (datom ~rel:"trans" ~peer:p [ event; v "U"; v "V" ]) body);
          emit (Drule.make (datom ~rel:"map" ~peer:p [ event; c tid ]) body))
        combos;
      (* Conditions: one per child place of each event instance. *)
      List.iter
        (fun c' ->
          let node = Term.app "g" [ v "X"; c c' ] in
          let body =
            [ pos ~rel:"map" ~peer:p [ v "X"; c tid ];
              pos ~rel:"trans" ~peer:p [ v "X"; v "Y"; v "Z" ] ]
          in
          emit (Drule.make (datom ~rel:"places" ~peer:p [ node; v "X" ]) body);
          emit (Drule.make (datom ~rel:"map" ~peer:p [ node; c c' ]) body))
        tr.Petri.Net.t_post;
      (* Siblings of one event are pairwise concurrent. *)
      List.iter
        (fun c1 ->
          List.iter
            (fun c2 ->
              if not (String.equal c1 c2) then
                emit
                  (Drule.make
                     (datom ~rel:"co" ~peer:p
                        [ Term.app "g" [ v "X"; c c1 ]; Term.app "g" [ v "X"; c c2 ] ])
                     [ pos ~rel:"map" ~peer:p [ v "X"; c tid ];
                       pos ~rel:"trans" ~peer:p [ v "X"; v "Y"; v "Z" ] ]))
            tr.Petri.Net.t_post)
        tr.Petri.Net.t_post;
      (* Inheritance: a child of event X is concurrent with B whenever both
         parents of X are. *)
      List.iter
        (fun c' ->
          List.iter
            (fun (p0, p00) ->
              emit
                (Drule.make
                   (datom ~rel:"co" ~peer:p [ Term.app "g" [ v "X"; c c' ]; v "B" ])
                   [ pos ~rel:"map" ~peer:p [ v "X"; c tid ];
                     pos ~rel:"trans" ~peer:p [ v "X"; v "U"; v "V" ];
                     pos ~rel:"co" ~peer:p0 [ v "U"; v "B" ];
                     pos ~rel:"co" ~peer:p00 [ v "V"; v "B" ] ]))
            combos)
        tr.Petri.Net.t_post)
    (Petri.Net.transitions net);
  (* Symmetry: co is stored where its first node lives; each peer recovers
     the pairs whose first component it owns from every peer (including
     itself — inheritance derives only the (child, b) direction). *)
  List.iter
    (fun p ->
      List.iter
        (fun p' ->
          emit
            (Drule.make
               (datom ~rel:"co" ~peer:p [ v "A"; v "B" ])
               [ pos ~rel:"co" ~peer:p' [ v "B"; v "A" ];
                 pos ~rel:"places" ~peer:p [ v "A"; v "X" ] ]))
        peers)
    peers;
  Dprogram.make (List.rev !rules)

(** The [petriNet@p(t, alarm, c0, c00)] base facts describing each peer's
    observable transitions, used by the supervisor (Section 4.2).
    Transitions in [hidden] are omitted here and described by
    {!hidden_net_facts} instead ("the peers may decide to report to the
    supervisor only part of the alarms", Section 4.4). *)
let petri_net_facts ?(hidden = []) (net : Petri.Net.t) : Datom.t list =
  List.filter_map
    (fun (tr : Petri.Net.transition) ->
      if List.mem tr.Petri.Net.t_id hidden then None
      else
        let c0, c00 =
          match tr.Petri.Net.t_pre with
          | [ a; b ] -> (a, b)
          | _ -> raise (Unsupported "petri_net_facts: net must be binarized")
        in
        Some
          (datom ~rel:"petriNet" ~peer:tr.Petri.Net.t_peer
             [ c tr.Petri.Net.t_id; c tr.Petri.Net.t_alarm; c c0; c c00 ]))
    (Petri.Net.transitions net)

(** The [hiddenNet@p(t, c0, c00)] base facts for unobservable transitions:
    no alarm column — firing them is never reported. *)
let hidden_net_facts ~hidden (net : Petri.Net.t) : Datom.t list =
  List.filter_map
    (fun (tr : Petri.Net.transition) ->
      if not (List.mem tr.Petri.Net.t_id hidden) then None
      else
        let c0, c00 =
          match tr.Petri.Net.t_pre with
          | [ a; b ] -> (a, b)
          | _ -> raise (Unsupported "hidden_net_facts: net must be binarized")
        in
        Some
          (datom ~rel:"hiddenNet" ~peer:tr.Petri.Net.t_peer
             [ c tr.Petri.Net.t_id; c c0; c c00 ]))
    (Petri.Net.transitions net)

(** Peers holding at least one of the [hidden] transitions. *)
let hidden_peers ~hidden (net : Petri.Net.t) : string list =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (tr : Petri.Net.transition) ->
         if List.mem tr.Petri.Net.t_id hidden then Some tr.Petri.Net.t_peer else None)
       (Petri.Net.transitions net))

(** The unfolding nodes a plain (un-adorned) store holds: the first column
    of its [trans] and [places] facts at every peer, and its fact count. *)
let materialized (store : Fact_store.t) : Term.Set.t * Term.Set.t * int =
  let column rel acc =
    List.fold_left
      (fun acc -> function x :: _ -> Term.Set.add x acc | [] -> acc)
      acc (Fact_store.tuples_of store rel)
  in
  let events, conds =
    List.fold_left
      (fun (events, conds) rel ->
        match Datom.unmangle rel with
        | Some ("trans", _) -> (column rel events, conds)
        | Some ("places", _) -> (events, column rel conds)
        | Some _ | None -> (events, conds))
      (Term.Set.empty, Term.Set.empty) (Fact_store.relations store)
  in
  (events, conds, Fact_store.count store)
