(* Remark 4 realized: the unfolding encoding with negation. See the .mli. *)

open Datalog

let v x = Term.var x
let c s = Term.const s
let at rel peer = Dqsq.Datom.mangle_rel ~rel ~peer
let atom rel peer args = Atom.cmake (at rel peer) args
let pos rel peer args = Rule.Pos (atom rel peer args)
let neg rel peer args = Rule.Neg (atom rel peer args)

let unfolding_program (net : Petri.Net.t) : Program.t =
  if not (Petri.Net.is_binary net) then
    raise (Encode.Unsupported "Encode_negation.unfolding_program: net must be binarized");
  let peers = Petri.Net.peers net in
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  let producer_peers = Encode.producer_peers net in

  (* roots *)
  List.iter
    (fun (p : Petri.Net.place) ->
      if Petri.Net.String_set.mem p.Petri.Net.p_id (Petri.Net.marking net) then begin
        let node = Term.app "g" [ Canon.root_term; c p.Petri.Net.p_id ] in
        let peer = p.Petri.Net.p_peer in
        emit (Rule.fact (atom "places" peer [ node; Canon.root_term ]));
        emit (Rule.fact (atom "map" peer [ node; c p.Petri.Net.p_id ]))
      end)
    (Petri.Net.places net);

  List.iter
    (fun (tr : Petri.Net.transition) ->
      let p = tr.Petri.Net.t_peer in
      let tid = tr.Petri.Net.t_id in
      let c0, c00 =
        match tr.Petri.Net.t_pre with [ a; b ] -> (a, b) | _ -> assert false
      in
      let combos =
        List.concat_map
          (fun p0 -> List.map (fun p00 -> (p0, p00)) (producer_peers c00))
          (producer_peers c0)
      in
      let event = Term.app "f" [ c tid; v "U"; v "V" ] in
      (* Event creation, with the checks phrased negatively: the parent
         conditions must not be causally related (in either direction) and
         their producing events must not conflict. *)
      List.iter
        (fun (p0, p00) ->
          let body =
            [ pos "map" p0 [ v "U"; c c0 ];
              pos "map" p00 [ v "V"; c c00 ];
              pos "places" p0 [ v "U"; v "U0" ];
              pos "places" p00 [ v "V"; v "V0" ];
              neg "belowCond" p0 [ v "U0"; v "V" ];
              neg "belowCond" p00 [ v "V0"; v "U" ];
              neg "conf" p0 [ v "U0"; v "V0" ] ]
          in
          emit (Rule.make (atom "trans" p [ event; v "U"; v "V" ]) body);
          emit (Rule.make (atom "map" p [ event; c tid ]) body))
        combos;
      (* conditions *)
      List.iter
        (fun c' ->
          let node = Term.app "g" [ v "X"; c c' ] in
          let body =
            [ pos "map" p [ v "X"; c tid ]; pos "trans" p [ v "X"; v "Y"; v "Z" ] ]
          in
          emit (Rule.make (atom "places" p [ node; v "X" ]) body);
          emit (Rule.make (atom "map" p [ node; c c' ]) body))
        tr.Petri.Net.t_post;
      (* causal: direct grandparents and transitive closure (positive). *)
      List.iter
        (fun (p0, p00) ->
          let guard =
            [ pos "map" p [ v "X"; c tid ]; pos "trans" p [ v "X"; v "U"; v "V" ] ]
          in
          emit
            (Rule.make (atom "causal" p [ v "X"; v "Y" ])
               (guard @ [ pos "places" p0 [ v "U"; v "Y" ] ]));
          emit
            (Rule.make (atom "causal" p [ v "X"; v "Y" ])
               (guard @ [ pos "places" p00 [ v "V"; v "Y" ] ])))
        combos;
      (* what the transition's instances consume *)
      emit
        (Rule.make (atom "consumes" p [ v "X"; v "U" ])
           [ pos "map" p [ v "X"; c tid ]; pos "trans" p [ v "X"; v "U"; v "V" ] ]);
      emit
        (Rule.make (atom "consumes" p [ v "X"; v "V" ])
           [ pos "map" p [ v "X"; c tid ]; pos "trans" p [ v "X"; v "U"; v "V" ] ]))
    (Petri.Net.transitions net);

  List.iter
    (fun p ->
      (* reflexivity and transitivity of causal (events), per peer pair *)
      emit
        (Rule.make (atom "causal" p [ v "X"; v "X" ])
           [ pos "trans" p [ v "X"; v "U"; v "V" ] ]);
      List.iter
        (fun p' ->
          emit
            (Rule.make (atom "causal" p [ v "X"; v "Y" ])
               [ pos "causal" p [ v "X"; v "U" ]; pos "causal" p' [ v "U"; v "Y" ] ]);
          (* belowCond(x, m): condition m is an ancestor of event x — the
             conditions consumed by x's causal past. *)
          emit
            (Rule.make (atom "belowCond" p [ v "X"; v "M" ])
               [ pos "causal" p [ v "X"; v "Z" ]; pos "consumes" p' [ v "Z"; v "M" ] ]);
          (* conflict: two causally-downward events consume one condition *)
          List.iter
            (fun p1 ->
              List.iter
                (fun p2 ->
                  emit
                    (Rule.make (atom "conf" p [ v "X"; v "Y" ])
                       [ pos "causal" p [ v "X"; v "E1" ];
                         pos "causal" p' [ v "Y"; v "E2" ];
                         pos "consumes" p1 [ v "E1"; v "M" ];
                         pos "consumes" p2 [ v "E2"; v "M" ];
                         Rule.Neq (v "E1", v "E2") ]))
                peers)
            peers)
        peers;
      (* r conflicts with nothing and is below nothing: no conf/belowCond
         facts mention it, so the negated checks succeed for roots — except
         belowCond(r, m), which the event rule tests when a parent's
         producer is r. No rule derives it, which is exactly right: nothing
         is below the virtual root. *)
      ())
    peers;
  Program.make (List.rev !rules)

(** Evaluate the negated encoding with the alternating fixpoint (the
    program is not classically stratifiable — [trans] depends negatively on
    [conf], which depends on [trans] — but it is monotone under derivation:
    Remark 4's "stratified flavor"). Returns (events, conditions, total
    facts) at the given canonical depth. *)
let materialize ~depth (net : Petri.Net.t) : Term.Set.t * Term.Set.t * int =
  let net = if Petri.Net.is_binary net then net else Petri.Net.binarize net in
  let program = unfolding_program net in
  let store = Fact_store.create () in
  let options = { Eval.default_options with Eval.max_depth = Some depth } in
  ignore (Eval.alternating ~options program store);
  Encode.materialized store
