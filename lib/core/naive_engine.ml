(** Distributed naive evaluation of dDatalog (Section 3.2, "naive
    distributed evaluation").

    Activation flows top-down: activating a relation at a peer activates the
    rules defining it, which in turn activate (and subscribe to) the
    relations in their bodies — local or remote. Tuples then stream between
    peers until no new fact can be derived anywhere ("the system reaches a
    fixpoint when no new relation may be activated and no new fact derived
    at any peer"). No binding information is propagated: entire relations
    are computed and shipped, which is what dQSQ improves on. *)

open Datalog

type peer_state = {
  rt : Runtime.t;
  my_rules : (string, Drule.t list) Hashtbl.t;  (** local rules by head relation *)
  activated : (string, unit) Hashtbl.t;
}

(* The network carries the same frames as dQSQ's: every message is a
   [Work] envelope, which encodes byte-identically to the bare message. *)
type t = {
  program : Dprogram.t;
  sim : Message.t Network.Termination.wrapped Network.Sim.t;
  states : (string, peer_state) Hashtbl.t;
  query_peer : string;
}

let state t p = Hashtbl.find t.states p
let send t ~src ~dst m = Network.Sim.send t.sim ~src ~dst (Network.Termination.Work m)

let forward t ~src outputs =
  List.iter
    (fun (fact, subs) ->
      List.iter (fun dst -> send t ~src ~dst (Message.Fact fact)) subs)
    outputs

(* Activate relation [rel] at peer [p]: install its rules, activate local
   body relations, send Activate+Subscribe for remote ones. *)
let rec activate t p rel =
  let st = state t p in
  if not (Hashtbl.mem st.activated rel) then begin
    Hashtbl.add st.activated rel ();
    let rules = Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel) in
    List.iter (fun r -> ignore (Runtime.install st.rt (Drule.to_rule r))) rules;
    List.iter
      (fun r ->
        List.iter
          (fun (a : Datom.t) ->
            if String.equal a.Datom.peer p then activate t p a.Datom.rel
            else begin
              send t ~src:p ~dst:a.Datom.peer (Message.Activate a.Datom.rel);
              send t ~src:p ~dst:a.Datom.peer
                (Message.Subscribe (Datom.mangle_rel ~rel:a.Datom.rel ~peer:a.Datom.peer))
            end)
          (Drule.body_atoms r))
      rules
  end

let handle t p ~src msg =
  let st = state t p in
  match msg with
  | Message.Activate rel -> activate t p rel
  | Message.Subscribe rel ->
    let snapshot = Runtime.subscribe st.rt rel ~dst:src in
    List.iter (fun fact -> send t ~src:p ~dst:src (Message.Fact fact)) snapshot
  | Message.Fact fact -> ignore (Runtime.add_fact st.rt fact)
  | Message.Delegate _ -> invalid_arg "Naive_engine: unexpected delegation"
  | Message.Batch _ -> invalid_arg "Naive_engine: unexpected envelope"

(* One activation of peer [p]: [f] handles what arrived, then the peer
   runs the one local pass that requires and ships what it derived. *)
let activation t p f =
  f ();
  forward t ~src:p (Runtime.evaluate (state t p).rt)

let unwrap = function
  | Network.Termination.Work m -> m
  | Network.Termination.Ack -> invalid_arg "Naive_engine: unexpected ack"

(** Set up the network for [program]: one simulated peer per dDatalog peer,
    EDB facts preloaded into their owners' stores. *)
let create ?(seed = 0) ?(policy = Network.Sim.Random_interleaving)
    ?(eval_options = Eval.default_options) (program : Dprogram.t)
    ~(edb : Datom.t list) ~(query : Datom.t) : t =
  let sim = Network.Sim.create ~seed ~policy ~codec:(Wire.codec (Wire.channels ())) () in
  let peers =
    List.sort_uniq String.compare
      (Dprogram.peers program
      @ List.map (fun (a : Datom.t) -> a.Datom.peer) edb
      @ [ query.Datom.peer ])
  in
  let states = Hashtbl.create 16 in
  let t = { program; sim; states; query_peer = query.Datom.peer } in
  List.iter
    (fun p ->
      let st =
        { rt = Runtime.create ~eval_options p; my_rules = Hashtbl.create 16;
          activated = Hashtbl.create 16 }
      in
      List.iter
        (fun r ->
          let rel = r.Drule.head.Datom.rel in
          Hashtbl.replace st.my_rules rel
            (Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel) @ [ r ]))
        (Dprogram.rules_at program p);
      Hashtbl.add states p st;
      Network.Sim.add_peer sim p (fun _ ~src msg ->
          activation t p (fun () -> handle t p ~src (unwrap msg))))
    peers;
  List.iter
    (fun (a : Datom.t) ->
      ignore (Runtime.add_fact (state t a.Datom.peer).rt (Datom.to_atom a)))
    edb;
  t

type outcome = {
  answers : Atom.t list;  (** instantiations of the query's mangled atom *)
  deliveries : int;
  net_stats : Network.Sim.stats;
  total_facts : int;  (** over all peer stores, replicas included *)
  facts_per_peer : (string * int) list;
}

(** Pose the query and run to global quiescence. *)
let run ?max_steps (t : t) ~(query : Datom.t) : outcome =
  activation t t.query_peer (fun () -> activate t t.query_peer query.Datom.rel);
  let deliveries = Network.Sim.run ?max_steps t.sim in
  let st = state t t.query_peer in
  let answers = Eval.answers (Runtime.store st.rt) (Datom.to_atom query) in
  let facts_per_peer =
    Hashtbl.fold (fun p st acc -> (p, Runtime.facts_count st.rt) :: acc) t.states []
    |> List.sort compare
  in
  {
    answers;
    deliveries;
    net_stats = Network.Sim.stats t.sim;
    total_facts = List.fold_left (fun acc (_, n) -> acc + n) 0 facts_per_peer;
    facts_per_peer;
  }

(** Convenience: build and run in one call. *)
let solve ?seed ?policy ?eval_options ?max_steps program ~edb ~query =
  let t = create ?seed ?policy ?eval_options program ~edb ~query in
  run ?max_steps t ~query
