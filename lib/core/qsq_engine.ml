(** dQSQ: the distributed Query-Sub-Query protocol (Sections 3.2 and 4.3).

    Processing starts at the peer where the query is posed. Each peer
    rewrites its own rules exactly as centralized QSQ would ("the rewriting
    is performed locally at each peer without any global knowledge"); when
    the left-to-right walk meets a relation owned by another peer, the peer
    "delegates the processing of the remainder of the rule (from the remote
    relation name to the right end of the rule) to the remote peer in charge
    of that relation" — message (†). The remote peer continues the walk: it
    installs the supplementary rules that join the delegated bindings with
    its own relation, subscribing to the supplementary relation left behind
    at the sender. Rewriting-phase and evaluation-phase messages share one
    asynchronous network, so results may start flowing before the rewriting
    is complete (Remark 2).

    The generated relation names deliberately match the centralized
    {!Datalog.Qsq} rewriting up to the peer suffix: stripping ["@peer"]
    realizes the surjection zeta of Theorem 1, which the test suite checks
    as a set equality of facts. *)

open Datalog
module Sim = Network.Sim
module Ds = Network.Termination
module Var_set = Adornment.Var_set

(* Variables of a list of terms, in order of first occurrence (shared with
   the centralized rewriting — must stay aligned for Theorem 1). Set-based
   membership and reverse accumulation: this runs for every rule/adornment
   pair of the distributed rewriting. *)
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

(* Parallel safety: a peer's state is only ever touched from inside that
   peer's message handler (plus setup on the main domain before the run),
   and {!Sim.run_parallel} runs a peer's activations on at most one domain
   at a time, with happens-before hand-offs through the peer's mailbox
   mutex — so none of these hashtables or the runtime need locks, even
   though work stealing migrates peers between domains. Engine-wide
   counters shared by all handlers are [Atomic.t]. *)
type peer_state = {
  rt : Runtime.t;
  my_rules : (string, Drule.t list) Hashtbl.t;  (** local rules by head relation *)
  demanded : (string * string, unit) Hashtbl.t;  (** (relation, adornment) *)
  delegations_seen : (string, unit) Hashtbl.t;
  subscriptions_sent : (string * Symbol.t, unit) Hashtbl.t;  (** (owner, rel) *)
  out_tbl : (string, Message.t list ref) Hashtbl.t;
      (** outbox: protocol messages buffered during the current activation,
          by destination (contents reversed) *)
  mutable out_order : string list;  (** destinations, reverse first-touch *)
  steps_c : Obs.Metrics.counter;
      (** messages handled by this peer ([peer.steps.<name>]) — the load
          balance across domains in [diag --stats] *)
}

(* [program]/[query] are mutable so a warm engine can be recycled for the
   next session over the same peer set (see {!recycle}) without tearing
   down the simulator, its registered handlers, or the per-channel wire
   codec state. *)
type t = {
  mutable program : Dprogram.t;
  sim : Message.t Ds.wrapped Sim.t;
  channels : Wire.channels;  (* the sizer's per-channel codec state *)
  states : (string, peer_state) Hashtbl.t;
  mutable query : Datom.t;
  mutable query_peer : string;
  batching : bool;
      (* coalesce each activation's outgoing messages into one
         {!Message.Batch} envelope per destination (default). Off = the
         historical eager path, kept for byte-accounting comparisons. *)
  detector : Message.t Ds.t option;
      (* Dijkstra-Scholten termination detection, when requested *)
  delegations : int Atomic.t;
  subscriptions : int Atomic.t;
  fact_messages : int Atomic.t;
  fresh : int Atomic.t;
      (* per-engine rule-freshening suffixes: with a process-global counter
         the suffix lengths — and hence real wire bytes — would depend on
         what ran before, breaking same-seed byte determinism *)
  mutable released : bool;  (* peers cleared by {!release}, nothing installed *)
}

let state t p = Hashtbl.find t.states p

(* Protocol-message accounting, alongside the per-run instance fields. *)
let delegations_c = Obs.Metrics.counter "qsq.delegations"
let subscriptions_c = Obs.Metrics.counter "qsq.subscriptions"
let fact_messages_c = Obs.Metrics.counter "qsq.fact_messages"
let envelopes_c = Obs.Metrics.counter "qsq.envelopes"

(* All protocol messages ultimately go through here: either plain (the
   simulator's quiescence is the fixpoint signal) or tracked by the
   Dijkstra-Scholten detector (the supervisor learns the fixpoint from the
   protocol itself). *)
let send_now t ~src ~dst m =
  match t.detector with
  | None -> Sim.send t.sim ~src ~dst (Ds.Work m)
  | Some det -> Ds.send_work det t.sim ~src ~dst m

(* Batching mode buffers every protocol message of the current activation
   in the sender's outbox; {!flush_outbox} coalesces them into one
   {!Message.Batch} envelope per destination. The flush happens *inside*
   the activation — before the handler returns to the scheduler — which
   keeps both fixpoint signals sound: the simulator's in-flight count sees
   the envelope before the activation's unit is released, and the
   Dijkstra-Scholten deficit is bumped before the wrapper's disengage
   check runs. *)
let buffer t ~src ~dst m =
  if not t.batching then send_now t ~src ~dst m
  else begin
    let st = state t src in
    match Hashtbl.find_opt st.out_tbl dst with
    | Some l -> l := m :: !l
    | None ->
      Hashtbl.add st.out_tbl dst (ref [ m ]);
      st.out_order <- dst :: st.out_order
  end

let flush_outbox t p =
  let st = state t p in
  match st.out_order with
  | [] -> ()
  | order ->
    st.out_order <- [];
    List.iter
      (fun dst ->
        let msgs = List.rev !(Hashtbl.find st.out_tbl dst) in
        Hashtbl.remove st.out_tbl dst;
        match msgs with
        | [] -> ()
        | [ m ] -> send_now t ~src:p ~dst m
        | ms ->
          Obs.Metrics.incr envelopes_c;
          send_now t ~src:p ~dst (Message.Batch ms))
      (List.rev order)

(* Ship [facts] to [dst]. [fact_messages] counts individual facts — the
   envelope only changes what crosses the wire (one frame, shared spines)
   and how the receiver evaluates (one semi-naive pass over the whole
   delta). In batching mode the facts join the activation's outbox and
   coalesce with any control messages bound for the same destination; in
   eager mode several facts still share one {!Message.Batch} per flush
   (the historical behavior). *)
let send_facts t ~src ~dst = function
  | [] -> ()
  | facts ->
    let n = List.length facts in
    Atomic.fetch_and_add t.fact_messages n |> ignore;
    Obs.Metrics.incr ~by:n fact_messages_c;
    if t.batching then
      List.iter (fun f -> buffer t ~src ~dst (Message.Fact f)) facts
    else (
      match facts with
      | [ fact ] -> send_now t ~src ~dst (Message.Fact fact)
      | facts ->
        Obs.Metrics.incr envelopes_c;
        send_now t ~src ~dst (Message.Batch (List.map (fun f -> Message.Fact f) facts)))

(* Group a flush's outputs by destination, preserving first-touch order of
   destinations and the per-destination fact order (determinism: the
   seeded scheduler sees the same send sequence on every run). *)
let forward t ~src outputs =
  let by_dst : (string, Atom.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (fact, subs) ->
      List.iter
        (fun dst ->
          match Hashtbl.find_opt by_dst dst with
          | Some l -> l := fact :: !l
          | None ->
            Hashtbl.add by_dst dst (ref [ fact ]);
            order := dst :: !order)
        subs)
    outputs;
  List.iter
    (fun dst -> send_facts t ~src ~dst (List.rev !(Hashtbl.find by_dst dst)))
    (List.rev !order)

(* Located relation symbols for the generated predicates: the base name is
   computed on the unmangled relation (matching centralized QSQ), then
   located at its owner peer. *)
let adorned_at ~rel ~ad ~peer =
  Datom.mangle_rel ~rel:(Symbol.name (Adornment.adorned_sym (Symbol.intern rel) ad)) ~peer

let input_at ~rel ~ad ~peer =
  Datom.mangle_rel ~rel:(Symbol.name (Adornment.input_sym (Symbol.intern rel) ad)) ~peer

let sup_at ~rel ~ad ~rule_index ~pos ~peer =
  Datom.mangle_rel
    ~rel:(Symbol.name (Adornment.sup_sym (Symbol.intern rel) ad ~rule_index ~pos))
    ~peer

let var_atom sym vars = Atom.cmake sym (List.map (fun x -> Term.var x) vars)

(* The per-engine [t.fresh] counter is atomic so concurrent [demand]s on
   different domains still draw unique suffixes. The drawn values then
   depend on the schedule — harmless: all variables of one rule instance
   share one suffix, derived facts are ground, and attribute (column)
   order compares same-suffix names, so fact sets are
   suffix-value-independent. *)

(* Ensure [p] receives the tuples of [rel_sym] owned by [owner]. *)
let ensure_subscription t p ~owner ~rel_sym =
  if not (String.equal owner p) then begin
    let st = state t p in
    if not (Hashtbl.mem st.subscriptions_sent (owner, rel_sym)) then begin
      Hashtbl.add st.subscriptions_sent (owner, rel_sym) ();
      Atomic.incr t.subscriptions;
      Obs.Metrics.incr subscriptions_c;
      buffer t ~src:p ~dst:owner (Message.Subscribe rel_sym)
    end
  end

let install_and_eval t p rules =
  let st = state t p in
  let fresh = List.filter (fun r -> Runtime.install st.rt r) rules in
  if fresh <> [] then forward t ~src:p (Runtime.evaluate st.rt)

(* ------------------------------------------------------------------ *)
(* The distributed rewriting walk                                      *)
(* ------------------------------------------------------------------ *)

(* Continue the left-to-right rewriting of one rule at peer [p]. The state
   mirrors the centralized walk in {!Qsq.rewrite}; [d] carries it across
   peers. Invariant: every positive literal is processed at the peer that
   owns its relation. *)
let rec walk t p (d : Message.delegation) =
  let rules_to_install = ref [] in
  let emit r = rules_to_install := !rules_to_install @ [ r ] in
  let head = d.Message.d_head in
  let head_vars = Datom.vars head in
  let rec go pos lit_index bound (prev_sup : Atom.t) prev_owner pending lits =
    let needed_from remaining =
      Var_set.of_list (head_vars @ List.concat_map Drule.literal_vars remaining)
    in
    let attrs bound remaining =
      let need = needed_from remaining in
      List.filter (fun x -> Var_set.mem x need) (Var_set.elements bound)
    in
    match lits with
    | [] ->
      (* Install the answer rule at the head's peer. *)
      let finish = { d with Message.d_key = answer_key d; d_pos = pos; d_lit_index = lit_index;
                     d_prev_sup = prev_sup; d_prev_owner = prev_owner;
                     d_remaining = []; d_pending = pending;
                     d_bound = Var_set.elements bound }
      in
      if String.equal head.Datom.peer p then install_answer t p finish
      else begin
        Atomic.incr t.delegations;
        Obs.Metrics.incr delegations_c;
        buffer t ~src:p ~dst:head.Datom.peer (Message.Delegate finish)
      end
    | Drule.Neq (x, y) :: rest -> go pos (lit_index + 1) bound prev_sup prev_owner (pending @ [ (x, y) ]) rest
    | Drule.Pos a :: _rest when not (String.equal a.Datom.peer p) ->
      (* Remote relation: delegate the remainder — rule (†). *)
      let d' =
        { d with
          Message.d_key = Printf.sprintf "%s^%s/%d@%d" d.Message.d_origin_rel d.Message.d_origin_ad
              d.Message.d_rule_index lit_index;
          d_pos = pos; d_lit_index = lit_index;
          d_prev_sup = prev_sup; d_prev_owner = prev_owner;
          d_remaining = lits; d_pending = pending;
          d_bound = Var_set.elements bound }
      in
      Atomic.incr t.delegations;
      Obs.Metrics.incr delegations_c;
      buffer t ~src:p ~dst:a.Datom.peer (Message.Delegate d')
    | Drule.Pos a :: rest ->
      (* Local relation: one centralized-QSQ step. *)
      let pre_ground, pending =
        List.partition
          (fun (x, y) ->
            List.for_all (fun v -> Var_set.mem v bound) (Term.vars x @ Term.vars y))
          pending
      in
      let pre_neqs = List.map (fun (x, y) -> Rule.Neq (x, y)) pre_ground in
      let local_atom = Atom.cmake (Datom.mangled_sym a) a.Datom.args in
      let a_ad = Adornment.of_atom bound local_atom in
      let st = state t p in
      let body_atom =
        if Hashtbl.mem st.my_rules a.Datom.rel then begin
          (* IDB here: demand in-S^ad and recursively rewrite S's rules. *)
          let in_s =
            Atom.cmake (input_at ~rel:a.Datom.rel ~ad:a_ad ~peer:p)
              (Adornment.bound_args a_ad a.Datom.args)
          in
          emit (Rule.make in_s (Rule.Pos prev_sup :: pre_neqs));
          demand t p ~rel:a.Datom.rel ~ad:a_ad;
          Atom.cmake (adorned_at ~rel:a.Datom.rel ~ad:a_ad ~peer:p) a.Datom.args
        end
        else local_atom
      in
      let bound' = Var_set.union bound (Var_set.of_list (Datom.vars a)) in
      let post_ground, pending =
        List.partition
          (fun (x, y) ->
            List.for_all (fun v -> Var_set.mem v bound') (Term.vars x @ Term.vars y))
          pending
      in
      let post_neqs = List.map (fun (x, y) -> Rule.Neq (x, y)) post_ground in
      let sup_j =
        var_atom
          (sup_at ~rel:d.Message.d_origin_rel
             ~ad:(ad_of_string d.Message.d_origin_ad)
             ~rule_index:d.Message.d_rule_index ~pos:(pos + 1) ~peer:p)
          (attrs bound' rest)
      in
      emit
        (Rule.make sup_j ((Rule.Pos prev_sup :: pre_neqs) @ (Rule.Pos body_atom :: post_neqs)));
      go (pos + 1) (lit_index + 1) bound' sup_j p pending rest
  in
  (* The walk consumes facts of the previous supplementary relation; make
     sure they reach this peer. *)
  ensure_subscription t p ~owner:d.Message.d_prev_owner ~rel_sym:d.Message.d_prev_sup.Atom.rel;
  go d.Message.d_pos d.Message.d_lit_index
    (Var_set.of_list d.Message.d_bound)
    d.Message.d_prev_sup d.Message.d_prev_owner d.Message.d_pending d.Message.d_remaining;
  install_and_eval t p !rules_to_install

and answer_key d =
  Printf.sprintf "%s^%s/%d@answer" d.Message.d_origin_rel d.Message.d_origin_ad
    d.Message.d_rule_index

and ad_of_string s = Array.init (String.length s) (fun i -> s.[i] = 'b')

and install_answer t p (d : Message.delegation) =
  let st = state t p in
  if not (Hashtbl.mem st.delegations_seen d.Message.d_key) then begin
    Hashtbl.add st.delegations_seen d.Message.d_key ();
    ensure_subscription t p ~owner:d.Message.d_prev_owner ~rel_sym:d.Message.d_prev_sup.Atom.rel;
    let head = d.Message.d_head in
    let ad = ad_of_string d.Message.d_origin_ad in
    let answer =
      Atom.cmake (adorned_at ~rel:head.Datom.rel ~ad ~peer:p) head.Datom.args
    in
    let extra = List.map (fun (x, y) -> Rule.Neq (x, y)) d.Message.d_pending in
    install_and_eval t p [ Rule.make answer (Rule.Pos d.Message.d_prev_sup :: extra) ]
  end

(* Demand the adorned relation (rel, ad) at peer p: rewrite each local rule
   defining rel, in order — exactly the centralized per-relation step. *)
and demand t p ~rel ~ad =
  let st = state t p in
  let key = (rel, Adornment.to_string ad) in
  if not (Hashtbl.mem st.demanded key) then begin
    Hashtbl.add st.demanded key ();
    (* Bridge rule for extensionally stored facts of this relation (aligned
       with the centralized rewriting). *)
    let xs = List.init (Array.length ad) (fun k -> Printf.sprintf "X%d" k) in
    let bridge =
      Rule.make
        (var_atom (adorned_at ~rel ~ad ~peer:p) xs)
        [ Rule.Pos
            (Atom.cmake (input_at ~rel ~ad ~peer:p)
               (Adornment.bound_args ad (List.map (fun x -> Term.var x) xs)));
          Rule.Pos (var_atom (Datom.mangle_rel ~rel ~peer:p) xs) ]
    in
    install_and_eval t p [ bridge ];
    let rules = Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel) in
    List.iteri
      (fun i r0 ->
        (* Freshen the rule's variables with a uniform "~n" suffix. The
           suffix format matches {!Rule.freshen} so that the lexicographic
           order of attribute names — and hence the column order of the
           supplementary relations — agrees with the centralized rewriting
           (Theorem 1 is checked as exact fact equality). *)
        let suffix = Printf.sprintf "~%d" (1 + Atomic.fetch_and_add t.fresh 1) in
        let s =
          Subst.of_list
            (List.map (fun x -> (x, Term.var (x ^ suffix))) (Drule.vars r0))
        in
        let rename_datom (a : Datom.t) =
          { a with Datom.args = List.map (Subst.apply s) a.Datom.args }
        in
        let head = rename_datom r0.Drule.head in
        let body =
          List.map
            (function
              | Drule.Pos a -> Drule.Pos (rename_datom a)
              | Drule.Neq (x, y) -> Drule.Neq (Subst.apply s x, Subst.apply s y))
            r0.Drule.body
        in
        let bound_head_terms = Adornment.bound_args ad head.Datom.args in
        let bound0 = Var_set.of_list (terms_vars bound_head_terms) in
        let head_vars = Datom.vars head in
        let attrs0 =
          let need =
            Var_set.of_list (head_vars @ List.concat_map Drule.literal_vars body)
          in
          List.filter (fun x -> Var_set.mem x need) (Var_set.elements bound0)
        in
        let sup0 =
          var_atom
            (sup_at ~rel:(Printf.sprintf "%s@%s" rel p) ~ad ~rule_index:i ~pos:0 ~peer:p)
            attrs0
        in
        let in_atom = Atom.cmake (input_at ~rel ~ad ~peer:p) bound_head_terms in
        install_and_eval t p [ Rule.make sup0 [ Rule.Pos in_atom ] ];
        let d : Message.delegation =
          {
            (* the located origin name keeps the supplementary relations of
               same-named relations at different peers apart *)
            Message.d_key = Printf.sprintf "%s@%s^%s/%d@start" rel p (Adornment.to_string ad) i;
            d_origin_rel = Printf.sprintf "%s@%s" rel p;
            d_origin_ad = Adornment.to_string ad;
            d_rule_index = i;
            d_pos = 0;
            d_lit_index = 0;
            d_prev_sup = sup0;
            d_prev_owner = p;
            d_remaining = body;
            d_pending = [];
            d_bound = Var_set.elements bound0;
            d_head = head;
          }
        in
        walk t p d)
      rules
  end

(* ------------------------------------------------------------------ *)
(* Message handling and the public API                                 *)
(* ------------------------------------------------------------------ *)

let rec handle_msg t p ~src msg =
  let st = state t p in
  Obs.Metrics.incr st.steps_c;
  match msg with
  | Message.Subscribe rel ->
    send_facts t ~src:p ~dst:src (Runtime.subscribe st.rt rel ~dst:src)
  | Message.Fact fact ->
    if Runtime.add_fact st.rt fact then
      forward t ~src:p (Runtime.evaluate ~delta:[ fact ] st.rt)
  | Message.Batch ms ->
    (* absorb the whole envelope, then run one semi-naive pass over the
       fresh delta — monotone Datalog, so coalescing deltas is sound *)
    let fresh =
      List.filter_map
        (function
          | Message.Fact fact -> if Runtime.add_fact st.rt fact then Some fact else None
          | m ->
            handle_msg t p ~src m;
            None)
        ms
    in
    if fresh <> [] then forward t ~src:p (Runtime.evaluate ~delta:fresh st.rt)
  | Message.Delegate d ->
    if d.Message.d_remaining = [] then install_answer t p d
    else if not (Hashtbl.mem st.delegations_seen d.Message.d_key) then begin
      Hashtbl.add st.delegations_seen d.Message.d_key ();
      walk t p d
    end
  | Message.Activate _ ->
    (* the supervisor's root injected the query (Dijkstra-Scholten mode) *)
    start_query t

(* Outermost entry: one delivered message = one activation. The outbox is
   flushed before returning to the scheduler — NOT inside nested
   [handle_msg] calls for envelope members, so a whole Batch's responses
   coalesce — and before the Dijkstra-Scholten wrapper's disengage check,
   so the deficit already counts the flushed envelopes. *)
and handle t p ~src msg =
  handle_msg t p ~src msg;
  flush_outbox t p

(* Seed the input relation of the query and start the local rewriting at
   the supervisor's peer. *)
and start_query t =
  let query = t.query in
  let p0 = t.query_peer in
  let q_local = Datom.to_local_atom query in
  let ad = Adornment.of_query q_local in
  let st = state t p0 in
  let seed_fact =
    Atom.cmake (input_at ~rel:query.Datom.rel ~ad ~peer:p0)
      (Adornment.bound_args ad query.Datom.args)
  in
  ignore (Runtime.add_fact st.rt seed_fact);
  demand t p0 ~rel:query.Datom.rel ~ad;
  forward t ~src:p0 (Runtime.evaluate st.rt)

(** How the distributed fixpoint is detected: by the simulator's omniscient
    quiescence test, or by the peers themselves running Dijkstra-Scholten
    (the "standard termination detection algorithms" of Section 3.2) — the
    latter doubles the message count with acknowledgements. *)
type termination_mode =
  | God_view
  | Dijkstra_scholten

let ds_root = "#root"

let create ?(seed = 0) ?(policy = Sim.Random_interleaving) ?(loss = 0.0)
    ?(eval_options = Eval.default_options) ?(termination = God_view)
    ?(wire_verify = false) ?(batching = true) (program : Dprogram.t)
    ~(edb : Datom.t list) ~(query : Datom.t) : t =
  (* byte accounting runs every message through the real codec, with one
     connection per channel; [wire_verify] additionally decodes each
     message and insists on physical equality *)
  let channels = Wire.channels () in
  let size_of = Wire.wrapped_sizer ~verify:wire_verify channels in
  let describe = function Ds.Work m -> Message.describe m | Ds.Ack -> "ack" in
  let sim = Sim.create ~seed ~policy ~loss ~size_of ~describe () in
  let peers =
    List.sort_uniq String.compare
      (Dprogram.peers program
      @ List.map (fun (a : Datom.t) -> a.Datom.peer) edb
      @ [ query.Datom.peer ])
  in
  let detector =
    match termination with
    | God_view -> None
    | Dijkstra_scholten ->
      if List.mem ds_root peers then invalid_arg "Qsq_engine: peer name #root is reserved";
      Some (Ds.create ~root:ds_root ())
  in
  let states = Hashtbl.create 16 in
  let t =
    { program; sim; channels; states; query; query_peer = query.Datom.peer; batching;
      detector; delegations = Atomic.make 0; subscriptions = Atomic.make 0;
      fact_messages = Atomic.make 0; fresh = Atomic.make 0; released = false }
  in
  List.iter
    (fun p ->
      let st =
        { rt = Runtime.create ~eval_options p;
          my_rules = Hashtbl.create 16;
          demanded = Hashtbl.create 16;
          delegations_seen = Hashtbl.create 16;
          subscriptions_sent = Hashtbl.create 16;
          out_tbl = Hashtbl.create 8;
          out_order = [];
          steps_c = Obs.Metrics.counter ("peer.steps." ^ p) }
      in
      List.iter
        (fun r ->
          let rel = r.Drule.head.Datom.rel in
          Hashtbl.replace st.my_rules rel
            (Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel) @ [ r ]))
        (Dprogram.rules_at program p);
      Hashtbl.add states p st;
      match detector with
      | None ->
        Sim.add_peer sim p (fun _ ~src msg ->
            match msg with
            | Ds.Work m -> handle t p ~src m
            | Ds.Ack -> ())
      | Some det ->
        Ds.add_peer det sim p ~handler:(fun ~send:_ ~src m -> handle t p ~src m))
    peers;
  (match detector with
  | Some det -> Ds.add_root det sim ~handler:(fun ~send:_ ~src:_ _ -> ())
  | None -> ());
  List.iter
    (fun (a : Datom.t) ->
      ignore (Runtime.add_fact (state t a.Datom.peer).rt (Datom.to_atom a)))
    edb;
  t

let set_tracing (t : t) b = Sim.set_tracing t.sim b
let delivery_trace (t : t) = Sim.delivery_trace t.sim
let metrics (t : t) = Sim.metrics t.sim
let wire_tables (t : t) = Wire.table_entries t.channels

type outcome = {
  answers : Atom.t list;
  deliveries : int;
  net_stats : Network.Sim.stats;
  delegations : int;
  subscriptions : int;
  fact_messages : int;
  total_facts : int;
  facts_per_peer : (string * int) list;
  clipped : int;  (** facts dropped by depth bounds, 0 on genuine fixpoints *)
  ds_terminated : bool option;
      (** Dijkstra-Scholten mode: did the detector announce termination?
          [None] in god-view mode. *)
}

(* Inject the query and begin the distributed rewriting; deliveries are
   then driven by {!step} (interleaved service sessions) or {!run}. *)
let start (t : t) =
  match t.detector with
  | None ->
    start_query t;
    (* the injection runs outside any activation; flush it explicitly *)
    flush_outbox t t.query_peer
  | Some det ->
    (* the diffusing computation starts with the root's query injection *)
    Ds.start det t.sim ~dst:t.query_peer (Message.Activate t.query.Datom.rel)

let step (t : t) = Sim.step t.sim
let is_quiescent (t : t) = Sim.is_quiescent t.sim

let finish ?(deliveries = 0) (t : t) : outcome =
  let query = t.query in
  let p0 = t.query_peer in
  let q_local = Datom.to_local_atom query in
  let ad = Adornment.of_query q_local in
  let st = state t p0 in
  let answer_pattern =
    Atom.cmake (adorned_at ~rel:query.Datom.rel ~ad ~peer:p0) query.Datom.args
  in
  let answers =
    List.map
      (fun s -> Atom.apply s (Datom.to_atom query))
      (Fact_store.matches (Runtime.store st.rt) answer_pattern ~init:Subst.empty)
    (* structural order: store iteration order depends on the delivery
       schedule, so sort here to keep the outcome schedule-independent *)
    |> List.sort (fun (a : Atom.t) (b : Atom.t) ->
           let c = Symbol.compare a.Atom.rel b.Atom.rel in
           if c <> 0 then c
           else List.compare Term.compare_structural a.Atom.args b.Atom.args)
  in
  let facts_per_peer =
    Hashtbl.fold (fun p st acc -> (p, Runtime.facts_count st.rt) :: acc) t.states []
    |> List.sort compare
  in
  let clipped = Hashtbl.fold (fun _ st acc -> acc + Runtime.clipped st.rt) t.states 0 in
  {
    answers;
    deliveries;
    net_stats = Network.Sim.stats t.sim;
    delegations = Atomic.get t.delegations;
    subscriptions = Atomic.get t.subscriptions;
    fact_messages = Atomic.get t.fact_messages;
    total_facts = List.fold_left (fun acc (_, n) -> acc + n) 0 facts_per_peer;
    facts_per_peer;
    clipped;
    ds_terminated = Option.map Ds.is_terminated t.detector;
  }

let run ?max_steps ?jobs ?pinning (t : t) ~(query : Datom.t) : outcome =
  Obs.Trace.with_span "qsq_engine.run" ~attrs:[ ("query", Datom.to_string query) ]
  @@ fun () ->
  t.query <- query;
  t.query_peer <- query.Datom.peer;
  start t;
  let deliveries =
    match jobs with
    | None -> Network.Sim.run ?max_steps t.sim
    | Some jobs -> Network.Sim.run_parallel ?max_steps ~jobs ?pinning t.sim
  in
  finish ~deliveries t

(* Clear a quiescent engine for the pool: peer runtimes and protocol
   tables are emptied in place (tables stay allocated), while the
   simulator's handlers and per-channel codec state are kept, so a pooled
   engine holds no session's facts, rules or plans. *)
let release (t : t) =
  if not (Sim.is_quiescent t.sim) then
    invalid_arg "Qsq_engine.release: network not quiescent";
  Atomic.set t.delegations 0;
  Atomic.set t.subscriptions 0;
  Atomic.set t.fact_messages 0;
  Atomic.set t.fresh 0;
  Hashtbl.iter
    (fun _ st ->
      Runtime.reset st.rt;
      Hashtbl.clear st.my_rules;
      Hashtbl.clear st.demanded;
      Hashtbl.clear st.delegations_seen;
      Hashtbl.clear st.subscriptions_sent;
      Hashtbl.clear st.out_tbl;
      st.out_order <- [])
    t.states;
  t.released <- true

(* Point the warm engine at the next session: same peers, new program, EDB
   and query. An engine not yet {!release}d is released first. *)
let recycle (t : t) (program : Dprogram.t) ~(edb : Datom.t list) ~(query : Datom.t) =
  if t.detector <> None then
    invalid_arg "Qsq_engine.recycle: Dijkstra-Scholten engines are one-shot";
  if not (Sim.is_quiescent t.sim) then
    invalid_arg "Qsq_engine.recycle: network not quiescent";
  let peers =
    List.sort_uniq String.compare
      (Dprogram.peers program
      @ List.map (fun (a : Datom.t) -> a.Datom.peer) edb
      @ [ query.Datom.peer ])
  in
  List.iter
    (fun p ->
      if not (Hashtbl.mem t.states p) then
        invalid_arg
          (Printf.sprintf "Qsq_engine.recycle: peer %s not in the warm engine" p))
    peers;
  if not t.released then release t;
  t.released <- false;
  t.program <- program;
  t.query <- query;
  t.query_peer <- query.Datom.peer;
  Hashtbl.iter
    (fun p st ->
      List.iter
        (fun r ->
          let rel = r.Drule.head.Datom.rel in
          Hashtbl.replace st.my_rules rel
            (Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel) @ [ r ]))
        (Dprogram.rules_at program p))
    t.states;
  List.iter
    (fun (a : Datom.t) ->
      ignore (Runtime.add_fact (state t a.Datom.peer).rt (Datom.to_atom a)))
    edb

let solve ?seed ?policy ?loss ?eval_options ?termination ?batching ?max_steps ?jobs
    ?pinning program ~edb ~query =
  let t =
    create ?seed ?policy ?loss ?eval_options ?termination ?batching program ~edb ~query
  in
  run ?max_steps ?jobs ?pinning t ~query

let peer_store t p = Runtime.store (state t p).rt
let peer_rules t p = Runtime.rules (state t p).rt

(** Union of all peer stores with every ["@peer"] segment stripped from the
    relation names — the zeta mapping of Theorem 1, for comparison against
    the centralized QSQ evaluation of the localized program. Generated names
    may locate a peer twice (e.g. [sup1,2^R@r^bf@s]: origin relation [R@r],
    stored at [s]); both are dropped. *)
let zeta_facts (t : t) : string list =
  let strip_name name =
    let buf = Buffer.create (String.length name) in
    let n = String.length name in
    let rec go i =
      if i < n then
        if name.[i] = '@' then skip (i + 1)
        else begin
          Buffer.add_char buf name.[i];
          go (i + 1)
        end
    and skip i =
      if i < n then
        match name.[i] with
        | '^' | ',' ->
          Buffer.add_char buf name.[i];
          go (i + 1)
        | _ -> skip (i + 1)
    in
    go 0;
    Buffer.contents buf
  in
  let strip (a : Atom.t) =
    Atom.to_string (Atom.make (strip_name (Symbol.name a.Atom.rel)) a.Atom.args)
  in
  Hashtbl.fold
    (fun _ st acc ->
      List.rev_append (List.map strip (Fact_store.all (Runtime.store st.rt))) acc)
    t.states []
  |> List.sort_uniq String.compare
