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

    Every rule a peer installs is built by {!Datalog.Qsq}'s own steps over
    located names, so stripping ["@peer"] realizes the surjection zeta of
    Theorem 1 (the tests check it on facts and on rules). This module
    keeps what is distributed: delegation, subscriptions, per-peer dedup
    and the located [sup] origins. Rules are installed with their own
    variable names, so every rule a peer builds is a function of the
    program rule, adornment, position and peer, and a fragment shipped
    again crosses its channel as backrefs. *)

open Datalog
module Sim = Network.Sim
module Ds = Network.Termination
module Var_set = Adornment.Var_set

(* Parallel safety: a peer's state is only ever touched from inside that
   peer's message handler (plus setup on the main domain before the run),
   and {!Sim.run_parallel} runs a peer's activations on at most one domain
   at a time, with happens-before hand-offs through the scheduler's lock —
   so none of these hashtables or the runtime need locks, even
   though peers migrate between domains. Engine-wide
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
  channels : Wire.channels;  (* the network's per-channel codec state *)
  states : (string, peer_state) Hashtbl.t;
  mutable query : Datom.t;
  mutable query_peer : string;
  detector : Message.t Ds.t option;
      (* Dijkstra-Scholten termination detection, when requested *)
  delegations : int Atomic.t;
  subscriptions : int Atomic.t;
  fact_messages : int Atomic.t;
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

(* Every protocol message of the current activation waits in the sender's
   outbox; {!flush_outbox} coalesces them into one {!Message.Batch}
   envelope per destination. The flush happens *inside* the activation —
   before the handler returns to the scheduler — which keeps both fixpoint
   signals sound: the envelope is queued while the sender is still busy,
   so the simulator cannot see quiescence before it, and the
   Dijkstra-Scholten deficit is bumped before the wrapper's disengage
   check runs. *)
let buffer t ~src ~dst m =
  let st = state t src in
  match Hashtbl.find_opt st.out_tbl dst with
  | Some l -> l := m :: !l
  | None ->
    Hashtbl.add st.out_tbl dst (ref [ m ]);
    st.out_order <- dst :: st.out_order

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

(* Ship [fact] to [dst]. [fact_messages] counts individual facts — the
   envelope only changes what crosses the wire (one frame, shared spines)
   and how the receiver evaluates (one semi-naive pass over the whole
   delta). The fact joins the activation's outbox, which keeps the
   first-touch order of destinations and the per-destination order
   (determinism: the seeded scheduler sees the same send sequence on every
   run), and coalesces with any control messages bound for the same
   destination. *)
let send_fact t ~src ~dst fact =
  Atomic.incr t.fact_messages;
  Obs.Metrics.incr fact_messages_c;
  buffer t ~src ~dst (Message.Fact fact)

(* Ship each derived fact to its relation's subscribers. *)
let forward t ~src outputs =
  List.iter (fun (fact, subs) -> List.iter (fun dst -> send_fact t ~src ~dst fact) subs) outputs

(* Located names are memoized by their inputs ({!Symbol.memo}), and
   supplementary relations by their parts in {!Message}'s registry, which
   the wire reads to write a relation as its parts. *)
let adorned_at : (string * string * Adornment.t, Symbol.t) Hashtbl.t = Hashtbl.create 64
let input_at : (string * string * Adornment.t, Symbol.t) Hashtbl.t = Hashtbl.create 64

(* A relation's generated names at a peer: each base name is computed on
   the unmangled relation (matching centralized QSQ), then located. *)
let located ~rel ~peer : Qsq.names =
  let at tbl make ad =
    Symbol.memo tbl (rel, peer, ad) (fun () ->
        Datom.mangle_rel ~rel:(Symbol.name (make (Symbol.intern rel) ad)) ~peer)
  in
  { Qsq.adorned = at adorned_at Adornment.adorned_sym; input = at input_at Adornment.input_sym }

let ad_of_string s = Array.init (String.length s) (fun i -> s.[i] = 'b')

(* [rel] is the located origin relation ["R@p"], which keeps the
   supplementary relations of same-named relations at different peers
   apart. *)
let sup_at ~rel ~ad ~rule_index ~pos ~peer =
  Message.sup_symbol { Message.origin = rel; ad; rule = rule_index; pos; owner = peer } (fun () ->
      Datom.mangle_rel
        ~rel:
          (Symbol.name
             (Adornment.sup_sym (Symbol.intern rel) (ad_of_string ad) ~rule_index ~pos))
        ~peer)

(* The delegation's [sup_{i,j-1}] atom. Its relation is not shipped: it is
   the origin's supplementary relation at [d_pos], located at the peer that
   built it. *)
let prev_sup (d : Message.delegation) =
  Atom.cmake
    (sup_at ~rel:d.Message.d_origin_rel ~ad:d.Message.d_origin_ad
       ~rule_index:d.Message.d_rule_index ~pos:d.Message.d_pos ~peer:d.Message.d_prev_owner)
    d.Message.d_prev_args

(* The variables a supplementary relation keeps: those of [head] and of
   the literals still to walk. *)
let need (head : Datom.t) lits =
  Var_set.of_list (Datom.vars head @ List.concat_map Drule.literal_vars lits)

(* The walk resumes with the variables of [sup_{i,j-1}] as its bound set.
   That atom keeps every bound variable that the head, the remaining
   literals or a pending disequality still needs, and no later step reads
   any other bound variable. *)
let walk_of (d : Message.delegation) : Qsq.walk =
  let prev = prev_sup d in
  { Qsq.bound = Var_set.of_list (Atom.vars prev); prev; pending = d.Message.d_pending }

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

(* Rules wait for the activation's one evaluation. *)
let install t p rules = List.iter (fun r -> ignore (Runtime.install (state t p).rt r)) rules

(* ------------------------------------------------------------------ *)
(* The distributed rewriting walk                                      *)
(* ------------------------------------------------------------------ *)

(* Continue the left-to-right rewriting of one rule at peer [p] with
   {!Qsq.step}; [d] carries the walk across peers. Invariant: every
   positive literal is processed at the peer that owns its relation. *)
let rec walk t p (d : Message.delegation) =
  let rules_to_install = ref [] in
  let head = d.Message.d_head in
  let delegate ~dst d' =
    Atomic.incr t.delegations;
    Obs.Metrics.incr delegations_c;
    buffer t ~src:p ~dst (Message.Delegate d')
  in
  let rec go pos lit_index (w : Qsq.walk) prev_owner lits =
    let here remaining =
      { d with Message.d_pos = pos; d_lit_index = lit_index;
               d_prev_args = w.Qsq.prev.Atom.args; d_prev_owner = prev_owner;
               d_remaining = remaining; d_pending = w.Qsq.pending }
    in
    match lits with
    | [] ->
      (* Install the answer rule at the head's peer. *)
      let finish = here [] in
      if String.equal head.Datom.peer p then install_answer t p finish
      else delegate ~dst:head.Datom.peer finish
    | Drule.Neq (x, y) :: rest ->
      go pos (lit_index + 1) { w with Qsq.pending = w.Qsq.pending @ [ (x, y) ] } prev_owner rest
    | Drule.Pos a :: _ when not (String.equal a.Datom.peer p) ->
      (* Remote relation: delegate the remainder — rule (†). *)
      delegate ~dst:a.Datom.peer (here lits)
    | Drule.Pos a :: rest ->
      (* Local relation: one centralized-QSQ step; an IDB relation here is
         demanded, which recursively rewrites its rules. *)
      let callee =
        if Hashtbl.mem (state t p).my_rules a.Datom.rel then
          Some (located ~rel:a.Datom.rel ~peer:p)
        else None
      in
      let w, rules =
        Qsq.step w callee
          (Atom.cmake (Datom.mangled_sym a) a.Datom.args)
          ~need:(need head rest)
          ~sup:(fun () ->
            sup_at ~rel:d.Message.d_origin_rel ~ad:d.Message.d_origin_ad
              ~rule_index:d.Message.d_rule_index ~pos:(pos + 1) ~peer:p)
          ~demand:(fun ad -> demand t p ~rel:a.Datom.rel ~ad)
      in
      rules_to_install := !rules_to_install @ rules;
      go (pos + 1) (lit_index + 1) w p rest
  in
  (* The walk consumes facts of the previous supplementary relation; make
     sure they reach this peer. *)
  let w = walk_of d in
  ensure_subscription t p ~owner:d.Message.d_prev_owner ~rel_sym:w.Qsq.prev.Atom.rel;
  go d.Message.d_pos d.Message.d_lit_index w d.Message.d_prev_owner d.Message.d_remaining;
  install t p !rules_to_install

and install_answer t p (d : Message.delegation) =
  let st = state t p in
  let key = Message.key d in
  if not (Hashtbl.mem st.delegations_seen key) then begin
    Hashtbl.add st.delegations_seen key ();
    let w = walk_of d in
    ensure_subscription t p ~owner:d.Message.d_prev_owner ~rel_sym:w.Qsq.prev.Atom.rel;
    let head = d.Message.d_head in
    install t p
      [ Qsq.answer w
          (located ~rel:head.Datom.rel ~peer:p)
          (ad_of_string d.Message.d_origin_ad) head.Datom.args ]
  end

(* Demand the adorned relation (rel, ad) at peer p: rewrite each local rule
   defining rel, in order — exactly the centralized per-relation step. *)
and demand t p ~rel ~ad =
  let st = state t p in
  let ad_name = Adornment.to_string ad in
  let key = (rel, ad_name) in
  if not (Hashtbl.mem st.demanded key) then begin
    Hashtbl.add st.demanded key ();
    let n = located ~rel ~peer:p in
    install t p [ Qsq.bridge n ~stored:(Datom.mangle_rel ~rel ~peer:p) ad ];
    let origin = Printf.sprintf "%s@%s" rel p in
    List.iteri
      (fun i (r : Drule.t) ->
        (* The rule keeps its own variable names, as in {!Qsq.rewrite}, so
           a supplementary relation orders its attributes as the
           centralized rewriting does (Theorem 1 is checked as exact fact
           equality). *)
        let head = r.Drule.head and body = r.Drule.body in
        let w, sup0_rule =
          Qsq.start n ad
            ~sup:(sup_at ~rel:origin ~ad:ad_name ~rule_index:i ~pos:0 ~peer:p)
            ~need:(need head body) head.Datom.args
        in
        install t p [ sup0_rule ];
        walk t p
          {
            Message.d_origin_rel = origin;
            d_origin_ad = ad_name;
            d_rule_index = i;
            d_pos = 0;
            d_lit_index = 0;
            d_prev_args = w.Qsq.prev.Atom.args;
            d_prev_owner = p;
            d_remaining = body;
            d_pending = [];
            d_head = head;
          })
      (Option.value ~default:[] (Hashtbl.find_opt st.my_rules rel))
  end

(* ------------------------------------------------------------------ *)
(* Message handling and the public API                                 *)
(* ------------------------------------------------------------------ *)

(* Seed the input relation of the query and start the local rewriting at
   the supervisor's peer. *)
let start_query t =
  let query = t.query in
  let p0 = t.query_peer in
  let q_local = Datom.to_local_atom query in
  let ad = Adornment.of_query q_local in
  let st = state t p0 in
  let seed_fact = Qsq.subquery (located ~rel:query.Datom.rel ~peer:p0) ad query.Datom.args in
  ignore (Runtime.add_fact st.rt seed_fact);
  demand t p0 ~rel:query.Datom.rel ~ad

let rec handle_msg t p ~src msg =
  let st = state t p in
  Obs.Metrics.incr st.steps_c;
  match msg with
  | Message.Subscribe rel ->
    List.iter (send_fact t ~src:p ~dst:src) (Runtime.subscribe st.rt rel ~dst:src)
  | Message.Fact fact -> ignore (Runtime.add_fact st.rt fact)
  | Message.Batch ms -> List.iter (handle_msg t p ~src) ms
  | Message.Delegate d ->
    if d.Message.d_remaining = [] then install_answer t p d
    else begin
      let key = Message.key d in
      if not (Hashtbl.mem st.delegations_seen key) then begin
        Hashtbl.add st.delegations_seen key ();
        walk t p d
      end
    end
  | Message.Activate _ ->
    (* the supervisor's root injected the query (Dijkstra-Scholten mode) *)
    start_query t

(* One activation of peer [p]: [f] handles what arrived (a delivered
   message, or the query injection), then the peer runs the one local pass
   that requires — monotone Datalog, so deferring every install and fact
   of the activation to one pass is sound — and ships what it derived.
   The outbox is flushed before returning to the scheduler, so a whole
   Batch's responses coalesce, and before the Dijkstra-Scholten wrapper's
   disengage check, so the deficit already counts the flushed envelopes. *)
let activation t p f =
  f ();
  forward t ~src:p (Runtime.evaluate (state t p).rt);
  flush_outbox t p

let handle t p ~src msg = activation t p (fun () -> handle_msg t p ~src msg)

(** How the distributed fixpoint is detected: by the simulator's omniscient
    quiescence test, or by the peers themselves running Dijkstra-Scholten
    (the "standard termination detection algorithms" of Section 3.2) — the
    latter doubles the message count with acknowledgements. *)
type termination_mode =
  | God_view
  | Dijkstra_scholten

let ds_root = "#root"

(* Point [t] at a scenario: [peer] sees each of the scenario's peers
   first; then each peer's rules are indexed by head relation and the EDB
   is loaded. *)
let load t program ~edb ~(query : Datom.t) ~peer =
  List.iter peer
    (List.sort_uniq String.compare
       (Dprogram.peers program
       @ List.map (fun (a : Datom.t) -> a.Datom.peer) edb
       @ [ query.Datom.peer ]));
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

let create ?(seed = 0) ?(policy = Sim.Random_interleaving) ?(loss = 0.0)
    ?(eval_options = Eval.default_options) ?(termination = God_view)
    ?wire_verify:_ (program : Dprogram.t)
    ~(edb : Datom.t list) ~(query : Datom.t) : t =
  (* every message crosses the network as a frame of the real codec, with
     one connection per channel *)
  let channels = Wire.channels () in
  let describe = function Ds.Work m -> Message.describe m | Ds.Ack -> "ack" in
  let sim = Sim.create ~seed ~policy ~loss ~codec:(Wire.codec channels) ~describe () in
  let detector =
    match termination with
    | God_view -> None
    | Dijkstra_scholten -> Some (Ds.create ~root:ds_root ())
  in
  let states = Hashtbl.create 16 in
  let t =
    { program; sim; channels; states; query; query_peer = query.Datom.peer;
      detector; delegations = Atomic.make 0; subscriptions = Atomic.make 0;
      fact_messages = Atomic.make 0; released = false }
  in
  load t program ~edb ~query ~peer:(fun p ->
      if detector <> None && String.equal p ds_root then
        invalid_arg "Qsq_engine: peer name #root is reserved";
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
      Hashtbl.add states p st;
      match detector with
      | None ->
        Sim.add_peer sim p (fun _ ~src msg ->
            match msg with
            | Ds.Work m -> handle t p ~src m
            | Ds.Ack -> ())
      | Some det ->
        Ds.add_peer det sim p ~handler:(fun ~send:_ ~src m -> handle t p ~src m));
  (match detector with
  | Some det -> Ds.add_root det sim ~handler:(fun ~send:_ ~src:_ _ -> ())
  | None -> ());
  t

let set_tracing (t : t) b = Sim.set_tracing t.sim b
let delivery_trace (t : t) = Sim.delivery_trace t.sim
let net_stats (t : t) = Sim.stats t.sim
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
  | None -> activation t t.query_peer (fun () -> start_query t)
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
    Atom.cmake ((located ~rel:query.Datom.rel ~peer:p0).Qsq.adorned ad) query.Datom.args
  in
  let answers =
    Eval.answers ~pattern:answer_pattern (Runtime.store st.rt) (Datom.to_atom query)
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
    net_stats = net_stats t;
    delegations = Atomic.get t.delegations;
    subscriptions = Atomic.get t.subscriptions;
    fact_messages = Atomic.get t.fact_messages;
    total_facts = List.fold_left (fun acc (_, n) -> acc + n) 0 facts_per_peer;
    facts_per_peer;
    clipped;
    ds_terminated = Option.map Ds.is_terminated t.detector;
  }

let run ?max_steps ?jobs (t : t) ~(query : Datom.t) : outcome =
  Obs.Trace.with_span "qsq_engine.run" ~attrs:[ ("query", Datom.to_string query) ]
  @@ fun () ->
  t.query <- query;
  t.query_peer <- query.Datom.peer;
  start t;
  let deliveries =
    match jobs with
    | None -> Network.Sim.run ?max_steps t.sim
    | Some jobs -> Network.Sim.run_parallel ?max_steps ~jobs t.sim
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
  if not t.released then release t;
  load t program ~edb ~query ~peer:(fun p ->
      if not (Hashtbl.mem t.states p) then
        invalid_arg
          (Printf.sprintf "Qsq_engine.recycle: peer %s not in the warm engine" p));
  t.released <- false

let solve ?seed ?policy ?loss ?eval_options ?termination ?max_steps ?jobs program ~edb
    ~query =
  let t = create ?seed ?policy ?loss ?eval_options ?termination program ~edb ~query in
  run ?max_steps ?jobs t ~query

let peer_store t p = Runtime.store (state t p).rt
let peer_rules t p = Runtime.rules (state t p).rt

(* The zeta mapping of Theorem 1 on a relation name. Generated names may
   locate a peer twice (e.g. [sup1,2^R@r^bf@s]: origin relation [R@r],
   stored at [s]); both are dropped. *)
let zeta name =
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

(** Union of all peer stores with every relation name mapped by {!zeta},
    for comparison against the centralized QSQ evaluation of the localized
    program. *)
let zeta_facts (t : t) : string list =
  let strip (a : Atom.t) =
    Atom.to_string (Atom.make (zeta (Symbol.name a.Atom.rel)) a.Atom.args)
  in
  Hashtbl.fold
    (fun _ st acc ->
      List.rev_append (List.map strip (Fact_store.all (Runtime.store st.rt))) acc)
    t.states []
  |> List.sort_uniq String.compare
