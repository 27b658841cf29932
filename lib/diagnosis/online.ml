(* Incremental online diagnosis; see the .mli for the contract.

   The engine is a delta-driven fixpoint over *nodes*: a node is the merge
   of every search state sharing (per-peer positions, cut). Configurations
   are carried as node payloads and flow along recorded successor edges, so
   the expensive part — enumerating transition firings against a cut — runs
   once per (node, peer slot) no matter how many configurations explain it.

   Invariants:
   - A node's extension at peer slot [p] is computed exactly once, at the
     first moment slot [p] has an unconsumed alarm: either at node creation
     (slot already lagging) or when the next alarm on [p] arrives (node was
     caught up, i.e. positions.(p) = length of p's word).
   - [caught_up.(p)] holds exactly the live nodes with
     positions.(p) = word length of [p]; membership is established at node
     creation and consumed (whole list) by the next alarm on [p]. [n.cu]
     counts the slots where [n] is currently caught up.
   - Liveness: LIVE(n) = caught-up at some peer (cu > 0). Once a node lags
     at every peer its extension sets are final (future alarms only extend
     caught-up nodes), no new in-edge can reach it (children always carry
     the extending slot's current word length, hence are caught up there),
     and its payloads have already flowed to its successors — it is inert
     and GC drops it. Because caught-up-ness is inherited by children
     (positions are inherited slot-wise and only compared against a
     growing word), a dead node's in-edges come only from dead nodes, so
     reclaiming needs no edge surgery on live nodes; and every node is
     caught up somewhere at creation (a chained catch-up child inherits
     one of its parent's caught-up slots, a frontier child is caught up at
     the extending slot), so the dead are found among the just-consumed
     frontier — GC is O(reclaimed) per alarm, not a table sweep.
     No reclaimed key can recur: a node re-created with a dead node's
     (positions, cut) would lag everywhere at birth, contradicting the
     cu >= 1 creation invariant — so GC on/off build identical tables
     modulo the inert nodes, and diagnoses are byte-identical.
   - Refcounts: event terms are counted once per live edge, condition
     terms once per live cut; [events_materialized]/[conds_materialized]
     remain monotone views of everything ever built.
   - A configuration is causally closed, so its maximal events (tips)
     determine it: each Skolem event term f(t, g(parent, p), ...) names
     the events that produced its preset, recursively down to the root.
     A config payload is therefore its tip set. Extending it by [ev]
     removes [ev]'s parents and adds [ev] — O(preset), whatever the
     prefix — and the closure is walked only at the [diagnosis] boundary.
   - Every per-alarm structure (cuts, config payloads, materialized views,
     refcounts, node keys) is keyed by hash-cons tags, never by structural
     term order: two same-transition events from different rounds diverge
     only at the bottom of their causal spine, so a structural compare is
     O(prefix) and would make each alarm degrade linearly with history.
     Structural [Term.Set]s are built only at the [diagnosis] /
     [events_materialized] boundaries, where canonical order matters. *)

open Datalog
module Wire = Dqsq.Wire

exception State_budget_exceeded of { states : int; alarms_consumed : int }

let live_states_gauge = Obs.Metrics.gauge "online.live_states"
let live_events_gauge = Obs.Metrics.gauge "online.live_events"
let live_conds_gauge = Obs.Metrics.gauge "online.live_conds"
let gc_reclaimed_counter = Obs.Metrics.counter "online.gc_reclaimed"

(* growable per-peer alarm word: O(1) amortized push, O(1) random access.
   Symbols below [base] are never read again (a restored word starts at
   the snapshot's base), so only the suffix is stored: [syms.(i - base)]
   is symbol [i], for [base <= i < len]. *)
type word = { mutable syms : string array; base : int; mutable len : int }

let word_push w s =
  let n = w.len - w.base in
  if n = Array.length w.syms then begin
    let a = Array.make (max 8 (2 * n)) "" in
    Array.blit w.syms 0 a 0 n;
    w.syms <- a
  end;
  w.syms.(n) <- s;
  w.len <- w.len + 1

let word_get w i = w.syms.(i - w.base)

module Int_map = Map.Make (Int)
module Tag_tbl = Term.Tag_tbl

(* Little-endian Patricia trie over event tags (Okasaki & Gill), the set
   of a config's tips. Its shape is history-independent ([remove]
   collapses emptied branches), so the same tip set reached along two
   interleavings of a diamond is the same tree, and the duplicate-delivery
   check is a structural [equal] that short-circuits on shared pointers.
   A causally closed set has exactly one set of maximal events, so equal
   tips mean equal configurations. *)
module Tag_set = struct
  type t = Empty | Leaf of int | Branch of int * int * t * t
      (* Branch (prefix, branching bit, zero side, one side) *)

  let empty = Empty
  let zero_bit k m = k land m = 0
  let lowest_bit x = x land -x
  let branching_bit p0 p1 = lowest_bit (p0 lxor p1)
  let mask k m = k land (m - 1)
  let match_prefix k p m = mask k m = p

  let join p0 t0 p1 t1 =
    let m = branching_bit p0 p1 in
    if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
    else Branch (mask p0 m, m, t1, t0)

  let rec add k t =
    match t with
    | Empty -> Leaf k
    | Leaf j -> if j = k then t else join k (Leaf k) j t
    | Branch (p, m, l, r) ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = add k l in
          if l' == l then t else Branch (p, m, l', r)
        else
          let r' = add k r in
          if r' == r then t else Branch (p, m, l, r')
      else join k (Leaf k) p t

  let branch p m l r =
    match (l, r) with Empty, t | t, Empty -> t | _ -> Branch (p, m, l, r)

  let rec remove k t =
    match t with
    | Empty -> t
    | Leaf j -> if j = k then Empty else t
    | Branch (p, m, l, r) ->
      if not (match_prefix k p m) then t
      else if zero_bit k m then
        let l' = remove k l in
        if l' == l then t else branch p m l' r
      else
        let r' = remove k r in
        if r' == r then t else branch p m l r'

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | Empty, Empty -> true
    | Leaf i, Leaf j -> i = j
    | Branch (p1, m1, l1, r1), Branch (p2, m2, l2, r2) ->
      p1 = p2 && m1 = m2 && equal l1 l2 && equal r1 r2
    | (Empty | Leaf _ | Branch _), _ -> false

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf k -> f k acc
    | Branch (_, _, l, r) -> fold f r (fold f l acc)
end

type node = {
  positions : int array;  (** alarms consumed per peer slot *)
  total : int;  (** sum of positions: complete iff = alarms seen *)
  cut : Term.t Int_map.t;  (** condition tag -> condition term *)
  key : int list;  (** positions ++ cut tags — the node's table key *)
  mutable configs : Tag_set.t list;  (** each config's maximal event tags *)
  mutable succs : (Term.t * node) list;  (** (firing event, child) edges *)
  mutable cu : int;  (** slots where caught up; 0 after a drain = inert *)
}

module Key = struct
  type t = int list

  let equal = List.equal Int.equal
  let hash k = List.fold_left (fun h i -> (h * 31) + i + 1) 17 k
end

module Tbl = Hashtbl.Make (Key)

(* What firing one transition builds, interned once per engine at [start]
   / [restore] — never at module init, where an interned symbol would
   shift every later symbol id (DESIGN.md §4b item 11) — so [extend]
   builds events and conditions with [Term.capp] alone. *)
type firing = {
  tid : Term.t;  (** the transition's id constant *)
  pre : Symbol.t list;  (** preset places, in [t_pre] order *)
  post : Term.t list;  (** postset place constants, in [t_post] order *)
}

type work =
  | Extend of node * int  (** compute the extension of a node at a peer slot *)
  | Add_config of node * Tag_set.t  (** deliver a configuration *)

type t = {
  peers : string array;
  peer_index : (string, int) Hashtbl.t;
  by_label : (string, firing list) Hashtbl.t array;
      (** peer slot -> alarm symbol -> transitions emitting it *)
  f : Symbol.t;  (** the event Skolem function *)
  g : Symbol.t;  (** the condition Skolem function *)
  words : word array;
  table : node Tbl.t;  (** live nodes (plus dead ones when GC is off) *)
  caught_up : node list array;
  ref_events : int Tag_tbl.t;  (** event tag -> live edge count *)
  ref_conds : int Tag_tbl.t;  (** cond tag -> live cut count *)
  events_tbl : Term.t Tag_tbl.t;  (** every event ever built, by tag *)
  conds_tbl : Term.t Tag_tbl.t;  (** every condition ever built, by tag *)
  mutable live_count : int;
  mutable reclaimed : int;
  mutable states_explored : int;
  mutable alarms_seen : int;  (** known-peer alarms consumed *)
  mutable unknown_alarms : int;  (** alarms from peers absent from the net *)
  mutable released : bool;
  max_states : int;
  gc_enabled : bool;
  net_digest : string;  (** fingerprint of the supervised net, for {!restore} *)
}

let key_of positions cut =
  Array.fold_right
    (fun i acc -> i :: acc)
    positions
    (Int_map.fold (fun tag _ acc -> tag :: acc) cut [])

let ref_incr tbl gauge tag =
  match Tag_tbl.find_opt tbl tag with
  | Some n -> Tag_tbl.replace tbl tag (n + 1)
  | None ->
    Tag_tbl.replace tbl tag 1;
    Obs.Metrics.add_gauge gauge 1

let ref_decr tbl gauge tag =
  match Tag_tbl.find_opt tbl tag with
  | Some 1 ->
    Tag_tbl.remove tbl tag;
    Obs.Metrics.add_gauge gauge (-1)
  | Some n -> Tag_tbl.replace tbl tag (n - 1)
  | None -> ()

(* fold over the events that produced [ev]'s preset conditions, read off
   its term f(t, g(parent, p), ...); initial conditions have no parent *)
let fold_parents f ev acc =
  match Term.view ev with
  | Term.App (_, _ :: conds) ->
    List.fold_left
      (fun acc cond ->
        match Term.view cond with
        | Term.App (_, [ parent; _ ]) when not (Term.equal parent Canon.root_term) ->
          f parent acc
        | _ -> acc)
      acc conds
  | _ -> acc

(* [ev]'s preset is in the node's cut, so [ev] is new to the config and
   becomes a tip, and the tips it consumes from are exactly its parents *)
let extend_config c ev =
  Tag_set.add (Term.tag ev) (fold_parents (fun p c -> Tag_set.remove (Term.tag p) c) ev c)

let new_node t queue ~positions ~total ~cut ~key =
  if t.states_explored >= t.max_states then
    raise
      (State_budget_exceeded
         { states = t.states_explored; alarms_consumed = t.alarms_seen + t.unknown_alarms });
  let n = { positions; total; cut; key; configs = []; succs = []; cu = 0 } in
  Tbl.add t.table key n;
  t.states_explored <- t.states_explored + 1;
  t.live_count <- t.live_count + 1;
  Obs.Metrics.add_gauge live_states_gauge 1;
  Int_map.iter (fun tag _ -> ref_incr t.ref_conds live_conds_gauge tag) cut;
  Array.iteri
    (fun pi pos ->
      if pos = t.words.(pi).len then begin
        t.caught_up.(pi) <- n :: t.caught_up.(pi);
        n.cu <- n.cu + 1
      end
      else Queue.add (Extend (n, pi)) queue)
    positions;
  n

let add_config queue n c =
  if not (List.exists (Tag_set.equal c) n.configs) then begin
    n.configs <- c :: n.configs;
    List.iter (fun (ev, succ) -> Queue.add (Add_config (succ, extend_config c ev)) queue) n.succs
  end

(* fire every transition of slot [pi]'s next unconsumed alarm against
   [n.cut]; called exactly once per (node, slot) with an unconsumed alarm *)
let extend t queue n pi =
  let w = t.words.(pi) in
  let i = n.positions.(pi) in
  if i < w.len then begin
    let alarm = word_get w i in
    match Hashtbl.find_opt t.by_label.(pi) alarm with
    | None -> ()
    | Some transitions ->
      List.iter
        (fun fr ->
          let emit pre_conds =
            let event = Term.capp t.f (fr.tid :: pre_conds) in
            let children = List.map (fun pl -> Term.capp t.g [ event; pl ]) fr.post in
            Tag_tbl.replace t.events_tbl (Term.tag event) event;
            List.iter (fun cd -> Tag_tbl.replace t.conds_tbl (Term.tag cd) cd) children;
            let cut =
              List.fold_left
                (fun acc cd -> Int_map.add (Term.tag cd) cd acc)
                (List.fold_left
                   (fun acc cd -> Int_map.remove (Term.tag cd) acc)
                   n.cut pre_conds)
                children
            in
            let positions = Array.copy n.positions in
            positions.(pi) <- i + 1;
            let key = key_of positions cut in
            let child =
              match Tbl.find_opt t.table key with
              | Some c -> c
              | None -> new_node t queue ~positions ~total:(n.total + 1) ~cut ~key
            in
            n.succs <- (event, child) :: n.succs;
            ref_incr t.ref_events live_events_gauge (Term.tag event);
            List.iter
              (fun c -> Queue.add (Add_config (child, extend_config c event)) queue)
              n.configs
          in
          (* one cut condition per parent place, pairwise distinct; the
             emitted event's argument order follows [t_pre], so the cut's
             iteration order never leaks into term identity *)
          let rec choose chosen = function
            | [] -> emit (List.rev chosen)
            | place :: rest ->
              Int_map.iter
                (fun _ cond ->
                  match Term.view cond with
                  | Term.App (_, [ _; pl ])
                    when (match Term.view pl with
                         | Term.Const p -> Symbol.equal p place
                         | Term.Var _ | Term.App _ -> false)
                         && not (List.exists (Term.equal cond) chosen) ->
                    choose (cond :: chosen) rest
                  | _ -> ())
                n.cut
          in
          choose [] fr.pre)
        transitions
  end

let drain t queue =
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | Extend (n, pi) -> extend t queue n pi
    | Add_config (n, c) -> add_config queue n c
  done

(* drop an inert node: each of its out-edges' event refcounts falls exactly
   once (its source dies exactly once), and no live node holds an edge into
   it (a dead node's parents are dead — see the liveness invariant), so no
   other bookkeeping is touched *)
let reclaim t n =
  Tbl.remove t.table n.key;
  t.live_count <- t.live_count - 1;
  t.reclaimed <- t.reclaimed + 1;
  Obs.Metrics.add_gauge live_states_gauge (-1);
  Obs.Metrics.incr gc_reclaimed_counter;
  Int_map.iter (fun tag _ -> ref_decr t.ref_conds live_conds_gauge tag) n.cut;
  List.iter (fun (ev, _) -> ref_decr t.ref_events live_events_gauge (Term.tag ev)) n.succs;
  n.succs <- []

(* Structural fingerprint of a net: restore refuses a snapshot taken
   against a net with different peers, transitions, or marking. Node ids
   are what name terms, so this is exactly the identity the frontier's
   cuts and events depend on. *)
let net_fingerprint (net : Petri.Net.t) =
  let b = Buffer.create 512 in
  let str s =
    Wire.put_uvarint b (String.length s);
    Buffer.add_string b s
  in
  List.iter str (Petri.Net.peers net);
  Buffer.add_char b 'T';
  List.iter
    (fun (tr : Petri.Net.transition) ->
      str tr.Petri.Net.t_id;
      str tr.Petri.Net.t_peer;
      str tr.Petri.Net.t_alarm;
      Wire.put_uvarint b (List.length tr.Petri.Net.t_pre);
      List.iter str tr.Petri.Net.t_pre;
      Wire.put_uvarint b (List.length tr.Petri.Net.t_post);
      List.iter str tr.Petri.Net.t_post)
    (Petri.Net.transitions net);
  Buffer.add_char b 'M';
  Petri.Net.String_set.iter str (Petri.Net.marking net);
  Digest.string (Buffer.contents b)

let peer_tables (net : Petri.Net.t) =
  let peers = Array.of_list (Petri.Net.peers net) in
  let peer_index = Hashtbl.create 8 in
  Array.iteri (fun i p -> Hashtbl.replace peer_index p i) peers;
  let by_label = Array.map (fun _ -> Hashtbl.create 8) peers in
  List.iter
    (fun (tr : Petri.Net.transition) ->
      match Hashtbl.find_opt peer_index tr.Petri.Net.t_peer with
      | None -> ()
      | Some pi ->
        let fr =
          { tid = Term.const tr.Petri.Net.t_id;
            pre = List.map Symbol.intern tr.Petri.Net.t_pre;
            post = List.map Term.const tr.Petri.Net.t_post }
        in
        let a = tr.Petri.Net.t_alarm in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_label.(pi) a) in
        Hashtbl.replace by_label.(pi) a (prev @ [ fr ]))
    (Petri.Net.transitions net);
  (peers, peer_index, by_label)

let start ?(max_states = 2_000_000) ?(gc = true) (net : Petri.Net.t) : t =
  let g = Symbol.intern "g" in
  let initial_cut =
    Petri.Net.String_set.fold
      (fun place acc ->
        let cd = Term.capp g [ Canon.root_term; Term.const place ] in
        Int_map.add (Term.tag cd) cd acc)
      (Petri.Net.marking net) Int_map.empty
  in
  let peers, peer_index, by_label = peer_tables net in
  let t =
    {
      peers;
      peer_index;
      by_label;
      f = Symbol.intern "f";
      g;
      words = Array.init (Array.length peers) (fun _ -> { syms = [||]; base = 0; len = 0 });
      table = Tbl.create 256;
      caught_up = Array.make (max 1 (Array.length peers)) [];
      ref_events = Tag_tbl.create 256;
      ref_conds = Tag_tbl.create 256;
      events_tbl = Tag_tbl.create 256;
      conds_tbl = Tag_tbl.create 256;
      live_count = 0;
      reclaimed = 0;
      states_explored = 0;
      alarms_seen = 0;
      unknown_alarms = 0;
      released = false;
      max_states;
      gc_enabled = gc;
      net_digest = net_fingerprint net;
    }
  in
  Int_map.iter (fun tag cd -> Tag_tbl.replace t.conds_tbl tag cd) initial_cut;
  let positions = Array.make (Array.length peers) 0 in
  let queue = Queue.create () in
  let root =
    new_node t queue ~positions ~total:0 ~cut:initial_cut ~key:(key_of positions initial_cut)
  in
  root.configs <- [ Tag_set.empty ];
  assert (Queue.is_empty queue);
  t

let observe (t : t) ((symbol, peer) : string * string) : unit =
  if t.released then invalid_arg "Online.observe: released instance";
  match Hashtbl.find_opt t.peer_index peer with
  | None ->
    (* no transition can ever explain it: the stream is unexplainable from
       here on, but we keep consuming so the caller sees a [] diagnosis
       rather than a crash *)
    t.unknown_alarms <- t.unknown_alarms + 1
  | Some pi ->
    t.alarms_seen <- t.alarms_seen + 1;
    word_push t.words.(pi) symbol;
    let frontier = t.caught_up.(pi) in
    t.caught_up.(pi) <- [];
    let queue = Queue.create () in
    List.iter
      (fun n ->
        n.cu <- n.cu - 1;
        Queue.add (Extend (n, pi)) queue)
      frontier;
    drain t queue;
    (* the only candidates for death are the nodes this alarm just consumed:
       anything else either kept its caught-up slots or was born with one *)
    if t.gc_enabled then List.iter (fun n -> if n.cu = 0 then reclaim t n) frontier

let tip_events t tips = Tag_set.fold (fun tag acc -> Tag_tbl.find t.events_tbl tag :: acc) tips []

(* the causal closure of a tip set; iterative — causal spines are as deep
   as the alarm prefix is long *)
let config_terms t tips =
  let seen = Tag_tbl.create 64 in
  let rec walk acc = function
    | [] -> acc
    | ev :: rest ->
      if Tag_tbl.mem seen (Term.tag ev) then walk acc rest
      else begin
        Tag_tbl.add seen (Term.tag ev) ();
        walk (ev :: acc) (fold_parents List.cons ev rest)
      end
  in
  Term.Set.of_list (walk [] (tip_events t tips))

let diagnosis (t : t) : Canon.diagnosis =
  if t.unknown_alarms > 0 then Canon.normalize_diagnosis []
  else
    Canon.normalize_diagnosis
      (Tbl.fold
         (fun _ n acc ->
           if n.total = t.alarms_seen then
             List.fold_left (fun acc c -> config_terms t c :: acc) acc n.configs
           else acc)
         t.table [])

let set_of_tbl tbl = Tag_tbl.fold (fun _ tm acc -> Term.Set.add tm acc) tbl Term.Set.empty
let events_materialized t = set_of_tbl t.events_tbl
let conds_materialized t = set_of_tbl t.conds_tbl
let states_explored t = t.states_explored
let live_states t = t.live_count
let gc_reclaimed t = t.reclaimed
let live_events t = Tag_tbl.length t.ref_events
let alarms_consumed t = t.alarms_seen + t.unknown_alarms

let release t =
  if not t.released then begin
    t.released <- true;
    Obs.Metrics.add_gauge live_states_gauge (-t.live_count);
    Obs.Metrics.add_gauge live_events_gauge (-(Tag_tbl.length t.ref_events));
    Obs.Metrics.add_gauge live_conds_gauge (-(Tag_tbl.length t.ref_conds))
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

(* A checkpoint serializes the *live* frontier only. The inert nodes the
   table additionally holds when GC is off can never be extended (their
   extension sets are final), reached (no future edge can land on a
   lagging-everywhere key), or completed (a complete node is caught up at
   every slot), so dropping them — and every event/condition term only
   they reference — changes no future diagnosis. That drop IS the
   compaction: snapshot size is bounded by the live frontier, not the
   alarm prefix, even though the in-memory materialized views are
   monotone.

   Cross-process identity: hash-cons tags are process-local, so the
   snapshot never stores a tag. Terms cross through the wire codec's
   definition-or-backref tables (shared spines once per frame) and are
   re-interned on restore; tag-keyed structures — cuts, node keys,
   Tag_set payloads, refcounts — are rebuilt from the re-interned terms.
   A config crosses as its tips, which is what the node already holds:
   checkpoint writes each tip set as it stands and restore reads it back,
   with no closure walk either way. The term codec defines the shared
   spine below the tips once per frame. Tips, nodes and cut conditions
   are written in tag order, so the frame's bytes can differ between two
   processes holding the same frontier, while its decoded content does
   not.

   Nothing else is pending between alarms: after [observe]'s drain the
   work queue is empty, every lagging slot's extension has already run
   (exactly-once invariant), and all payloads have flowed. Restore is
   therefore purely structural — it must NOT queue extensions.

   Words are serialized only from [base = min over live nodes of
   positions.(pi)]: an extension at slot [pi] only ever reads
   [syms.(positions.(pi))] of some node, and every future node's
   positions dominate some live node's, so indices below [base] are
   never read again; a restored word stores only that suffix. *)

let snapshot_sub_engine = 0

let checkpoint (t : t) : string =
  if t.released then invalid_arg "Online.checkpoint: released instance";
  let live = ref [] in
  Tbl.iter (fun _ n -> if n.cu > 0 then live := n :: !live) t.table;
  let nodes = Array.of_list !live in
  let nnodes = Array.length nodes in
  let index = Tbl.create (max 16 nnodes) in
  Array.iteri (fun i n -> Tbl.add index n.key i) nodes;
  let npeers = Array.length t.peers in
  let bases =
    Array.init npeers (fun pi ->
        Array.fold_left (fun acc n -> min acc n.positions.(pi)) t.words.(pi).len nodes)
  in
  let e = Wire.encoder () in
  Wire.encode_snapshot e (fun buf ->
      Wire.put_uvarint buf snapshot_sub_engine;
      Wire.put_string buf t.net_digest;
      Wire.put_uvarint buf npeers;
      Array.iter (Wire.put_string buf) t.peers;
      Wire.put_uvarint buf (if t.gc_enabled then 1 else 0);
      Wire.put_uvarint buf t.max_states;
      Wire.put_uvarint buf t.alarms_seen;
      Wire.put_uvarint buf t.unknown_alarms;
      Wire.put_uvarint buf t.states_explored;
      Wire.put_uvarint buf t.reclaimed;
      Array.iteri
        (fun pi (w : word) ->
          Wire.put_uvarint buf w.len;
          Wire.put_uvarint buf bases.(pi);
          for i = bases.(pi) to w.len - 1 do
            Wire.put_string buf (word_get w i)
          done)
        t.words;
      Wire.put_uvarint buf nnodes;
      (* pass 1: node cores (positions, cut, config tips as terms) *)
      Array.iter
        (fun n ->
          Array.iter (Wire.put_uvarint buf) n.positions;
          Wire.put_uvarint buf (Int_map.cardinal n.cut);
          Int_map.iter (fun _ cd -> Wire.put_term e buf cd) n.cut;
          Wire.put_uvarint buf (List.length n.configs);
          List.iter
            (fun c ->
              let tips = tip_events t c in
              Wire.put_uvarint buf (List.length tips);
              List.iter (Wire.put_term e buf) tips)
            n.configs)
        nodes;
      (* pass 2: edges by node index — a live node's successors are all
         live (a dead node's parents are dead), so every child has an
         index *)
      Array.iter
        (fun n ->
          Wire.put_uvarint buf (List.length n.succs);
          List.iter
            (fun (ev, child) ->
              Wire.put_term e buf ev;
              Wire.put_uvarint buf (Tbl.find index child.key))
            n.succs)
        nodes)

let read_list n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

let restore ?max_states (net : Petri.Net.t) (blob : string) : t =
  let d = Wire.decoder () in
  Wire.decode_snapshot d blob @@ fun r ->
  (match Wire.get_uvarint r with
  | 0 -> ()
  | k -> raise (Wire.Corrupt (Printf.sprintf "unknown snapshot sub-kind %d" k)));
  let digest = Wire.get_string r in
  if not (String.equal digest (net_fingerprint net)) then
    raise (Wire.Corrupt "snapshot was taken against a different net");
  let peers, peer_index, by_label = peer_tables net in
  let npeers = Wire.get_uvarint r in
  if npeers <> Array.length peers then raise (Wire.Corrupt "snapshot peer count mismatch");
  List.iteri
    (fun i p ->
      if not (String.equal p peers.(i)) then raise (Wire.Corrupt "snapshot peer mismatch"))
    (read_list npeers (fun () -> Wire.get_string r));
  let gc_enabled = Wire.get_uvarint r <> 0 in
  let saved_max_states = Wire.get_uvarint r in
  let alarms_seen = Wire.get_uvarint r in
  let unknown_alarms = Wire.get_uvarint r in
  let states_explored = Wire.get_uvarint r in
  let reclaimed = Wire.get_uvarint r in
  (* sized by the symbols actually read, never by a length field: a
     forged length runs into the end of the frame ([Wire.Corrupt]) *)
  let words =
    Array.of_list
      (read_list npeers (fun () ->
           let len = Wire.get_uvarint r in
           let base = Wire.get_uvarint r in
           if base > len then raise (Wire.Corrupt "snapshot word base exceeds length");
           let syms = Array.of_list (read_list (len - base) (fun () -> Wire.get_string r)) in
           { syms; base; len }))
  in
  let t =
    {
      peers;
      peer_index;
      by_label;
      f = Symbol.intern "f";
      g = Symbol.intern "g";
      words;
      table = Tbl.create 256;
      caught_up = Array.make (max 1 npeers) [];
      ref_events = Tag_tbl.create 256;
      ref_conds = Tag_tbl.create 256;
      events_tbl = Tag_tbl.create 256;
      conds_tbl = Tag_tbl.create 256;
      live_count = 0;
      reclaimed;
      states_explored;
      alarms_seen;
      unknown_alarms;
      released = false;
      max_states = Option.value ~default:saved_max_states max_states;
      gc_enabled;
      net_digest = digest;
    }
  in
  let nnodes = Wire.get_uvarint r in
  let nodes =
    Array.of_list
      (read_list nnodes (fun () ->
           let positions = Array.make npeers 0 in
           for pi = 0 to npeers - 1 do
             let p = Wire.get_uvarint r in
             if p < words.(pi).base || p > words.(pi).len then
               raise (Wire.Corrupt "snapshot position outside the stored word");
             positions.(pi) <- p
           done;
           let ncut = Wire.get_uvarint r in
           let cut =
             List.fold_left
               (fun acc cd ->
                 Tag_tbl.replace t.conds_tbl (Term.tag cd) cd;
                 Int_map.add (Term.tag cd) cd acc)
               Int_map.empty
               (read_list ncut (fun () -> Wire.get_term d r))
           in
           let nconfigs = Wire.get_uvarint r in
           let configs =
             read_list nconfigs (fun () ->
                 let ntips = Wire.get_uvarint r in
                 List.fold_left
                   (fun c ev ->
                     Tag_tbl.replace t.events_tbl (Term.tag ev) ev;
                     Tag_set.add (Term.tag ev) c)
                   Tag_set.empty
                   (read_list ntips (fun () -> Wire.get_term d r)))
           in
           let total = Array.fold_left ( + ) 0 positions in
           { positions; total; cut; key = key_of positions cut; configs; succs = []; cu = 0 }))
  in
  Array.iter
    (fun n ->
      let nsuccs = Wire.get_uvarint r in
      n.succs <-
        read_list nsuccs (fun () ->
            let ev = Wire.get_term d r in
            let i = Wire.get_uvarint r in
            if i >= nnodes then raise (Wire.Corrupt "snapshot edge target out of range");
            Tag_tbl.replace t.events_tbl (Term.tag ev) ev;
            (ev, nodes.(i))))
    nodes;
  (* rebuild the derived state: table, caught-up lists (a node is caught
     up at [pi] iff positions.(pi) = word length — membership is set at
     birth and only consumed when the word grows), refcounts, gauges *)
  Array.iter
    (fun n ->
      if Tbl.mem t.table n.key then raise (Wire.Corrupt "snapshot has duplicate node keys");
      Tbl.add t.table n.key n;
      Array.iteri
        (fun pi pos ->
          if pos = words.(pi).len then begin
            t.caught_up.(pi) <- n :: t.caught_up.(pi);
            n.cu <- n.cu + 1
          end)
        n.positions;
      if n.cu = 0 then raise (Wire.Corrupt "snapshot node lags at every peer");
      Int_map.iter (fun tag _ -> ref_incr t.ref_conds live_conds_gauge tag) n.cut;
      List.iter
        (fun (ev, _) -> ref_incr t.ref_events live_events_gauge (Term.tag ev))
        n.succs)
    nodes;
  t.live_count <- nnodes;
  Obs.Metrics.add_gauge live_states_gauge nnodes;
  t
