(* Incremental online diagnosis; see the .mli for the contract.

   The engine is a delta-driven fixpoint over *nodes*: a node is the merge
   of every search state sharing (per-peer positions, cut). Configurations
   are carried as node payloads and flow along recorded successor edges, so
   the expensive part — enumerating transition firings against a cut — runs
   once per (node, peer slot) no matter how many configurations explain it.

   The net is safe, so a cut holds at most one condition per place and is
   stored as an array over dense place ids ([empty] where a place is
   unmarked). A firing reads one slot per preset place, and the node key
   is one flat int array (positions, then the cut's tags in place order)
   with an allocation-free hash and equality. Safety is load-bearing
   here: a firing that would mark a marked place raises [Unsafe_net]
   rather than build a cut the array cannot hold. A cut slot is the
   engine's record of the condition ([cond]): it carries the condition's
   live-cut refcount and the firings it heads, so a firing already built
   from the same preset is reused instead of hash-consed again.

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
   - Refcounts: event terms are counted once per live edge (by tag),
     conditions once per live cut (in their [cond] record);
     [events_materialized]/[conds_materialized] remain monotone views of
     everything ever built.
   - A configuration is causally closed, so its maximal events (tips)
     determine it: each Skolem event term f(t, g(parent, p), ...) names
     the events that produced its preset, recursively down to the root.
     A config payload is therefore its tip set. Extending it by [ev]
     removes [ev]'s parents and adds [ev] — O(preset), whatever the
     prefix — and the closure is walked only at the [diagnosis] boundary.
   - Every per-alarm structure (node keys, config payloads, materialized
     views, refcounts) is keyed by hash-cons tags, never by structural
     term order: two same-transition events from different rounds diverge
     only at the bottom of their causal spine, so a structural compare is
     O(prefix) and would make each alarm degrade linearly with history.
     Structural [Term.Set]s are built only at the [diagnosis] /
     [events_materialized] boundaries, where canonical order matters. *)

open Datalog
module Wire = Dqsq.Wire

exception State_budget_exceeded of { states : int; alarms_consumed : int }
exception Unsafe_net of { transition : string; place : string; alarms_consumed : int }

let live_states_gauge = Obs.Metrics.gauge "online.live_states"
let live_events_gauge = Obs.Metrics.gauge "online.live_events"
let live_conds_gauge = Obs.Metrics.gauge "online.live_conds"
let gc_reclaimed_counter = Obs.Metrics.counter "online.gc_reclaimed"

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

(* What firing one transition builds, interned once per engine at [start]
   / [restore] — never at module init, where an interned symbol would
   shift every later symbol id (DESIGN.md §4b item 11) — so [extend]
   builds events and conditions with [Term.capp] alone. *)
type firing = {
  name : string;  (** the transition's id, for {!Unsafe_net} *)
  tid : Term.t;  (** the transition's id constant *)
  pre : int list;  (** preset place ids, in [t_pre] order *)
  post : (int * Term.t) list;  (** postset (place id, place constant), in [t_post] order *)
}

(* growable per-peer alarm word: O(1) amortized push, O(1) random access.
   Symbols below [base] are never read again (a restored word starts at
   the snapshot's base), so only the suffix is stored: [syms.(i - base)]
   is symbol [i], for [base <= i < len]. Beside each symbol sits the list
   of transitions emitting it at this peer, resolved once when the symbol
   is pushed, so an extension reads it without hashing the symbol. *)
type word = {
  mutable syms : string array;
  mutable fires : firing list array;
  base : int;
  mutable len : int;
}

let word_push w s fires =
  let n = w.len - w.base in
  if n = Array.length w.syms then begin
    let size = max 8 (2 * n) in
    let syms = Array.make size "" and fs = Array.make size [] in
    Array.blit w.syms 0 syms 0 n;
    Array.blit w.fires 0 fs 0 n;
    w.syms <- syms;
    w.fires <- fs
  end;
  w.syms.(n) <- s;
  w.fires.(n) <- fires;
  w.len <- w.len + 1

let word_get w i = w.syms.(i - w.base)

(* A condition as one engine holds it: its term, the number of live cuts
   holding it, and the firings it heads the preset of. A firing's event
   and postset are a function of its transition and preset, so each is
   built (hash-consed) once and looked up on this list when another node
   fires the same transition from the same conditions. The list is
   dropped with the last live-cut reference. *)
type cond = { term : Term.t; mutable refs : int; mutable fired : fired list }

and fired = {
  fr : firing;
  rest : cond list;  (** the preset after its head *)
  event : Term.t;
  post : cond list;  (** in [fr.post] order *)
}

type node = {
  key : int array;
      (** the node's table key: alarms consumed per peer slot, then the
          cut's condition tag per place id ([empty]'s tag if unmarked) *)
  total : int;  (** sum of positions: complete iff = alarms seen *)
  cut : cond array;  (** place id -> its condition, or [empty] *)
  mutable configs : Tag_set.t list;  (** each config's maximal event tags *)
  mutable succs : (Term.t * node) list;  (** (firing event, child) edges *)
  mutable cu : int;  (** slots where caught up; 0 after a drain = inert *)
}

(* the root is never a condition, so it marks an unmarked place *)
let empty = { term = Canon.root_term; refs = 0; fired = [] }
let marked c = c != empty

module Key = struct
  type t = int array

  let rec equal_from (a : t) (b : t) i =
    i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal a b = Array.length a = Array.length b && equal_from a b 0

  let hash (k : t) =
    let h = ref 17 in
    for i = 0 to Array.length k - 1 do
      h := (!h * 31) + k.(i)
    done;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

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
  places : string array;  (** place id -> place name *)
  words : word array;
  table : node Tbl.t;  (** live nodes (plus dead ones when GC is off) *)
  probe_key : int array;  (** scratch key, built per firing for the lookup *)
  probe_cut : cond array;  (** scratch cut, copied only into a new node *)
  caught_up : node list array;
  ref_events : int Tag_tbl.t;  (** event tag -> live edge count *)
  events_tbl : Term.t Tag_tbl.t;  (** every event ever built, by tag *)
  conds_tbl : Term.t Tag_tbl.t;  (** every condition ever built, by tag *)
  held : cond Tag_tbl.t;  (** conditions some live cut holds, by tag *)
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

let iter_cut f cut = Array.iter (fun c -> if marked c then f c) cut

(* the engine's record of condition [cd] as a firing builds it: the held
   one if a live cut holds [cd], so one record per condition is ever in
   the cuts (a firing's postset is built by its only [fired] entry, and
   an entry dropped with its head is rebuilt through here) *)
let cond_of t cd =
  match Tag_tbl.find_opt t.held (Term.tag cd) with
  | Some c -> c
  | None ->
    Tag_tbl.replace t.conds_tbl (Term.tag cd) cd;
    { term = cd; refs = 0; fired = [] }

(* a live cut takes or drops its reference to [c] *)
let hold t c =
  c.refs <- c.refs + 1;
  if c.refs = 1 then begin
    Tag_tbl.add t.held (Term.tag c.term) c;
    Obs.Metrics.add_gauge live_conds_gauge 1
  end

(* a condition no live cut holds heads no firing until a firing marks it
   again, so its firings are dropped with its last reference: they are
   rebuilt on demand, and memory stays bounded by the live cuts *)
let drop t c =
  c.refs <- c.refs - 1;
  if c.refs = 0 then begin
    Tag_tbl.remove t.held (Term.tag c.term);
    c.fired <- [];
    Obs.Metrics.add_gauge live_conds_gauge (-1)
  end

let new_node t queue ~total ~cut ~key =
  if t.states_explored >= t.max_states then
    raise
      (State_budget_exceeded
         { states = t.states_explored; alarms_consumed = t.alarms_seen + t.unknown_alarms });
  let n = { key; total; cut; configs = []; succs = []; cu = 0 } in
  Tbl.add t.table key n;
  t.states_explored <- t.states_explored + 1;
  t.live_count <- t.live_count + 1;
  Obs.Metrics.add_gauge live_states_gauge 1;
  iter_cut (hold t) cut;
  for pi = 0 to Array.length t.words - 1 do
    if key.(pi) = t.words.(pi).len then begin
      t.caught_up.(pi) <- n :: t.caught_up.(pi);
      n.cu <- n.cu + 1
    end
    else Queue.add (Extend (n, pi)) queue
  done;
  n

let add_config queue n c =
  if not (List.exists (Tag_set.equal c) n.configs) then begin
    n.configs <- c :: n.configs;
    List.iter (fun (ev, succ) -> Queue.add (Add_config (succ, extend_config c ev)) queue) n.succs
  end

(* the probe's slot for place [p] holds [c] *)
let set_slot t p c =
  t.probe_cut.(p) <- c;
  t.probe_key.(Array.length t.words + p) <- Term.tag c.term

(* presets compare by term: a condition that left every live cut may come
   back as a new record *)
let same_term a b = Term.equal a.term b.term

let rec find_fired fr rest = function
  | [] -> None
  | f :: more ->
    if f.fr == fr && List.equal same_term f.rest rest then Some f else find_fired fr rest more

(* firing [fr] from the preset [pre]: its event and postset conditions,
   built on the first such firing and reused after it *)
let fire t fr pre =
  match pre with
  | [] -> assert false (* [Petri.Net.make]: every transition has a parent *)
  | first :: rest -> (
    match find_fired fr rest first.fired with
    | Some f -> f
    | None ->
      let event = Term.capp t.f (fr.tid :: List.map (fun c -> c.term) pre) in
      Tag_tbl.replace t.events_tbl (Term.tag event) event;
      let post = List.map (fun (_, pl) -> cond_of t (Term.capp t.g [ event; pl ])) fr.post in
      let f = { fr; rest; event; post } in
      first.fired <- f :: first.fired;
      f)

(* fire every transition of slot [pi]'s next unconsumed alarm against
   [n.cut]; called exactly once per (node, slot) with an unconsumed alarm.
   A safe cut holds at most one condition per place, so a transition is
   enabled iff each of its preset slots is marked, and fires at most once;
   the emitted event's arguments follow [t_pre] order *)
let extend t queue n pi =
  let w = t.words.(pi) in
  let i = n.key.(pi) in
  if i < w.len then
    List.iter
      (fun fr ->
        if List.for_all (fun p -> marked n.cut.(p)) fr.pre then begin
          Array.blit n.key 0 t.probe_key 0 (Array.length n.key);
          Array.blit n.cut 0 t.probe_cut 0 (Array.length n.cut);
          t.probe_key.(pi) <- i + 1;
          List.iter (fun p -> set_slot t p empty) fr.pre;
          List.iter
            (fun (p, _) ->
              if marked t.probe_cut.(p) then
                raise
                  (Unsafe_net
                     { transition = fr.name; place = t.places.(p);
                       alarms_consumed = t.alarms_seen + t.unknown_alarms }))
            fr.post;
          let f = fire t fr (List.map (fun p -> n.cut.(p)) fr.pre) in
          List.iter2 (fun (p, _) c -> set_slot t p c) fr.post f.post;
          let child =
            match Tbl.find_opt t.table t.probe_key with
            | Some c -> c
            | None ->
              new_node t queue ~total:(n.total + 1) ~cut:(Array.copy t.probe_cut)
                ~key:(Array.copy t.probe_key)
          in
          n.succs <- (f.event, child) :: n.succs;
          ref_incr t.ref_events live_events_gauge (Term.tag f.event);
          List.iter
            (fun c -> Queue.add (Add_config (child, extend_config c f.event)) queue)
            n.configs
        end)
      w.fires.(i - w.base)

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
  iter_cut (drop t) n.cut;
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

(* dense place ids, in the net's place order *)
let place_index (net : Petri.Net.t) =
  let places =
    Array.of_list (List.map (fun (p : Petri.Net.place) -> p.Petri.Net.p_id) (Petri.Net.places net))
  in
  let index = Hashtbl.create (Array.length places) in
  Array.iteri (fun i p -> Hashtbl.replace index p i) places;
  (places, index)

let peer_tables (net : Petri.Net.t) index =
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
          { name = tr.Petri.Net.t_id;
            tid = Term.const tr.Petri.Net.t_id;
            pre = List.map (Hashtbl.find index) tr.Petri.Net.t_pre;
            post = List.map (fun pl -> (Hashtbl.find index pl, Term.const pl)) tr.Petri.Net.t_post }
        in
        let a = tr.Petri.Net.t_alarm in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_label.(pi) a) in
        Hashtbl.replace by_label.(pi) a (prev @ [ fr ]))
    (Petri.Net.transitions net);
  (peers, peer_index, by_label)

(* a node's key from its positions and cut *)
let make_key positions cut = Array.append positions (Array.map (fun c -> Term.tag c.term) cut)

(* A checkpoint frame as decoded, before it becomes an engine: terms are
   interned, nothing else is built. *)
type frame_node = {
  positions : int array;
  cut_terms : Term.t list;
  tips : Term.t list list;  (** per config *)
}

type frame = {
  f_gc : bool;
  f_max_states : int;
  f_alarms_seen : int;
  f_unknown_alarms : int;
  f_states_explored : int;
  f_reclaimed : int;
  f_words : word array;  (** [fires] still empty *)
  f_nodes : frame_node array;
  f_edges : (Term.t * int) list array;  (** per node: (event, target node index) *)
}

(* The engine over a net's tables, with the words, counters and budget of
   [fr]. It interns nothing: [start] and [restore] each intern in their own
   order before calling it (DESIGN.md §4b item 11). *)
let of_frame ~f ~g ~places (peers, peer_index, by_label) ~digest fr =
  let npeers = Array.length peers in
  {
    peers;
    peer_index;
    by_label;
    f;
    g;
    places;
    words = fr.f_words;
    table = Tbl.create 256;
    probe_key = Array.make (npeers + Array.length places) 0;
    probe_cut = Array.make (Array.length places) empty;
    caught_up = Array.make (max 1 npeers) [];
    ref_events = Tag_tbl.create 256;
    events_tbl = Tag_tbl.create 256;
    conds_tbl = Tag_tbl.create 256;
    held = Tag_tbl.create 256;
    live_count = 0;
    reclaimed = fr.f_reclaimed;
    states_explored = fr.f_states_explored;
    alarms_seen = fr.f_alarms_seen;
    unknown_alarms = fr.f_unknown_alarms;
    released = false;
    max_states = fr.f_max_states;
    gc_enabled = fr.f_gc;
    net_digest = digest;
  }

let start ?(max_states = 2_000_000) ?(gc = true) (net : Petri.Net.t) : t =
  let g = Symbol.intern "g" in
  let places, index = place_index net in
  let initial =
    List.map
      (fun place -> (Hashtbl.find index place, Term.capp g [ Canon.root_term; Term.const place ]))
      (Petri.Net.String_set.elements (Petri.Net.marking net))
  in
  let ((peers, _, _) as tables) = peer_tables net index in
  let npeers = Array.length peers in
  let f = Symbol.intern "f" in
  let t =
    of_frame ~f ~g ~places tables ~digest:(net_fingerprint net)
      {
        f_gc = gc;
        f_max_states = max_states;
        f_alarms_seen = 0;
        f_unknown_alarms = 0;
        f_states_explored = 0;
        f_reclaimed = 0;
        f_words = Array.init npeers (fun _ -> { syms = [||]; fires = [||]; base = 0; len = 0 });
        f_nodes = [||];
        f_edges = [||];
      }
  in
  let initial_cut = Array.make (Array.length places) empty in
  List.iter (fun (p, cd) -> initial_cut.(p) <- cond_of t cd) initial;
  let queue = Queue.create () in
  let root =
    new_node t queue ~total:0 ~cut:initial_cut
      ~key:(make_key (Array.make npeers 0) initial_cut)
  in
  root.configs <- [ Tag_set.empty ];
  assert (Queue.is_empty queue);
  t

(* the transitions of peer slot [pi] emitting [symbol] *)
let emitting t pi symbol = Option.value ~default:[] (Hashtbl.find_opt t.by_label.(pi) symbol)

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
    word_push t.words.(pi) symbol (emitting t pi symbol);
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
    Obs.Metrics.add_gauge live_conds_gauge (-(Tag_tbl.length t.held))
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
   definition-or-backref tables and are re-interned on restore; tag-keyed
   structures — cuts, node keys, Tag_set payloads, refcounts — are rebuilt
   from the re-interned terms. A config crosses as its tips, which is what
   the node already holds: checkpoint writes each tip set as it stands and
   restore reads it back, with no closure walk either way. Nodes are
   written in key order, tips and cut conditions in tag order, so an
   engine restored in the same process checkpoints to the same bytes; a
   different process can write different bytes (tags depend on process
   history) for the same decoded content.

   Chains: the tips are Skolem spines that reach back to the root, so a
   frame from a fresh encoder defines the whole causal history of the
   frontier. A frame written through the encoder of the previous one
   defines only the terms new since then and refers to the rest, and a
   chain of such frames is restored through one decoder: every frame is
   decoded in order, for its definitions, and the last one becomes the
   engine.

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

let checkpoint ?(encoder = Wire.encoder ()) (t : t) : string =
  if t.released then invalid_arg "Online.checkpoint: released instance";
  let live = ref [] in
  Tbl.iter (fun _ n -> if n.cu > 0 then live := n :: !live) t.table;
  let nodes = Array.of_list !live in
  Array.sort (fun a b -> compare a.key b.key) nodes;
  let nnodes = Array.length nodes in
  let index = Tbl.create (max 16 nnodes) in
  Array.iteri (fun i n -> Tbl.add index n.key i) nodes;
  let npeers = Array.length t.peers in
  let bases =
    Array.init npeers (fun pi ->
        Array.fold_left (fun acc n -> min acc n.key.(pi)) t.words.(pi).len nodes)
  in
  let e = encoder in
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
          for pi = 0 to npeers - 1 do
            Wire.put_uvarint buf n.key.(pi)
          done;
          let cut = Array.fold_right (fun c acc -> if marked c then c.term :: acc else acc) n.cut [] in
          Wire.put_uvarint buf (List.length cut);
          List.iter (Wire.put_term e buf) (List.sort Term.compare cut);
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

(* the place id of a restored cut condition g(_, pl) *)
let cond_place t index cd =
  let place =
    match Term.view cd with
    | Term.App (g, [ _; pl ]) when Symbol.equal g t.g -> (
      match Term.view pl with
      | Term.Const s -> Hashtbl.find_opt index (Symbol.name s)
      | Term.Var _ | Term.App _ -> None)
    | Term.Const _ | Term.Var _ | Term.App _ -> None
  in
  match place with
  | Some p -> p
  | None -> raise (Wire.Corrupt "snapshot cut holds a condition on no place of the net")

let read_list n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

(* Decode one frame of a chain through the chain's decoder [d]. Every
   length is checked against what the frame carries, so a forged length
   runs into the end of the frame ([Wire.Corrupt]) instead of allocating
   what it claims. *)
let read_frame ~digest ~peers d blob =
  Wire.decode_snapshot d blob @@ fun r ->
  (match Wire.get_uvarint r with
  | 0 -> ()
  | k -> raise (Wire.Corrupt (Printf.sprintf "unknown snapshot sub-kind %d" k)));
  if not (String.equal (Wire.get_string r) digest) then
    raise (Wire.Corrupt "snapshot was taken against a different net");
  let npeers = Wire.get_uvarint r in
  if npeers <> Array.length peers then raise (Wire.Corrupt "snapshot peer count mismatch");
  List.iteri
    (fun i p ->
      if not (String.equal p peers.(i)) then raise (Wire.Corrupt "snapshot peer mismatch"))
    (read_list npeers (fun () -> Wire.get_string r));
  let f_gc = Wire.get_uvarint r <> 0 in
  let f_max_states = Wire.get_uvarint r in
  let f_alarms_seen = Wire.get_uvarint r in
  let f_unknown_alarms = Wire.get_uvarint r in
  let f_states_explored = Wire.get_uvarint r in
  let f_reclaimed = Wire.get_uvarint r in
  let f_words =
    Array.of_list
      (read_list npeers (fun () ->
           let len = Wire.get_uvarint r in
           let base = Wire.get_uvarint r in
           if base > len then raise (Wire.Corrupt "snapshot word base exceeds length");
           let syms = Array.of_list (read_list (len - base) (fun () -> Wire.get_string r)) in
           { syms; fires = [||]; base; len }))
  in
  let nnodes = Wire.get_uvarint r in
  let f_nodes =
    Array.of_list
      (read_list nnodes (fun () ->
           let positions = Array.make npeers 0 in
           for pi = 0 to npeers - 1 do
             let p = Wire.get_uvarint r in
             if p < f_words.(pi).base || p > f_words.(pi).len then
               raise (Wire.Corrupt "snapshot position outside the stored word");
             positions.(pi) <- p
           done;
           let cut_terms = read_list (Wire.get_uvarint r) (fun () -> Wire.get_term d r) in
           let tips =
             read_list (Wire.get_uvarint r) (fun () ->
                 read_list (Wire.get_uvarint r) (fun () -> Wire.get_term d r))
           in
           { positions; cut_terms; tips }))
  in
  let f_edges =
    Array.of_list
      (read_list nnodes (fun () ->
           read_list (Wire.get_uvarint r) (fun () ->
               let ev = Wire.get_term d r in
               let i = Wire.get_uvarint r in
               if i >= nnodes then raise (Wire.Corrupt "snapshot edge target out of range");
               (ev, i))))
  in
  { f_gc; f_max_states; f_alarms_seen; f_unknown_alarms; f_states_explored; f_reclaimed;
    f_words; f_nodes; f_edges }

let restore ?max_states (net : Petri.Net.t) (chain : string) : t =
  let digest = net_fingerprint net in
  let places, index = place_index net in
  let ((peers, _, _) as tables) = peer_tables net index in
  let f = Symbol.intern "f" and g = Symbol.intern "g" in
  (* every frame is decoded for its definitions; the last is the engine *)
  let d = Wire.decoder () in
  let last =
    match Wire.frames chain with
    | [] -> raise (Wire.Corrupt "empty snapshot chain")
    | first :: rest ->
      List.fold_left
        (fun _ blob -> read_frame ~digest ~peers d blob)
        (read_frame ~digest ~peers d first) rest
  in
  let npeers = Array.length peers in
  let t =
    of_frame ~f ~g ~places tables ~digest
      { last with f_max_states = Option.value ~default:last.f_max_states max_states }
  in
  Array.iteri (fun pi w -> w.fires <- Array.map (emitting t pi) w.syms) t.words;
  (* one record per condition across the frame's cuts: none is held
     before every node has been read *)
  let restored = Tag_tbl.create 64 in
  let restored_cond cd =
    match Tag_tbl.find_opt restored (Term.tag cd) with
    | Some c -> c
    | None ->
      let c = cond_of t cd in
      Tag_tbl.add restored (Term.tag cd) c;
      c
  in
  let event ev =
    Tag_tbl.replace t.events_tbl (Term.tag ev) ev;
    ev
  in
  let nodes =
    Array.map
      (fun fn ->
        let cut = Array.make (Array.length places) empty in
        List.iter
          (fun cd ->
            let p = cond_place t index cd in
            if marked cut.(p) then
              raise (Wire.Corrupt "snapshot cut puts two conditions on one place");
            cut.(p) <- restored_cond cd)
          fn.cut_terms;
        let configs =
          List.map
            (List.fold_left (fun c ev -> Tag_set.add (Term.tag (event ev)) c) Tag_set.empty)
            fn.tips
        in
        let total = Array.fold_left ( + ) 0 fn.positions in
        { key = make_key fn.positions cut; total; cut; configs; succs = []; cu = 0 })
      last.f_nodes
  in
  Array.iteri
    (fun i edges -> nodes.(i).succs <- List.map (fun (ev, j) -> (event ev, nodes.(j))) edges)
    last.f_edges;
  (* rebuild the derived state: table, caught-up lists (a node is caught
     up at [pi] iff positions.(pi) = word length — membership is set at
     birth and only consumed when the word grows), refcounts, gauges *)
  Array.iter
    (fun n ->
      if Tbl.mem t.table n.key then raise (Wire.Corrupt "snapshot has duplicate node keys");
      Tbl.add t.table n.key n;
      for pi = 0 to npeers - 1 do
        if n.key.(pi) = t.words.(pi).len then begin
          t.caught_up.(pi) <- n :: t.caught_up.(pi);
          n.cu <- n.cu + 1
        end
      done;
      if n.cu = 0 then raise (Wire.Corrupt "snapshot node lags at every peer");
      iter_cut (hold t) n.cut;
      List.iter
        (fun (ev, _) -> ref_incr t.ref_events live_events_gauge (Term.tag ev))
        n.succs)
    nodes;
  t.live_count <- Array.length nodes;
  Obs.Metrics.add_gauge live_states_gauge t.live_count;
  t
