(** Branching processes / unfoldings of safe Petri nets (Definitions 3–4).

    The unfolding is computed by the standard possible-extensions algorithm:
    conditions (instances of places) and events (instances of transitions)
    are added inductively; a transition [t] extends the prefix whenever a
    pairwise-concurrent set of conditions instantiates its preset. The
    concurrency relation is maintained incrementally.

    Nodes carry a {e canonical name} mirroring the Skolem terms of the
    paper's Datalog encoding: a root condition for place [c] is [g(r, c)], a
    non-root condition is [g(e, c)] where [e] is the name of its (unique)
    parent event, and an event is [f(t, u1, ..., uk)] where the [ui] are the
    names of its preset conditions in the order of the transition's parent
    list. This gives a common identity space to the reference unfolder, the
    product diagnoser of [8], and the Datalog encoding — the bijections of
    Theorems 2 and 4 become set equalities. *)

module Int_set = Set.Make (Int)
module String_map = Net.String_map

(** Canonical node names (the paper's terms over Skolem functions f, g and
    the virtual root transition r). *)
type name =
  | Cond_name of parent * string  (** [g(parent, place)] *)
  | Event_name of string * name list  (** [f(trans, preset names)] *)

and parent = Root | Parent of name

let rec name_compare a b =
  match a, b with
  | Cond_name (pa, ca), Cond_name (pb, cb) ->
    let c = parent_compare pa pb in
    if c <> 0 then c else String.compare ca cb
  | Cond_name _, Event_name _ -> -1
  | Event_name _, Cond_name _ -> 1
  | Event_name (ta, la), Event_name (tb, lb) ->
    let c = String.compare ta tb in
    if c <> 0 then c else List.compare name_compare la lb

and parent_compare a b =
  match a, b with
  | Root, Root -> 0
  | Root, Parent _ -> -1
  | Parent _, Root -> 1
  | Parent x, Parent y -> name_compare x y

let rec name_depth = function
  | Cond_name (Root, _) -> 2
  | Cond_name (Parent e, _) -> 1 + name_depth e
  | Event_name (_, pres) -> 1 + List.fold_left (fun acc n -> max acc (name_depth n)) 1 pres

type cond = {
  c_id : int;
  c_place : string;
  c_parent : int option;  (** producing event, [None] for roots *)
  c_name : name;
}

type event = {
  e_id : int;
  e_trans : string;
  e_pre : int list;  (** preset condition ids, in the order of [t_pre] *)
  e_post : int list;  (** postset condition ids, in the order of [t_post] *)
  e_name : name;
  e_local : Int_set.t;  (** local configuration: the event's causal past *)
  e_depth : int;  (** depth of the canonical name *)
}

type t = {
  net : Net.t;
  conds : (int, cond) Hashtbl.t;
  events : (int, event) Hashtbl.t;
  mutable n_conds : int;
  mutable n_events : int;
  co : (int, Int_set.t) Hashtbl.t;  (** concurrency between conditions *)
  by_place : (string, int list) Hashtbl.t;  (** conditions per place *)
  keys : (string * int list, unit) Hashtbl.t;  (** event dedup: (trans, preset) *)
  mutable complete : bool;  (** false if a bound stopped the construction *)
}

let cond u id = Hashtbl.find u.conds id
let event u id = Hashtbl.find u.events id
let conds u = List.init u.n_conds (fun i -> cond u i)
let events u = List.init u.n_events (fun i -> event u i)
let num_conds u = u.n_conds
let num_events u = u.n_events
let is_complete u = u.complete
let net u = u.net

let co_set u c = Option.value ~default:Int_set.empty (Hashtbl.find_opt u.co c)

let concurrent u c1 c2 = c1 <> c2 && Int_set.mem c2 (co_set u c1)

let add_cond u ~place ~parent : cond =
  let id = u.n_conds in
  u.n_conds <- id + 1;
  let name =
    match parent with
    | None -> Cond_name (Root, place)
    | Some e_id -> Cond_name (Parent (event u e_id).e_name, place)
  in
  let c = { c_id = id; c_place = place; c_parent = parent; c_name = name } in
  Hashtbl.add u.conds id c;
  Hashtbl.replace u.by_place place
    (id :: Option.value ~default:[] (Hashtbl.find_opt u.by_place place));
  c

let link_co u a b =
  Hashtbl.replace u.co a (Int_set.add b (co_set u a));
  Hashtbl.replace u.co b (Int_set.add a (co_set u b))

(** Install event [tid] with preset [pre] (condition ids in [t_pre] order);
    creates the postset conditions and updates the concurrency relation. *)
let add_event u ~tid ~pre : event =
  let tr = Net.transition u.net tid in
  let id = u.n_events in
  u.n_events <- id + 1;
  let pre_conds = List.map (cond u) pre in
  let name = Event_name (tid, List.map (fun c -> c.c_name) pre_conds) in
  let local =
    List.fold_left
      (fun acc c ->
        match c.c_parent with
        | None -> acc
        | Some e -> Int_set.union acc (event u e).e_local)
      (Int_set.singleton id) pre_conds
  in
  let depth = name_depth name in
  (* Conditions concurrent with every preset condition stay concurrent with
     the postset. *)
  let shared_co =
    match pre with
    | [] -> assert false
    | c0 :: rest -> List.fold_left (fun acc c -> Int_set.inter acc (co_set u c)) (co_set u c0) rest
  in
  let e =
    { e_id = id; e_trans = tid; e_pre = pre; e_post = []; e_name = name; e_local = local; e_depth = depth }
  in
  Hashtbl.add u.events id e;
  let post_conds = List.map (fun place -> add_cond u ~place ~parent:(Some id)) tr.Net.t_post in
  let post_ids = List.map (fun c -> c.c_id) post_conds in
  let e = { e with e_post = post_ids } in
  Hashtbl.replace u.events id e;
  (* co(d) = siblings ∪ { b | b co every preset condition } *)
  List.iter
    (fun d ->
      Int_set.iter (fun b -> link_co u d b) shared_co;
      List.iter (fun d' -> if d' <> d then link_co u d d') post_ids)
    post_ids;
  Hashtbl.add u.keys (tid, pre) ();
  e

(* Enumerate the pairwise-concurrent presets instantiating [t_pre]: one
   condition per parent place, in order, pairwise concurrent. *)
let presets_for u (tr : Net.transition) : int list list =
  let rec go chosen = function
    | [] -> [ List.rev chosen ]
    | place :: rest ->
      let candidates = Option.value ~default:[] (Hashtbl.find_opt u.by_place place) in
      List.concat_map
        (fun c ->
          if List.for_all (fun c' -> concurrent u c' c) chosen then go (c :: chosen) rest
          else [])
        candidates
  in
  go [] tr.Net.t_pre

type bound = {
  max_events : int option;
  max_depth : int option;  (** canonical-name depth, cf. [Term.depth] *)
}

let no_bound = { max_events = None; max_depth = None }

(** Unfold [net] up to the given bounds. The result is the unique maximal
    branching process if no bound bites ([is_complete] tells). *)
let unfold ?(bound = no_bound) (net : Net.t) : t =
  let u =
    {
      net;
      conds = Hashtbl.create 256;
      events = Hashtbl.create 256;
      n_conds = 0;
      n_events = 0;
      co = Hashtbl.create 256;
      by_place = Hashtbl.create 64;
      keys = Hashtbl.create 256;
      complete = true;
    }
  in
  (* Roots: one condition per initially marked place; roots are pairwise
     concurrent. *)
  let roots =
    List.map (fun place -> (add_cond u ~place ~parent:None).c_id)
      (Net.String_set.elements (Net.marking net))
  in
  List.iter (fun a -> List.iter (fun b -> if a <> b then link_co u a b) roots) roots;
  (* Saturate possible extensions. The worklist is implicit: we repeatedly
     scan for unexplored extensions; [keys] dedupes. Simple and adequate for
     the prefix sizes we build. *)
  let progress = ref true in
  let within_depth name =
    match bound.max_depth with None -> true | Some d -> name_depth name <= d
  in
  let within_events () =
    match bound.max_events with None -> true | Some m -> u.n_events < m
  in
  while !progress do
    progress := false;
    List.iter
      (fun tr ->
        List.iter
          (fun pre ->
            if not (Hashtbl.mem u.keys (tr.Net.t_id, pre)) then begin
              let pre_names = List.map (fun c -> (cond u c).c_name) pre in
              let name = Event_name (tr.Net.t_id, pre_names) in
              if not (within_depth name) then u.complete <- false
              else if not (within_events ()) then u.complete <- false
              else begin
                ignore (add_event u ~tid:tr.Net.t_id ~pre);
                progress := true
              end
            end)
          (presets_for u tr))
      (Net.transitions net)
  done;
  u

(** Causality between events: [e1 <= e2]. *)
let causally_before u e1 e2 = Int_set.mem e1 (event u e2).e_local

(** Conflict between events: they are neither causally related nor
    concurrent; equivalently some condition is consumed by two distinct
    events of their joint past. *)
let in_conflict u e1 e2 =
  if e1 = e2 then false
  else if causally_before u e1 e2 || causally_before u e2 e1 then false
  else begin
    let both = Int_set.union (event u e1).e_local (event u e2).e_local in
    let consumed = Hashtbl.create 16 in
    Int_set.exists
      (fun e ->
        List.exists
          (fun c ->
            if Hashtbl.mem consumed c then true
            else begin
              Hashtbl.add consumed c ();
              false
            end)
          (event u e).e_pre)
      both
  end

let concurrent_events u e1 e2 =
  e1 <> e2
  && (not (causally_before u e1 e2))
  && (not (causally_before u e2 e1))
  && not (in_conflict u e1 e2)

(** Check that a set of events is a configuration: downward closed and
    conflict-free (no condition consumed twice). *)
let is_configuration u (c : Int_set.t) =
  let downward =
    Int_set.for_all (fun e -> Int_set.subset (event u e).e_local c) c
  in
  downward
  &&
  let consumed = Hashtbl.create 16 in
  not
    (Int_set.exists
       (fun e ->
         List.exists
           (fun cd ->
             if Hashtbl.mem consumed cd then true
             else begin
               Hashtbl.add consumed cd ();
               false
             end)
           (event u e).e_pre)
       c)

(** The cut of a configuration: conditions produced (or initial) and not
    consumed. *)
let cut u (c : Int_set.t) : Int_set.t =
  let produced =
    Int_set.fold
      (fun e acc -> List.fold_left (fun acc d -> Int_set.add d acc) acc (event u e).e_post)
      c Int_set.empty
  in
  let initial =
    Hashtbl.fold
      (fun id cd acc -> if cd.c_parent = None then Int_set.add id acc else acc)
      u.conds Int_set.empty
  in
  let avail = Int_set.union produced initial in
  Int_set.fold
    (fun e acc -> List.fold_left (fun acc d -> Int_set.remove d acc) acc (event u e).e_pre)
    c avail

(** Enumerate configurations (each exactly once), calling [f] on each.
    With [size], only configurations of exactly that many events are
    reported (and larger ones are not explored); with [max_size], all
    configurations up to that size are reported. Exponential; meant for
    reference checks on small prefixes. *)
let iter_configurations ?size ?max_size u f =
  (* DFS with exclusion: at each step pick the smallest extension event not
     excluded; branch on including or excluding it. *)
  let size = match size, max_size with
    | Some _, Some _ -> invalid_arg "iter_configurations: size and max_size are exclusive"
    | Some n, None -> Some (n, true)
    | None, Some n -> Some (n, false)
    | None, None -> None
  in
  let ok_size c =
    match size with
    | None -> true
    | Some (n, exact) -> if exact then Int_set.cardinal c = n else Int_set.cardinal c <= n
  in
  let extensions config excluded =
    (* events whose past (minus themselves) is inside config, not in config,
       not excluded, and conflict-free with config *)
    let consumed = Hashtbl.create 16 in
    Int_set.iter
      (fun e -> List.iter (fun c -> Hashtbl.replace consumed c ()) (event u e).e_pre)
      config;
    List.filter
      (fun e ->
        (not (Int_set.mem e.e_id config))
        && (not (Int_set.mem e.e_id excluded))
        && Int_set.subset (Int_set.remove e.e_id e.e_local) config
        && not (List.exists (Hashtbl.mem consumed) e.e_pre))
      (events u)
  in
  let rec go config excluded =
    match size with
    | Some (n, _) when Int_set.cardinal config >= n -> ()
    | Some _ | None -> (
      match extensions config excluded with
      | [] -> ()
      | es ->
        (* Branch on the minimal extension: include it (reporting the newly
           created configuration exactly once), or exclude it. *)
        let e = List.fold_left (fun a b -> if b.e_id < a.e_id then b else a) (List.hd es) es in
        let config' = Int_set.add e.e_id config in
        if ok_size config' then f config';
        go config' excluded;
        go config (Int_set.add e.e_id excluded))
  in
  if ok_size Int_set.empty then f Int_set.empty;
  go Int_set.empty Int_set.empty
