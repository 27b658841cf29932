(** Safe Petri nets distributed over peers (Definitions 1–2 of the paper).

    A net is a bipartite graph of places and transitions; each transition
    carries an alarm symbol [alpha] and every node a peer name [phi]. A
    Petri net additionally distinguishes a set of initially marked places.
    Node identifiers are strings (the paper's [c1 ... cn]); they must be
    globally unique across peers (the paper achieves this by prefixing the
    peer name — our builder checks uniqueness instead). *)

module String_set = Set.Make (String)
module String_map = Map.Make (String)

type place = {
  p_id : string;
  p_peer : string;
}

type transition = {
  t_id : string;
  t_peer : string;
  t_alarm : string;
  t_pre : string list;  (** parent places, in declaration order *)
  t_post : string list;  (** child places *)
}

type t = {
  places : place String_map.t;
  transitions : transition String_map.t;
  marking : String_set.t;  (** initially marked places *)
  producers : string list String_map.t;  (** place -> transitions producing it *)
}

exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let place t id =
  match String_map.find_opt id t.places with
  | Some p -> p
  | None -> fail "unknown place %s" id

let transition t id =
  match String_map.find_opt id t.transitions with
  | Some tr -> tr
  | None -> fail "unknown transition %s" id

let places t = List.map snd (String_map.bindings t.places)
let transitions t = List.map snd (String_map.bindings t.transitions)
let marking t = t.marking
let num_places t = String_map.cardinal t.places
let num_transitions t = String_map.cardinal t.transitions

let peers t =
  let add acc peer = String_set.add peer acc in
  let s =
    String_map.fold (fun _ p acc -> add acc p.p_peer) t.places String_set.empty
  in
  let s = String_map.fold (fun _ tr acc -> add acc tr.t_peer) t.transitions s in
  String_set.elements s

let producers t pid = Option.value ~default:[] (String_map.find_opt pid t.producers)

(** Build a net from explicit parts, checking well-formedness: distinct ids,
    arcs referring to existing nodes, marked places existing, and (as the
    encoding of Section 4.1 requires) every transition having at least one
    parent. *)
let make ~places:pls ~transitions:trs ~marking:mk : t =
  let place_map =
    List.fold_left
      (fun acc p ->
        if String_map.mem p.p_id acc then fail "duplicate place id %s" p.p_id
        else String_map.add p.p_id p acc)
      String_map.empty pls
  in
  let trans_map =
    List.fold_left
      (fun acc tr ->
        if String_map.mem tr.t_id acc then fail "duplicate transition id %s" tr.t_id
        else if String_map.mem tr.t_id place_map then
          fail "id %s used for both a place and a transition" tr.t_id
        else String_map.add tr.t_id tr acc)
      String_map.empty trs
  in
  let check_place_ref ctx pid =
    if not (String_map.mem pid place_map) then
      fail "%s refers to unknown place %s" ctx pid
  in
  List.iter
    (fun tr ->
      if tr.t_pre = [] then fail "transition %s has no parent place" tr.t_id;
      List.iter (check_place_ref ("pre of " ^ tr.t_id)) tr.t_pre;
      List.iter (check_place_ref ("post of " ^ tr.t_id)) tr.t_post;
      if List.length (List.sort_uniq String.compare tr.t_pre) <> List.length tr.t_pre
      then fail "transition %s has a duplicated parent place" tr.t_id;
      if List.length (List.sort_uniq String.compare tr.t_post) <> List.length tr.t_post
      then fail "transition %s has a duplicated child place" tr.t_id)
    trs;
  List.iter (check_place_ref "marking") mk;
  let add_arc map pid tid =
    String_map.update pid
      (function None -> Some [ tid ] | Some l -> Some (l @ [ tid ]))
      map
  in
  let producers =
    List.fold_left
      (fun acc tr -> List.fold_left (fun acc p -> add_arc acc p tr.t_id) acc tr.t_post)
      String_map.empty trs
  in
  {
    places = place_map;
    transitions = trans_map;
    marking = String_set.of_list mk;
    producers;
  }

(** Convenience constructors. *)
let mk_place ~peer id = { p_id = id; p_peer = peer }

let mk_transition ~peer ~alarm ~pre ~post id =
  { t_id = id; t_peer = peer; t_alarm = alarm; t_pre = pre; t_post = post }

(** [binarize net] returns a behaviorally equivalent net in which every
    transition has exactly two parent places, by giving each single-parent
    transition a private, initially marked "slack" place that it both
    consumes and reproduces. Firing sequences and emitted alarms are
    unchanged; in a safe net the configuration structure of the unfolding is
    preserved (two instances of the same transition are never concurrent).
    Transitions with more than two parents are rejected — the paper makes the
    same simplifying assumption ("we assume below that every transition node
    has exactly two parents", Section 4.1). *)
let binarize (net : t) : t =
  let extra_places = ref [] in
  let extra_marks = ref [] in
  let transitions' =
    List.map
      (fun tr ->
        match tr.t_pre with
        | [ _; _ ] -> tr
        | [ p ] ->
          let slack = Printf.sprintf "%s!slack" tr.t_id in
          extra_places := mk_place ~peer:tr.t_peer slack :: !extra_places;
          extra_marks := slack :: !extra_marks;
          { tr with t_pre = [ p; slack ]; t_post = tr.t_post @ [ slack ] }
        | [] -> fail "transition %s has no parent place" tr.t_id
        | _ -> fail "transition %s has more than two parents; binarize cannot help" tr.t_id)
      (transitions net)
  in
  make
    ~places:(places net @ List.rev !extra_places)
    ~transitions:transitions'
    ~marking:(String_set.elements net.marking @ List.rev !extra_marks)

let is_binary (net : t) =
  List.for_all (fun tr -> List.length tr.t_pre = 2) (transitions net)

let pp ppf net =
  let pp_tr ppf tr =
    Format.fprintf ppf "trans %s @%s alarm %s : %s -> %s" tr.t_id tr.t_peer tr.t_alarm
      (String.concat "," tr.t_pre) (String.concat "," tr.t_post)
  in
  Format.fprintf ppf "@[<v>places: %s@,marked: %s@,%a@]"
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "%s@%s" p.p_id p.p_peer) (places net)))
    (String.concat ", " (String_set.elements net.marking))
    (Format.pp_print_list pp_tr) (transitions net)
