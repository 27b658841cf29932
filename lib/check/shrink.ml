(** Greedy counterexample minimization: component drops, alarm-suffix
    truncation, single-transition drops. *)

type result = {
  instance : Property.instance;
  steps : int;
  checks : int;
}

(* Union-find over place ids, linking pre[i] to post[i] of every
   transition: exactly the one-token components of the generator's nets
   (sync transitions move one token per component and keep them apart). *)
let components (net : Petri.Net.t) : string list list =
  let parent = Hashtbl.create 64 in
  let rec find p =
    match Hashtbl.find_opt parent p with
    | Some q when q <> p ->
      let r = find q in
      Hashtbl.replace parent p r;
      r
    | _ -> p
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun pl -> Hashtbl.replace parent pl.Petri.Net.p_id pl.Petri.Net.p_id)
    (Petri.Net.places net);
  List.iter
    (fun t ->
      let pre = t.Petri.Net.t_pre and post = t.Petri.Net.t_post in
      if List.length pre = List.length post then List.iter2 union pre post
      else
        match pre @ post with
        | [] -> ()
        | first :: rest -> List.iter (union first) rest)
    (Petri.Net.transitions net);
  let groups = Hashtbl.create 8 in
  List.iter
    (fun pl ->
      let root = find pl.Petri.Net.p_id in
      let group = try Hashtbl.find groups root with Not_found -> [] in
      Hashtbl.replace groups root (pl.Petri.Net.p_id :: group))
    (Petri.Net.places net);
  Hashtbl.fold (fun _ g acc -> List.sort compare g :: acc) groups []
  |> List.sort compare

(* The instance on a smaller net; alarms of peers that vanish go too. None
   if the net is ill-formed. *)
let rebuild (i : Property.instance) ~places ~transitions ~marking =
  match Petri.Net.make ~places ~transitions ~marking with
  | exception Petri.Net.Ill_formed _ -> None
  | net ->
    let peers = Petri.Net.peers net in
    let alarms =
      Petri.Alarm.make
        (List.filter (fun (_, p) -> List.mem p peers) (Petri.Alarm.to_pairs i.alarms))
    in
    Some { i with net; alarms }

(* Rebuild the instance without the given places (and every transition
   touching them). *)
let without_places (i : Property.instance) (doomed : string list) :
    Property.instance option =
  let doomed = List.fold_left (fun s p -> Petri.Net.String_set.add p s)
      Petri.Net.String_set.empty doomed
  in
  let keep p = not (Petri.Net.String_set.mem p doomed) in
  let places = List.filter (fun pl -> keep pl.Petri.Net.p_id) (Petri.Net.places i.net) in
  let transitions =
    List.filter
      (fun t -> List.for_all keep (t.Petri.Net.t_pre @ t.Petri.Net.t_post))
      (Petri.Net.transitions i.net)
  in
  let marking =
    Petri.Net.String_set.elements
      (Petri.Net.String_set.diff (Petri.Net.marking i.net) doomed)
  in
  rebuild i ~places ~transitions ~marking

let without_transition (i : Property.instance) (tid : string) :
    Property.instance option =
  let transitions =
    List.filter (fun t -> t.Petri.Net.t_id <> tid) (Petri.Net.transitions i.net)
  in
  rebuild i ~places:(Petri.Net.places i.net) ~transitions
    ~marking:(Petri.Net.String_set.elements (Petri.Net.marking i.net))

let truncate_alarms (i : Property.instance) (k : int) : Property.instance option =
  let pairs = Petri.Alarm.to_pairs i.alarms in
  if k >= List.length pairs then None
  else Some { i with alarms = Petri.Alarm.make (List.filteri (fun j _ -> j < k) pairs) }

(* structurally smaller variants, most aggressive first; every returned
   net is well-formed, and none is left when the instance is minimal *)
let candidates (i : Property.instance) : Property.instance list =
  let comps = components i.net in
  let drop_components =
    if List.length comps < 2 then []
    else List.filter_map (without_places i) comps
  in
  let n = Petri.Alarm.length i.alarms in
  let truncations =
    List.sort_uniq compare [ 0; n / 2; n - 1 ]
    |> List.filter (fun k -> k >= 0 && k < n)
    |> List.filter_map (truncate_alarms i)
  in
  let drop_transitions =
    List.filter_map
      (fun t -> without_transition i t.Petri.Net.t_id)
      (Petri.Net.transitions i.net)
  in
  drop_components @ truncations @ drop_transitions

let shrink ?(max_checks = 200) ~check (i0 : Property.instance) : result =
  let checks = ref 0 and steps = ref 0 in
  let still_fails i =
    !checks < max_checks
    &&
    (incr checks;
     match check i with Property.Fail _ -> true | Property.Pass -> false)
  in
  let rec go i =
    match List.find_opt still_fails (candidates i) with
    | Some smaller ->
      incr steps;
      go smaller
    | None -> i
  in
  let instance = go i0 in
  { instance; steps = !steps; checks = !checks }
