(* Human-readable reports of diagnoses; see the .mli. *)

open Datalog

type event_view = {
  term : Term.t;
  transition : string;
  peer : string;
  alarm : string;
  causes : Term.t list;  (** immediate causal predecessors within the config *)
}

(* A transition as the report shows it, resolved once per symbol: the net
   entry and the padded head of its report line. *)
type resolved = { tr : Petri.Net.transition; head : string }

let resolver (net : Petri.Net.t) =
  let cache : (Symbol.t, resolved) Hashtbl.t = Hashtbl.create 16 in
  fun ev ->
    match Term.view ev with
    | Term.App (_, first :: _) -> (
      match Term.view first with
      | Term.Const s -> (
        match Hashtbl.find_opt cache s with
        | Some _ as r -> r
        | None ->
          let tr = Petri.Net.transition net (Symbol.name s) in
          let head =
            Printf.sprintf "    %-12s @%-10s alarm %-8s (" tr.Petri.Net.t_id tr.Petri.Net.t_peer
              tr.Petri.Net.t_alarm
          in
          let r = { tr; head } in
          Hashtbl.add cache s r;
          Some r)
      | Term.Var _ | Term.App _ -> None)
    | Term.App (_, []) | Term.Const _ | Term.Var _ -> None

(* [config]'s events in term order with their transitions ([None] for a
   term that names none), the positions of each event's causes — the
   producers of its preset conditions, read off the term, that are events
   of the config — and the events' positions in causal order: causes
   first, stable within levels by term order.

   One index by hash-cons tag serves the cause lookup and the sort
   (polymorphic hashing of deep Skolem spines degenerates to one bucket).
   The sort is level-synchronous Kahn, O(V log V + E): configurations at a
   long streaming prefix reach tens of thousands of events. An event with
   a cause that names no transition is never placed by it, and falls to
   the tail in term order. *)
let causal_order resolve (config : Canon.config) =
  let events = Array.of_list (Term.Set.elements config) in
  let n = Array.length events in
  let index = Term.Tag_tbl.create n in
  Array.iteri (fun i ev -> Term.Tag_tbl.replace index (Term.tag ev) i) events;
  let views = Array.map resolve events in
  let causes =
    Array.mapi
      (fun i ev ->
        match (views.(i), Term.view ev) with
        | Some _, Term.App (_, _ :: pres) ->
          List.filter_map
            (fun pre ->
              match Term.view pre with
              | Term.App (_, [ parent; _ ]) -> Term.Tag_tbl.find_opt index (Term.tag parent)
              | _ -> None)
            pres
        | _ -> [])
      events
  in
  let indeg = Array.map List.length causes and succs = Array.make n [] in
  Array.iteri (fun i cs -> List.iter (fun j -> succs.(j) <- i :: succs.(j)) cs) causes;
  let viewed p = List.filter (fun i -> Option.is_some views.(i) && p i) (List.init n Fun.id) in
  let out = ref [] in
  let level = ref (viewed (fun i -> indeg.(i) = 0)) in
  while !level <> [] do
    let next = ref [] in
    List.iter
      (fun i ->
        out := i :: !out;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then next := j :: !next)
          succs.(i))
      !level;
    level := List.sort Int.compare !next
  done;
  (events, views, causes, List.rev_append !out (viewed (fun i -> indeg.(i) > 0)))

let view_of_config (net : Petri.Net.t) (config : Canon.config) : event_view list =
  let events, views, causes, _ = causal_order (resolver net) config in
  List.filter_map
    (fun i ->
      Option.map
        (fun { tr; _ } ->
          { term = events.(i); transition = tr.Petri.Net.t_id; peer = tr.Petri.Net.t_peer;
            alarm = tr.Petri.Net.t_alarm; causes = List.map (Array.get events) causes.(i) })
        views.(i))
    (List.init (Array.length events) Fun.id)

(* One [Buffer] pass; each line is the transition's cached head, then its
   causes. *)
let to_string net (diagnosis : Canon.diagnosis) =
  let b = Buffer.create 4096 in
  let resolve = resolver net in
  Printf.bprintf b "%d possible explanation(s)\n" (List.length diagnosis);
  List.iteri
    (fun k config ->
      Printf.bprintf b "explanation #%d:\n" (k + 1);
      let _, views, causes, order = causal_order resolve config in
      let name j = Option.map (fun r -> r.tr.Petri.Net.t_id) views.(j) in
      if order = [] then Buffer.add_string b "    (the empty explanation)\n";
      List.iter
        (fun i ->
          Buffer.add_string b (Option.get views.(i)).head;
          (match causes.(i) with
          | [] -> Buffer.add_string b "initial state"
          | cs ->
            Buffer.add_string b "after ";
            Buffer.add_string b (String.concat " and " (List.filter_map name cs)));
          Buffer.add_string b ")\n")
        order)
    diagnosis;
  Buffer.contents b

(** Per-peer timelines: each observed peer's events in a causal linear
    order — how the supervisor would narrate what happened at each site. *)
let timelines (net : Petri.Net.t) (config : Canon.config) : (string * string list) list =
  let _, views, _, order = causal_order (resolver net) config in
  let trs = List.map (fun i -> (Option.get views.(i)).tr) order in
  let peers = List.sort_uniq String.compare (List.map (fun tr -> tr.Petri.Net.t_peer) trs) in
  List.map
    (fun p ->
      ( p,
        List.filter_map
          (fun (tr : Petri.Net.transition) ->
            if String.equal tr.Petri.Net.t_peer p then
              Some (Printf.sprintf "%s(%s)" tr.Petri.Net.t_id tr.Petri.Net.t_alarm)
            else None)
          trs ))
    peers

(** DOT rendering of one explanation inside the unfolding prefix (the
    Fig. 2 shading): the configuration's events are highlighted. *)
let dot_of_config (net : Petri.Net.t) (config : Canon.config) : string =
  let depth =
    Term.Set.fold (fun t acc -> max acc (Term.depth t)) config 2 + 2
  in
  let u =
    Petri.Unfolding.unfold
      ~bound:{ Petri.Unfolding.max_events = Some 10_000; max_depth = Some depth }
      net
  in
  let highlight =
    List.fold_left
      (fun acc e ->
        if Term.Set.mem (Canon.term_of_name e.Petri.Unfolding.e_name) config then
          Petri.Unfolding.Int_set.add e.Petri.Unfolding.e_id acc
        else acc)
      Petri.Unfolding.Int_set.empty (Petri.Unfolding.events u)
  in
  Petri.Dot.unfolding_to_string ~highlight u

let frame (d : Canon.diagnosis) =
  Dqsq.Wire.encode_configs (Dqsq.Wire.encoder ()) (List.map Term.Set.elements d)
