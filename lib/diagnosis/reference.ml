(** Definition-level diagnoser: the Output specification of Section 2,
    executed literally on a deep-enough prefix of [Unfold(N, M)].

    Enumerate every configuration (up to a size bound), and keep those
    matching the observation. Exponential — this is the obviously-correct
    oracle the efficient implementations are tested against, not an
    algorithm the paper proposes.

    {b Two readings of condition (iii).} The paper's Output condition
    constrains, for each peer separately, the bijection not to contradict
    the causal order between that peer's own alarms. Its algorithms
    (the [configPrefixes] program of Section 4.2 and the product unfolding
    of [8]) build configurations by repeatedly appending an enabled event —
    i.e. they ask for a single {e global} linear extension of the
    configuration whose per-peer projections spell the observed
    subsequences. The two readings agree on almost all instances but can
    diverge when per-peer order choices create a cross-peer cycle (see the
    test suite's [definition vs algorithm] case). We take the global
    reading as primary — it is what both the paper's own encoding and the
    dedicated algorithm compute, and what a physically realizable execution
    produces — and expose the literal per-peer reading as
    {!diagnose_literal} for the record. *)

open Datalog
module U = Petri.Unfolding
module IS = U.Int_set
module SS = Pattern.S_set

(* ------------------------------------------------------------------ *)
(* Matching                                                           *)
(* ------------------------------------------------------------------ *)

(* Literal reading: peers are checked independently; a candidate for the
   next alarm must be causally minimal among that peer's remaining
   events. *)
let matches_literal (u : U.t) (net : Petri.Net.t) (config : IS.t) (alarms : Petri.Alarm.t)
    : bool =
  let by_peer = Petri.Alarm.split alarms in
  let events = IS.elements config in
  let peer_of e = (Petri.Net.transition net (U.event u e).U.e_trans).Petri.Net.t_peer in
  let alarm_of e = (Petri.Net.transition net (U.event u e).U.e_trans).Petri.Net.t_alarm in
  let check_peer (p, word) =
    let mine = List.filter (fun e -> String.equal (peer_of e) p) events in
    if List.length mine <> List.length word then false
    else
      let rec go remaining word =
        match word with
        | [] -> remaining = []
        | (a : Petri.Alarm.alarm) :: rest ->
          List.exists
            (fun e ->
              String.equal (alarm_of e) a.Petri.Alarm.symbol
              && (not (List.exists (fun e' -> e' <> e && U.causally_before u e' e) remaining))
              && go (List.filter (fun e' -> e' <> e) remaining) rest)
            remaining
      in
      go mine word
  in
  let sequence_peers = List.map fst by_peer in
  List.for_all (fun e -> List.mem (peer_of e) sequence_peers) events
  && List.for_all check_peer by_peer

(* Global reading, generalized to patterns and hidden transitions: is there
   a linear extension of [config] (w.r.t. full causality) along which each
   observed peer's automaton reads that peer's observable alarms and every
   automaton ends accepting? Hidden events advance no automaton; observable
   events at unobserved peers are forbidden. *)
let matches_global (u : U.t) (net : Petri.Net.t) (config : IS.t)
    (patterns : (string * Pattern.t) list) (hidden : string list) : bool =
  let peer_of e = (Petri.Net.transition net (U.event u e).U.e_trans).Petri.Net.t_peer in
  let alarm_of e = (Petri.Net.transition net (U.event u e).U.e_trans).Petri.Net.t_alarm in
  let is_hidden e = List.mem (U.event u e).U.e_trans hidden in
  let accepting states =
    List.for_all
      (fun (p, qs) ->
        List.exists (fun q -> SS.mem q qs) (Pattern.accepting (List.assoc p patterns)))
      states
  in
  let rec go remaining states =
    match remaining with
    | [] -> accepting states
    | _ ->
      List.exists
        (fun e ->
          if List.exists (fun e' -> e' <> e && U.causally_before u e' e) remaining then false
          else
            let rest = List.filter (fun e' -> e' <> e) remaining in
            if is_hidden e then go rest states
            else
              match List.assoc_opt (peer_of e) patterns with
              | None -> false
              | Some pat ->
                let qs = List.assoc (peer_of e) states in
                let qs' = Pattern.step pat qs (alarm_of e) in
                if SS.is_empty qs' then false
                else
                  go rest
                    (List.map
                       (fun (p, s) -> if String.equal p (peer_of e) then (p, qs') else (p, s))
                       states))
        remaining
  in
  go (IS.elements config)
    (List.map (fun (p, pat) -> (p, SS.of_list (Pattern.initial pat))) patterns)

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  diagnosis : Canon.diagnosis;
  unfolding : U.t;  (** the prefix that was searched *)
  configurations_examined : int;
}

let config_terms u config =
  Term.Set.of_list
    (List.map (fun e -> Canon.term_of_name (U.event u e).U.e_name) (IS.elements config))

let enumerate ~max_events ~max_config_size ~exact_size net keep =
  let bound =
    { U.max_events = Some max_events; max_depth = Some ((2 * max_config_size) + 2) }
  in
  let u = U.unfold ~bound net in
  let examined = ref 0 in
  let found = ref [] in
  let visit config =
    incr examined;
    if keep u config then found := config_terms u config :: !found
  in
  (match exact_size with
  | Some n -> U.iter_configurations ~size:n u visit
  | None -> U.iter_configurations ~max_size:max_config_size u visit);
  {
    diagnosis = Canon.normalize_diagnosis !found;
    unfolding = u;
    configurations_examined = !examined;
  }

(** Diagnose a fixed alarm sequence (the basic problem, global reading).
    The prefix depth [2n + 2] suffices for configurations of [n] events. *)
let diagnose ?(max_events = 20_000) (net : Petri.Net.t) (alarms : Petri.Alarm.t) : result =
  let n = Petri.Alarm.length alarms in
  let patterns =
    List.map
      (fun (p, sub) -> (p, Pattern.word (List.map (fun a -> a.Petri.Alarm.symbol) sub)))
      (Petri.Alarm.split alarms)
  in
  enumerate ~max_events ~max_config_size:n ~exact_size:(Some n) net (fun u config ->
      matches_global u net config patterns [])

(** Diagnose under the literal per-peer reading of condition (iii). *)
let diagnose_literal ?(max_events = 20_000) (net : Petri.Net.t) (alarms : Petri.Alarm.t) :
    result =
  let n = Petri.Alarm.length alarms in
  enumerate ~max_events ~max_config_size:n ~exact_size:(Some n) net (fun u config ->
      matches_literal u net config alarms)

(** Generalized diagnosis (Section 4.4): per-peer regular observations and
    hidden transitions. All matching configurations of at most
    [max_config_size] events are reported. *)
let diagnose_general ?(max_events = 50_000) ~max_config_size ~(hidden : string list)
    (net : Petri.Net.t) (patterns : (string * Pattern.t) list) : result =
  enumerate ~max_events ~max_config_size ~exact_size:None net (fun u config ->
      matches_global u net config patterns hidden)
