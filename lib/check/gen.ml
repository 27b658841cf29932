(** Deterministic case generation: every random choice is a pure function
    of the case seed, so a printed seed is a complete replay recipe. *)

type case = {
  seed : int;
  spec : Petri.Generator.spec;
  steps : int;
  policy : Network.Sim.policy;
  loss : float;
  jobs : int;
  net : Petri.Net.t;
  firing : string list;
  alarms : Petri.Alarm.t;
}

type pins = {
  pin_spec : Petri.Generator.spec option;
  pin_steps : int option;
  pin_policy : Network.Sim.policy option;
  pin_loss : float option;
  pin_jobs : int option;
}

let default_loss = 0.25

let no_pins =
  { pin_spec = None; pin_steps = None; pin_policy = None; pin_loss = None;
    pin_jobs = None }

(* all three delivery policies, in the order they are cycled through *)
let policies =
  [ Network.Sim.Random_interleaving; Network.Sim.Round_robin; Network.Sim.Global_fifo ]

let policy_name = function
  | Network.Sim.Random_interleaving -> "random"
  | Network.Sim.Round_robin -> "round-robin"
  | Network.Sim.Global_fifo -> "fifo"

let policy_of_string = function
  | "random" -> Ok Network.Sim.Random_interleaving
  | "round-robin" | "rr" -> Ok Network.Sim.Round_robin
  | "fifo" -> Ok Network.Sim.Global_fifo
  | s -> Error (Printf.sprintf "unknown policy %S (random, round-robin, fifo)" s)

(* Small nets on purpose: the reference oracle enumerates configurations
   (exponential), and tiny nets shrink to readable counterexamples. The
   ranges still cover every structural regime — single peer, single
   component per peer, no syncs, ambiguous one-symbol alphabets. *)
let sample_spec rng : Petri.Generator.spec =
  let int_in lo hi = lo + Random.State.int rng (hi - lo + 1) in
  {
    Petri.Generator.peers = int_in 1 3;
    components_per_peer = int_in 1 2;
    places_per_component = int_in 2 4;
    local_transitions = int_in 1 4;
    sync_transitions = int_in 0 3;
    alarm_symbols = int_in 1 3;
  }

(* Cost guard. Both the reference oracle and goal-directed evaluation are
   exponential in how ambiguous the observation is: each alarm (a, p) can
   be explained by any transition of peer p labelled a, and the search
   branches on the product of those counts. Random single-symbol alphabets
   routinely hit 3^8 — minutes per case. Keep every case, but truncate its
   observation to the longest prefix whose branching product stays under a
   fixed budget; unambiguous observations (product 1) are never cut. The
   budget is tuned so the worst ambient case stays well under a second —
   each branch pays an unfolding search, not just a lookup. *)
let ambiguity_budget = 36

(* Truncation must follow the *firing* order, not the observed (shuffled)
   arrival order: a global prefix of the shuffled sequence can advance one
   peer's subsequence further than any execution jointly allows, leaving an
   unexplainable observation — every engine then agrees on the empty
   diagnosis and the case tests nothing. Cutting along a firing prefix
   keeps the observation explainable (by that very prefix); the kept
   per-peer alarm counts are then carved out of the arrival sequence, which
   preserves the asynchronous interleaving of what remains. *)
let truncate_to_budget (net : Petri.Net.t) ~(firing : string list)
    (alarms : Petri.Alarm.t) : Petri.Alarm.t =
  let branching (symbol, peer) =
    List.length
      (List.filter
         (fun t -> t.Petri.Net.t_alarm = symbol && t.Petri.Net.t_peer = peer)
         (Petri.Net.transitions net))
    |> max 1
  in
  (* per-peer alarm counts of the longest firing prefix within budget *)
  let quota : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let rec walk product = function
    | [] -> ()
    | tid :: rest ->
      let tr = Petri.Net.transition net tid in
      let product = product * branching (tr.Petri.Net.t_alarm, tr.Petri.Net.t_peer) in
      if product <= ambiguity_budget then begin
        let p = tr.Petri.Net.t_peer in
        Hashtbl.replace quota p (1 + Option.value ~default:0 (Hashtbl.find_opt quota p));
        walk product rest
      end
  in
  walk 1 firing;
  let keep (_, peer) =
    match Hashtbl.find_opt quota peer with
    | Some n when n > 0 ->
      Hashtbl.replace quota peer (n - 1);
      true
    | _ -> false
  in
  Petri.Alarm.make (List.filter keep (Petri.Alarm.to_pairs alarms))

let case ?(pins = no_pins) ~seed () : case =
  (* one stream for the shape choices, separate ones for net and scenario,
     so fixing the spec does not perturb the scenario of the same seed *)
  let shape_rng = Random.State.make [| 0x5eed; seed; 0 |] in
  let sampled_spec = sample_spec shape_rng in
  let sampled_steps = Random.State.int shape_rng 9 in
  let sampled_policy = List.nth policies (Random.State.int shape_rng 3) in
  let spec = Option.value pins.pin_spec ~default:sampled_spec in
  Petri.Generator.validate spec;
  let steps = Option.value pins.pin_steps ~default:sampled_steps in
  let policy = Option.value pins.pin_policy ~default:sampled_policy in
  let loss = Option.value pins.pin_loss ~default:default_loss in
  (* domain count for the parallel-vs-sequential property; a stream of its
     own so pre-existing seeds keep generating the very same nets *)
  let sampled_jobs = 1 + Random.State.int (Random.State.make [| 0x5eed; seed; 3 |]) 4 in
  let jobs = Option.value pins.pin_jobs ~default:sampled_jobs in
  if jobs < 1 then invalid_arg "Gen.case: jobs must be >= 1";
  let net = Petri.Generator.generate ~rng:(Random.State.make [| 0x5eed; seed; 1 |]) spec in
  let firing, alarms =
    Petri.Generator.scenario ~rng:(Random.State.make [| 0x5eed; seed; 2 |]) ~steps net
  in
  let alarms = truncate_to_budget net ~firing alarms in
  { seed; spec; steps; policy; loss; jobs; net; firing; alarms }

(* ------------------------- spec strings ------------------------- *)

let spec_to_string (s : Petri.Generator.spec) =
  Printf.sprintf "peers=%d,components=%d,places=%d,local=%d,sync=%d,alphabet=%d"
    s.Petri.Generator.peers s.components_per_peer s.places_per_component
    s.local_transitions s.sync_transitions s.alarm_symbols

let spec_of_string text : (Petri.Generator.spec, string) result =
  let apply spec kv =
    match String.split_on_char '=' (String.trim kv) with
    | [ key; value ] -> (
      match int_of_string_opt (String.trim value) with
      | None -> Error (Printf.sprintf "spec: %S is not an integer" value)
      | Some n -> (
        let open Petri.Generator in
        match String.trim key with
        | "peers" -> Ok { spec with peers = n }
        | "components" -> Ok { spec with components_per_peer = n }
        | "places" -> Ok { spec with places_per_component = n }
        | "local" -> Ok { spec with local_transitions = n }
        | "sync" -> Ok { spec with sync_transitions = n }
        | "alphabet" -> Ok { spec with alarm_symbols = n }
        | k ->
          Error
            (Printf.sprintf
               "spec: unknown key %S (peers, components, places, local, sync, alphabet)"
               k)))
    | _ -> Error (Printf.sprintf "spec: expected key=value, got %S" kv)
  in
  let parts = String.split_on_char ',' text |> List.filter (fun s -> String.trim s <> "") in
  let spec =
    List.fold_left
      (fun acc kv -> Result.bind acc (fun spec -> apply spec kv))
      (Ok Petri.Generator.default_spec) parts
  in
  Result.bind spec (fun s ->
      match Petri.Generator.validate s with
      | () -> Ok s
      | exception Invalid_argument m -> Error m)

let describe (c : case) =
  Printf.sprintf "seed %d: %s steps=%d policy=%s loss=%.2f jobs=%d |alarms|=%d" c.seed
    (spec_to_string c.spec) c.steps (policy_name c.policy) c.loss c.jobs
    (Petri.Alarm.length c.alarms)
