(** Dijkstra–Scholten termination detection for diffusing computations.

    The distributed evaluation of a dDatalog program reaches a fixpoint when
    "all peers are in idle mode"; the paper points at "standard termination
    detection algorithms for distributed computing, in the style of [19,33]"
    to detect this. This module implements the classical Dijkstra–Scholten
    scheme: every work message is acknowledged; the first work message a peer
    receives makes the sender its parent in a spanning tree, and the parent
    ack is withheld until the peer has no outstanding (unacknowledged)
    messages of its own. When the root's deficit drops to zero the whole
    computation has terminated.

    The detector wraps user messages in {!wrapped}; user handlers send
    through the detector so that deficits are tracked.

    Parallel safety (under {!Sim.run_parallel}): the [states] table is
    fully populated by [add_peer] before any domain is spawned, so at run
    time [state] only reads it. Peer [p]'s [parent]/[deficit] fields are
    mutated exclusively from [p]'s own handler ([send_work] bumps the
    {e sender}'s deficit and is only called from inside the sender's
    handler, or from the main domain before the run starts). A peer's
    activations may migrate between domains, but the sim runs each peer
    on at most one domain at a time and hands it off through its one
    lock, so the fields are never written concurrently and every write
    is visible to the next activation. [terminated] is written by the
    root's domain and read by the main domain after the run returns; the
    worker pool's completion handshake (a mutex) orders the accesses. *)

type peer_id = Sim.peer_id

type 'm wrapped =
  | Work of 'm
  | Ack

type peer_state = {
  mutable parent : peer_id option;
  mutable deficit : int;
}

type 'm t = {
  root : peer_id;
  states : (peer_id, peer_state) Hashtbl.t;
  mutable terminated : bool;
  mutable on_termination : unit -> unit;
}

let create ~root () =
  let t =
    { root; states = Hashtbl.create 16; terminated = false; on_termination = (fun () -> ()) }
  in
  Hashtbl.add t.states root { parent = None; deficit = 0 };
  t

let on_termination t f = t.on_termination <- f
let is_terminated t = t.terminated

let state t id =
  match Hashtbl.find_opt t.states id with
  | Some s -> s
  | None ->
    let s = { parent = None; deficit = 0 } in
    Hashtbl.add t.states id s;
    s

let send_work t sim ~src ~dst payload =
  (state t src).deficit <- (state t src).deficit + 1;
  Sim.send sim ~src ~dst (Work payload)

let try_disengage t sim id =
  let s = state t id in
  if s.deficit = 0 then
    if String.equal id t.root then begin
      if not t.terminated then begin
        t.terminated <- true;
        t.on_termination ()
      end
    end
    else
      match s.parent with
      | Some p ->
        s.parent <- None;
        (* the parent's own disengagement is triggered by receiving the ack *)
        Sim.send sim ~src:id ~dst:p Ack
      | None -> ()

(** Register a peer whose payload handler is [handler]. The handler receives
    a [send] function for emitting further work messages. *)
let add_peer t sim id ~handler =
  ignore (state t id);
  Sim.add_peer sim id (fun sim ~src msg ->
      match msg with
      | Ack ->
        let s = state t id in
        s.deficit <- s.deficit - 1;
        try_disengage t sim id
      | Work payload ->
        let s = state t id in
        (if not (String.equal id t.root) then
           match s.parent with
           | None -> s.parent <- Some src
           | Some _ -> Sim.send sim ~src:id ~dst:src Ack);
        handler ~send:(fun ~dst m -> send_work t sim ~src:id ~dst m) ~src payload;
        try_disengage t sim id)

(** Register the root: it injects the initial work and is told when the
    diffusing computation has terminated. The root's own handler may also
    process messages. *)
let add_root t sim ~handler =
  add_peer t sim t.root ~handler

let start t sim ~dst payload =
  t.terminated <- false;
  send_work t sim ~src:t.root ~dst payload
