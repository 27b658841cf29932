(** Deterministic simulator of an asynchronous peer-to-peer network.

    The paper's peers are "autonomous and distributed" and communicate
    asynchronously; the only ordering guarantee the diagnosis setting relies
    on is per-channel FIFO (a peer's alarms reach the supervisor in emission
    order, but streams from different peers interleave arbitrarily). The
    simulator models exactly that: one FIFO queue per (source, destination)
    pair, and a seeded scheduler that picks which nonempty channel delivers
    next. With the same seed and policy, runs are reproducible.

    Peers are registered with a message handler; a handler may send further
    messages (and do arbitrary local work). The network is quiescent when
    every channel is empty; [run] drives the simulation there and returns
    delivery statistics.

    A channel carries frames, not values: the channel's encoder turns a
    message into a string at [send], and its decoder turns the string back
    into a value at delivery, so a receiver never shares the sender's
    value. Byte accounting is the length of the frames.

    The instance keeps one set of books: each channel counts its messages
    and frame bytes, and the instance counts deliveries and drops; the
    {!stats} record sums them. Every update is mirrored into the
    process-wide default registry ([sim.sent], [sim.delivered],
    [sim.dropped], [sim.bytes]), so CLI snapshots see network totals
    without holding the instance. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order, passing over empty ones *)
  | Global_fifo  (** deliver strictly in send order (a synchronous-ish run) *)

(* Process-wide mirrors, registered eagerly so snapshots always carry the
   sim.* keys even before any network is created. *)
let g_sent = Obs.Metrics.counter "sim.sent"
let g_delivered = Obs.Metrics.counter "sim.delivered"
let g_dropped = Obs.Metrics.counter "sim.dropped"
let g_bytes = Obs.Metrics.counter "sim.bytes"

(* One directed channel: its frames in send order, the codec pair the
   channel maker built for it, and its message and byte book. [encode] and
   the book are only touched by sends from [src], [decode] only by
   deliveries to [dst]; under {!run_parallel} the activations of one peer
   never overlap, so neither half needs a lock. The global mirror counter
   is cached here so a send pays no per-name registry probe. *)
type 'msg channel = {
  src : peer_id;
  dst : peer_id;
  frames : string Queue.t;  (* both schedulers deliver from it *)
  encode : 'msg -> string;
  decode : string -> 'msg;
  mutable ch_msgs : int;
  mutable ch_bytes : int;
  bytes_g : Obs.Metrics.counter;  (* sim.channel_bytes.<src>-><dst> *)
}

(* The state of a {!run_parallel} run. One mutex guards everything its
   workers share: the channel table and queues, the trace, the loss rng,
   [busy], the delivery count and the first error. *)
type parallel = {
  mu : Mutex.t;
  cond : Condition.t;  (* a frame was queued, a handler returned, or the run ended *)
  busy : (peer_id, unit) Hashtbl.t;  (* peers whose handler is running *)
  mutable deliveries : int;
  budget : int;
  mutable error : exn option;  (* first handler exception, or the budget *)
}

type 'msg t = {
  rng : Random.State.t;
  loss_rng : Random.State.t;
  loss : float;  (* probability that a sent message is silently dropped *)
  policy : policy;
  codec : src:peer_id -> dst:peer_id -> ('msg -> string) * (string -> 'msg);
      (** builds a new channel's encoder and decoder *)
  handlers : (peer_id, 'msg t -> src:peer_id -> 'msg -> unit) Hashtbl.t;
  channels : (peer_id * peer_id, 'msg channel) Hashtbl.t;
  (* channels in creation order, as a growable array: registering the N-th
     channel is O(1) amortized (the former list-append made it O(N)) *)
  mutable channel_order : 'msg channel array;
  mutable channel_count : int;
  mutable rr_cursor : int;  (* [Round_robin]: index of the channel last served *)
  pending : 'msg channel Queue.t;
      (** channels in message send order, kept under [Global_fifo] only *)
  delivered : int Atomic.t;  (* {!run_parallel} workers count both *)
  dropped : int Atomic.t;  (* outside the lock *)
  mutable trace : (peer_id * peer_id * string) list;  (** reverse delivery log *)
  mutable tracing : bool;
  describe : 'msg -> string;
  mutable par : parallel option;
      (** [Some _] only while {!run_parallel} is driving the network *)
}

let create ?(seed = 0) ?(policy = Random_interleaving) ?(loss = 0.0) ~codec
    ?(describe = fun _ -> "<msg>") () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Sim.create: loss must be in [0, 1)";
  {
    rng = Random.State.make [| seed |];
    loss_rng = Random.State.make [| seed + 7919 |];
    loss;
    policy;
    codec;
    handlers = Hashtbl.create 16;
    channels = Hashtbl.create 16;
    channel_order = [||];
    channel_count = 0;
    rr_cursor = -1;
    pending = Queue.create ();
    delivered = Atomic.make 0;
    dropped = Atomic.make 0;
    trace = [];
    tracing = false;
    describe;
    par = None;
  }

let set_tracing t b = t.tracing <- b

exception Unknown_peer of peer_id

let add_peer t id handler =
  if Hashtbl.mem t.handlers id then invalid_arg ("Sim.add_peer: duplicate " ^ id);
  Hashtbl.add t.handlers id handler

let has_peer t id = Hashtbl.mem t.handlers id

let push_channel t ch =
  let n = Array.length t.channel_order in
  if t.channel_count = n then begin
    let grown = Array.make (max 8 (2 * n)) ch in
    Array.blit t.channel_order 0 grown 0 n;
    t.channel_order <- grown
  end;
  t.channel_order.(t.channel_count) <- ch;
  t.channel_count <- t.channel_count + 1

(* Find or open the channel [src -> dst]; opening one builds its codec. *)
let channel t src dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some ch -> ch
  | None ->
    let encode, decode = t.codec ~src ~dst in
    let ch =
      { src; dst; frames = Queue.create (); encode; decode; ch_msgs = 0; ch_bytes = 0;
        bytes_g = Obs.Metrics.counter (Printf.sprintf "sim.channel_bytes.%s->%s" src dst) }
    in
    Hashtbl.add t.channels (src, dst) ch;
    push_channel t ch;
    ch

(* Frame [msg] with the channel's encoder and book it. *)
let encode ch msg =
  let frame = ch.encode msg in
  let n = String.length frame in
  ch.ch_msgs <- ch.ch_msgs + 1;
  ch.ch_bytes <- ch.ch_bytes + n;
  Obs.Metrics.incr ~by:n ch.bytes_g;
  Obs.Metrics.incr g_sent;
  Obs.Metrics.incr ~by:n g_bytes;
  frame

let drop t =
  Atomic.incr t.dropped;
  Obs.Metrics.incr g_dropped;
  Obs.Metrics.incr g_sent

let lost t = t.loss > 0.0 && Random.State.float t.loss_rng 1.0 < t.loss

(** Send a message; it is framed and queued, not delivered synchronously —
    even a peer sending to itself goes through its own channel. *)
let send t ~src ~dst msg =
  if not (Hashtbl.mem t.handlers dst) then raise (Unknown_peer dst);
  match t.par with
  | None ->
    (* failure injection: the channel silently loses the message *)
    if lost t then drop t
    else begin
      let ch = channel t src dst in
      Queue.add (encode ch msg) ch.frames;
      (* only [Global_fifo] ever pops the send order *)
      if t.policy = Global_fifo then Queue.add ch t.pending
    end
  | Some p -> (
    (* The loss draw and the channel lookup take the lock; the encode does
       not, since it runs in the source's activation, which [busy] makes
       exclusive: a channel's frames are still encoded in send order. Drop
       decisions follow arrival order at the rng, so lossy parallel runs are
       not reproducible; deterministic replay stays with the sequential
       scheduler. *)
    let kept () = if lost t then None else Some (channel t src dst) in
    match Mutex.protect p.mu kept with
    | None -> drop t
    | Some ch ->
      let frame = encode ch msg in
      Mutex.protect p.mu (fun () ->
          Queue.add frame ch.frames;
          Condition.signal p.cond))

let nonempty_channels t =
  let out = ref [] in
  for i = t.channel_count - 1 downto 0 do
    let ch = t.channel_order.(i) in
    if not (Queue.is_empty ch.frames) then out := ch :: !out
  done;
  !out

let is_quiescent t = nonempty_channels t = []

let pick_channel t =
  match t.policy with
  | Global_fifo ->
    (* skip stale entries whose channel head was already delivered *)
    let rec go () =
      if Queue.is_empty t.pending then None
      else
        let ch = Queue.pop t.pending in
        if Queue.is_empty ch.frames then go () else Some ch
    in
    go ()
  | Random_interleaving -> (
    match nonempty_channels t with
    | [] -> None
    | chans -> Some (List.nth chans (Random.State.int t.rng (List.length chans))))
  | Round_robin ->
    (* the first nonempty channel after the last one served *)
    let n = t.channel_count in
    let rec go k =
      if k > n then None
      else
        let i = (t.rr_cursor + k) mod n in
        if Queue.is_empty t.channel_order.(i).frames then go (k + 1)
        else begin
          t.rr_cursor <- i;
          Some t.channel_order.(i)
        end
    in
    go 1

(* Decode a frame at its destination and account the delivery. *)
let receive t ch frame =
  let msg = ch.decode frame in
  Atomic.incr t.delivered;
  Obs.Metrics.incr g_delivered;
  msg

(** Deliver one message if any is pending; returns [false] at quiescence. *)
let step t =
  match pick_channel t with
  | None -> false
  | Some ch ->
    let msg = receive t ch (Queue.pop ch.frames) in
    if t.tracing then t.trace <- (ch.src, ch.dst, t.describe msg) :: t.trace;
    let handler = Hashtbl.find t.handlers ch.dst in
    handler t ~src:ch.src msg;
    true

exception Budget_exhausted of int

(** Run to quiescence. [max_steps] guards against protocols that never
    terminate. Returns the number of deliveries performed by this call. *)
let run ?(max_steps = 10_000_000) t =
  Obs.Trace.with_span "sim.run" @@ fun () ->
  let n = ref 0 in
  while step t do
    incr n;
    if !n > max_steps then raise (Budget_exhausted max_steps)
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Parallel run                                                        *)
(* ------------------------------------------------------------------ *)

(* Worker domains live as long as the process: [run_parallel] hands its
   workers to idle pool domains instead of spawning and joining fresh ones
   per run. A domain that exits orphans its weak arrays (the buckets of
   the hash-consing table in {!Datalog.Term} that it grew), and on OCaml
   5.1.1 runs that joined their workers corrupted the heap now and then
   (DESIGN.md §5c has the measurements). Workers that never exit orphan
   nothing. *)
let pool_mu = Mutex.create ()
let pool_cond = Condition.create ()
let pool_tasks : (unit -> unit) Queue.t = Queue.create ()
let pool_size = ref 0 (* domains spawned so far; guarded by pool_mu *)

let rec pool_serve () : unit =
  Mutex.lock pool_mu;
  while Queue.is_empty pool_tasks do
    Condition.wait pool_cond pool_mu
  done;
  let task = Queue.pop pool_tasks in
  Mutex.unlock pool_mu;
  task ();
  pool_serve ()

(* Run [tasks] (which must not raise) on pool domains, growing the pool to
   one domain per task; return once every task has. *)
let pool_run tasks =
  let left = ref (Array.length tasks) and all_done = Condition.create () in
  let finish () =
    Mutex.protect pool_mu (fun () ->
        decr left;
        if !left = 0 then Condition.signal all_done)
  in
  Mutex.protect pool_mu (fun () ->
      while !pool_size < Array.length tasks do
        ignore (Domain.spawn pool_serve : unit Domain.t);
        incr pool_size
      done;
      Array.iter (fun task -> Queue.add (fun () -> task (); finish ()) pool_tasks) tasks;
      Condition.broadcast pool_cond;
      while !left > 0 do
        Condition.wait all_done pool_mu
      done)

(* The first channel with a frame for an idle peer; under [p.mu]. *)
let deliverable t p =
  let rec go i =
    if i = t.channel_count then None
    else
      let ch = t.channel_order.(i) in
      if Queue.is_empty ch.frames || Hashtbl.mem p.busy ch.dst then go (i + 1) else Some ch
  in
  go 0

let fail p e =
  if Option.is_none p.error then p.error <- Some e;
  Condition.broadcast p.cond

(* Decode a frame and run its destination's handler, with no lock held. *)
let deliver t p ch frame =
  let msg = receive t ch frame in
  if t.tracing then
    Mutex.protect p.mu (fun () -> t.trace <- (ch.src, ch.dst, t.describe msg) :: t.trace);
  (Hashtbl.find t.handlers ch.dst) t ~src:ch.src msg

(* Take a frame for an idle peer, mark the peer busy and deliver; wait
   while every queued frame is for a busy peer. The network is quiescent
   when no frame is deliverable and no peer is busy: then every channel is
   empty, and only a handler could refill one. *)
let worker t p =
  Mutex.lock p.mu;
  let rec loop () =
    if Option.is_none p.error then
      match deliverable t p with
      | Some _ when p.deliveries >= p.budget -> fail p (Budget_exhausted p.budget)
      | Some ch ->
        let frame = Queue.pop ch.frames in
        Hashtbl.replace p.busy ch.dst ();
        p.deliveries <- p.deliveries + 1;
        Mutex.unlock p.mu;
        let raised = match deliver t p ch frame with () -> None | exception e -> Some e in
        Mutex.lock p.mu;
        Hashtbl.remove p.busy ch.dst;
        Option.iter (fail p) raised;
        Condition.broadcast p.cond;
        loop ()
      | None when Hashtbl.length p.busy = 0 -> Condition.broadcast p.cond
      | None ->
        Condition.wait p.cond p.mu;
        loop ()
  in
  loop ();
  Mutex.unlock p.mu

(** Run to quiescence with [jobs] worker domains, which deliver straight
    from the channel queues. Returns the number of deliveries performed by
    this call. Delivery order is whatever the domain scheduler produces —
    for confluent protocols (dQSQ) the final fact sets still match the
    sequential scheduler exactly. *)
let run_parallel ?(max_steps = 10_000_000) ?jobs t =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some j -> invalid_arg (Printf.sprintf "Sim.run_parallel: jobs = %d" j)
    | None -> Domain.recommended_domain_count ()
  in
  Obs.Trace.with_span "sim.run_parallel" ~attrs:[ ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let p =
    { mu = Mutex.create (); cond = Condition.create (); busy = Hashtbl.create 16;
      deliveries = 0; budget = max_steps; error = None }
  in
  (* workers pick channels, not the send order *)
  Queue.clear t.pending;
  t.par <- Some p;
  pool_run (Array.make jobs (fun () -> worker t p));
  t.par <- None;
  Option.iter raise p.error;
  p.deliveries

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel messages and frame bytes *)
}

(* The totals are sums over the channel books: a sent message is framed on
   its channel or dropped before it. *)
let stats (t : _ t) =
  let channels =
    List.sort compare
      (Hashtbl.fold
         (fun k ch acc -> (k, { msgs = ch.ch_msgs; bytes = ch.ch_bytes }) :: acc)
         t.channels [])
  in
  let sum f = List.fold_left (fun n (_, c) -> n + f c) 0 channels in
  let dropped = Atomic.get t.dropped in
  {
    sent = sum (fun c -> c.msgs) + dropped;
    delivered = Atomic.get t.delivered;
    dropped;
    bytes = sum (fun (c : channel_stats) -> c.bytes);
    channels;
  }

let delivery_trace t = List.rev t.trace
