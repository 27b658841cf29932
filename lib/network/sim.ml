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

    Accounting lives in an {!Obs.Metrics} registry owned by the instance
    ([sim.sent], [sim.delivered], [sim.dropped], [sim.bytes]); the {!stats}
    record is a thin view over it. Every update is mirrored into the
    process-wide default registry under the same names, so CLI snapshots
    see network totals without holding the instance. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order *)
  | Global_fifo  (** deliver strictly in send order (a synchronous-ish run) *)

(* Process-wide mirrors, registered eagerly so snapshots always carry the
   sim.* keys even before any network is created. *)
let g_sent = Obs.Metrics.counter "sim.sent"
let g_delivered = Obs.Metrics.counter "sim.delivered"
let g_dropped = Obs.Metrics.counter "sim.dropped"
let g_bytes = Obs.Metrics.counter "sim.bytes"
let g_domains = Obs.Metrics.gauge "sim.domains"
let g_mailbox_depth = Obs.Metrics.gauge "sim.mailbox_depth"
let g_batches = Obs.Metrics.counter "sim.batches"
let g_batch_size = Obs.Metrics.histogram "sim.batch_size"

(* One directed channel: its frames in send order, the codec pair the
   channel maker built for it, and its message and byte book. [encode] and
   the book are only touched by sends from [src], [decode] only by
   deliveries to [dst]; under {!run_parallel} the activations of one peer
   never overlap, so neither half needs a lock. The global mirror counter
   is cached here so a send pays no per-name registry probe. *)
type 'msg channel = {
  src : peer_id;
  dst : peer_id;
  frames : string Queue.t;  (* the sequential scheduler's queue *)
  encode : 'msg -> string;
  decode : string -> 'msg;
  mutable ch_msgs : int;
  mutable ch_bytes : int;
  bytes_g : Obs.Metrics.counter;  (* sim.channel_bytes.<src>-><dst> *)
}

(* ------------------------------------------------------------------ *)
(* Parallel scheduler state                                            *)
(* ------------------------------------------------------------------ *)

(* One box per PEER: a mutex-guarded frame queue plus a [scheduled]
   flag. The flag makes peer activations mutually exclusive — a box enters
   the run queue exactly once per nonempty episode, so at most one worker
   runs a given peer's handler at a time. Combined with the happens-before
   edges of the box mutex (locked by every enqueuer and by the draining
   worker), per-peer mutable state in the engines and in the
   Dijkstra–Scholten detector needs no locks of its own, even though any
   idle worker may take the next activation of any peer: a peer runs on at
   most one domain at a time, with ordered hand-offs. The same holds for
   each channel's encoder (run in the source's activations) and decoder
   (run in the destination's). *)
type 'msg peer_box = {
  pb_mu : Mutex.t;
  pb_q : ('msg channel * string) Queue.t;  (* (channel, frame) *)
  mutable pb_scheduled : bool;  (* guarded by pb_mu *)
  pb_handler : 'msg t -> src:peer_id -> 'msg -> unit;
}

and 'msg parallel = {
  boxes : (peer_id, 'msg peer_box) Hashtbl.t;
      (* read-only once domains are up *)
  sched_mu : Mutex.t;  (* guards runq *)
  sched_cond : Condition.t;
  runq : 'msg peer_box Queue.t;  (* runnable peers, shared by all workers *)
  in_flight : int Atomic.t;
      (* queued + currently-being-handled messages. Incremented BEFORE a
         message is enqueued and decremented only AFTER its handler
         returns — batch drains decrement once per drained segment, after
         the last handler of the segment — so a handler's own sends are
         counted before its unit is released: [in_flight = 0] is a stable
         quiescence signal. *)
  stop : bool Atomic.t;
  par_deliveries : int Atomic.t;
  par_budget : int;
  par_error : exn option Atomic.t;  (* first handler exception / budget *)
  book_mu : Mutex.t;  (* guards the channel table, trace and loss_rng *)
}

and 'msg t = {
  rng : Random.State.t;
  loss_rng : Random.State.t;
  loss : float;  (* probability that a sent message is silently dropped *)
  policy : policy;
  codec : unit -> ('msg -> string) * (string -> 'msg);
      (** builds a new channel's encoder and decoder *)
  handlers : (peer_id, 'msg t -> src:peer_id -> 'msg -> unit) Hashtbl.t;
  channels : (peer_id * peer_id, 'msg channel) Hashtbl.t;
  (* channels in creation order, as a growable array: registering the N-th
     channel is O(1) amortized (the former list-append made it O(N)) *)
  mutable channel_order : 'msg channel array;
  mutable channel_count : int;
  mutable rr_cursor : int;
  pending : 'msg channel Queue.t;
      (** channels in message send order, kept under [Global_fifo] only *)
  metrics : Obs.Metrics.registry;  (** per-instance accounting *)
  c_sent : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
  mutable trace : (peer_id * peer_id * string) list;  (** reverse delivery log *)
  mutable tracing : bool;
  describe : 'msg -> string;
  mutable par : 'msg parallel option;
      (** [Some _] only while {!run_parallel} is driving the network *)
}

let create ?(seed = 0) ?(policy = Random_interleaving) ?(loss = 0.0) ~codec
    ?(describe = fun _ -> "<msg>") () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Sim.create: loss must be in [0, 1)";
  let metrics = Obs.Metrics.create_registry () in
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
    rr_cursor = 0;
    pending = Queue.create ();
    metrics;
    c_sent = Obs.Metrics.counter ~registry:metrics "sim.sent";
    c_delivered = Obs.Metrics.counter ~registry:metrics "sim.delivered";
    c_dropped = Obs.Metrics.counter ~registry:metrics "sim.dropped";
    c_bytes = Obs.Metrics.counter ~registry:metrics "sim.bytes";
    trace = [];
    tracing = false;
    describe;
    par = None;
  }

let metrics t = t.metrics

let set_tracing t b = t.tracing <- b

exception Unknown_peer of peer_id

let add_peer t id handler =
  if Hashtbl.mem t.handlers id then invalid_arg ("Sim.add_peer: duplicate " ^ id);
  Hashtbl.add t.handlers id handler

let has_peer t id = Hashtbl.mem t.handlers id
let peers t = Hashtbl.fold (fun id _ acc -> id :: acc) t.handlers []

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
    let encode, decode = t.codec () in
    let ch =
      { src; dst; frames = Queue.create (); encode; decode; ch_msgs = 0; ch_bytes = 0;
        bytes_g = Obs.Metrics.counter (Printf.sprintf "sim.channel_bytes.%s->%s" src dst) }
    in
    Hashtbl.add t.channels (src, dst) ch;
    push_channel t ch;
    ch

let tick local global = Obs.Metrics.incr local; Obs.Metrics.incr global
let tick_by n local global = Obs.Metrics.incr ~by:n local; Obs.Metrics.incr ~by:n global

(* Frame [msg] with the channel's encoder and book it. *)
let encode t ch msg =
  let frame = ch.encode msg in
  let n = String.length frame in
  ch.ch_msgs <- ch.ch_msgs + 1;
  ch.ch_bytes <- ch.ch_bytes + n;
  Obs.Metrics.incr ~by:n ch.bytes_g;
  tick t.c_sent g_sent;
  tick_by n t.c_bytes g_bytes;
  frame

let drop t =
  tick t.c_dropped g_dropped;
  tick t.c_sent g_sent

(* A box that just became runnable joins the shared run queue and wakes
   one idle worker. *)
let schedule p b =
  Mutex.lock p.sched_mu;
  Queue.add b p.runq;
  Condition.signal p.sched_cond;
  Mutex.unlock p.sched_mu

(* Parallel route: the frame goes into the destination peer's box; if the
   box was idle it becomes runnable. in_flight is incremented before the
   enqueue (see the [parallel] type) so quiescence detection never
   under-counts. Only the channel lookup takes the book lock: the encode
   runs in the source's activation, which the scheduled flag serializes, so
   a channel's frames are encoded in send order whichever domain runs the
   source. *)
let send_parallel t p ~src ~dst msg =
  Mutex.lock p.book_mu;
  (* the loss rng is shared state; draws are serialized here. Drop
     decisions depend on arrival order at the rng, so lossy parallel runs
     are not reproducible — deterministic replay stays with the sequential
     scheduler. *)
  let lost = t.loss > 0.0 && Random.State.float t.loss_rng 1.0 < t.loss in
  let ch = if lost then None else Some (channel t src dst) in
  Mutex.unlock p.book_mu;
  match ch with
  | None -> drop t
  | Some ch ->
    let frame = encode t ch msg in
    let b = Hashtbl.find p.boxes dst in
    Atomic.incr p.in_flight;
    Mutex.lock b.pb_mu;
    Queue.add (ch, frame) b.pb_q;
    let depth = Queue.length b.pb_q in
    let newly_runnable = not b.pb_scheduled in
    if newly_runnable then b.pb_scheduled <- true;
    Mutex.unlock b.pb_mu;
    Obs.Metrics.set_max g_mailbox_depth depth;
    if newly_runnable then schedule p b

(** Send a message; it is framed and queued, not delivered synchronously —
    even a peer sending to itself goes through its own channel. *)
let send t ~src ~dst msg =
  if not (Hashtbl.mem t.handlers dst) then raise (Unknown_peer dst);
  match t.par with
  | Some p -> send_parallel t p ~src ~dst msg
  | None ->
    (* failure injection: the channel silently loses the message *)
    if t.loss > 0.0 && Random.State.float t.loss_rng 1.0 < t.loss then drop t
    else begin
      let ch = channel t src dst in
      Queue.add (encode t ch msg) ch.frames;
      (* only [Global_fifo] ever pops the send order *)
      if t.policy = Global_fifo then Queue.add ch t.pending
    end

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
  | Round_robin -> (
    match nonempty_channels t with
    | [] -> None
    | chans ->
      let n = List.length chans in
      t.rr_cursor <- (t.rr_cursor + 1) mod n;
      Some (List.nth chans t.rr_cursor))

(* Decode a frame at its destination and account the delivery. *)
let receive t ch frame =
  let msg = ch.decode frame in
  tick t.c_delivered g_delivered;
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

let record_error p e =
  (* first error wins; losers just see stop and drain out *)
  ignore (Atomic.compare_and_set p.par_error None (Some e))

let wake_all p =
  Mutex.lock p.sched_mu;
  Condition.broadcast p.sched_cond;
  Mutex.unlock p.sched_mu

let stop_all p =
  Atomic.set p.stop true;
  wake_all p

(* Claim the next runnable peer, blocking on the scheduler condition while
   none is runnable. Returns [None] on stop. *)
let take_box p =
  Mutex.protect p.sched_mu @@ fun () ->
  while (not (Atomic.get p.stop)) && Queue.is_empty p.runq do
    Condition.wait p.sched_cond p.sched_mu
  done;
  if Atomic.get p.stop then None else Some (Queue.pop p.runq)

(* Run one peer activation: drain the box's whole queue into a local
   segment under one lock acquisition, then deliver every message with no
   lock held. The segment's in_flight units are released together, after
   its last handler returned — handler sends increment in_flight before
   the release, so a transition to 0 still means every queue is empty and
   every handler has returned: stable quiescence, now at drained-segment
   granularity. Finally the box either reschedules itself (messages
   arrived while it ran) or goes idle; both arms hold pb_mu, so the
   hand-off to the next enqueuer is race-free. *)
let process_box t p b =
  let local = Queue.create () in
  Mutex.lock b.pb_mu;
  Obs.Metrics.set_max g_mailbox_depth (Queue.length b.pb_q);
  Queue.transfer b.pb_q local;
  Mutex.unlock b.pb_mu;
  let n = Queue.length local in
  if n > 0 then begin
    Obs.Metrics.incr g_batches;
    Obs.Metrics.observe_int g_batch_size n
  end;
  let handled = ref 0 in
  (try
     while (not (Queue.is_empty local)) && not (Atomic.get p.stop) do
       let ch, frame = Queue.pop local in
       incr handled;
       let msg = receive t ch frame in
       if t.tracing then begin
         Mutex.lock p.book_mu;
         t.trace <- (ch.src, ch.dst, t.describe msg) :: t.trace;
         Mutex.unlock p.book_mu
       end;
       b.pb_handler t ~src:ch.src msg;
       let delivered = 1 + Atomic.fetch_and_add p.par_deliveries 1 in
       if delivered > p.par_budget then begin
         record_error p (Budget_exhausted p.par_budget);
         stop_all p
       end
     done
   with e ->
     record_error p e;
     stop_all p);
  (* stop with undelivered messages only happens on error/budget, where
     dropping in-flight work is intended (the exception is re-raised by
     [run_parallel]); the quiescence count only releases what ran. *)
  if !handled > 0 && Atomic.fetch_and_add p.in_flight (- !handled) = !handled then
    stop_all p;
  Mutex.lock b.pb_mu;
  if Queue.is_empty b.pb_q then begin
    b.pb_scheduled <- false;
    Mutex.unlock b.pb_mu
  end
  else begin
    Mutex.unlock b.pb_mu;
    schedule p b
  end

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

let worker t p =
  let rec loop () =
    match take_box p with
    | None -> ()
    | Some b ->
      process_box t p b;
      loop ()
  in
  loop ()

(** Run to quiescence with [jobs] worker domains. Each peer has its own
    box; runnable boxes wait in one shared run queue, and any idle worker
    takes the next. Returns the number of deliveries performed by this
    call. Delivery order is whatever the domain scheduler produces — for
    confluent protocols (dQSQ) the final fact sets still match the
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
  let boxes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id handler ->
      Hashtbl.add boxes id
        { pb_mu = Mutex.create (); pb_q = Queue.create (); pb_scheduled = false;
          pb_handler = handler })
    t.handlers;
  let p =
    {
      boxes;
      sched_mu = Mutex.create ();
      sched_cond = Condition.create ();
      runq = Queue.create ();
      in_flight = Atomic.make 0;
      stop = Atomic.make false;
      par_deliveries = Atomic.make 0;
      par_budget = max_steps;
      par_error = Atomic.make None;
      book_mu = Mutex.create ();
    }
  in
  (* Migrate frames already queued under the sequential scheduler (e.g.
     the initial query injected before [run_parallel]) into the peer
     boxes. Iterating channels in creation order preserves per-channel
     FIFO. Domains are not up yet, so no locking is needed here. *)
  for i = 0 to t.channel_count - 1 do
    let ch = t.channel_order.(i) in
    let b = Hashtbl.find boxes ch.dst in
    while not (Queue.is_empty ch.frames) do
      Atomic.incr p.in_flight;
      Queue.add (ch, Queue.pop ch.frames) b.pb_q
    done;
    if (not (Queue.is_empty b.pb_q)) && not b.pb_scheduled then begin
      b.pb_scheduled <- true;
      Queue.add b p.runq
    end
  done;
  Queue.clear t.pending;
  if Atomic.get p.in_flight = 0 then Atomic.set p.stop true;
  t.par <- Some p;
  Obs.Metrics.set g_domains jobs;
  pool_run
    (Array.init jobs (fun _ () ->
         try worker t p
         with e ->
           record_error p e;
           stop_all p));
  t.par <- None;
  (match Atomic.get p.par_error with Some e -> raise e | None -> ());
  Atomic.get p.par_deliveries

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel messages and frame bytes *)
}

(* The record is read off the instance registry — the registry is the
   source of truth, [stats] only a view. *)
let stats (t : _ t) =
  {
    sent = Obs.Metrics.value t.c_sent;
    delivered = Obs.Metrics.value t.c_delivered;
    dropped = Obs.Metrics.value t.c_dropped;
    bytes = Obs.Metrics.value t.c_bytes;
    channels =
      List.sort compare
        (Hashtbl.fold
           (fun k ch acc -> (k, { msgs = ch.ch_msgs; bytes = ch.ch_bytes }) :: acc)
           t.channels []);
  }

let delivery_trace t = List.rev t.trace
