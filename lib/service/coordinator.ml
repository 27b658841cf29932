(* Multi-tenant diagnosis coordinator; see the .mli for the model.

   A tenant caches everything derivable from its net once — the binarized
   net, the peer directory, and (lazily, for batch sessions) the unfolding
   rules and the [petriNet] base facts — so a session only pays for its own
   supervisor rules. Each tenant owns a pool of warm engines, cleared as
   they return to it; a session checks one out, streams alarms, and is
   stepped a quantum of deliveries at a time in round-robin with every
   other running session. All engine traffic runs
   through the {!Dqsq.Wire} codec with verification on, and the finished
   report is encoded as a configuration-set frame, whose length is billed
   to the session. *)

open Datalog
open Dqsq
open Diagnosis

let started_c = Obs.Metrics.counter "service.sessions_started"
let completed_c = Obs.Metrics.counter "service.sessions_completed"
let active_g = Obs.Metrics.gauge "service.active_sessions"
let pooled_g = Obs.Metrics.gauge "service.pooled_engines"
let latency_h = Obs.Metrics.histogram "service.session_latency_us"
let streams_c = Obs.Metrics.counter "service.streams_started"
let streams_restored_c = Obs.Metrics.counter "service.streams_restored"
let stream_alarm_h = Obs.Metrics.histogram "service.stream_alarm_latency_us"

type tenant = {
  t_name : string;
  net : Petri.Net.t;  (* binarized *)
  supervisor : string;
  placement : string list;  (* shard directory: net peers + the supervisor *)
  batch : (Dprogram.t * Datom.t list) Lazy.t;
      (* the unfolding rules and [petriNet] facts: batch sessions only,
         built on the first batch start *)
  mutable pool : Qsq_engine.t list;  (* warm, quiescent engines *)
}

type report = {
  session : int;
  tenant : string;
  explanations : int;
  body : string;
  deliveries : int;
  wire_bytes : int;
  latency_s : float;
}

type running = {
  engine : Qsq_engine.t;
  started_at : float;
  bytes0 : int;  (* engine-registry sim.bytes at session start *)
  mutable deliveries : int;
}

(* A streaming session holds an incremental [Online] engine instead of a
   dQSQ engine: every alarm is explained on arrival (O(delta) frontier
   extension), and [report] is a read of the live diagnosis pushed through
   the same codec framing as the batch path. *)
type stream = {
  online : Online.t;
  s_opened_at : float;
  mutable s_reports : int;
  mutable s_wire_bytes : int;  (* report frames emitted so far *)
  mutable s_peak_live : int;
  mutable s_last_latency : float;  (* last per-alarm observe wall time *)
}

type phase =
  | Open
  | Running of running
  | Done of report
  | Streaming of stream
  | Failed of string

type session = {
  id : int;
  s_tenant : tenant;
  mutable alarms_rev : (string * string) list;
  mutable phase : phase;
}

type t = {
  quantum : int;
  stream_max_states : int option;  (* per-stream Online state budget *)
  tenants : (string, tenant) Hashtbl.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_id : int;
  mutable started : int;
  mutable completed : int;
}

type stats = {
  tenants_count : int;
  active : int;
  running : int;
  streaming : int;
  pooled : int;
  started : int;
  completed : int;
  wire_symbols : int;
  wire_terms : int;
}

type stream_info = {
  si_alarms : int;
  si_reports : int;
  si_live_states : int;
  si_peak_live_states : int;
  si_gc_reclaimed : int;
  si_wire_bytes : int;
  si_last_latency_s : float;
}

let create ?(quantum = 16) ?stream_max_states () =
  if quantum < 1 then invalid_arg "Coordinator.create: quantum must be >= 1";
  (match stream_max_states with
  | Some n when n < 1 -> invalid_arg "Coordinator.create: stream_max_states must be >= 1"
  | _ -> ());
  {
    quantum;
    stream_max_states;
    tenants = Hashtbl.create 8;
    sessions = Hashtbl.create 32;
    next_id = 1;
    started = 0;
    completed = 0;
  }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let errorf fmt = Printf.ksprintf (fun m -> Error m) fmt

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> Ok tn
  | None -> errorf "unknown tenant %s" name

let session t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> Ok s
  | None -> errorf "unknown session %d" sid

let add_tenant t ~name net =
  if Hashtbl.mem t.tenants name then errorf "tenant %s already exists" name
  else
    let net = if Petri.Net.is_binary net then net else Petri.Net.binarize net in
    let supervisor = "supervisor" in
    if List.mem supervisor (Petri.Net.peers net) then
      errorf "tenant %s: a net peer is named %S" name supervisor
    else begin
      let tn =
        {
          t_name = name;
          net;
          supervisor;
          placement = Petri.Net.peers net @ [ supervisor ];
          batch = lazy (Encode.unfolding_program net, Encode.petri_net_facts net);
          pool = [];
        }
      in
      Hashtbl.add t.tenants name tn;
      Ok tn.placement
    end

let tenant_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.tenants [] |> List.sort compare

let open_session t ~tenant:name =
  let* tn = tenant t name in
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.add t.sessions id { id; s_tenant = tn; alarms_rev = []; phase = Open };
  Obs.Metrics.add_gauge active_g 1;
  Ok id

let open_stream ?max_states t ~tenant:name =
  let* tn = tenant t name in
  (match max_states with
  | Some n when n < 1 -> errorf "stream max_states must be >= 1"
  | _ ->
    let budget =
      match max_states with Some _ as m -> m | None -> t.stream_max_states
    in
    let id = t.next_id in
    t.next_id <- id + 1;
    let online =
      match budget with
      | Some max_states -> Online.start ~max_states tn.net
      | None -> Online.start tn.net
    in
    let stream =
      {
        online;
        s_opened_at = Obs.Clock.now_s ();
        s_reports = 0;
        s_wire_bytes = 0;
        s_peak_live = Online.live_states online;
        s_last_latency = 0.;
      }
    in
    Hashtbl.add t.sessions id
      { id; s_tenant = tn; alarms_rev = []; phase = Streaming stream };
    Obs.Metrics.add_gauge active_g 1;
    Obs.Metrics.incr streams_c;
    Ok id)

let add_alarm t sid ~symbol ~peer =
  let* s = session t sid in
  match s.phase with
  | Open ->
    if List.mem peer (Petri.Net.peers s.s_tenant.net) then begin
      s.alarms_rev <- (symbol, peer) :: s.alarms_rev;
      Ok ()
    end
    else errorf "session %d: tenant %s has no peer %s" sid s.s_tenant.t_name peer
  | Streaming st ->
    if List.mem peer (Petri.Net.peers s.s_tenant.net) then begin
      let t0 = Obs.Clock.now_s () in
      match Online.observe st.online (symbol, peer) with
      | () ->
        st.s_last_latency <- Obs.Clock.now_s () -. t0;
        Obs.Metrics.observe stream_alarm_h (st.s_last_latency *. 1e6);
        if Online.live_states st.online > st.s_peak_live then
          st.s_peak_live <- Online.live_states st.online;
        Ok ()
      | exception Online.State_budget_exceeded { states; alarms_consumed } ->
        (* degrade, don't crash: the stream is marked failed and its live
           tables are released; the coordinator and every other session
           keep going *)
        Online.release st.online;
        s.phase <-
          Failed
            (Printf.sprintf "state budget exceeded (%d states after %d alarms)"
               states alarms_consumed);
        errorf "session %d failed: state budget exceeded (%d states after %d alarms)"
          sid states alarms_consumed
    end
    else errorf "session %d: tenant %s has no peer %s" sid s.s_tenant.t_name peer
  | Failed m -> errorf "session %d failed: %s" sid m
  | Running _ | Done _ -> errorf "session %d already started" sid

let engine_bytes engine =
  Obs.Metrics.counter_value ~registry:(Qsq_engine.metrics engine) "sim.bytes"

(* Mirror of [Diagnoser.prepare], with the net-derived parts served from
   the tenant cache: only the supervisor side is built per session. *)
let prepare_session tn alarms =
  let unfolding, net_facts = Lazy.force tn.batch in
  let sup =
    Supervisor.build ~supervisor:tn.supervisor
      ~place_peers:(Petri.Net.peers tn.net) alarms
  in
  ( Dprogram.append unfolding sup.Supervisor.program,
    net_facts @ sup.Supervisor.facts,
    sup.Supervisor.query )

let start (t : t) sid =
  let* s = session t sid in
  match s.phase with
  | Running _ | Done _ -> errorf "session %d already started" sid
  | Streaming _ -> errorf "session %d is a stream" sid
  | Failed m -> errorf "session %d failed: %s" sid m
  | Open ->
    (match
       let tn = s.s_tenant in
       let alarms = Petri.Alarm.make (List.rev s.alarms_rev) in
       let program, edb, query = prepare_session tn alarms in
       let engine =
         match tn.pool with
         | e :: rest ->
           tn.pool <- rest;
           Obs.Metrics.add_gauge pooled_g (-1);
           Qsq_engine.recycle e program ~edb ~query;
           e
         | [] -> Qsq_engine.create ~seed:s.id ~wire_verify:true program ~edb ~query
       in
       Qsq_engine.start engine;
       s.phase <-
         Running
           {
             engine;
             started_at = Obs.Clock.now_s ();
             bytes0 = engine_bytes engine;
             deliveries = 0;
           };
       t.started <- t.started + 1;
       Obs.Metrics.incr started_c
     with
    | () -> Ok ()
    | exception Invalid_argument m -> errorf "session %d: %s" sid m)

(* The report frame the client would receive: its bytes are billed to the
   session. Decoding it would give back physically the same terms (the
   [codec-roundtrip] fuzz property checks that), so the body is rendered
   from [diagnosis] directly. *)
let report_frame diagnosis =
  Wire.encode_configs (Wire.encoder ()) (List.map Term.Set.elements diagnosis)

(* At quiescence: collect the answers, encode the report frame, render. *)
let finalize (t : t) (s : session) (r : running) =
  let out = Qsq_engine.finish ~deliveries:r.deliveries r.engine in
  let diagnosis = Supervisor.diagnosis_of_answers out.Qsq_engine.answers in
  let frame = report_frame diagnosis in
  let body = Report.to_string s.s_tenant.net diagnosis in
  let latency_s = Obs.Clock.now_s () -. r.started_at in
  let wire_bytes = engine_bytes r.engine - r.bytes0 + String.length frame in
  Obs.Metrics.observe latency_h (latency_s *. 1e6);
  Qsq_engine.release r.engine;
  s.s_tenant.pool <- r.engine :: s.s_tenant.pool;
  Obs.Metrics.add_gauge pooled_g 1;
  t.completed <- t.completed + 1;
  Obs.Metrics.incr completed_c;
  s.phase <-
    Done
      {
        session = s.id;
        tenant = s.s_tenant.t_name;
        explanations = List.length diagnosis;
        body;
        deliveries = r.deliveries;
        wire_bytes;
        latency_s;
      }

let step_session t (s : session) =
  match s.phase with
  | Open | Done _ | Streaming _ | Failed _ -> ()
  | Running r ->
    let budget = ref t.quantum in
    while !budget > 0 && Qsq_engine.step r.engine do
      r.deliveries <- r.deliveries + 1;
      decr budget
    done;
    if Qsq_engine.is_quiescent r.engine then finalize t s r

let running_sessions t =
  Hashtbl.fold
    (fun id s acc -> match s.phase with Running _ -> (id, s) :: acc | _ -> acc)
    t.sessions []
  |> List.sort compare

let step_round t =
  match running_sessions t with
  | [] -> false
  | rs ->
    List.iter (fun (_, s) -> step_session t s) rs;
    true

let is_done t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some { phase = Done _; _ } -> true
  | _ -> false

let drive ?only t =
  match only with
  | None ->
    while step_round t do () done;
    Ok ()
  | Some sid ->
    let* s = session t sid in
    (match s.phase with
    | Open -> errorf "session %d not started" sid
    | Streaming _ -> errorf "session %d is a stream" sid
    | Failed m -> errorf "session %d failed: %s" sid m
    | Done _ -> Ok ()
    | Running _ ->
      while not (is_done t sid) && step_round t do () done;
      if is_done t sid then Ok ()
      else errorf "session %d stalled" sid)

(* Streaming report: read the live diagnosis (already saturated — O(live)
   rather than O(work)), encode the same report frame as the batch path,
   and render. The session stays open for more alarms. *)
let stream_report (s : session) (st : stream) =
  let diagnosis = Online.diagnosis st.online in
  let frame = report_frame diagnosis in
  let body = Report.to_string s.s_tenant.net diagnosis in
  st.s_reports <- st.s_reports + 1;
  st.s_wire_bytes <- st.s_wire_bytes + String.length frame;
  {
    session = s.id;
    tenant = s.s_tenant.t_name;
    explanations = List.length diagnosis;
    body;
    deliveries = Online.alarms_consumed st.online;
    wire_bytes = st.s_wire_bytes;
    latency_s = Obs.Clock.now_s () -. st.s_opened_at;
  }

let report t sid =
  let* s = session t sid in
  match s.phase with
  | Done r -> Ok r
  | Streaming st -> Ok (stream_report s st)
  | Failed m -> errorf "session %d failed: %s" sid m
  | Open -> errorf "session %d not started" sid
  | Running _ -> errorf "session %d still running" sid

let stream_info t sid =
  let* s = session t sid in
  match s.phase with
  | Streaming st ->
    Ok
      {
        si_alarms = Online.alarms_consumed st.online;
        si_reports = st.s_reports;
        si_live_states = Online.live_states st.online;
        si_peak_live_states = st.s_peak_live;
        si_gc_reclaimed = Online.gc_reclaimed st.online;
        si_wire_bytes = st.s_wire_bytes;
        si_last_latency_s = st.s_last_latency;
      }
  | Failed m -> errorf "session %d failed: %s" sid m
  | Open | Running _ | Done _ -> errorf "session %d is not a stream" sid

(* Freeze a streaming session: its metadata plus the engine's own
   checkpoint frame. The stream keeps running — a checkpoint is a read. *)
let checkpoint_stream t sid =
  let* s = session t sid in
  match s.phase with
  | Streaming st ->
    Ok
      {
        Snapshot.tenant = s.s_tenant.t_name;
        session = s.id;
        alarms = Online.alarms_consumed st.online;
        reports = st.s_reports;
        wire_bytes = st.s_wire_bytes;
        peak_live = st.s_peak_live;
        engine = Online.checkpoint st.online;
      }
  | Failed m -> errorf "session %d failed: %s" sid m
  | Open | Running _ | Done _ -> errorf "session %d is not a stream" sid

(* Thaw an image into a fresh streaming session — on this coordinator or
   any other holding the same tenant net (migration), or after a process
   restart (recovery). Session ids are coordinator-local, so the restored
   stream gets a new one; the engine carries its own state budget. *)
let restore_stream t (img : Snapshot.stream_image) =
  let* tn = tenant t img.Snapshot.tenant in
  match Online.restore tn.net img.Snapshot.engine with
  | online ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let stream =
      {
        online;
        s_opened_at = Obs.Clock.now_s ();
        s_reports = img.Snapshot.reports;
        s_wire_bytes = img.Snapshot.wire_bytes;
        s_peak_live = max img.Snapshot.peak_live (Online.live_states online);
        s_last_latency = 0.;
      }
    in
    Hashtbl.add t.sessions id
      { id; s_tenant = tn; alarms_rev = []; phase = Streaming stream };
    Obs.Metrics.add_gauge active_g 1;
    Obs.Metrics.incr streams_restored_c;
    Ok id
  | exception Wire.Corrupt m -> errorf "corrupt snapshot: %s" m

let streaming_sessions t =
  Hashtbl.fold
    (fun id s acc -> match s.phase with Streaming _ -> id :: acc | _ -> acc)
    t.sessions []
  |> List.sort compare

let close t sid =
  let* s = session t sid in
  match s.phase with
  | Running _ -> errorf "session %d still running" sid
  | Streaming st ->
    Online.release st.online;
    Hashtbl.remove t.sessions sid;
    Obs.Metrics.add_gauge active_g (-1);
    Ok ()
  | Open | Done _ | Failed _ ->
    Hashtbl.remove t.sessions sid;
    Obs.Metrics.add_gauge active_g (-1);
    Ok ()

let stats (t : t) =
  let active = Hashtbl.length t.sessions in
  let running = List.length (running_sessions t) in
  let streaming =
    Hashtbl.fold
      (fun _ s acc -> match s.phase with Streaming _ -> acc + 1 | _ -> acc)
      t.sessions 0
  in
  let pooled =
    Hashtbl.fold (fun _ tn acc -> acc + List.length tn.pool) t.tenants 0
  in
  (* the channel tables of live engines: pooled and running ones (a done
     session's engine is back in its pool). One-frame codecs — reports,
     checkpoints, restores — die with their frame and are not counted. *)
  let add_tables (ns, nt) e =
    let s, t = Qsq_engine.wire_tables e in
    (ns + s, nt + t)
  in
  let wire_symbols, wire_terms =
    Hashtbl.fold
      (fun _ s acc -> match s.phase with Running r -> add_tables acc r.engine | _ -> acc)
      t.sessions
      (Hashtbl.fold (fun _ tn acc -> List.fold_left add_tables acc tn.pool) t.tenants (0, 0))
  in
  {
    tenants_count = Hashtbl.length t.tenants;
    active;
    running;
    streaming;
    pooled;
    started = t.started;
    completed = t.completed;
    wire_symbols;
    wire_terms;
  }
