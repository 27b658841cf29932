(* The four workloads. Each one generates its inputs and oracles from the
   seed (untimed), then hands back a set-up thunk; set-up returns an
   instance whose [run] drives closed-loop ops until a deadline, in whole
   episodes ({!Measure.episodes}), through the layers' public functions
   only. *)

open Diagnosis
module C = Service.Coordinator
module M = Measure

type instance = {
  run : M.recorder -> deadline:float -> unit;
  decompose : unit -> (string * float) list;
      (** traced runs only: times the layers hidden behind one public call,
          as shares of that call *)
}

type t = {
  name : string;
  make : smoke:bool -> seed:int -> scratch:string -> unit -> instance;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let ring peers = Petri.Net.binarize (Petri.Examples.ring ~peers ())

(* Every distinct observation of exactly [k] firings from the initial
   marking, one per class of per-peer alarm words, in DFS order. Taking
   the whole class set (rather than a seeded sample of it) keeps the work
   of a run the same for every seed; the seed still picks the interleaving
   the supervisor receives, the dQSQ delivery schedule and the order. *)
let observations net k =
  let seen = Hashtbl.create 64 and out = ref [] in
  let rec go marking depth firing =
    if depth = k then begin
      let alarms = Petri.Exec.alarms_of_execution net (List.rev firing) in
      let key = Petri.Alarm.split (Petri.Alarm.make alarms) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := alarms :: !out
      end
    end
    else
      List.iter
        (fun t -> go (Petri.Exec.fire net marking t) (depth + 1) (t :: firing))
        (Petri.Exec.enabled net marking)
  in
  go (Petri.Exec.initial net) 0 [];
  List.rev !out

let time f =
  let t0 = M.now () in
  let v = f () in
  (M.now () -. t0, v)

let shares parts =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
  List.map (fun (n, v) -> (n, M.ratio v total)) parts

let configs_roundtrip diagnosis =
  let frame =
    Dqsq.Wire.encode_configs (Dqsq.Wire.encoder ()) (List.map Datalog.Term.Set.elements diagnosis)
  in
  List.map Datalog.Term.Set.of_list (Dqsq.Wire.decode_configs (Dqsq.Wire.decoder ()) frame)

(* ------------------------------------------------------------------ *)
(* diagnose: the paper's computation on the library path               *)
(* ------------------------------------------------------------------ *)

type scenario = {
  peers : int;
  alarms : Petri.Alarm.t;
  dseed : int;  (** the dQSQ delivery schedule *)
  expected : Canon.diagnosis;
}

let diagnose =
  let make ~smoke ~seed ~scratch:_ =
    let rng = Random.State.make [| seed |] in
    let shapes = if smoke then [ (3, 2); (4, 2) ] else [ (3, 5); (4, 4) ] in
    let scenarios =
      Array.of_list
        (List.concat_map
           (fun (peers, k) ->
             let net = ring peers in
             List.map
               (fun obs ->
                 let alarms = Petri.Alarm.make (Petri.Exec.async_shuffle ~rng obs) in
                 { peers; alarms; dseed = Random.State.bits rng;
                   expected = (Product.diagnose net alarms).Product.diagnosis })
               (observations net k))
           shapes)
    in
    shuffle rng scenarios;
    fun () ->
      let nets = List.map (fun (peers, _) -> (peers, ring peers)) shapes in
      (* one op: the scenario through centralized QSQ, then sequential dQSQ *)
      let op r sc =
        let net = List.assoc sc.peers nets in
        ignore (M.begin_op r);
        let t0 = M.now () in
        let results =
          List.map
            (fun engine ->
              match
                let p = M.call r "Diagnoser.prepare" (fun () -> Diagnoser.prepare net sc.alarms) in
                M.call r "Diagnoser.run" (fun () -> Diagnoser.run p engine)
              with
              | res -> Some res
              | exception _ -> None)
            [ Diagnoser.Centralized_qsq;
              Diagnoser.Distributed { seed = sc.dseed; policy = Network.Sim.Random_interleaving } ]
        in
        let dt = M.now () -. t0 in
        let ok =
          List.for_all
            (function
              | Some res -> Canon.equal_diagnosis res.Diagnoser.diagnosis sc.expected
              | None -> false)
            results
        in
        List.iter
          (function
            | Some { Diagnoser.comm = Some c; _ } -> r.M.io_bytes <- r.M.io_bytes + c.Diagnoser.bytes
            | _ -> ())
          results;
        M.end_op r ~ok dt
      in
      let warm = M.recorder "warm-up" in
      List.iter
        (fun (peers, _) ->
          match Array.find_opt (fun sc -> sc.peers = peers) scenarios with
          | Some sc -> op warm sc
          | None -> ())
        shapes;
      { run = (fun r ~deadline -> M.episodes r ~deadline (fun () -> Array.iter (op r) scenarios));
        decompose = (fun () -> []) }
  in
  { name = "diagnose"; make }

(* ------------------------------------------------------------------ *)
(* service-batch: many small interleaved sessions on one coordinator   *)
(* ------------------------------------------------------------------ *)

type job = { tenant : string; net : Petri.Net.t; job_alarms : (string * string) list; body : string }

type client = { sid : int; job : job; op : int; t_open : float }

let clients = 8

(* The E20 orders of the running example's three alarms. *)
let running_orders =
  [ [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
    [ ("b", "p1"); ("c", "p1"); ("a", "p2") ];
    [ ("c", "p1"); ("b", "p1"); ("a", "p2") ] ]

let ( let* ) = Result.bind

(* [clients] closed-loop clients, each running one whole session at a time
   over the shared coordinator: open, alarms, start, then wait for the
   round-robin to finish it, report, close, and open the next. Jobs come
   from the pool in order, cycling; [stop issued] ends the intake, and
   [finished] runs after each session ends. Returns the number of sessions
   issued. *)
let sessions ?(finished = ignore) coord r pool ~stop =
  let issued = ref 0 in
  let live = Array.make clients None in
  let rec fill i =
    if Option.is_none live.(i) && not (stop !issued) then begin
      let job = pool.(!issued mod Array.length pool) in
      incr issued;
      let op = M.begin_op r in
      let t_open = M.now () in
      (match
         let* sid =
           M.call r "Coordinator.open_session" (fun () -> C.open_session coord ~tenant:job.tenant)
         in
         let* () =
           List.fold_left
             (fun acc (symbol, peer) ->
               let* () = acc in
               M.call r "Coordinator.add_alarm" (fun () -> C.add_alarm coord sid ~symbol ~peer))
             (Ok ()) job.job_alarms
         in
         let* () = M.call r "Coordinator.start" (fun () -> C.start coord sid) in
         Ok sid
       with
      | Ok sid -> live.(i) <- Some { sid; job; op; t_open }
      | Error _ ->
        M.end_op r ~ok:false (M.now () -. t_open);
        finished ());
      fill i
    end
  in
  let finish i c ~ok =
    let dt = M.now () -. c.t_open in
    let closed = M.call r ~op:c.op "Coordinator.close" (fun () -> C.close coord c.sid) in
    M.end_op r ~ok:(ok && Result.is_ok closed) dt;
    live.(i) <- None;
    finished ();
    fill i
  in
  for i = 0 to clients - 1 do fill i done;
  while Array.exists Option.is_some live do
    let progressed = M.call r "Coordinator.step_round" (fun () -> C.step_round coord) in
    Array.iteri
      (fun i -> function
        | Some c when C.is_done coord c.sid ->
          let ok =
            match M.call r ~op:c.op "Coordinator.report" (fun () -> C.report coord c.sid) with
            | Ok rep ->
              r.M.io_bytes <- r.M.io_bytes + rep.C.wire_bytes;
              M.add r "report.bytes" (float_of_int (String.length rep.C.body));
              M.add r "report.count" 1.;
              String.equal rep.C.body c.job.body
            | Error _ -> false
          in
          finish i c ~ok
        | Some c when not progressed -> finish i c ~ok:false  (* stalled *)
        | _ -> ())
      live
  done;
  !issued

let service_batch =
  let make ~smoke ~seed ~scratch:_ =
    let rng = Random.State.make [| seed |] in
    let running = Petri.Net.binarize (Petri.Examples.running_example ()) and ring3 = ring 3 in
    let job tenant net alarms =
      let d = Diagnoser.diagnose net (Petri.Alarm.make alarms) in
      { tenant; net; job_alarms = alarms; body = Report.to_string net d.Diagnoser.diagnosis }
    in
    let ring_jobs =
      List.concat_map (observations ring3) (if smoke then [ 2 ] else [ 3; 4 ])
      |> List.map (fun obs -> job "ring" ring3 (Petri.Exec.async_shuffle ~rng obs))
    in
    (* half the sessions on each tenant, as in E20 *)
    let running_jobs = List.map (job "running" running) running_orders in
    let pool =
      Array.of_list
        (ring_jobs
        @ List.init (List.length ring_jobs) (fun i -> List.nth running_jobs (i mod 3)))
    in
    shuffle rng pool;
    let distinct = running_jobs @ ring_jobs in
    fun () ->
      let coord = C.create ~quantum:8 () in
      let tenants =
        [ ("running", Petri.Net.binarize (Petri.Examples.running_example ())); ("ring", ring 3) ]
      in
      List.iter (fun (name, net) -> ignore (C.add_tenant coord ~name net)) tenants;
      let warm =
        sessions coord (M.recorder "warm-up") pool ~stop:(fun issued -> issued >= 2 * clients)
      in
      let n = Array.length pool in
      (* One closed loop for the whole run, continuing the job cycle where
         the warm-up left it; an episode closes every [n] sessions ended,
         so passes overlap and each episode sees other session mixes
         running beside it. The intake stops on a whole number of passes. *)
      let run r ~deadline =
        let ended = ref 0 in
        M.start_episodes r;
        ignore
          (sessions coord r
             (Array.init n (fun i -> pool.((warm + i) mod n)))
             ~stop:(fun issued -> issued > 0 && issued mod n = 0 && M.now () >= deadline)
             ~finished:(fun () ->
               incr ended;
               if !ended mod n = 0 then M.close_episode r));
        let s = C.stats coord in
        M.set r "coordinator.pool_reuse_frac"
          (1. -. M.ratio (float_of_int s.C.pooled) (float_of_int s.C.started))
      in
      (* Paired A/B of the service's engine with and without the wire
         verify decode, alternating which side runs first, then the report
         path split into readout, configs frame roundtrip and rendering. *)
      let decompose () =
        let verify = ref 0. and plain = ref 0. in
        let readout = ref 0. and wire = ref 0. and render = ref 0. in
        List.iteri
          (fun i j ->
            let p = Diagnoser.prepare j.net (Petri.Alarm.make j.job_alarms) in
            let session wire_verify =
              let dt, out =
                time (fun () ->
                    let e =
                      Dqsq.Qsq_engine.create ~seed:i ~wire_verify p.Diagnoser.program
                        ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
                    in
                    Dqsq.Qsq_engine.start e;
                    while Dqsq.Qsq_engine.step e do () done;
                    Dqsq.Qsq_engine.finish e)
              in
              let acc = if wire_verify then verify else plain in
              acc := !acc +. dt;
              out
            in
            let out =
              if i mod 2 = 0 then (ignore (session false); session true)
              else begin
                let out = session true in
                ignore (session false);
                out
              end
            in
            let t1, d = time (fun () -> Supervisor.diagnosis_of_answers out.Dqsq.Qsq_engine.answers) in
            let t2, d = time (fun () -> configs_roundtrip d) in
            let t3, _ = time (fun () -> Report.to_string j.net d) in
            readout := !readout +. t1;
            wire := !wire +. t2;
            render := !render +. t3)
          distinct;
        ("wire.verify_frac", M.ratio (!verify -. !plain) !verify)
        :: shares
             [ ("report.readout_frac", !readout); ("report.wire_frac", !wire);
               ("report.render_frac", !render) ]
      in
      { run; decompose }
  in
  { name = "service-batch"; make }

(* ------------------------------------------------------------------ *)
(* Streams over the E21 cycle net                                      *)
(* ------------------------------------------------------------------ *)

(* Two synchronized 3-place cycles (peers p and q exchange a token each
   round) whose first alarm on each peer is ambiguous — a conflict trap
   the prefix GC proves dead within a round, so the live frontier stays
   flat while the explained prefix grows. *)
let cycle_net () =
  let place peer id = Petri.Net.mk_place ~peer id in
  let tr peer alarm pre post id = Petri.Net.mk_transition ~peer ~alarm ~pre ~post id in
  Petri.Net.binarize
    (Petri.Net.make
       ~places:
         [ place "p" "p0"; place "p" "p1"; place "p" "p2"; place "p" "pX"; place "p" "sp";
           place "q" "q0"; place "q" "q1"; place "q" "q2"; place "q" "qX"; place "q" "sq" ]
       ~transitions:
         [ tr "p" "a" [ "p0" ] [ "p1" ] "pa";
           tr "p" "a" [ "p0" ] [ "pX" ] "pa'";
           tr "p" "b" [ "p1" ] [ "p2" ] "pb";
           tr "p" "c" [ "p2"; "sq" ] [ "p0"; "sp" ] "pc";
           tr "q" "d" [ "q0" ] [ "q1" ] "qd";
           tr "q" "d" [ "q0" ] [ "qX" ] "qd'";
           tr "q" "e" [ "q1" ] [ "q2" ] "qe";
           tr "q" "f" [ "q2"; "sp" ] [ "q0"; "sq" ] "qf" ]
       ~marking:[ "p0"; "q0"; "sp" ])

(* One firing round emits a b c on p and d e f on q. The supervisor gets
   each round in a seeded interleaving that keeps each peer's order, so a
   prefix ending on a round boundary is always explainable. *)
let round = [ ("a", "p"); ("b", "p"); ("d", "q"); ("e", "q"); ("f", "q"); ("c", "p") ]

let stream_alarms rng n =
  let rounds = List.init ((n + 5) / 6) (fun _ -> Petri.Exec.async_shuffle ~rng round) in
  Array.sub (Array.of_list (List.concat rounds)) 0 n

(* Feed one alarm as one op. *)
let feed r coord sid (symbol, peer) =
  ignore (M.begin_op r);
  let t0 = M.now () in
  let res = M.call r "Coordinator.add_alarm" (fun () -> C.add_alarm coord sid ~symbol ~peer) in
  M.end_op r ~ok:(Result.is_ok res) (M.now () -. t0)

let open_stream r coord =
  M.call r "Coordinator.open_stream" (fun () -> C.open_stream coord ~tenant:"cycle")

(* A report the client checks with [check]; a failed check or call counts. *)
let report r coord sid check =
  match M.call r "Coordinator.report" (fun () -> C.report coord sid) with
  | Ok rep ->
    M.add r "report.bytes" (float_of_int (String.length rep.C.body));
    M.add r "report.count" 1.;
    if not (check rep) then M.fail r;
    Some rep
  | Error _ ->
    M.fail r;
    None

(* Close a stream; a long stream's gauges go to the layer table (states
   explored = reclaimed + live). *)
let close_stream ?(long = false) r coord sid =
  (match M.call r "Coordinator.stream_info" (fun () -> C.stream_info coord sid) with
  | Ok si ->
    r.M.io_bytes <- r.M.io_bytes + si.C.si_wire_bytes;
    let explored = float_of_int (si.C.si_gc_reclaimed + si.C.si_live_states) in
    if long then begin
      M.note_max r "online.live_states_peak" (float_of_int si.C.si_peak_live_states);
      M.set r "online.states_per_alarm" (M.ratio explored (float_of_int si.C.si_alarms));
      M.set r "online.gc_reclaimed_frac" (M.ratio (float_of_int si.C.si_gc_reclaimed) explored)
    end
  | Error _ -> M.fail r);
  if Result.is_error (M.call r "Coordinator.close" (fun () -> C.close coord sid)) then M.fail r

let new_coordinator r net =
  let coord = M.call r "Coordinator.create" (fun () -> C.create ~quantum:8 ()) in
  match M.call r "Coordinator.add_tenant" (fun () -> C.add_tenant coord ~name:"cycle" net) with
  | Ok _ -> coord
  | Error m -> failwith m

(* Report-path split at one long stream's report prefixes, on a direct
   [Online] replay: readout, configs frame roundtrip, rendering. *)
let report_parts net alarms ~every =
  let o = Online.start net in
  let readout = ref 0. and wire = ref 0. and render = ref 0. in
  Array.iteri
    (fun k a ->
      Online.observe o a;
      if (k + 1) mod every = 0 then begin
        let t1, d = time (fun () -> Online.diagnosis o) in
        let t2, d = time (fun () -> configs_roundtrip d) in
        let t3, _ = time (fun () -> Report.to_string net d) in
        readout := !readout +. t1;
        wire := !wire +. t2;
        render := !render +. t3
      end)
    alarms;
  Online.release o;
  shares
    [ ("report.readout_frac", !readout); ("report.wire_frac", !wire);
      ("report.render_frac", !render) ]

(* stream: two long streams interleaved alarm by alarm and reported on
   round boundaries, beside short streams churning in a window *)
let stream =
  let make ~smoke ~seed ~scratch:_ =
    let rng = Random.State.make [| seed |] in
    let long_len, every, window = if smoke then (600, 300, 5) else (18_000, 6_000, 25) in
    let net = cycle_net () in
    let longs = [| stream_alarms rng long_len; stream_alarms rng long_len |] in
    (* one short-stream alarm per long-stream step: enough shorts for an
       episode even if every one is 6 alarms long *)
    let expected = Hashtbl.create 64 in
    let shorts =
      Array.init ((long_len / 6) + window) (fun _ ->
          let a = stream_alarms rng (6 + Random.State.int rng 7) in
          let key = Array.to_list a in
          if not (Hashtbl.mem expected key) then
            Hashtbl.add expected key
              (Report.to_string net (Product.diagnose net (Petri.Alarm.make key)).Product.diagnosis);
          (a, Hashtbl.find expected key))
    in
    fun () ->
      let r0 = M.recorder "set-up" in
      let coord = new_coordinator r0 (cycle_net ()) in
      let episode r =
        let long_sids = Array.map (fun _ -> open_stream r coord) longs in
        let next_short = ref 0 in
        let open_short () =
          let a, body = shorts.(!next_short mod Array.length shorts) in
          incr next_short;
          match open_stream r coord with
          | Ok sid -> Some (sid, a, body, ref 0)
          | Error _ -> M.fail r; None
        in
        let slots = Array.init window (fun _ -> open_short ()) in
        for k = 0 to long_len - 1 do
          Array.iteri
            (fun i -> function Ok sid -> feed r coord sid longs.(i).(k) | Error _ -> M.fail r)
            long_sids;
          if (k + 1) mod every = 0 then
            Array.iter
              (function
                | Ok sid -> ignore (report r coord sid (fun rep -> rep.C.explanations >= 1))
                | Error _ -> ())
              long_sids;
          let s = k mod window in
          match slots.(s) with
          | None -> slots.(s) <- open_short ()
          | Some (sid, a, body, pos) ->
            feed r coord sid a.(!pos);
            incr pos;
            if !pos = Array.length a then begin
              ignore (report r coord sid (fun rep -> String.equal rep.C.body body));
              close_stream r coord sid;
              slots.(s) <- open_short ()
            end
        done;
        Array.iter (function Ok sid -> close_stream ~long:true r coord sid | Error _ -> ()) long_sids;
        Array.iter (function Some (sid, _, _, _) -> close_stream r coord sid | None -> ()) slots
      in
      { run = (fun r ~deadline -> M.episodes r ~deadline (fun () -> episode r));
        decompose = (fun () -> report_parts net longs.(0) ~every) }
  in
  { name = "stream"; make }

(* ------------------------------------------------------------------ *)
(* stream-durable: one checkpointed stream and its recoveries          *)
(* ------------------------------------------------------------------ *)

let recoveries = 5

let stream_durable =
  let make ~smoke ~seed ~scratch =
    let rng = Random.State.make [| seed |] in
    let len, every, tail = if smoke then (1_200, 600, 60) else (18_000, 3_000, 600) in
    let alarms = stream_alarms rng (len + tail) in
    let stores = ref 0 in
    fun () ->
      let r0 = M.recorder "set-up" in
      let net = cycle_net () in
      let coord = new_coordinator r0 net in
      let episode r =
        incr stores;
        let store =
          M.call r "Snapshot.open_store" (fun () ->
              Snapshot.open_store (Filename.concat scratch (Printf.sprintf "episode-%d" !stores)))
        in
        let feed_range coord sid lo hi =
          for k = lo to hi - 1 do feed r coord sid alarms.(k) done
        in
        match open_stream r coord with
        | Error _ -> M.fail r
        | Ok sid ->
          for k = 0 to len - 1 do
            feed r coord sid alarms.(k);
            if (k + 1) mod every = 0 then begin
              let b0 = Obs.Metrics.counter_value "snapshot.bytes_written" in
              match M.call r "Coordinator.checkpoint_stream" (fun () -> C.checkpoint_stream coord sid) with
              | Ok img ->
                ignore (M.call r "Snapshot.write" (fun () -> Snapshot.write store img));
                let bytes = Obs.Metrics.counter_value "snapshot.bytes_written" - b0 in
                r.M.io_bytes <- r.M.io_bytes + bytes;
                M.set r "snapshot.bytes_per_alarm" (M.ratio (float_of_int bytes) (float_of_int (k + 1)))
              | Error _ -> M.fail r
            end
          done;
          feed_range coord sid len (len + tail);
          let expected = report r coord sid (fun rep -> rep.C.explanations >= 1) in
          close_stream ~long:true r coord sid;
          for _ = 1 to recoveries do
            match M.call r "Snapshot.scan" (fun () -> Snapshot.scan store), expected with
            | [ (_, img) ], Some expected ->
              let fresh = new_coordinator r net in
              (match M.call r "Coordinator.restore_stream" (fun () -> C.restore_stream fresh img) with
              | Ok sid ->
                feed_range fresh sid len (len + tail);
                ignore (report r fresh sid (fun rep -> String.equal rep.C.body expected.C.body));
                close_stream r fresh sid
              | Error _ -> M.fail r)
            | _ -> M.fail r
          done
      in
      (* Checkpoint and restore split on a direct [Online] replay of the
         same stream: engine checkpoint, frame encode, file write; file
         read, frame decode, engine restore. *)
      let decompose () =
        let store = Snapshot.open_store (Filename.concat scratch "decompose") in
        let o = Online.start net in
        let ck = ref 0. and enc = ref 0. and wr = ref 0. in
        let last = ref None in
        Array.iteri
          (fun k a ->
            Online.observe o a;
            if (k + 1) mod every = 0 then begin
              let t1, engine = time (fun () -> Online.checkpoint o) in
              let img =
                { Snapshot.tenant = "cycle"; session = 1; alarms = k + 1; reports = 0;
                  wire_bytes = 0; peak_live = Online.live_states o; engine }
              in
              let t2, _ = time (fun () -> Snapshot.encode_stream img) in
              let t3, name = time (fun () -> Snapshot.write store img) in
              ck := !ck +. t1;
              enc := !enc +. t2;
              wr := !wr +. Float.max 0. (t3 -. t2);
              last := Some name
            end)
          (Array.sub alarms 0 len);
        Online.release o;
        let restore_parts =
          match !last with
          | None -> []
          | Some name ->
            let t1, img = time (fun () -> Snapshot.read store name) in
            let frame = Snapshot.encode_stream img in
            let t2, img = time (fun () -> Snapshot.decode_stream frame) in
            let t3, o = time (fun () -> Online.restore net img.Snapshot.engine) in
            Online.release o;
            shares
              [ ("restore.read_frac", Float.max 0. (t1 -. t2)); ("restore.decode_frac", t2);
                ("restore.online_frac", t3) ]
        in
        shares
          [ ("checkpoint.online_frac", !ck); ("checkpoint.encode_frac", !enc);
            ("checkpoint.write_frac", !wr) ]
        @ restore_parts
      in
      { run = (fun r ~deadline -> M.episodes r ~deadline (fun () -> episode r)); decompose }
  in
  { name = "stream-durable"; make }

let all = [ diagnose; service_batch; stream; stream_durable ]
