(* Tests for lib/service: multi-tenant isolation, warm-engine recycling,
   and the coordinator session lifecycle. *)

open Service

let running_net () = Petri.Examples.running_example ()

(* A deliberately clashing tenant: the same peer ids (p1, p2), place ids,
   transition ids, and alarm symbols as the running example — but different
   behavior, so any state bleeding between tenant stores would change a
   report. *)
let clashing_net () =
  Petri.Net.make
    ~places:
      [ Petri.Net.mk_place ~peer:"p1" "1";
        Petri.Net.mk_place ~peer:"p1" "2";
        Petri.Net.mk_place ~peer:"p2" "4" ]
    ~transitions:
      [ Petri.Net.mk_transition ~peer:"p1" ~alarm:"b" ~pre:[ "1" ] ~post:[ "2" ] "i";
        Petri.Net.mk_transition ~peer:"p1" ~alarm:"c" ~pre:[ "2" ] ~post:[] "iii";
        Petri.Net.mk_transition ~peer:"p2" ~alarm:"a" ~pre:[ "4" ] ~post:[] "ii" ]
    ~marking:[ "1"; "4" ]

let ok = function Ok v -> v | Error m -> Alcotest.fail m
let seq = [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]

let start_one coord tenant alarms =
  let sid = ok (Coordinator.open_session coord ~tenant) in
  List.iter
    (fun (symbol, peer) -> ok (Coordinator.add_alarm coord sid ~symbol ~peer))
    alarms;
  ok (Coordinator.start coord sid);
  sid

let finish_one coord sid =
  ok (Coordinator.drive ~only:sid coord);
  ok (Coordinator.report coord sid)

(* a tenant alone on a fresh coordinator: the isolation baseline *)
let solo net alarms =
  let coord = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" net));
  (finish_one coord (start_one coord "t" alarms)).Coordinator.body

(* Batching economics, pinned end to end: coalescing an activation's
   messages into one Message.Batch envelope per destination must never
   cost wire bytes — the envelope shares one frame header and one
   per-channel dictionary context. Checked for the sequential scheduler,
   and for the parallel scheduler against the same eager baseline (the
   parallel schedule emits the same per-channel fact/delegation sets, so
   batched-parallel must also come in under the eager run's bytes). *)
let test_batching_reduces_wire_bytes () =
  let module Dg = Diagnosis.Diagnoser in
  let module Q = Dqsq.Qsq_engine in
  let prep = Dg.prepare (running_net ()) (Petri.Alarm.make seq) in
  let solve ?jobs ~batching () =
    Q.solve ~batching ?jobs prep.Dg.program ~edb:prep.Dg.edb ~query:prep.Dg.query
  in
  let eager = solve ~batching:false () in
  let batched = solve ~batching:true () in
  let batched_par = solve ~jobs:2 ~batching:true () in
  let answers o = List.map Datalog.Atom.to_string o.Q.answers in
  Alcotest.(check (list string)) "batched answers equal" (answers eager) (answers batched);
  Alcotest.(check (list string)) "parallel batched answers equal" (answers eager)
    (answers batched_par);
  let bytes o = o.Q.net_stats.Network.Sim.bytes in
  Alcotest.(check bool)
    (Printf.sprintf "batched bytes (%d) <= unbatched bytes (%d)" (bytes batched)
       (bytes eager))
    true
    (bytes batched <= bytes eager);
  Alcotest.(check bool)
    (Printf.sprintf "parallel batched bytes (%d) <= unbatched bytes (%d)"
       (bytes batched_par) (bytes eager))
    true
    (bytes batched_par <= bytes eager);
  (* fewer envelopes cross the network, yet the same channels carry them:
     sim.channel_bytes.* keys stay consistent between schedulers *)
  let chans o = List.map fst o.Q.net_stats.Network.Sim.channels in
  Alcotest.(check (list (pair string string))) "channel sets consistent"
    (chans batched) (chans batched_par)

(* A Batch envelope prices as ONE frame: encoding [Batch [m1; m2]] costs
   less than encoding m1 and m2 as separate frames on the same channel,
   because the members amortize the frame header and version tag. *)
let test_batch_prices_as_one_frame () =
  let atom name =
    Datalog.Atom.make name [ Datalog.Term.const "c1"; Datalog.Term.const "c2" ]
  in
  let m1 = Dqsq.Message.Fact (atom "r1") and m2 = Dqsq.Message.Fact (atom "r2") in
  let separate =
    let e = Dqsq.Wire.encoder () in
    String.length (Dqsq.Wire.encode_message e m1)
    + String.length (Dqsq.Wire.encode_message e m2)
  in
  let together =
    String.length
      (Dqsq.Wire.encode_message (Dqsq.Wire.encoder ()) (Dqsq.Message.Batch [ m1; m2 ]))
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch frame (%d) < separate frames (%d)" together separate)
    true (together < separate)

let test_tenant_isolation () =
  let solo_a = solo (running_net ()) seq in
  let solo_b = solo (clashing_net ()) seq in
  Alcotest.(check bool) "the two tenants really differ" false (solo_a = solo_b);
  let coord = Coordinator.create ~quantum:3 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"a" (running_net ())));
  ignore (ok (Coordinator.add_tenant coord ~name:"b" (clashing_net ())));
  (* both sessions genuinely in flight before either finishes *)
  let sa = start_one coord "a" seq in
  let sb = start_one coord "b" seq in
  Alcotest.(check int) "two sessions running" 2 (Coordinator.stats coord).Coordinator.running;
  ok (Coordinator.drive coord);
  let ra = ok (Coordinator.report coord sa) in
  let rb = ok (Coordinator.report coord sb) in
  Alcotest.(check string) "tenant a report unchanged by b" solo_a ra.Coordinator.body;
  Alcotest.(check string) "tenant b report unchanged by a" solo_b rb.Coordinator.body;
  Alcotest.(check bool) "bytes on the wire" true (ra.Coordinator.wire_bytes > 0);
  Alcotest.(check bool) "deliveries counted" true (ra.Coordinator.deliveries > 0)

let test_warm_recycling () =
  (* the second interleaved round reuses pooled engines (reset stores,
     warm codec dictionaries) and must reproduce the same reports *)
  let coord = Coordinator.create ~quantum:5 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"a" (running_net ())));
  ignore (ok (Coordinator.add_tenant coord ~name:"b" (clashing_net ())));
  let round () =
    let sa = start_one coord "a" seq in
    let sb = start_one coord "b" seq in
    ok (Coordinator.drive coord);
    let ra = ok (Coordinator.report coord sa) in
    let rb = ok (Coordinator.report coord sb) in
    ok (Coordinator.close coord sa);
    ok (Coordinator.close coord sb);
    (ra, rb)
  in
  let ra1, rb1 = round () in
  Alcotest.(check int) "two engines pooled" 2 (Coordinator.stats coord).Coordinator.pooled;
  let ra2, rb2 = round () in
  Alcotest.(check string) "a: recycled engine, same report" ra1.Coordinator.body
    ra2.Coordinator.body;
  Alcotest.(check string) "b: recycled engine, same report" rb1.Coordinator.body
    rb2.Coordinator.body;
  Alcotest.(check bool) "warm codec: second session cheaper on the wire" true
    (ra2.Coordinator.wire_bytes < ra1.Coordinator.wire_bytes);
  Alcotest.(check int) "still two engines pooled" 2
    (Coordinator.stats coord).Coordinator.pooled;
  let s = Coordinator.stats coord in
  Alcotest.(check int) "four sessions started" 4 s.Coordinator.started;
  Alcotest.(check int) "four sessions completed" 4 s.Coordinator.completed

let test_lifecycle_errors () =
  let coord = Coordinator.create () in
  (match Coordinator.open_session coord ~tenant:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tenant accepted");
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  (match Coordinator.add_tenant coord ~name:"t" (running_net ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate tenant accepted");
  let sid = ok (Coordinator.open_session coord ~tenant:"t") in
  (match Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"nope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alarm on an unknown peer accepted");
  (match Coordinator.report coord sid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report before start accepted");
  ok (Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"p1");
  ok (Coordinator.start coord sid);
  (match Coordinator.start coord sid with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double start accepted");
  ignore (finish_one coord sid);
  ok (Coordinator.close coord sid);
  match Coordinator.report coord sid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report after close accepted"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* every per-alarm report of a streaming session must be byte-identical to
   rendering the direct [Online] engine at the same prefix — the service
   adds codec framing, pooling, and session plumbing but zero bytes of
   divergence *)
let test_stream_matches_direct () =
  let coord = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  let net = Petri.Net.binarize (running_net ()) in
  let direct = Diagnosis.Online.start net in
  List.iteri
    (fun k (symbol, peer) ->
      ok (Coordinator.add_alarm coord sid ~symbol ~peer);
      Diagnosis.Online.observe direct (symbol, peer);
      let r = ok (Coordinator.report coord sid) in
      let expected =
        Diagnosis.Report.to_string net (Diagnosis.Online.diagnosis direct)
      in
      Alcotest.(check string) "per-alarm report byte-identical" expected
        r.Coordinator.body;
      Alcotest.(check int) "deliveries = alarms consumed" (k + 1)
        r.Coordinator.deliveries)
    seq;
  Alcotest.(check int) "one live stream" 1 (Coordinator.stats coord).Coordinator.streaming;
  let si = ok (Coordinator.stream_info coord sid) in
  Alcotest.(check int) "alarms counted" 3 si.Coordinator.si_alarms;
  Alcotest.(check int) "reports counted" 3 si.Coordinator.si_reports;
  Alcotest.(check bool) "peak live >= live" true
    (si.Coordinator.si_peak_live_states >= si.Coordinator.si_live_states);
  Alcotest.(check bool) "live states bounded" true (si.Coordinator.si_live_states > 0);
  Alcotest.(check bool) "report frames accounted" true (si.Coordinator.si_wire_bytes > 0);
  ok (Coordinator.close coord sid);
  Alcotest.(check int) "stream gone" 0 (Coordinator.stats coord).Coordinator.streaming;
  Diagnosis.Online.release direct

(* a tripped state budget fails the one session, not the coordinator *)
let test_stream_budget_failure () =
  let coord = Coordinator.create ~quantum:4 ~stream_max_states:1 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  (match Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"p1" with
  | Error m ->
    Alcotest.(check bool) "error names the budget" true (contains m "state budget exceeded")
  | Ok () -> Alcotest.fail "stream budget not enforced");
  (match Coordinator.report coord sid with
  | Error m -> Alcotest.(check bool) "report reports the failure" true (contains m "failed")
  | Ok _ -> Alcotest.fail "report on a failed stream accepted");
  (match Coordinator.add_alarm coord sid ~symbol:"a" ~peer:"p2" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alarm on a failed stream accepted");
  Alcotest.(check int) "failed stream not streaming" 0
    (Coordinator.stats coord).Coordinator.streaming;
  ok (Coordinator.close coord sid);
  (* the coordinator survives: a batch session and a fresh stream with an
     explicit (sufficient) budget both still work *)
  let b = start_one coord "t" seq in
  ignore (finish_one coord b);
  let s2 = ok (Coordinator.open_stream ~max_states:1000 coord ~tenant:"t") in
  List.iter
    (fun (symbol, peer) -> ok (Coordinator.add_alarm coord s2 ~symbol ~peer))
    seq;
  let r = ok (Coordinator.report coord s2) in
  Alcotest.(check int) "fresh stream diagnoses" 3 r.Coordinator.explanations;
  ok (Coordinator.close coord s2)

(* the synchronized-cycles net as tenant "cycle", and its alarms [lo, hi) *)
let cycle_coordinator () =
  let coord = Coordinator.create ~quantum:8 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"cycle" (Petri.Examples.sync_cycles ())));
  coord

let feed_cycles coord sid lo hi =
  for k = lo to hi - 1 do
    let symbol, peer = Petri.Examples.sync_cycles_alarm k in
    ok (Coordinator.add_alarm coord sid ~symbol ~peer)
  done

(* One 10k-alarm stream beside 50 short streams (window 25, length 6),
   with a report every 1k alarms: the prefix GC keeps the live set flat,
   so per-alarm latency must be too. An engine that re-saturates the
   prefix (O(1) per alarm back to O(n)) or lets the live set grow without
   GC pushes the last decile's p50 past 2x the first decile's. *)
let test_stream_latency_flat () =
  let long_total = 10_000 and shorts_total = 50 and window = 25 and short_len = 6 in
  let coord = cycle_coordinator () in
  let long = ok (Coordinator.open_stream coord ~tenant:"cycle") in
  let lat = Array.make long_total 0. in
  let k = ref 0 and opened = ref 0 and closed = ref 0 and active = ref [] in
  while !k < long_total || !closed < shorts_total do
    if !k < long_total then begin
      let t0 = Obs.Clock.now_s () in
      feed_cycles coord long !k (!k + 1);
      lat.(!k) <- Obs.Clock.now_s () -. t0;
      incr k;
      if !k mod 1_000 = 0 then ignore (ok (Coordinator.report coord long))
    end;
    while !opened < shorts_total && List.length !active < window do
      active := (ok (Coordinator.open_stream coord ~tenant:"cycle"), ref 0) :: !active;
      incr opened
    done;
    active :=
      List.filter
        (fun (sid, sent) ->
          feed_cycles coord sid !sent (!sent + 1);
          incr sent;
          !sent < short_len
          || (ignore (ok (Coordinator.report coord sid));
              ok (Coordinator.close coord sid);
              incr closed;
              false))
        !active
  done;
  ok (Coordinator.close coord long);
  let decile = long_total / 10 in
  let decile_p50 off =
    let s = Array.sub lat off decile in
    Array.sort compare s;
    s.(decile / 2)
  in
  let first = decile_p50 0 and last = decile_p50 (long_total - decile) in
  Alcotest.(check bool)
    (Printf.sprintf "last-decile p50 %.1fus <= 2x first-decile p50 %.1fus" (last *. 1e6)
       (first *. 1e6))
    true
    (last <= 2. *. Float.max first 1e-6)

(* ------------------------------------------------------------------ *)
(* Durability: migration, the snapshot store, graceful shutdown       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let feed coord sid l =
  List.iter (fun (symbol, peer) -> ok (Coordinator.add_alarm coord sid ~symbol ~peer)) l

(* Kill a 5k-alarm stream at 2.5k, checkpointing every 500 alarms, and
   let a fresh coordinator finish it from the last checkpoint: the final
   report is byte-identical to an uninterrupted run. A checkpoint carries
   only the live frontier, but the frontier's configurations embed their
   causal history, so the compaction bounds are relative: bytes per alarm
   at the kill point within 1.5x those at the first checkpoint, and the
   snapshot no larger than the rendered report at the same prefix. *)
let migrate_long_stream () =
  let total = 5_000 in
  let kill_at = total / 2 and every = total / 10 in
  let reference = cycle_coordinator () in
  let sr = ok (Coordinator.open_stream reference ~tenant:"cycle") in
  feed_cycles reference sr 0 total;
  let a = cycle_coordinator () in
  let sa = ok (Coordinator.open_stream a ~tenant:"cycle") in
  let first = ref "" and last = ref "" in
  for k = 0 to kill_at - 1 do
    feed_cycles a sa k (k + 1);
    if (k + 1) mod every = 0 then begin
      last := Snapshot.encode_stream (ok (Coordinator.checkpoint_stream a sa));
      if !first = "" then first := !last
    end
  done;
  let kill_report = (ok (Coordinator.report a sa)).Coordinator.body in
  let b = cycle_coordinator () in
  let sb = ok (Coordinator.restore_stream b (Snapshot.decode_stream !last)) in
  feed_cycles b sb kill_at total;
  Alcotest.(check string) "resumed long stream reports byte-identically"
    (ok (Coordinator.report reference sr)).Coordinator.body
    (ok (Coordinator.report b sb)).Coordinator.body;
  let per_alarm blob alarms = float_of_int (String.length blob) /. float_of_int alarms in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot %.1f B/alarm at the kill point <= 1.5x %.1f at the first"
       (per_alarm !last kill_at) (per_alarm !first every))
    true
    (per_alarm !last kill_at <= 1.5 *. per_alarm !first every);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot (%dB) <= rendered report at the kill point (%dB)"
       (String.length !last) (String.length kill_report))
    true
    (String.length !last <= String.length kill_report);
  List.iter (fun (c, sid) -> ok (Coordinator.close c sid)) [ (reference, sr); (a, sa); (b, sb) ]

(* a stream checkpointed on one coordinator and restored on another (a
   different process in spirit) must report byte-identically after both
   consume the same suffix; then the same for a long stream killed midway *)
let test_stream_migration () =
  let a = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant a ~name:"t" (running_net ())));
  let sa = ok (Coordinator.open_stream a ~tenant:"t") in
  feed a sa [ ("b", "p1") ];
  let img = ok (Coordinator.checkpoint_stream a sa) in
  Alcotest.(check string) "image names the tenant" "t" img.Snapshot.tenant;
  Alcotest.(check int) "image counts the prefix" 1 img.Snapshot.alarms;
  let b = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant b ~name:"t" (running_net ())));
  let sb = ok (Coordinator.restore_stream b img) in
  let suffix = [ ("a", "p2"); ("c", "p1") ] in
  feed a sa suffix;
  feed b sb suffix;
  let ra = ok (Coordinator.report a sa) in
  let rb = ok (Coordinator.report b sb) in
  Alcotest.(check string) "migrated stream reports byte-identically" ra.Coordinator.body
    rb.Coordinator.body;
  Alcotest.(check int) "restored stream is streaming" 1
    (Coordinator.stats b).Coordinator.streaming;
  ok (Coordinator.close a sa);
  ok (Coordinator.close b sb);
  migrate_long_stream ()

(* a hostile engine frame is refused with an [Error], never an exception:
   its first word claims 2^60 symbols *)
let test_restore_forged_frame () =
  let coord = cycle_coordinator () in
  let forged =
    Snapshot_layout.forged_word
      (Petri.Net.binarize (Petri.Examples.sync_cycles ()))
      ~len:(1 lsl 60)
  in
  let img =
    { Snapshot.tenant = "cycle"; session = 1; alarms = 0; reports = 0; wire_bytes = 0;
      peak_live = 0; engine = forged }
  in
  match Coordinator.restore_stream coord img with
  | Error m -> Alcotest.(check bool) "reported as corrupt" true (contains m "corrupt")
  | Ok _ -> Alcotest.fail "forged frame restored"

(* [stats] counts the channel tables of live engines. Report, checkpoint
   and restore frames use one-frame codecs that die with the frame, so
   any number of them leaves the counts where they were. *)
let test_wire_stats_steady () =
  let coord = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let batch = start_one coord "t" seq in
  ignore (finish_one coord batch);
  let stream = ok (Coordinator.open_stream coord ~tenant:"t") in
  feed coord stream seq;
  let tables () =
    let s = Coordinator.stats coord in
    (s.Coordinator.wire_symbols, s.Coordinator.wire_terms)
  in
  let before = tables () in
  Alcotest.(check bool) "the pooled engine's channels hold entries" true
    (fst before > 0 && snd before > 0);
  for _ = 1 to 5 do
    ignore (ok (Coordinator.report coord stream));
    ignore (ok (Coordinator.report coord batch));
    let img = ok (Coordinator.checkpoint_stream coord stream) in
    let restored = ok (Coordinator.restore_stream coord img) in
    ignore (ok (Coordinator.report coord restored));
    ok (Coordinator.close coord restored)
  done;
  Alcotest.(check (pair int int)) "unchanged by reports and checkpoints" before (tables ());
  ok (Coordinator.close coord stream)

(* only streaming sessions checkpoint *)
let test_checkpoint_rejects_batch () =
  let coord = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = start_one coord "t" seq in
  (match Coordinator.checkpoint_stream coord sid with
  | Error m -> Alcotest.(check bool) "error names the session" true (contains m "stream")
  | Ok _ -> Alcotest.fail "batch session checkpointed");
  ignore (finish_one coord sid);
  ok (Coordinator.close coord sid)

let test_snapshot_store () =
  let dir = "tmp_snap_store_test" in
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = Coordinator.create ~quantum:4 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  feed coord sid [ ("b", "p1") ];
  let img1 = ok (Coordinator.checkpoint_stream coord sid) in
  let n1 = Snapshot.write store img1 in
  let back = Snapshot.read store n1 in
  Alcotest.(check string) "tenant round-trips" img1.Snapshot.tenant back.Snapshot.tenant;
  Alcotest.(check int) "alarms round-trip" img1.Snapshot.alarms back.Snapshot.alarms;
  Alcotest.(check string) "engine bytes round-trip" img1.Snapshot.engine
    back.Snapshot.engine;
  (* only snapshot names resolve: a valid frame outside the store, or
     inside it under a foreign name, cannot be read *)
  let outside = "tmp_snap_outside_test" in
  rm_rf outside;
  List.iter
    (fun d ->
      ignore (Snapshot.open_store d);
      let oc = open_out_bin (Filename.concat d "secret.bin") in
      output_string oc (Snapshot.encode_stream img1);
      close_out oc)
    [ outside; dir ];
  List.iter
    (fun bad ->
      match Snapshot.read store bad with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "read %S, not a name in the store" bad))
    [ Filename.concat ".." (Filename.concat outside "secret.bin");
      Filename.concat (Sys.getcwd ()) (Filename.concat outside "secret.bin");
      "secret.bin" ];
  rm_rf outside;
  (* a later checkpoint of the same session prunes the earlier file *)
  feed coord sid [ ("a", "p2") ];
  let n2 = Snapshot.write store (ok (Coordinator.checkpoint_stream coord sid)) in
  Alcotest.(check bool) "old snapshot pruned" false
    (Sys.file_exists (Filename.concat dir n1));
  (* scan returns the surviving image and skips torn files *)
  let garbage = open_out (Filename.concat dir "stream-7-3.snap") in
  output_string garbage "not a snapshot";
  close_out garbage;
  (match Snapshot.scan store with
  | [ (name, img) ] ->
    Alcotest.(check string) "scan finds the live snapshot" n2 name;
    Alcotest.(check int) "at the latest prefix" 2 img.Snapshot.alarms
  | l -> Alcotest.fail (Printf.sprintf "scan returned %d entries" (List.length l)));
  ok (Coordinator.close coord sid);
  rm_rf dir

(* a store that vanishes under a running server fails the [checkpoint]
   request with [err], and the server goes on serving: later requests are
   answered and the shutdown flush returns normally *)
let test_checkpoint_write_failure () =
  let dir = "tmp_snap_vanish_test" and path = "tmp_serve_vanish.sock" in
  rm_rf dir;
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let coord = Coordinator.create ~quantum:4 () in
        ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
        let checkpoints =
          { Serve.store = Snapshot.open_store dir; every = None; recover = false }
        in
        Serve.socket ~checkpoints coord ~path ~once:true;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
    let ask line =
      output_string oc (line ^ "\n");
      flush oc;
      try input_line ic with End_of_file -> "<server gone>"
    in
    let starts prefix reply =
      Alcotest.(check string) reply prefix
        (String.sub reply 0 (min (String.length prefix) (String.length reply)))
    in
    starts "ok stream 1" (ask "stream t");
    starts "ok" (ask "alarm 1 b p1");
    starts "ok checkpoint 1" (ask "checkpoint 1");
    rm_rf dir;
    starts "err " (ask "checkpoint 1");
    starts "ok stats" (ask "stats");
    starts "ok bye" (ask "quit");
    Unix.close sock;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit after a failed flush" true (status = Unix.WEXITED 0)

(* a client that hangs up with replies still owed must not take the server
   down: the writes into its closed socket fail (SIGPIPE is ignored while
   serving), its session ends, the next client is served, and the shutdown
   flush still persists the stream the first client left open *)
let test_client_hangup () =
  let dir = "tmp_snap_hangup_test" and path = "tmp_serve_hangup.sock" in
  rm_rf dir;
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let coord = Coordinator.create ~quantum:4 () in
        ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
        let checkpoints =
          { Serve.store = Snapshot.open_store dir; every = None; recover = false }
        in
        Serve.socket ~checkpoints coord ~path ~once:false;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    let connect () =
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)
    in
    let ask (_, ic, oc) line =
      output_string oc (line ^ "\n");
      flush oc;
      try input_line ic with End_of_file -> "<server gone>"
    in
    let starts prefix reply =
      Alcotest.(check string) reply prefix
        (String.sub reply 0 (min (String.length prefix) (String.length reply)))
    in
    let ((sock, _, oc) as first) = connect () in
    starts "ok stream 1" (ask first "stream t");
    starts "ok" (ask first "alarm 1 b p1");
    (* many reports queued, then hang up without reading one reply *)
    for _ = 1 to 500 do
      output_string oc "report 1\n"
    done;
    flush oc;
    Unix.close sock;
    let ((sock, _, _) as second) =
      try connect ()
      with Unix.Unix_error (e, _, _) ->
        Alcotest.failf "server gone after the hang-up: %s" (Unix.error_message e)
    in
    starts "ok stats" (ask second "stats");
    starts "ok bye" (ask second "quit");
    Unix.close sock;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
    (match Snapshot.scan (Snapshot.open_store dir) with
    | [ (_, img) ] -> Alcotest.(check int) "stream flushed" 1 img.Snapshot.alarms
    | l ->
      Alcotest.fail (Printf.sprintf "expected one flushed snapshot, found %d" (List.length l)));
    rm_rf dir

(* SIGTERM while [Serve.socket] blocks in accept: the child must flush its
   live stream to the store, unlink the socket, and exit cleanly *)
let test_graceful_shutdown () =
  let dir = "tmp_snap_shutdown_test" in
  let path = "tmp_serve_shutdown.sock" in
  rm_rf dir;
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (try
       let coord = Coordinator.create ~quantum:4 () in
       ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
       let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
       feed coord sid [ ("b", "p1") ];
       let checkpoints =
         { Serve.store = Snapshot.open_store dir; every = None; recover = false }
       in
       Serve.socket ~checkpoints coord ~path ~once:false
     with _ -> ());
    (* skip the inherited Alcotest at_exit machinery *)
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    Alcotest.(check bool) "server came up" true (Sys.file_exists path);
    (* let the child reach accept before the signal lands *)
    Unix.sleepf 0.05;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
    (match Snapshot.scan (Snapshot.open_store dir) with
    | [ (_, img) ] ->
      Alcotest.(check string) "flushed stream names the tenant" "t" img.Snapshot.tenant;
      Alcotest.(check int) "at the observed prefix" 1 img.Snapshot.alarms
    | l ->
      Alcotest.fail (Printf.sprintf "expected one flushed snapshot, found %d" (List.length l)));
    rm_rf dir

let () =
  Alcotest.run "service"
    [ ( "coordinator",
        [ Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
          Alcotest.test_case "warm-engine recycling" `Quick test_warm_recycling;
          Alcotest.test_case "lifecycle errors" `Quick test_lifecycle_errors ] );
      ( "streaming",
        [ Alcotest.test_case "per-alarm reports == direct Online" `Quick
            test_stream_matches_direct;
          Alcotest.test_case "state budget fails gracefully" `Quick
            test_stream_budget_failure;
          Alcotest.test_case "per-alarm latency stays flat" `Quick
            test_stream_latency_flat ] );
      ( "durability",
        [ Alcotest.test_case "stream migration" `Quick test_stream_migration;
          Alcotest.test_case "checkpoint rejects batch sessions" `Quick
            test_checkpoint_rejects_batch;
          Alcotest.test_case "forged snapshot is an error" `Quick test_restore_forged_frame;
          Alcotest.test_case "reports and checkpoints leave wire stats" `Quick
            test_wire_stats_steady;
          Alcotest.test_case "snapshot store" `Quick test_snapshot_store;
          Alcotest.test_case "failed checkpoint write keeps serving" `Quick
            test_checkpoint_write_failure;
          Alcotest.test_case "graceful shutdown flushes" `Quick
            test_graceful_shutdown;
          Alcotest.test_case "client hang-up keeps serving" `Quick test_client_hangup ] );
      (* this group MUST run after "durability": once a domain has been
         spawned anywhere in the process, OCaml 5 permanently forbids
         Unix.fork (even after Domain.join) — and the graceful-shutdown
         test forks.  The jobs=2 run below spawns domains. *)
      ( "wire batching",
        [ Alcotest.test_case "batching reduces wire bytes" `Quick
            test_batching_reduces_wire_bytes;
          Alcotest.test_case "batch prices as one frame" `Quick
            test_batch_prices_as_one_frame ] ) ]
