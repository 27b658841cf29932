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

(* Both schedulers batch an activation's messages into one Message.Batch
   envelope per destination: the parallel run must reach the sequential
   run's answers, and its envelopes must cross the same channels, so the
   sim.channel_bytes.* keys stay comparable between schedulers. *)
let test_parallel_batches_match_sequential () =
  let module Dg = Diagnosis.Diagnoser in
  let module Q = Dqsq.Qsq_engine in
  let prep = Dg.prepare (running_net ()) (Petri.Alarm.make seq) in
  let solve ?jobs () = Q.solve ?jobs prep.Dg.program ~edb:prep.Dg.edb ~query:prep.Dg.query in
  let batched = solve () in
  let batched_par = solve ~jobs:2 () in
  let answers o = List.map Datalog.Atom.to_string o.Q.answers in
  Alcotest.(check (list string)) "parallel batched answers equal" (answers batched)
    (answers batched_par);
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
  (* a net with no transitions explains nothing: it is not a tenant *)
  List.iter
    (fun text ->
      Alcotest.(check (result (list string) string))
        "net without transitions" (Error "tenant e: the net has no transitions")
        (Coordinator.add_tenant coord ~name:"e" (Petri.Parse.parse text).Petri.Parse.net))
    [ ""; "place 1 @p1 marked\n" ];
  (match Coordinator.open_session coord ~tenant:"e" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "refused tenant registered");
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

(* an alarm from a peer outside the tenant's net, or with a symbol no
   transition of that peer carries, is refused with the same text by a
   batch session and a stream, is not recorded, and leaves both usable;
   the supervisor is placed beside the peers but emits no alarm *)
let test_unknown_peer_both_arms () =
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let batch = ok (Coordinator.open_session coord ~tenant:"t") in
  let stream = ok (Coordinator.open_stream coord ~tenant:"t") in
  let refused sid ~symbol ~peer msg =
    Alcotest.(check (result unit string))
      (Printf.sprintf "session %d, %s@%s" sid symbol peer)
      (Error (Printf.sprintf "session %d: tenant t %s" sid msg))
      (Coordinator.add_alarm coord sid ~symbol ~peer)
  in
  let stream_body () = (ok (Coordinator.report coord stream)).Coordinator.body in
  List.iter
    (fun sid ->
      List.iter
        (fun peer -> refused sid ~symbol:"b" ~peer ("has no peer " ^ peer))
        [ "nope"; "supervisor" ];
      ok (Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"p1");
      let before = if sid = stream then stream_body () else "" in
      (* [a] is a symbol of the net, but only p2 emits it *)
      List.iter
        (fun symbol ->
          refused sid ~symbol ~peer:"p1"
            (Printf.sprintf "has no transition emitting %s at p1" symbol))
        [ "nosuchsym"; "a" ];
      if sid = stream then
        Alcotest.(check string) "the stream's report is unchanged" before (stream_body ()))
    [ batch; stream ];
  Alcotest.(check int) "the stream consumed only the emittable alarm" 1
    (ok (Coordinator.stream_info coord stream)).Coordinator.si_alarms;
  ok (Coordinator.start coord batch);
  Alcotest.(check int) "the batch session explains the known-peer alarm" 1
    (finish_one coord batch).Coordinator.explanations

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
  (* a later checkpoint of the same session adds a segment to its chain;
     a new base prunes the old chain *)
  feed coord sid [ ("a", "p2") ];
  let n_seg = Snapshot.write store (ok (Coordinator.checkpoint_stream coord sid)) in
  Alcotest.(check bool) "the base stays under its segment" true
    (Sys.file_exists (Filename.concat dir n1));
  feed coord sid [ ("c", "p1") ];
  (* a handle that knows no chain of the session writes a base *)
  let n2 = Snapshot.write (Snapshot.open_store dir) (ok (Coordinator.checkpoint_stream coord sid)) in
  Alcotest.(check (list bool)) "old chain pruned" [ false; false ]
    (List.map (fun n -> Sys.file_exists (Filename.concat dir n)) [ n1; n_seg ]);
  (* scan returns the surviving image and skips torn files *)
  let garbage = open_out (Filename.concat dir "stream-7-3.snap") in
  output_string garbage "not a snapshot";
  close_out garbage;
  (match Snapshot.scan store with
  | [ (name, img) ] ->
    Alcotest.(check string) "scan finds the live snapshot" n2 name;
    Alcotest.(check int) "at the latest prefix" 3 img.Snapshot.alarms
  | l -> Alcotest.fail (Printf.sprintf "scan returned %d entries" (List.length l)));
  ok (Coordinator.close coord sid);
  rm_rf dir

(* A store chain of one cycle stream: a base at 1000 alarms, then
   segments at 1100, 1200 and 1300 (each far below the base, so the
   coordinator does not compact). Returns the store, the names, and per
   name the live report body at that prefix. *)
let chain_in_store ?(reports_before = 0) dir =
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = cycle_coordinator () in
  let sid = ok (Coordinator.open_stream coord ~tenant:"cycle") in
  for _ = 1 to reports_before do
    ignore (ok (Coordinator.report coord sid))
  done;
  let taken =
    List.map
      (fun upto ->
        feed_cycles coord sid (Coordinator.stream_info coord sid |> ok).Coordinator.si_alarms upto;
        let img = ok (Coordinator.checkpoint_stream coord sid) in
        let name = Snapshot.write store img in
        (name, img))
      [ 1000; 1100; 1200; 1300 ]
  in
  ok (Coordinator.close coord sid);
  (store, taken)

let file_size dir name = (Unix.stat (Filename.concat dir name)).Unix.st_size

(* what a recovery finds: the one session's latest name and alarms *)
let scanned store =
  List.map (fun (name, (img : Snapshot.stream_image)) -> (name, img.Snapshot.alarms)) (Snapshot.scan store)

(* the scanned image restores, and its chain is the one taken there *)
let check_recovers msg store (name, (img : Snapshot.stream_image)) =
  Alcotest.(check (list (pair string int))) msg [ (name, img.Snapshot.alarms) ] (scanned store);
  (match Snapshot.scan store with
  | [ (_, found) ] ->
    Alcotest.(check bool) (msg ^ ": the chain taken there") true
      (String.equal found.Snapshot.engine img.Snapshot.engine);
    let coord = cycle_coordinator () in
    let sid = ok (Coordinator.restore_stream coord found) in
    Alcotest.(check int) (msg ^ ": restores") img.Snapshot.alarms
      (ok (Coordinator.stream_info coord sid)).Coordinator.si_alarms;
    ok (Coordinator.close coord sid)
  | _ -> ())

let corrupt_read store name =
  match Snapshot.read store name with
  | exception Dqsq.Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "read %s past a broken link" name)

(* A store chain that lost or gained a file recovers to its longest valid
   prefix, and reading past a broken link is a typed error, never an
   exception of another kind or a spliced chain. *)
let test_chain_store_robustness () =
  let dir = "tmp_snap_chain_test" in
  let nth taken i = List.nth taken i in
  (* intact: every segment name reads back its own chain *)
  let store, taken = chain_in_store dir in
  Alcotest.(check (list int)) "a base, then segments" [ 1; 2; 3; 4 ]
    (List.map (fun (_, img) -> List.length (Dqsq.Wire.frames img.Snapshot.engine)) taken);
  List.iter
    (fun (name, (img : Snapshot.stream_image)) ->
      Alcotest.(check bool) (name ^ " reads its chain") true
        (String.equal img.Snapshot.engine (Snapshot.read store name).Snapshot.engine))
    taken;
  check_recovers "intact chain" store (nth taken 3);
  (* a torn last segment *)
  let name3 = fst (nth taken 3) in
  let bytes = In_channel.with_open_bin (Filename.concat dir name3) In_channel.input_all in
  Out_channel.with_open_bin (Filename.concat dir name3) (fun oc ->
      output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  check_recovers "torn last segment" store (nth taken 2);
  (* a deleted middle segment *)
  let store, taken = chain_in_store dir in
  Sys.remove (Filename.concat dir (fst (nth taken 2)));
  check_recovers "deleted middle segment" store (nth taken 1);
  corrupt_read store (fst (nth taken 3));
  (* a segment whose base belongs to another chain: the same session and
     alarm counts, but a base taken after a report *)
  let other = dir ^ "_other" in
  let _, foreign = chain_in_store ~reports_before:1 other in
  let store, taken = chain_in_store dir in
  let seg3 = fst (nth taken 3) in
  Sys.remove (Filename.concat dir seg3);
  Sys.remove (Filename.concat dir (fst (nth taken 2)));
  Sys.rename (Filename.concat other (fst (nth foreign 2))) (Filename.concat dir (fst (nth foreign 2)));
  check_recovers "foreign segment" store (nth taken 1);
  corrupt_read store (fst (nth foreign 2));
  rm_rf other;
  (* restore of a segment name whose base is gone *)
  let store, taken = chain_in_store dir in
  Sys.remove (Filename.concat dir (fst (nth taken 0)));
  corrupt_read store (fst (nth taken 2));
  Alcotest.(check (list (pair string int))) "no chain without its base" [] (scanned store);
  (* a segment write into a removed store directory fails, and the next
     write heals the chain *)
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = cycle_coordinator () in
  let sid = ok (Coordinator.open_stream coord ~tenant:"cycle") in
  let checkpoint_at upto =
    feed_cycles coord sid (ok (Coordinator.stream_info coord sid)).Coordinator.si_alarms upto;
    ok (Coordinator.checkpoint_stream coord sid)
  in
  ignore (Snapshot.write store (checkpoint_at 1000));
  ignore (Snapshot.write store (checkpoint_at 1100));
  rm_rf dir;
  (match Snapshot.write store (checkpoint_at 1200) with
  | exception Sys_error _ -> ()
  | name -> Alcotest.fail ("wrote " ^ name ^ " into a removed directory"));
  ignore (Snapshot.open_store dir);
  let img = checkpoint_at 1300 in
  let name = Snapshot.write store img in
  check_recovers "healed after a failed write" store (name, img);
  ok (Coordinator.close coord sid);
  rm_rf dir

(* Checkpointing a 5k-alarm stream every 500 alarms into a store writes
   what is new since the last checkpoint: every segment at most twice
   the first, whatever the prefix, and all of it at most three times one
   full snapshot of the final frontier (a full snapshot per checkpoint
   would write about 5.5 times). *)
let test_chain_bytes_scale () =
  let dir = "tmp_snap_scale_test" in
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = cycle_coordinator () in
  let sid = ok (Coordinator.open_stream coord ~tenant:"cycle") in
  let writes =
    List.init 10 (fun k ->
        feed_cycles coord sid (500 * k) (500 * (k + 1));
        let img = ok (Coordinator.checkpoint_stream coord sid) in
        let name = Snapshot.write store img in
        (List.length (Dqsq.Wire.frames img.Snapshot.engine) > 1, file_size dir name, img))
  in
  let segments = List.filter_map (fun (seg, bytes, _) -> if seg then Some bytes else None) writes in
  let total = List.fold_left (fun acc (_, bytes, _) -> acc + bytes) 0 writes in
  (* a restored stream starts a new chain: its first checkpoint is one
     full frame *)
  let _, _, last = List.nth writes 9 in
  let fresh = cycle_coordinator () in
  let restored = ok (Coordinator.restore_stream fresh last) in
  let full = String.length (Snapshot.encode_stream (ok (Coordinator.checkpoint_stream fresh restored))) in
  Alcotest.(check bool) "segments are written" true (List.length segments >= 5);
  let first = List.hd segments in
  List.iter
    (fun bytes ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %dB <= 2x the first (%dB)" bytes first)
        true (bytes <= 2 * first))
    segments;
  Alcotest.(check bool)
    (Printf.sprintf "%dB written <= 3x the final full snapshot (%dB)" total full)
    true (total <= 3 * full);
  List.iter (fun (c, sid) -> ok (Coordinator.close c sid)) [ (coord, sid); (fresh, restored) ];
  rm_rf dir

(* Client side of the socket tests: wait for the server's socket file,
   connect, and exchange one request line for one reply line. *)
let await_socket path =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let ask (_, ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  try input_line ic with End_of_file -> "<server gone>"

let starts prefix reply =
  Alcotest.(check string) reply prefix
    (String.sub reply 0 (min (String.length prefix) (String.length reply)))

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
    await_socket path;
    let ((sock, _, _) as client) = connect path in
    starts "ok stream 1" (ask client "stream t");
    starts "ok" (ask client "alarm 1 b p1");
    starts "ok checkpoint 1" (ask client "checkpoint 1");
    rm_rf dir;
    starts "err " (ask client "checkpoint 1");
    starts "ok stats" (ask client "stats");
    starts "ok bye" (ask client "quit");
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
    await_socket path;
    let ((sock, _, oc) as first) = connect path in
    starts "ok stream 1" (ask first "stream t");
    starts "ok" (ask first "alarm 1 b p1");
    (* many reports queued, then hang up without reading one reply *)
    for _ = 1 to 500 do
      output_string oc "report 1\n"
    done;
    flush oc;
    Unix.close sock;
    let ((sock, _, _) as second) =
      try connect path
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

(* a net the coordinator cannot binarize (a transition with three preset
   places) is refused with [err] by the [tenant] request, and the server
   goes on answering *)
let test_unbinarizable_tenant () =
  let net = "tmp_tri.net" and path = "tmp_serve_tri.sock" in
  let oc = open_out net in
  output_string oc
    "place 1 @p1 marked\nplace 2 @p1 marked\nplace 3 @p1 marked\nplace 4 @p1\n\
     trans t @p1 alarm a pre 1 2 3 post 4\n";
  close_out oc;
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Serve.socket (Coordinator.create ()) ~path ~once:true;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    await_socket path;
    let ((sock, _, _) as client) = connect path in
    let reply = ask client ("tenant a " ^ net) in
    starts "err tenant a: " reply;
    Alcotest.(check bool) "names the transition" true (contains reply "transition t");
    starts "ok stats tenants=0" (ask client "stats");
    starts "ok bye" (ask client "quit");
    Unix.close sock;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
    Sys.remove net

(* No input line is known to raise out of [Serve.handle], so the session
   loop's per-line guard is driven directly: a line whose handler raises
   gets [err internal: EXN] and serving goes on; [Shutdown] and a hung-up
   client still end the loop. *)
let test_line_guard () =
  let file = Filename.temp_file "serve_guard" ".out" in
  let oc = open_out file in
  let serve = function
    | "boom" -> failwith "boom"
    | "missing" -> raise Not_found
    | "quit" -> Serve.Quit
    | _ -> Serve.Continue
  in
  let outcomes = List.map (Serve.guarded oc serve) [ "boom"; "ok"; "missing"; "quit" ] in
  Alcotest.(check bool) "serving goes on" true
    (outcomes = [ Serve.Continue; Serve.Continue; Serve.Continue; Serve.Quit ]);
  List.iter
    (fun (name, exn) ->
      match Serve.guarded oc (fun _ -> raise exn) "x" with
      | exception e when e == exn -> ()
      | _ -> Alcotest.failf "%s did not end the loop" name)
    [ ("Shutdown", Serve.Shutdown); ("a hung-up client", Sys_error "Broken pipe") ];
  close_out oc;
  let answers = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check string) "one err line per raising line"
    "err internal: Failure(\"boom\")\nerr internal: Not_found\n" answers

(* a stream over the unsafe fixture fails at the firing that would put a
   second token on a marked place: the alarm answers [err], the stream
   stays failed, and the server goes on serving other sessions *)
let test_unsafe_net_stream () =
  let path = "tmp_serve_unsafe.sock" in
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Serve.socket (Coordinator.create ()) ~path ~once:true;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    await_socket path;
    let ((sock, _, _) as client) = connect path in
    (* the fixture sits beside the test binary, whatever the cwd *)
    let net =
      Filename.concat (Filename.dirname Sys.executable_name) "../examples/nets/unsafe.net"
    in
    starts "ok tenant u " (ask client ("tenant u " ^ net));
    starts "ok stream 1" (ask client "stream u");
    starts "ok" (ask client "alarm 1 a p1");
    let reply = ask client "alarm 1 b p2" in
    starts "err session 1 failed: net is not safe" reply;
    Alcotest.(check bool) "names the transition and the place" true
      (contains reply "t2" && contains reply "place 3");
    starts "err session 1 failed: net is not safe" (ask client "alarm 1 a p1");
    starts "err session 1 failed: net is not safe" (ask client "report 1");
    starts "ok stream 2" (ask client "stream u");
    starts "ok" (ask client "alarm 2 b p2");
    starts "ok stats tenants=1 active=2 running=0 streaming=1" (ask client "stats");
    starts "ok bye" (ask client "quit");
    Unix.close sock;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0)

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
    await_socket path;
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
          Alcotest.test_case "lifecycle errors" `Quick test_lifecycle_errors;
        Alcotest.test_case "unknown peer, batch and stream" `Quick
          test_unknown_peer_both_arms ] );
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
          Alcotest.test_case "chain store robustness" `Quick test_chain_store_robustness;
          Alcotest.test_case "checkpoint bytes scale with the delta" `Quick
            test_chain_bytes_scale;
          Alcotest.test_case "failed checkpoint write keeps serving" `Quick
            test_checkpoint_write_failure;
          Alcotest.test_case "graceful shutdown flushes" `Quick
            test_graceful_shutdown;
          Alcotest.test_case "client hang-up keeps serving" `Quick test_client_hangup;
          Alcotest.test_case "unsafe net fails the stream, not the server" `Quick
            test_unsafe_net_stream;
          Alcotest.test_case "unbinarizable tenant keeps serving" `Quick
            test_unbinarizable_tenant;
          Alcotest.test_case "a raising line keeps serving" `Quick test_line_guard ] );
      (* this group MUST run after "durability": once a domain has been
         spawned anywhere in the process, OCaml 5 permanently forbids
         Unix.fork (even after Domain.join) — and the graceful-shutdown
         test forks.  The jobs=2 run below spawns domains. *)
      ( "wire batching",
        [ Alcotest.test_case "parallel batches match sequential" `Quick
            test_parallel_batches_match_sequential;
          Alcotest.test_case "batch prices as one frame" `Quick
            test_batch_prices_as_one_frame ] ) ]
