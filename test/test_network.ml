(* Tests for the asynchronous network simulator and the Dijkstra–Scholten
   termination detector. *)

open Network

type msg = Ping of int | Token of int

(* Test messages cross the network as text frames, "P<n>" or "T<n>". *)
let encode = function Ping i -> Printf.sprintf "P%d" i | Token i -> Printf.sprintf "T%d" i

let decode frame =
  let n = int_of_string (String.sub frame 1 (String.length frame - 1)) in
  if frame.[0] = 'P' then Ping n else Token n

let codec ~src:_ ~dst:_ = (encode, decode)

(* The Dijkstra–Scholten tests send [int] work wrapped with acks. *)
let ds_codec ~src:_ ~dst:_ =
  ( (function Termination.Work n -> string_of_int n | Termination.Ack -> "ack"),
    function "ack" -> Termination.Ack | n -> Termination.Work (int_of_string n) )

let test_fifo_per_channel () =
  (* messages on one channel arrive in order, whatever the policy *)
  let received = ref [] in
  let sim = Sim.create ~seed:3 ~codec () in
  Sim.add_peer sim "a" (fun _ ~src:_ _ -> ());
  Sim.add_peer sim "b" (fun _ ~src:_ m ->
      match m with Ping i -> received := i :: !received | Token _ -> ());
  for i = 1 to 20 do
    Sim.send sim ~src:"a" ~dst:"b" (Ping i)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo order" (List.init 20 (fun i -> i + 1)) (List.rev !received)

let test_interleaving_differs_across_channels () =
  (* with two source channels, random interleaving mixes them but preserves
     each source's order *)
  let received = ref [] in
  let sim = Sim.create ~seed:7 ~codec () in
  Sim.add_peer sim "a" (fun _ ~src:_ _ -> ());
  Sim.add_peer sim "b" (fun _ ~src:_ _ -> ());
  Sim.add_peer sim "c" (fun _ ~src m ->
      match m with Ping i -> received := (src, i) :: !received | Token _ -> ());
  for i = 1 to 10 do
    Sim.send sim ~src:"a" ~dst:"c" (Ping i);
    Sim.send sim ~src:"b" ~dst:"c" (Ping i)
  done;
  ignore (Sim.run sim);
  let log = List.rev !received in
  let from p = List.filter_map (fun (q, i) -> if q = p then Some i else None) log in
  Alcotest.(check (list int)) "a order" (List.init 10 (fun i -> i + 1)) (from "a");
  Alcotest.(check (list int)) "b order" (List.init 10 (fun i -> i + 1)) (from "b");
  Alcotest.(check int) "all delivered" 20 (List.length log)

(* Round robin cycles over the channels in creation order, from the first
   one created, and passes over the empty ones. *)
let test_round_robin_order () =
  let served = ref [] in
  let sim = Sim.create ~policy:Sim.Round_robin ~codec () in
  List.iter (fun p -> Sim.add_peer sim p (fun _ ~src:_ _ -> ())) [ "a"; "b"; "c" ];
  Sim.add_peer sim "z" (fun _ ~src _ -> served := src :: !served);
  List.iter
    (fun (src, k) ->
      for i = 1 to k do
        Sim.send sim ~src ~dst:"z" (Ping i)
      done)
    [ ("a", 3); ("b", 1); ("c", 3) ];
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "creation order, empty channels passed over"
    [ "a"; "b"; "c"; "a"; "c"; "a"; "c" ] (List.rev !served)

let test_handlers_can_send () =
  (* a token passes around a ring 3 times *)
  let hops = ref 0 in
  let sim = Sim.create ~seed:1 ~codec () in
  let peers = [ "p0"; "p1"; "p2" ] in
  List.iteri
    (fun k id ->
      Sim.add_peer sim id (fun sim ~src:_ m ->
          match m with
          | Token n when n > 0 ->
            incr hops;
            Sim.send sim ~src:id ~dst:(List.nth peers ((k + 1) mod 3)) (Token (n - 1))
          | Token _ -> incr hops
          | Ping _ -> ()))
    peers;
  Sim.send sim ~src:"env" ~dst:"p0" (Token 8);
  ignore (Sim.run sim);
  Alcotest.(check int) "9 hops" 9 !hops;
  Alcotest.(check bool) "quiescent" true (Sim.is_quiescent sim)

(* bytes are the lengths of the frames that crossed, per channel and in
   total *)
let test_stats () =
  let sim = Sim.create ~seed:1 ~codec () in
  Sim.add_peer sim "x" (fun _ ~src:_ _ -> ());
  Sim.add_peer sim "y" (fun _ ~src:_ _ -> ());
  let to_x = [ Ping 5; Ping 12345 ] and to_y = [ Token 7 ] in
  List.iter (Sim.send sim ~src:"e" ~dst:"x") to_x;
  List.iter (Sim.send sim ~src:"e" ~dst:"y") to_y;
  ignore (Sim.run sim);
  let frame_bytes ms = List.fold_left (fun n m -> n + String.length (encode m)) 0 ms in
  let s = Sim.stats sim in
  Alcotest.(check int) "sent" 3 s.Sim.sent;
  Alcotest.(check int) "delivered" 3 s.Sim.delivered;
  Alcotest.(check int) "bytes" (frame_bytes (to_x @ to_y)) s.Sim.bytes;
  match s.Sim.channels with
  | [ (("e", "x"), x); (("e", "y"), y) ] ->
    Alcotest.(check int) "e->x msgs" 2 x.Sim.msgs;
    Alcotest.(check int) "e->x bytes" (frame_bytes to_x) x.Sim.bytes;
    Alcotest.(check int) "e->y msgs" 1 y.Sim.msgs;
    Alcotest.(check int) "e->y bytes" (frame_bytes to_y) y.Sim.bytes
  | _ -> Alcotest.fail "expected exactly the e->x and e->y channels"

(* the receiver gets the message as it was framed at send: a sender that
   mutates its payload afterwards changes nothing in flight *)
let test_frames_not_references () =
  let sim =
    Sim.create ~seed:1
      ~codec:(fun ~src:_ ~dst:_ ->
        ((fun (b : Bytes.t) -> Bytes.to_string b), Bytes.of_string))
      ()
  in
  let received = ref [] in
  Sim.add_peer sim "x" (fun _ ~src:_ b -> received := Bytes.to_string b :: !received);
  let payload = Bytes.of_string "sent" in
  Sim.send sim ~src:"e" ~dst:"x" payload;
  Bytes.blit_string "MUTD" 0 payload 0 4;
  Sim.send sim ~src:"e" ~dst:"x" payload;
  Bytes.blit_string "gone" 0 payload 0 4;
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "values as at send time" [ "sent"; "MUTD" ]
    (List.rev !received)

let test_budget () =
  (* two peers ping-pong forever; the step budget stops the run *)
  let sim = Sim.create ~seed:1 ~codec () in
  Sim.add_peer sim "a" (fun sim ~src:_ m -> Sim.send sim ~src:"a" ~dst:"b" m);
  Sim.add_peer sim "b" (fun sim ~src:_ m -> Sim.send sim ~src:"b" ~dst:"a" m);
  Sim.send sim ~src:"e" ~dst:"a" (Ping 0);
  match Sim.run ~max_steps:100 sim with
  | exception Sim.Budget_exhausted _ -> ()
  | _ -> Alcotest.fail "should not terminate"

let test_unknown_peer () =
  let sim = Sim.create ~codec () in
  match Sim.send sim ~src:"a" ~dst:"ghost" (Ping 1) with
  | exception Sim.Unknown_peer "ghost" -> ()
  | _ -> Alcotest.fail "should reject unknown destination"

let test_unknown_peer_among_registered () =
  (* registration of other peers does not make an unregistered destination
     reachable, and the exception names the missing peer *)
  let sim = Sim.create ~codec () in
  Sim.add_peer sim "a" (fun _ ~src:_ _ -> ());
  Sim.add_peer sim "b" (fun _ ~src:_ _ -> ());
  Alcotest.(check bool) "has a" true (Sim.has_peer sim "a");
  Alcotest.(check bool) "no ghost" false (Sim.has_peer sim "ghost");
  (match Sim.send sim ~src:"a" ~dst:"ghost" (Ping 1) with
  | exception Sim.Unknown_peer "ghost" -> ()
  | _ -> Alcotest.fail "should reject unknown destination");
  (* the failed send is not accounted and nothing is queued *)
  Alcotest.(check int) "nothing sent" 0 (Sim.stats sim).Sim.sent;
  Alcotest.(check bool) "still quiescent" true (Sim.is_quiescent sim)

let test_budget_carries_value () =
  (* the exception payload is the exhausted budget itself, under either
     scheduler *)
  List.iter
    (fun (name, run) ->
      let sim = Sim.create ~seed:1 ~codec () in
      Sim.add_peer sim "a" (fun sim ~src:_ m -> Sim.send sim ~src:"a" ~dst:"b" m);
      Sim.add_peer sim "b" (fun sim ~src:_ m -> Sim.send sim ~src:"b" ~dst:"a" m);
      Sim.send sim ~src:"e" ~dst:"a" (Ping 0);
      match run sim with
      | exception Sim.Budget_exhausted n ->
        Alcotest.(check int) (name ^ ": budget in payload") 37 n
      | _ -> Alcotest.failf "%s: should not terminate" name)
    [ ("sequential", Sim.run ~max_steps:37);
      ("parallel", Sim.run_parallel ~jobs:2 ~max_steps:37) ]

exception Handler_failed

let test_parallel_handler_error () =
  (* a handler that raises on a worker domain fails the run with its
     exception, and leaves the worker pool able to run the next network *)
  let rally ~fail_at =
    let sim = Sim.create ~codec () in
    Sim.add_peer sim "a" (fun sim ~src:_ m ->
        match m with
        | Ping i when i = fail_at -> raise Handler_failed
        | Ping i when i < 20 -> Sim.send sim ~src:"a" ~dst:"b" (Ping (i + 1))
        | _ -> ());
    Sim.add_peer sim "b" (fun sim ~src:_ m -> Sim.send sim ~src:"b" ~dst:"a" m);
    Sim.send sim ~src:"e" ~dst:"a" (Ping 0);
    sim
  in
  (match Sim.run_parallel ~jobs:2 (rally ~fail_at:10) with
  | exception Handler_failed -> ()
  | _ -> Alcotest.fail "the handler's exception should reach the caller");
  Alcotest.(check int) "next run completes" 41
    (Sim.run_parallel ~jobs:2 (rally ~fail_at:(-1)))

let test_loss_injection_drops () =
  (* with loss injected, drops actually happen, are accounted, and the
     bookkeeping stays consistent: sent = delivered + dropped, and only
     delivered messages reach the handler *)
  let received = ref 0 in
  let sim = Sim.create ~seed:5 ~loss:0.5 ~codec () in
  Sim.add_peer sim "x" (fun _ ~src:_ _ -> incr received);
  let n = 200 in
  for i = 1 to n do
    Sim.send sim ~src:"e" ~dst:"x" (Ping i)
  done;
  ignore (Sim.run sim);
  let s = Sim.stats sim in
  Alcotest.(check int) "all sends accounted" n s.Sim.sent;
  Alcotest.(check bool) "some messages dropped" true (s.Sim.dropped > 0);
  Alcotest.(check bool) "some messages survive" true (s.Sim.delivered > 0);
  Alcotest.(check int) "sent = delivered + dropped" n (s.Sim.delivered + s.Sim.dropped);
  Alcotest.(check int) "handler saw exactly the delivered" s.Sim.delivered !received

let test_loss_zero_drops_nothing () =
  let sim = Sim.create ~seed:5 ~loss:0.0 ~codec () in
  Sim.add_peer sim "x" (fun _ ~src:_ _ -> ());
  for i = 1 to 50 do
    Sim.send sim ~src:"e" ~dst:"x" (Ping i)
  done;
  ignore (Sim.run sim);
  let s = Sim.stats sim in
  Alcotest.(check int) "no drops" 0 s.Sim.dropped;
  Alcotest.(check int) "all delivered" 50 s.Sim.delivered

let test_loss_validated () =
  (match Sim.create ~loss:1.0 ~codec () with
  | exception Invalid_argument _ -> ()
  | (_ : msg Sim.t) -> Alcotest.fail "loss = 1.0 should be rejected");
  match Sim.create ~loss:(-0.1) ~codec () with
  | exception Invalid_argument _ -> ()
  | (_ : msg Sim.t) -> Alcotest.fail "negative loss should be rejected"

(* --------------------- termination detection ---------------------- *)

(* A diffusing computation: each peer, on receiving [n], forwards [n-1] to a
   few random-ish neighbours while n > 0. Work happens asynchronously; the
   detector must fire exactly when everything (including acks) settles. *)
let run_diffusion ~peers ~fanout ~depth ~seed =
  let sim = Sim.create ~seed ~codec:ds_codec () in
  let det = Termination.create ~root:"#root" () in
  let work_done = ref 0 in
  let terminated_at = ref (-1) in
  let names = List.init peers (fun i -> Printf.sprintf "w%d" i) in
  List.iteri
    (fun k id ->
      Termination.add_peer det sim id ~handler:(fun ~send ~src:_ n ->
          incr work_done;
          if n > 0 then
            for j = 1 to fanout do
              let dst = List.nth names ((k + j) mod peers) in
              send ~dst (n - 1)
            done))
    names;
  Termination.add_root det sim ~handler:(fun ~send:_ ~src:_ _ -> ());
  Termination.on_termination det (fun () -> terminated_at := !work_done);
  Termination.start det sim ~dst:"w0" depth;
  ignore (Sim.run sim);
  (det, !work_done, !terminated_at)

let test_ds_detects_termination () =
  let det, work_done, terminated_at = run_diffusion ~peers:5 ~fanout:2 ~depth:4 ~seed:11 in
  Alcotest.(check bool) "terminated" true (Termination.is_terminated det);
  (* total work = sum over levels of fanout^level *)
  let expected = (1 lsl 5) - 1 (* 2^0+...+2^4 *) in
  Alcotest.(check int) "all work done" expected work_done;
  Alcotest.(check int) "termination announced only after all work" expected terminated_at

let test_ds_no_early_announcement_under_policies () =
  List.iter
    (fun seed ->
      let det, work_done, terminated_at = run_diffusion ~peers:7 ~fanout:2 ~depth:5 ~seed in
      Alcotest.(check bool) "terminated" true (Termination.is_terminated det);
      Alcotest.(check int)
        (Printf.sprintf "no early announcement (seed %d)" seed)
        work_done terminated_at)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_ds_trivial () =
  (* work that spawns nothing terminates immediately after one delivery *)
  let det, work_done, _ = run_diffusion ~peers:3 ~fanout:3 ~depth:0 ~seed:2 in
  Alcotest.(check bool) "terminated" true (Termination.is_terminated det);
  Alcotest.(check int) "one unit of work" 1 work_done

let suite =
  [ ( "sim",
      [ Alcotest.test_case "fifo per channel" `Quick test_fifo_per_channel;
        Alcotest.test_case "interleaving across channels" `Quick
          test_interleaving_differs_across_channels;
        Alcotest.test_case "round robin order" `Quick test_round_robin_order;
        Alcotest.test_case "handlers can send" `Quick test_handlers_can_send;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "frames, not references" `Quick test_frames_not_references;
        Alcotest.test_case "budget" `Quick test_budget;
        Alcotest.test_case "budget carries value" `Quick test_budget_carries_value;
        Alcotest.test_case "parallel handler error" `Quick test_parallel_handler_error;
        Alcotest.test_case "unknown peer" `Quick test_unknown_peer;
        Alcotest.test_case "unknown peer among registered" `Quick
          test_unknown_peer_among_registered;
        Alcotest.test_case "loss injection drops" `Quick test_loss_injection_drops;
        Alcotest.test_case "loss zero drops nothing" `Quick test_loss_zero_drops_nothing;
        Alcotest.test_case "loss rate validated" `Quick test_loss_validated ] );
    ( "termination",
      [ Alcotest.test_case "detects termination" `Quick test_ds_detects_termination;
        Alcotest.test_case "never announces early" `Quick
          test_ds_no_early_announcement_under_policies;
        Alcotest.test_case "trivial computation" `Quick test_ds_trivial ] ) ]

let () = Alcotest.run "network" suite
