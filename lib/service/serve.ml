(* The `diag serve` front end: a line-oriented request/response protocol
   over stdin/stdout or a Unix-domain socket; see the .mli for the
   grammar. One coordinator serves every connection, so tenants and warm
   engine pools persist across clients.

   With a snapshot store attached, streaming sessions become durable:
   explicit [checkpoint]/[restore]/[recover] verbs, an every-N-alarms
   auto-checkpoint policy, and a graceful SIGINT/SIGTERM path that
   flushes every live stream to the store before closing the socket. *)

type checkpoints = {
  store : Snapshot.store;
  every : int option;  (* auto-checkpoint a stream every N alarms *)
  recover : bool;  (* restore a tenant's stored streams as it registers *)
}

exception Shutdown

(* Set with every [Shutdown]: an exception raised by a signal handler is
   lost if it lands inside a catch-all (closing a hung-up client's
   channel), the flag is not, so the accept loop still stops. *)
let shutdown_requested = ref false

let respond oc fmt =
  Printf.ksprintf
    (fun s ->
      output_string oc s;
      output_char oc '\n';
      flush oc)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_net path =
  match Petri.Parse.parse (read_file path) with
  | f -> Ok f.Petri.Parse.net
  | exception Petri.Parse.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
  | exception Sys_error m -> Error m

let int_arg s = int_of_string_opt s |> Option.to_result ~none:(s ^ " is not a session id")

let words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* [run] drives the target session to quiescence while still advancing
   every other running session: the client blocks, the coordinator does
   not. *)
let run_session coord sid =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* () =
    if Coordinator.is_done coord sid then Ok () else Coordinator.start coord sid
  in
  let* () = Coordinator.drive ~only:sid coord in
  Coordinator.report coord sid

(* ------------------------------------------------------------------ *)
(* Durability plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let need_checkpoints = function
  | Some ck -> Ok ck
  | None -> Error "no snapshot store (start serve with --checkpoint-dir)"

let snap_size store name =
  match Unix.stat (Filename.concat (Snapshot.dir store) name) with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* a store that cannot be written (removed, full, read-only) fails the
   one checkpoint, never the server *)
let write_checkpoint ck coord sid =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* img = Coordinator.checkpoint_stream coord sid in
  match Snapshot.write ck.store img with
  | name -> Ok (img, name)
  | exception Sys_error m -> Error m

(* every-N-alarms policy: fires after a stream alarm lands; failures are
   logged, never turned into request errors *)
let auto_checkpoint checkpoints coord sid =
  match checkpoints with
  | Some ({ every = Some n; _ } as ck) -> (
    match Coordinator.stream_info coord sid with
    | Ok si when si.Coordinator.si_alarms > 0 && si.Coordinator.si_alarms mod n = 0 -> (
      match write_checkpoint ck coord sid with
      | Ok (_, name) ->
        Printf.eprintf "serve: checkpointed session %d at %d alarms -> %s\n%!" sid
          si.Coordinator.si_alarms name
      | Error m -> Printf.eprintf "serve: auto-checkpoint of session %d failed: %s\n%!" sid m)
    | Ok _ | Error _ -> ())
  | Some { every = None; _ } | None -> ()

(* restore everything the store holds for [tenant] — the startup recovery
   scan, deferred to the moment the tenant's net becomes known *)
let recover_tenant ck coord tenant =
  List.iter
    (fun (name, (img : Snapshot.stream_image)) ->
      if String.equal img.Snapshot.tenant tenant then
        match Coordinator.restore_stream coord img with
        | Ok sid ->
          Printf.eprintf "serve: recovered session %d (tenant %s, %d alarms) from %s\n%!"
            sid tenant img.Snapshot.alarms name
        | Error m -> Printf.eprintf "serve: recovery of %s failed: %s\n%!" name m)
    (Snapshot.scan ck.store)

(* graceful shutdown: every live stream reaches the store before the
   process lets go *)
let flush_checkpoints checkpoints coord =
  match checkpoints with
  | None -> ()
  | Some ck ->
    List.iter
      (fun sid ->
        match write_checkpoint ck coord sid with
        | Ok (_, name) -> Printf.eprintf "serve: flushed session %d -> %s\n%!" sid name
        | Error m -> Printf.eprintf "serve: flush of session %d failed: %s\n%!" sid m)
      (Coordinator.streaming_sessions coord)

(* SIGINT/SIGTERM raise [Shutdown]; SIGPIPE is ignored, so a client that
   hangs up mid-reply surfaces as [Sys_error] on the write instead of
   killing the server *)
let with_signals f =
  let install s behavior =
    try Some (Sys.signal s behavior) with Invalid_argument _ | Sys_error _ -> None
  in
  let restore s = function
    | Some b -> ( try Sys.set_signal s b with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  shutdown_requested := false;
  let shutdown =
    Sys.Signal_handle
      (fun _ ->
        shutdown_requested := true;
        raise Shutdown)
  in
  let prev_int = install Sys.sigint shutdown in
  let prev_term = install Sys.sigterm shutdown in
  let prev_pipe = install Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      restore Sys.sigint prev_int;
      restore Sys.sigterm prev_term;
      restore Sys.sigpipe prev_pipe)
    f

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = Continue | Quit

let handle ?checkpoints coord oc line =
  let ( let* ) r f = match r with Ok v -> f v | Error m -> Error m in
  let reply = function
    | Ok () -> ()
    | Error m -> respond oc "err %s" m
  in
  match words line with
  | [] -> Continue
  | cmd :: _ when String.length cmd > 0 && cmd.[0] = '#' -> Continue
  | [ "quit" ] ->
    respond oc "ok bye";
    Quit
  | [ "tenant"; name; file ] ->
    reply
      (let* net = load_net file in
       let* placement = Coordinator.add_tenant coord ~name net in
       respond oc "ok tenant %s peers %s" name (String.concat "," placement);
       (match checkpoints with
       | Some ({ recover = true; _ } as ck) -> recover_tenant ck coord name
       | Some _ | None -> ());
       Ok ());
    Continue
  | [ "open"; tenant ] ->
    reply
      (let* sid = Coordinator.open_session coord ~tenant in
       respond oc "ok session %d" sid;
       Ok ());
    Continue
  | "stream" :: tenant :: rest ->
    reply
      (let* max_states =
         match rest with
         | [] -> Ok None
         | [ b ] ->
           (match int_of_string_opt b with
           | Some n -> Ok (Some n)
           | None -> Error (b ^ " is not a state budget"))
         | _ -> Error "usage: stream TENANT [MAX_STATES]"
       in
       let* sid =
         match max_states with
         | Some max_states -> Coordinator.open_stream ~max_states coord ~tenant
         | None -> Coordinator.open_stream coord ~tenant
       in
       respond oc "ok stream %d" sid;
       Ok ());
    Continue
  | [ "alarm"; sid; symbol; peer ] ->
    reply
      (let* sid = int_arg sid in
       let* () = Coordinator.add_alarm coord sid ~symbol ~peer in
       respond oc "ok";
       auto_checkpoint checkpoints coord sid;
       Ok ());
    Continue
  | [ "run"; sid ] ->
    reply
      (let* sid = int_arg sid in
       let* r = run_session coord sid in
       respond oc "ok done %d explanations %d deliveries %d wire_bytes %d" sid
         r.Coordinator.explanations r.Coordinator.deliveries r.Coordinator.wire_bytes;
       Ok ());
    Continue
  | [ "report"; sid ] ->
    reply
      (let* sid = int_arg sid in
       let* r = Coordinator.report coord sid in
       respond oc "ok report %d" sid;
       let lines =
         match List.rev (String.split_on_char '\n' r.Coordinator.body) with
         | "" :: rest -> List.rev rest
         | _ -> String.split_on_char '\n' r.Coordinator.body
       in
       List.iter (respond oc "  %s") lines;
       respond oc "end";
       Ok ());
    Continue
  | [ "checkpoint"; sid ] ->
    reply
      (let* ck = need_checkpoints checkpoints in
       let* sid = int_arg sid in
       let* _img, name = write_checkpoint ck coord sid in
       respond oc "ok checkpoint %d %s %d" sid name (snap_size ck.store name);
       Ok ());
    Continue
  | [ "restore"; file ] ->
    reply
      (let* ck = need_checkpoints checkpoints in
       let* img =
         match Snapshot.read ck.store file with
         | img -> Ok img
         | exception Dqsq.Wire.Corrupt m -> Error (Printf.sprintf "corrupt snapshot: %s" m)
         | exception Sys_error m -> Error m
       in
       let* sid = Coordinator.restore_stream coord img in
       respond oc "ok restored %d tenant %s alarms %d" sid img.Snapshot.tenant
         img.Snapshot.alarms;
       Ok ());
    Continue
  | [ "close"; sid ] ->
    reply
      (let* sid = int_arg sid in
       let* () = Coordinator.close coord sid in
       respond oc "ok closed %d" sid;
       Ok ());
    Continue
  | [ "recover" ] ->
    reply
      (let* ck = need_checkpoints checkpoints in
       let restored =
         List.filter_map
           (fun (name, img) ->
             match Coordinator.restore_stream coord img with
             | Ok sid -> Some (string_of_int sid)
             | Error m ->
               Printf.eprintf "serve: recovery of %s failed: %s\n%!" name m;
               None)
           (Snapshot.scan ck.store)
       in
       respond oc "ok recovered %d sessions%s" (List.length restored)
         (match restored with [] -> "" | l -> " " ^ String.concat "," l);
       Ok ());
    Continue
  | [ "stats" ] ->
    let s = Coordinator.stats coord in
    respond oc
      "ok stats tenants=%d active=%d running=%d streaming=%d pooled=%d started=%d \
       completed=%d wire_syms=%d wire_terms=%d"
      s.Coordinator.tenants_count s.Coordinator.active s.Coordinator.running
      s.Coordinator.streaming s.Coordinator.pooled s.Coordinator.started
      s.Coordinator.completed s.Coordinator.wire_symbols s.Coordinator.wire_terms;
    Continue
  | cmd :: _ ->
    respond oc "err unknown command %s" cmd;
    Continue

(* Serve one client to EOF or [quit]. A client that hangs up (a read or a
   write on its channel fails) ends its session, not the server. *)
let session_loop ?checkpoints coord ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
      match handle ?checkpoints coord oc line with Continue -> loop () | Quit -> ())
  in
  try loop () with Sys_error m -> Printf.eprintf "serve: client hung up: %s\n%!" m

let stdio ?checkpoints coord =
  with_signals @@ fun () ->
  (try session_loop ?checkpoints coord stdin stdout
   with Shutdown -> prerr_endline "serve: shutting down");
  flush_checkpoints checkpoints coord

let socket ?checkpoints coord ~path ~once =
  with_signals @@ fun () ->
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let serve_one () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* closing [oc] closes [fd] and drops what a hung-up client left
           unflushed, so no later flush writes it into a reused fd *)
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> session_loop ?checkpoints coord ic oc)
      in
      (try
         if once then serve_one ()
         else
           while not !shutdown_requested do
             serve_one ()
           done
       with Shutdown -> ());
      if !shutdown_requested then prerr_endline "serve: shutting down";
      flush_checkpoints checkpoints coord)
