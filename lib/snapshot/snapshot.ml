(* Durable stream snapshots; see the .mli for the contract. *)

module Wire = Dqsq.Wire

let checkpoints_c = Obs.Metrics.counter "snapshot.checkpoints"
let restores_c = Obs.Metrics.counter "snapshot.restores"
let bytes_written_c = Obs.Metrics.counter "snapshot.bytes_written"

type stream_image = {
  tenant : string;
  session : int;
  alarms : int;
  reports : int;
  wire_bytes : int;
  peak_live : int;
  engine : string;
}

(* Snapshot-frame sub-kinds: 0 is the engine frame (owned by Online),
   1 the stream envelope around it. *)
let sub_stream = 1

let encode_stream img =
  Wire.encode_snapshot (Wire.encoder ()) (fun buf ->
      Wire.put_uvarint buf sub_stream;
      Wire.put_string buf img.tenant;
      Wire.put_uvarint buf img.session;
      Wire.put_uvarint buf img.alarms;
      Wire.put_uvarint buf img.reports;
      Wire.put_uvarint buf img.wire_bytes;
      Wire.put_uvarint buf img.peak_live;
      Wire.put_string buf img.engine)

let decode_stream s =
  Wire.decode_snapshot (Wire.decoder ()) s @@ fun r ->
  (match Wire.get_uvarint r with
  | k when k = sub_stream -> ()
  | k -> raise (Wire.Corrupt (Printf.sprintf "expected stream snapshot, got sub-kind %d" k)));
  let tenant = Wire.get_string r in
  let session = Wire.get_uvarint r in
  let alarms = Wire.get_uvarint r in
  let reports = Wire.get_uvarint r in
  let wire_bytes = Wire.get_uvarint r in
  let peak_live = Wire.get_uvarint r in
  let engine = Wire.get_string r in
  { tenant; session; alarms; reports; wire_bytes; peak_live; engine }

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

type store = { dir : string }

let rec mkdirs dir =
  if not (String.equal dir "" || String.equal dir "." || String.equal dir "/")
     && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store dir =
  mkdirs dir;
  { dir }

let dir s = s.dir

let basename_of ~session ~alarms = Printf.sprintf "stream-%d-%d.snap" session alarms

(* [stream-<session>-<alarms>.snap], nothing else *)
let parse_basename name =
  match Scanf.sscanf_opt name "stream-%d-%d.snap%!" (fun s a -> (s, a)) with
  | Some (s, a) when String.equal name (basename_of ~session:s ~alarms:a) -> Some (s, a)
  | _ -> None

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc content

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write store img =
  let name = basename_of ~session:img.session ~alarms:img.alarms in
  let frame = encode_stream img in
  (* temp + rename: a crash mid-write leaves at worst a [.tmp-] file the
     scan ignores, never a torn [.snap] *)
  let tmp = Filename.concat store.dir (Printf.sprintf ".tmp-%s" name) in
  write_file tmp frame;
  Sys.rename tmp (Filename.concat store.dir name);
  Array.iter
    (fun other ->
      match parse_basename other with
      | Some (s, a) when s = img.session && a <> img.alarms ->
        (try Sys.remove (Filename.concat store.dir other) with Sys_error _ -> ())
      | _ -> ())
    (Sys.readdir store.dir);
  Obs.Metrics.incr checkpoints_c;
  Obs.Metrics.incr ~by:(String.length frame) bytes_written_c;
  name

(* only names [write] could have produced: a client-supplied [../x], an
   absolute path or a foreign file never resolves outside the store *)
let read store name =
  if Option.is_none (parse_basename name) then
    raise (Sys_error (Printf.sprintf "%s: not a snapshot name (stream-SID-ALARMS.snap)" name));
  let img = decode_stream (read_file (Filename.concat store.dir name)) in
  Obs.Metrics.incr restores_c;
  img

let scan store =
  let latest = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      match parse_basename name with
      | None -> ()
      | Some (session, alarms) -> (
        match
          try Some (decode_stream (read_file (Filename.concat store.dir name)))
          with Wire.Corrupt _ | Sys_error _ -> None
        with
        | None -> ()
        | Some img -> (
          match Hashtbl.find_opt latest session with
          | Some (a, _, _) when a >= alarms -> ()
          | _ -> Hashtbl.replace latest session (alarms, name, img))))
    (Sys.readdir store.dir);
  Hashtbl.fold (fun _ (_, name, img) acc -> (name, img) :: acc) latest []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a.session b.session)
