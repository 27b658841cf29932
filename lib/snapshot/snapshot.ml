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
   1 the stream envelope around a whole chain, 2 the envelope of a
   segment file: the frames a store file adds to its predecessor's. *)
let sub_stream = 1
let sub_segment = 2

let put_image buf img =
  Wire.put_string buf img.tenant;
  Wire.put_uvarint buf img.session;
  Wire.put_uvarint buf img.alarms;
  Wire.put_uvarint buf img.reports;
  Wire.put_uvarint buf img.wire_bytes;
  Wire.put_uvarint buf img.peak_live;
  Wire.put_string buf img.engine

let get_image r =
  let tenant = Wire.get_string r in
  let session = Wire.get_uvarint r in
  let alarms = Wire.get_uvarint r in
  let reports = Wire.get_uvarint r in
  let wire_bytes = Wire.get_uvarint r in
  let peak_live = Wire.get_uvarint r in
  let engine = Wire.get_string r in
  { tenant; session; alarms; reports; wire_bytes; peak_live; engine }

let encode_stream img =
  Wire.encode_snapshot (Wire.encoder ()) (fun buf ->
      Wire.put_uvarint buf sub_stream;
      put_image buf img)

(* A store file: a whole image (a base), or a segment — the image's
   metadata and the frames it adds, linked to the file it extends by that
   file's alarm count and the digest of its bytes. *)
type file =
  | Base of stream_image
  | Segment of { seg : stream_image;  (** [engine] holds the added frames *)
                 prev_alarms : int; prev_digest : string }

let meta = function Base img -> img | Segment { seg; _ } -> seg

let encode_segment seg ~prev_alarms ~prev_digest =
  Wire.encode_snapshot (Wire.encoder ()) (fun buf ->
      Wire.put_uvarint buf sub_segment;
      Wire.put_uvarint buf prev_alarms;
      Wire.put_string buf prev_digest;
      put_image buf seg)

let decode_file s =
  Wire.decode_snapshot (Wire.decoder ()) s @@ fun r ->
  match Wire.get_uvarint r with
  | k when k = sub_stream -> Base (get_image r)
  | k when k = sub_segment ->
    let prev_alarms = Wire.get_uvarint r in
    let prev_digest = Wire.get_string r in
    Segment { seg = get_image r; prev_alarms; prev_digest }
  | k -> raise (Wire.Corrupt (Printf.sprintf "expected a stream snapshot, got sub-kind %d" k))

let decode_stream s =
  match decode_file s with
  | Base img -> img
  | Segment _ -> raise (Wire.Corrupt "a chain segment is not a self-contained image")

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(* What one handle wrote of a session's chain, base first: each file
   completes the first [upto] bytes of the engine chain, whose digest is
   [chain_digest]. *)
type link = {
  name : string;
  l_alarms : int;
  upto : int;
  chain_digest : Digest.t;
  file_digest : Digest.t;
}

type store = { dir : string; chains : (int, link list) Hashtbl.t }

let rec mkdirs dir =
  if not (String.equal dir "" || String.equal dir "." || String.equal dir "/")
     && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store dir =
  mkdirs dir;
  { dir; chains = Hashtbl.create 8 }

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
  let path n = Filename.concat store.dir n in
  let len = String.length img.engine in
  (* the files of this session's chain that are still on disk and that
     the image's chain extends by at least one byte: a link's digest
     matching means every earlier one does *)
  let rec on_disk = function
    | l :: rest when (not (String.equal l.name name)) && Sys.file_exists (path l.name) ->
      l :: on_disk rest
    | _ -> []
  in
  let rec extended = function
    | l :: rest
      when not (l.upto < len && String.equal l.chain_digest (Digest.substring img.engine 0 l.upto))
      ->
      extended rest
    | kept -> kept
  in
  let kept =
    extended (List.rev (on_disk (Option.value ~default:[] (Hashtbl.find_opt store.chains img.session))))
  in
  let content =
    match kept with
    | [] -> encode_stream img
    | prev :: _ ->
      encode_segment
        { img with engine = String.sub img.engine prev.upto (len - prev.upto) }
        ~prev_alarms:prev.l_alarms ~prev_digest:prev.file_digest
  in
  (* temp + rename: a crash mid-write leaves at worst a [.tmp-] file the
     scan ignores, never a torn [.snap] *)
  let tmp = path (Printf.sprintf ".tmp-%s" name) in
  write_file tmp content;
  Sys.rename tmp (path name);
  let chain =
    List.rev_append kept
      [ { name; l_alarms = img.alarms; upto = len; chain_digest = Digest.string img.engine;
          file_digest = Digest.string content } ]
  in
  Hashtbl.replace store.chains img.session chain;
  (* the session's files outside its chain: an older chain, or files cut
     off by a missing link *)
  Array.iter
    (fun other ->
      match parse_basename other with
      | Some (s, _) when s = img.session && not (List.exists (fun l -> String.equal l.name other) chain)
        ->
        (try Sys.remove (path other) with Sys_error _ -> ())
      | _ -> ())
    (Sys.readdir store.dir);
  Obs.Metrics.incr checkpoints_c;
  Obs.Metrics.incr ~by:(String.length content) bytes_written_c;
  name

let corrupt fmt = Printf.ksprintf (fun m -> raise (Wire.Corrupt m)) fmt

(* a file's bytes and content, which must be what its name says *)
let load_file store name =
  let bytes = read_file (Filename.concat store.dir name) in
  let file = decode_file bytes in
  let m = meta file in
  if not (String.equal name (basename_of ~session:m.session ~alarms:m.alarms)) then
    corrupt "%s holds the snapshot of session %d at %d alarms" name m.session m.alarms;
  (bytes, file)

(* The image of the chain up to file [name]: its own metadata, and the
   engine frames of every file back to a base. Each segment must name an
   earlier file of the same session and tenant whose bytes have the
   digest it recorded, so a missing, torn or foreign link stops the
   walk ([Wire.Corrupt]) rather than splice two chains. *)
let chain_of load name =
  let rec back name file frames =
    match file with
    | Base img -> img.engine :: frames
    | Segment { seg; prev_alarms; prev_digest } ->
      if prev_alarms >= seg.alarms then corrupt "segment %s links forward" name;
      let prev = basename_of ~session:seg.session ~alarms:prev_alarms in
      let pbytes, pfile =
        try load prev with Sys_error _ -> corrupt "segment %s: its predecessor %s is missing" name prev
      in
      if not (String.equal (Digest.string pbytes) prev_digest && String.equal (meta pfile).tenant seg.tenant)
      then corrupt "segment %s does not extend %s: another chain" name prev;
      back prev pfile (seg.engine :: frames)
  in
  let _, file = load name in
  { (meta file) with engine = String.concat "" (back name file []) }

(* only names [write] could have produced: a client-supplied [../x], an
   absolute path or a foreign file never resolves outside the store *)
let read store name =
  if Option.is_none (parse_basename name) then
    raise (Sys_error (Printf.sprintf "%s: not a snapshot name (stream-SID-ALARMS.snap)" name));
  let img = chain_of (load_file store) name in
  Obs.Metrics.incr restores_c;
  img

let scan store =
  let files = Hashtbl.create 16 in
  Array.iter
    (fun name ->
      if Option.is_some (parse_basename name) then
        match load_file store name with
        | loaded -> Hashtbl.replace files name loaded
        | exception (Wire.Corrupt _ | Sys_error _) -> ())
    (Sys.readdir store.dir);
  let load name =
    match Hashtbl.find_opt files name with
    | Some loaded -> loaded
    | None -> raise (Sys_error (name ^ ": not a readable snapshot"))
  in
  (* per session, the latest file whose chain holds *)
  let latest = Hashtbl.create 8 in
  Hashtbl.fold (fun name (_, file) acc -> (meta file, name) :: acc) files []
  |> List.sort (fun (a, _) (b, _) -> compare (a.session, -a.alarms) (b.session, -b.alarms))
  |> List.iter (fun (m, name) ->
         if not (Hashtbl.mem latest m.session) then
           match chain_of load name with
           | img -> Hashtbl.replace latest m.session (name, img)
           | exception Wire.Corrupt _ -> ());
  Hashtbl.fold (fun _ entry acc -> entry :: acc) latest []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a.session b.session)
