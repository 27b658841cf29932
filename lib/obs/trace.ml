(** Span-based tracer with a bounded ring buffer and pluggable sinks.

    A span is a named, timed region with optional string attributes; spans
    nest (the depth is recorded for display). Completed spans go to the
    ring buffer — bounded, so tracing an arbitrarily long run keeps the
    last [capacity] spans — and to the active sink. With the sink [Off]
    and recording disabled (the default), {!with_span} costs one branch
    and no clock reads. *)

type sink =
  | Off
  | Stderr  (** human-readable lines, indented by nesting depth *)
  | Json_lines of out_channel  (** one JSON object per completed span *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_s : float;  (** wall-clock, seconds *)
  duration_s : float;
  depth : int;  (** nesting depth at emission, 0 = toplevel *)
}

let the_sink = ref Off
let recording = ref false
let capacity = ref 256
let ring : span option array ref = ref (Array.make 256 None)
let ring_pos = ref 0
let ring_len = ref 0
let depth = ref 0

let set_sink s = the_sink := s

let set_recording b = recording := b

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Trace.set_capacity: capacity must be positive";
  capacity := n;
  ring := Array.make n None;
  ring_pos := 0;
  ring_len := 0

let clear () =
  Array.fill !ring 0 (Array.length !ring) None;
  ring_pos := 0;
  ring_len := 0

let enabled () = !recording || !the_sink <> Off

let push sp =
  let r = !ring in
  r.(!ring_pos) <- Some sp;
  ring_pos := (!ring_pos + 1) mod Array.length r;
  if !ring_len < Array.length r then incr ring_len

(** Completed spans, oldest first (at most [capacity] of them). *)
let recent () : span list =
  let r = !ring in
  let n = Array.length r in
  let out = ref [] in
  for i = !ring_len downto 1 do
    match r.((!ring_pos - i + (n * 2)) mod n) with
    | Some sp -> out := sp :: !out
    | None -> ()
  done;
  List.rev !out

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let emit sp =
  match !the_sink with
  | Off -> ()
  | Stderr ->
    let attrs =
      match sp.attrs with
      | [] -> ""
      | l ->
        " ("
        ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) l)
        ^ ")"
    in
    Printf.eprintf "[trace] %s%s %.3fms%s\n%!"
      (String.make (2 * sp.depth) ' ')
      sp.name (sp.duration_s *. 1e3) attrs
  | Json_lines oc ->
    let attrs =
      String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           sp.attrs)
    in
    Printf.fprintf oc
      "{\"name\":\"%s\",\"start_s\":%.6f,\"duration_s\":%.9f,\"depth\":%d,\"attrs\":{%s}}\n%!"
      (json_escape sp.name) sp.start_s sp.duration_s sp.depth attrs

let finish name attrs t0 =
  let sp =
    { name; attrs; start_s = t0; duration_s = Clock.now_s () -. t0; depth = !depth }
  in
  push sp;
  emit sp

(** [with_span name f] times [f ()] as a span named [name]. Exceptions
    propagate; the span is still recorded. *)
let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Clock.now_s () in
    Stdlib.incr depth;
    match f () with
    | v ->
      Stdlib.decr depth;
      finish name attrs t0;
      v
    | exception e ->
      Stdlib.decr depth;
      finish name (("exception", Printexc.to_string e) :: attrs) t0;
      raise e
  end
