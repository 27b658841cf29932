(** Wire: the compact, versioned binary codec for protocol messages.

    Frames are length-prefixed: an unsigned LEB128 varint byte count
    followed by the body, whose first byte is the codec version and second
    the frame kind (message, configuration set, ack). Both sides of a
    connection keep append-only symbol and term tables: the first
    occurrence of a symbol costs its name, later occurrences one small
    varint; likewise a hash-consed term spine is serialized node by node
    once and then referenced by id — the deep Skolem spines h(h(h(...)))
    the diagnosis programs share between facts cross the wire a single
    time per connection. Decoding re-interns through the hash-consing
    smart constructors, so a decoded term is physically equal to the term
    that was encoded ([Term.equal], which IS pointer equality).

    Process-wide counters [wire.bytes_sent] / [wire.bytes_recv] /
    [wire.frames] account every frame; the network simulator's byte
    accounting is fed by {!wrapped_sizer}, which encodes each message with
    the sending channel's connection state — real codec bytes, not
    estimates. *)

open Datalog
module Ds = Network.Termination

let version = 1

let bytes_sent_c = Obs.Metrics.counter "wire.bytes_sent"
let bytes_recv_c = Obs.Metrics.counter "wire.bytes_recv"
let frames_c = Obs.Metrics.counter "wire.frames"

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)
(* ------------------------------------------------------------------ *)

type encoder = {
  e_syms : (Symbol.t, int) Hashtbl.t;
  mutable e_nsyms : int;
  e_terms : (int, int) Hashtbl.t;  (* Term.tag -> wire id *)
  mutable e_nterms : int;
  e_buf : Buffer.t;  (* scratch: the body of the frame being built *)
}

let encoder () =
  { e_syms = Hashtbl.create 64; e_nsyms = 0; e_terms = Hashtbl.create 256;
    e_nterms = 0; e_buf = Buffer.create 256 }

(* Dynamic arrays for the id -> value direction; [Term.var "_"] and the
   empty symbol are placeholders for unused slots, never read. *)
type decoder = {
  mutable d_syms : Symbol.t array;
  mutable d_nsyms : int;
  mutable d_terms : Term.t array;
  mutable d_nterms : int;
}

let decoder () =
  { d_syms = Array.make 64 (Symbol.intern ""); d_nsyms = 0;
    d_terms = Array.make 256 (Term.var "_"); d_nterms = 0 }

let push slot n arr v =
  let arr = if n < Array.length arr then arr
    else begin
      let grown = Array.make (2 * Array.length arr) v in
      Array.blit arr 0 grown 0 n;
      grown
    end
  in
  arr.(n) <- v;
  slot arr;
  n + 1

let push_sym d s = d.d_nsyms <- push (fun a -> d.d_syms <- a) d.d_nsyms d.d_syms s
let push_term d t = d.d_nterms <- push (fun a -> d.d_terms <- a) d.d_nterms d.d_terms t

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let put_uvarint buf n =
  if n < 0 then invalid_arg "Wire.put_uvarint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_string buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let get_byte r =
  if r.pos >= String.length r.src then corrupt "truncated frame";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_uvarint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let b = get_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then corrupt "varint overflow";
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_string r =
  let n = get_uvarint r in
  (* [r.pos + n] could overflow *)
  if n > String.length r.src - r.pos then corrupt "truncated string";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Evaluation order of [List.init] is unspecified; decoding is order-
   sensitive (table ids), so build lists with an explicit loop. *)
let get_list n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

(* ------------------------------------------------------------------ *)
(* Symbols and terms: definition-or-reference                          *)
(* ------------------------------------------------------------------ *)

(* 0 = a definition follows (and is appended to the table);
   k > 0 = reference to table entry k-1. Children are defined before
   their parent on both sides, so the tables stay aligned. *)

let put_symbol e buf s =
  match Hashtbl.find_opt e.e_syms s with
  | Some id -> put_uvarint buf (id + 1)
  | None ->
    put_uvarint buf 0;
    put_string buf (Symbol.name s);
    Hashtbl.add e.e_syms s e.e_nsyms;
    e.e_nsyms <- e.e_nsyms + 1

let get_symbol d r =
  let k = get_uvarint r in
  if k = 0 then begin
    let s = Symbol.intern (get_string r) in
    push_sym d s;
    s
  end
  else begin
    let id = k - 1 in
    if id >= d.d_nsyms then corrupt "symbol id %d out of range" id;
    d.d_syms.(id)
  end

let rec put_term e buf t =
  match Hashtbl.find_opt e.e_terms (Term.tag t) with
  | Some id -> put_uvarint buf (id + 1)
  | None ->
    put_uvarint buf 0;
    (match Term.view t with
    | Term.Const s ->
      Buffer.add_char buf '\000';
      put_symbol e buf s
    | Term.Var v ->
      Buffer.add_char buf '\001';
      put_string buf v
    | Term.App (f, args) ->
      Buffer.add_char buf '\002';
      put_symbol e buf f;
      put_uvarint buf (List.length args);
      List.iter (put_term e buf) args);
    Hashtbl.add e.e_terms (Term.tag t) e.e_nterms;
    e.e_nterms <- e.e_nterms + 1

let rec get_term d r =
  let k = get_uvarint r in
  if k > 0 then begin
    let id = k - 1 in
    if id >= d.d_nterms then corrupt "term id %d out of range" id;
    d.d_terms.(id)
  end
  else begin
    let t =
      match get_byte r with
      | 0 -> Term.cconst (get_symbol d r)
      | 1 -> Term.var (get_string r)
      | 2 ->
        let f = get_symbol d r in
        let n = get_uvarint r in
        Term.capp f (get_list n (fun () -> get_term d r))
      | b -> corrupt "bad term tag %d" b
    in
    push_term d t;
    t
  end

(* ------------------------------------------------------------------ *)
(* Atoms, located atoms, literals, messages                            *)
(* ------------------------------------------------------------------ *)

let put_terms e buf ts =
  put_uvarint buf (List.length ts);
  List.iter (put_term e buf) ts

let get_terms d r = get_list (get_uvarint r) (fun () -> get_term d r)

let put_atom e buf (a : Atom.t) =
  put_symbol e buf a.Atom.rel;
  put_terms e buf a.Atom.args

let get_atom d r =
  let rel = get_symbol d r in
  Atom.cmake rel (get_terms d r)

let put_datom e buf (a : Datom.t) =
  put_string buf a.Datom.rel;
  put_string buf a.Datom.peer;
  put_terms e buf a.Datom.args

let get_datom d r =
  let rel = get_string r in
  let peer = get_string r in
  Datom.make ~rel ~peer (get_terms d r)

let put_literal e buf = function
  | Drule.Pos a ->
    Buffer.add_char buf '\000';
    put_datom e buf a
  | Drule.Neq (x, y) ->
    Buffer.add_char buf '\001';
    put_term e buf x;
    put_term e buf y

let get_literal d r =
  match get_byte r with
  | 0 -> Drule.Pos (get_datom d r)
  | 1 ->
    let x = get_term d r in
    Drule.Neq (x, get_term d r)
  | b -> corrupt "bad literal tag %d" b

let rec put_message e buf (m : Message.t) =
  match m with
  | Message.Activate rel ->
    Buffer.add_char buf '\000';
    put_string buf rel
  | Message.Subscribe s ->
    Buffer.add_char buf '\001';
    put_symbol e buf s
  | Message.Fact a ->
    Buffer.add_char buf '\002';
    put_atom e buf a
  | Message.Delegate d ->
    Buffer.add_char buf '\003';
    put_string buf d.Message.d_key;
    put_string buf d.Message.d_origin_rel;
    put_string buf d.Message.d_origin_ad;
    put_uvarint buf d.Message.d_rule_index;
    put_uvarint buf d.Message.d_pos;
    put_uvarint buf d.Message.d_lit_index;
    put_atom e buf d.Message.d_prev_sup;
    put_string buf d.Message.d_prev_owner;
    put_uvarint buf (List.length d.Message.d_remaining);
    List.iter (put_literal e buf) d.Message.d_remaining;
    put_uvarint buf (List.length d.Message.d_pending);
    List.iter
      (fun (x, y) ->
        put_term e buf x;
        put_term e buf y)
      d.Message.d_pending;
    put_uvarint buf (List.length d.Message.d_bound);
    List.iter (put_string buf) d.Message.d_bound;
    put_datom e buf d.Message.d_head
  | Message.Batch ms ->
    Buffer.add_char buf '\004';
    put_uvarint buf (List.length ms);
    List.iter (put_message e buf) ms

let rec get_message d r : Message.t =
  match get_byte r with
  | 0 -> Message.Activate (get_string r)
  | 1 -> Message.Subscribe (get_symbol d r)
  | 2 -> Message.Fact (get_atom d r)
  | 3 ->
    let d_key = get_string r in
    let d_origin_rel = get_string r in
    let d_origin_ad = get_string r in
    let d_rule_index = get_uvarint r in
    let d_pos = get_uvarint r in
    let d_lit_index = get_uvarint r in
    let d_prev_sup = get_atom d r in
    let d_prev_owner = get_string r in
    let d_remaining = get_list (get_uvarint r) (fun () -> get_literal d r) in
    let d_pending =
      get_list (get_uvarint r) (fun () ->
          let x = get_term d r in
          (x, get_term d r))
    in
    let d_bound = get_list (get_uvarint r) (fun () -> get_string r) in
    let d_head = get_datom d r in
    Message.Delegate
      { Message.d_key; d_origin_rel; d_origin_ad; d_rule_index; d_pos;
        d_lit_index; d_prev_sup; d_prev_owner; d_remaining; d_pending;
        d_bound; d_head }
  | 4 -> Message.Batch (get_list (get_uvarint r) (fun () -> get_message d r))
  | b -> corrupt "bad message tag %d" b

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* Frame kinds, the byte after the version. *)
let k_message = 0
let k_configs = 1
let k_ack = 2
let k_snapshot = 3

let frame e kind put_body =
  Buffer.clear e.e_buf;
  Buffer.add_char e.e_buf (Char.chr version);
  Buffer.add_char e.e_buf (Char.chr kind);
  put_body e.e_buf;
  let body = Buffer.contents e.e_buf in
  Buffer.clear e.e_buf;
  put_uvarint e.e_buf (String.length body);
  Buffer.add_string e.e_buf body;
  let fr = Buffer.contents e.e_buf in
  Obs.Metrics.incr ~by:(String.length fr) bytes_sent_c;
  Obs.Metrics.incr frames_c;
  fr

(* Open a received frame: check length, version and kind, hand the body
   reader to [get_body], and require exact consumption. *)
let unframe d kind get_body (s : string) =
  let r = { src = s; pos = 0 } in
  let n = get_uvarint r in
  if r.pos + n <> String.length s then
    corrupt "frame length %d does not match payload %d" n (String.length s - r.pos);
  let v = get_byte r in
  if v <> version then corrupt "unsupported codec version %d" v;
  let k = get_byte r in
  if k <> kind then corrupt "expected frame kind %d, got %d" kind k;
  let x = get_body d r in
  if r.pos <> String.length s then corrupt "%d trailing bytes" (String.length s - r.pos);
  Obs.Metrics.incr ~by:(String.length s) bytes_recv_c;
  x

let encode_message e m = frame e k_message (fun buf -> put_message e buf m)
let decode_message d s = unframe d k_message get_message s

let encode_snapshot e put_body = frame e k_snapshot put_body
let decode_snapshot d s get_body = unframe d k_snapshot (fun _ r -> get_body r) s

let encode_configs e (configs : Term.t list list) =
  frame e k_configs (fun buf ->
      put_uvarint buf (List.length configs);
      List.iter (put_terms e buf) configs)

let decode_configs d s =
  unframe d k_configs (fun d r -> get_list (get_uvarint r) (fun () -> get_terms d r)) s

let encode_wrapped e : Message.t Ds.wrapped -> string = function
  | Ds.Work m -> encode_message e m
  | Ds.Ack -> frame e k_ack (fun _ -> ())

let decode_wrapped d (s : string) : Message.t Ds.wrapped =
  (* peek the kind to dispatch; [unframe] re-validates *)
  let r = { src = s; pos = 0 } in
  ignore (get_uvarint r);
  ignore (get_byte r);
  if get_byte r = k_ack then begin
    ignore (unframe d k_ack (fun _ _ -> ()) s);
    Ds.Ack
  end
  else Ds.Work (decode_message d s)

(* ------------------------------------------------------------------ *)
(* Simulator sizers                                                    *)
(* ------------------------------------------------------------------ *)

exception Roundtrip_mismatch of string

(* One (encoder, decoder) pair per directed channel, created on first
   send. The table is shared across domains in parallel runs; the lock is
   held across the encode so each channel's codec state sees its sends in
   order. Per-channel call order equals send order even under work
   stealing: a peer box runs on at most one domain at a time (Sim's
   scheduled flag), so a given src's sends on any channel are serialized
   by its activations, wherever those activations execute. *)
type channels = {
  conns : (string * string, encoder * decoder) Hashtbl.t;
  mu : Mutex.t;
}

let channels () = { conns = Hashtbl.create 16; mu = Mutex.create () }

let locked ch f =
  Mutex.lock ch.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ch.mu) f

let with_conn ch ~src ~dst f =
  locked ch @@ fun () ->
  let conn =
    match Hashtbl.find_opt ch.conns (src, dst) with
    | Some c -> c
    | None ->
      let c = (encoder (), decoder ()) in
      Hashtbl.add ch.conns (src, dst) c;
      c
  in
  f conn

let table_entries ch =
  locked ch @@ fun () ->
  Hashtbl.fold
    (fun _ (e, d) (syms, terms) ->
      (syms + e.e_nsyms + d.d_nsyms, terms + e.e_nterms + d.d_nterms))
    ch.conns (0, 0)

let check ok m =
  if not ok then
    raise (Roundtrip_mismatch (Printf.sprintf "decode(encode(%s)) differs" m))

let wrapped_sizer ?(verify = false) ch ~src ~dst (w : Message.t Ds.wrapped) =
  with_conn ch ~src ~dst @@ fun (e, d) ->
  let fr = encode_wrapped e w in
  if verify then begin
    match (w, decode_wrapped d fr) with
    | Ds.Ack, Ds.Ack -> ()
    | Ds.Work m, Ds.Work m' -> check (Message.equal m m') (Message.describe m)
    | Ds.Work m, Ds.Ack -> check false (Message.describe m)
    | Ds.Ack, Ds.Work _ -> check false "ack"
  end;
  String.length fr

let message_sizer ?(verify = false) ch ~src ~dst (m : Message.t) =
  with_conn ch ~src ~dst @@ fun (e, d) ->
  let fr = encode_message e m in
  if verify then check (Message.equal m (decode_message d fr)) (Message.describe m);
  String.length fr
