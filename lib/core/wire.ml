(** Wire: the compact, versioned binary codec for protocol messages.

    Frames are length-prefixed: an unsigned LEB128 varint byte count
    followed by the body, whose first byte is the codec version and second
    the frame kind (message, configuration set, ack). Both sides of a
    connection keep append-only symbol and term tables: the first
    occurrence of a symbol costs its name, later occurrences one small
    varint; likewise a hash-consed term spine is serialized node by node
    once and then referenced by id — the deep Skolem spines h(h(h(...)))
    the diagnosis programs share between facts cross the wire a single
    time per connection. Located names (relations, peers, adornments)
    get a third such table, of plain strings. A located supplementary
    relation crosses a simulated channel as its parts (origin, adornment,
    rule index, position), since the channel's ends give its owner. A
    batch writes consecutive facts over one relation as one run.
    Decoding re-interns through the hash-consing smart constructors, so a
    decoded term is physically equal to the term that was encoded
    ([Term.equal], which IS pointer equality).

    Process-wide counters [wire.bytes_sent] / [wire.bytes_recv] /
    [wire.frames] account every frame. {!codec} is the network
    simulator's channel codec: each simulated channel encodes its messages
    with its own connection state and its receiver decodes the frames, so
    the simulator's byte totals are the lengths of the frames that cross
    it. *)

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

(* Keyed by the term itself, so the table holds every term it has defined:
   a term's tag, and with it the byte count, cannot depend on GC timing. *)
module Term_tbl = Hashtbl.Make (struct
  type t = Term.t
  let equal = ( == )
  let hash = Term.tag
end)

(* A connection's two ends, when it is a simulated channel: they name the
   owner of the supplementary relation a fact or a subscription carries. *)
type encoder = {
  e_src : string option;
  e_dst : string option;
  e_syms : (Symbol.t, int) Hashtbl.t;
  mutable e_nsyms : int;
  e_names : (string, int) Hashtbl.t;  (* located names, kept out of [Symbol] *)
  mutable e_nnames : int;
  mutable e_terms : int Term_tbl.t;  (* term -> wire id *)
  mutable e_nterms : int;
  e_buf : Buffer.t;  (* scratch: the body of the frame being built *)
}

let encoder ?src ?dst () =
  { e_src = src; e_dst = dst; e_syms = Hashtbl.create 64; e_nsyms = 0;
    e_names = Hashtbl.create 16; e_nnames = 0; e_terms = Term_tbl.create 256; e_nterms = 0;
    e_buf = Buffer.create 256 }

(* Dynamic arrays for the id -> value direction; [Term.var "_"] and the
   empty symbol are placeholders for unused slots, never read. *)
type decoder = {
  d_src : string option;
  d_dst : string option;
  mutable d_syms : Symbol.t array;
  mutable d_nsyms : int;
  mutable d_names : string array;
  mutable d_nnames : int;
  mutable d_terms : Term.t array;
  mutable d_nterms : int;
}

let decoder ?src ?dst () =
  { d_src = src; d_dst = dst; d_syms = Array.make 64 (Symbol.intern ""); d_nsyms = 0;
    d_names = Array.make 16 ""; d_nnames = 0; d_terms = Array.make 256 (Term.var "_");
    d_nterms = 0 }

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
let push_name d s = d.d_nnames <- push (fun a -> d.d_names <- a) d.d_nnames d.d_names s
let push_term d t = d.d_nterms <- push (fun a -> d.d_terms <- a) d.d_nterms d.d_terms t

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

(* top level, so a call allocates no closure over [buf] *)
let rec put_uvarint_loop buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    put_uvarint_loop buf (n lsr 7)
  end

let put_uvarint buf n =
  if n < 0 then invalid_arg "Wire.put_uvarint: negative";
  put_uvarint_loop buf n

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

(* Relation, peer and adornment names of located atoms and delegations
   get a table of their own, so decoding them interns nothing: a new
   [Symbol] would shift every later symbol id, and with them the order
   in which the fact stores fire rules. *)
let put_name e buf s =
  match Hashtbl.find_opt e.e_names s with
  | Some id -> put_uvarint buf (id + 1)
  | None ->
    put_uvarint buf 0;
    put_string buf s;
    Hashtbl.add e.e_names s e.e_nnames;
    e.e_nnames <- e.e_nnames + 1

let get_name d r =
  let k = get_uvarint r in
  if k = 0 then begin
    let s = get_string r in
    push_name d s;
    s
  end
  else begin
    let id = k - 1 in
    if id >= d.d_nnames then corrupt "name id %d out of range" id;
    d.d_names.(id)
  end

let rec put_term e buf t =
  match Term_tbl.find_opt e.e_terms t with
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
    Term_tbl.add e.e_terms t e.e_nterms;
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

(* The relation of a fact or a subscription: 0 and its name, 1 and the
   parts of a located supplementary relation held at [owner], or k >= 2
   for entry k-2 of the symbol table, which both forms append to. The
   parts are written only when [owner] is the end of the channel that
   owns the relation, so the decoder knows it without reading it. *)
let put_rel e buf ~owner s =
  match Hashtbl.find_opt e.e_syms s with
  | Some id -> put_uvarint buf (id + 2)
  | None ->
    (match (owner, Message.sup_parts s) with
    | Some o, Some p when String.equal o p.Message.owner ->
      put_uvarint buf 1;
      put_name e buf p.Message.origin;
      put_name e buf p.Message.ad;
      put_uvarint buf p.Message.rule;
      put_uvarint buf p.Message.pos
    | _ ->
      put_uvarint buf 0;
      put_string buf (Symbol.name s));
    Hashtbl.add e.e_syms s e.e_nsyms;
    e.e_nsyms <- e.e_nsyms + 1

(* Parts name a symbol some [Qsq_engine.sup_at] already built: looking it
   up interns nothing. *)
let get_rel d r ~owner =
  match get_uvarint r with
  | 0 ->
    let s = Symbol.intern (get_string r) in
    push_sym d s;
    s
  | 1 ->
    let origin = get_name d r in
    let ad = get_name d r in
    let rule = get_uvarint r in
    let pos = get_uvarint r in
    let owner = match owner with Some o -> o | None -> corrupt "relation parts off a channel" in
    (match Message.find_sup { Message.origin; ad; rule; pos; owner } with
    | Some s ->
      push_sym d s;
      s
    | None -> corrupt "no supplementary relation sup%d,%d^%s^%s@%s" rule pos origin ad owner)
  | k ->
    let id = k - 2 in
    if id >= d.d_nsyms then corrupt "symbol id %d out of range" id;
    d.d_syms.(id)

let put_datom e buf (a : Datom.t) =
  put_name e buf a.Datom.rel;
  put_name e buf a.Datom.peer;
  put_terms e buf a.Datom.args

let get_datom d r =
  let rel = get_name d r in
  let peer = get_name d r in
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

(* Bytes by message kind; framing (length prefixes, headers, envelopes,
   acks and the other frame kinds) is the rest of [wire.bytes_sent]. *)
let delegate_bytes_c = Obs.Metrics.counter "wire.bytes.delegate"
let fact_bytes_c = Obs.Metrics.counter "wire.bytes.fact"
let subscribe_bytes_c = Obs.Metrics.counter "wire.bytes.subscribe"

(* the bytes [buf] gained since [start] *)
let bill c buf start = Obs.Metrics.incr ~by:(Buffer.length buf - start) c

(* The facts at the front of [ms] over [rel] with [n] arguments, and the
   messages after them. *)
let rec take_run rel n acc = function
  | Message.Fact a :: rest
    when Symbol.equal a.Atom.rel rel && List.compare_length_with a.Atom.args n = 0 ->
    take_run rel n (a :: acc) rest
  | rest -> (List.rev acc, rest)

(* A run of facts over one relation, sent by its owner: the relation and
   the arity once, the count, then each fact's arguments. *)
let put_run e buf rel n facts =
  let start = Buffer.length buf in
  Buffer.add_char buf '\005';
  put_rel e buf ~owner:e.e_src rel;
  put_uvarint buf n;
  put_uvarint buf (List.length facts);
  List.iter (fun (a : Atom.t) -> List.iter (put_term e buf) a.Atom.args) facts;
  bill fact_bytes_c buf start

(* A delegation carries no dedup key and no [sup_{i,j-1}] relation: the
   receiver rebuilds both from the fields that follow. A batch counts its
   messages, and writes two or more consecutive facts over one relation
   and one nonzero arity as one run. *)
let rec put_message e buf (m : Message.t) =
  let start = Buffer.length buf in
  match m with
  | Message.Activate rel ->
    Buffer.add_char buf '\000';
    put_string buf rel
  | Message.Subscribe s ->
    (* sent to the relation's owner *)
    Buffer.add_char buf '\001';
    put_rel e buf ~owner:e.e_dst s;
    bill subscribe_bytes_c buf start
  | Message.Fact a ->
    (* sent by the relation's owner *)
    Buffer.add_char buf '\002';
    put_rel e buf ~owner:e.e_src a.Atom.rel;
    put_terms e buf a.Atom.args;
    bill fact_bytes_c buf start
  | Message.Delegate d ->
    Buffer.add_char buf '\003';
    put_name e buf d.Message.d_origin_rel;
    put_name e buf d.Message.d_origin_ad;
    put_uvarint buf d.Message.d_rule_index;
    put_uvarint buf d.Message.d_pos;
    put_uvarint buf d.Message.d_lit_index;
    put_terms e buf d.Message.d_prev_args;
    put_name e buf d.Message.d_prev_owner;
    put_uvarint buf (List.length d.Message.d_remaining);
    List.iter (put_literal e buf) d.Message.d_remaining;
    put_uvarint buf (List.length d.Message.d_pending);
    List.iter
      (fun (x, y) ->
        put_term e buf x;
        put_term e buf y)
      d.Message.d_pending;
    put_datom e buf d.Message.d_head;
    bill delegate_bytes_c buf start
  | Message.Batch ms ->
    Buffer.add_char buf '\004';
    put_uvarint buf (List.length ms);
    put_batch e buf ms

and put_batch e buf = function
  | [] -> ()
  | Message.Fact a :: rest when a.Atom.args <> [] -> (
    let n = List.length a.Atom.args in
    match take_run a.Atom.rel n [] rest with
    | [], rest ->
      put_message e buf (Message.Fact a);
      put_batch e buf rest
    | run, rest ->
      put_run e buf a.Atom.rel n (a :: run);
      put_batch e buf rest)
  | m :: rest ->
    put_message e buf m;
    put_batch e buf rest

let rec get_message d r : Message.t =
  match get_byte r with
  | 0 -> Message.Activate (get_string r)
  | 1 -> Message.Subscribe (get_rel d r ~owner:d.d_dst)
  | 2 ->
    let rel = get_rel d r ~owner:d.d_src in
    Message.Fact (Atom.cmake rel (get_terms d r))
  | 3 ->
    let d_origin_rel = get_name d r in
    let d_origin_ad = get_name d r in
    let d_rule_index = get_uvarint r in
    let d_pos = get_uvarint r in
    let d_lit_index = get_uvarint r in
    let d_prev_args = get_terms d r in
    let d_prev_owner = get_name d r in
    let d_remaining = get_list (get_uvarint r) (fun () -> get_literal d r) in
    let d_pending =
      get_list (get_uvarint r) (fun () ->
          let x = get_term d r in
          (x, get_term d r))
    in
    let d_head = get_datom d r in
    Message.Delegate
      { Message.d_origin_rel; d_origin_ad; d_rule_index; d_pos; d_lit_index; d_prev_args;
        d_prev_owner; d_remaining; d_pending; d_head }
  | 4 -> Message.Batch (get_batch d r (get_uvarint r) [])
  | b -> corrupt "bad message tag %d" b

(* The [left] messages still to read of a batch, after [acc] (reversed).
   A run's arguments take a byte each at least, so a count the bytes left
   cannot hold is refused before any fact is built. *)
and get_batch d r left acc =
  if left = 0 then List.rev acc
  else if r.pos < String.length r.src && r.src.[r.pos] = '\005' then begin
    r.pos <- r.pos + 1;
    let rel = get_rel d r ~owner:d.d_src in
    let n = get_uvarint r in
    let count = get_uvarint r in
    if n = 0 then corrupt "fact run of arity 0";
    if count < 2 || count > left then corrupt "fact run of %d in a batch of %d" count left;
    if count > (String.length r.src - r.pos) / n then corrupt "truncated fact run";
    let acc = ref acc in
    for _ = 1 to count do
      acc := Message.Fact (Atom.cmake rel (get_list n (fun () -> get_term d r))) :: !acc
    done;
    get_batch d r (left - count) !acc
  end
  else begin
    let m = get_message d r in
    get_batch d r (left - 1) (m :: acc)
  end

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* Frame kinds, the byte after the version. *)
let k_message = 0
let k_configs = 1
let k_ack = 2
let k_snapshot = 3

(* The body is built in the scratch buffer, then copied once, behind its
   length prefix, into the frame's own bytes. *)
let frame e kind put_body =
  let buf = e.e_buf in
  Buffer.clear buf;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr kind);
  put_body buf;
  let n = Buffer.length buf in
  let prefix = Buffer.create 4 in
  put_uvarint prefix n;
  let w = Buffer.length prefix in
  let b = Bytes.create (w + n) in
  Buffer.blit prefix 0 b 0 w;
  Buffer.blit buf 0 b w n;
  let fr = Bytes.unsafe_to_string b in
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

(* A frame is its own length prefix plus that many bytes, so frames
   written back to back split without decoding their bodies. *)
let frames s =
  let r = { src = s; pos = 0 } in
  let rec go acc =
    if r.pos = String.length s then List.rev acc
    else begin
      let start = r.pos in
      let n = get_uvarint r in
      if n > String.length s - r.pos then corrupt "truncated frame in a chain";
      r.pos <- r.pos + n;
      go (String.sub s start (r.pos - start) :: acc)
    end
  in
  go []

let encode_configs e (configs : Term.t list list) =
  (* a frame defines about three terms per event (the event, its preset
     conditions, shared constants), and a table of n buckets grows past 2n
     entries: size a fresh encoder's table once for the whole frame *)
  if e.e_nterms = 0 then
    e.e_terms <- Term_tbl.create (2 * List.fold_left (fun n c -> n + List.length c) 0 configs);
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
(* Simulator channels                                                  *)
(* ------------------------------------------------------------------ *)

(* Every (encoder, decoder) pair {!codec} has built, for [table_entries].
   The simulator builds a channel's pair once, under its channel lock, and
   then runs the encoder only in the source's activations and the decoder
   only in the destination's — so neither this list nor the codec state
   needs a lock of its own. *)
type channels = { mutable conns : (encoder * decoder) list }

let channels () = { conns = [] }

let codec ch ~src ~dst =
  let e = encoder ~src ~dst () and d = decoder ~src ~dst () in
  ch.conns <- (e, d) :: ch.conns;
  (encode_wrapped e, decode_wrapped d)

let table_entries ch =
  List.fold_left
    (fun (syms, terms) (e, d) ->
      (syms + e.e_nsyms + e.e_nnames + d.d_nsyms + d.d_nnames, terms + e.e_nterms + d.d_nterms))
    (0, 0) ch.conns
