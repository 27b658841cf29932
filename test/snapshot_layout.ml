(* Test-side readers and writers of [Online.checkpoint] frames, following
   the body layout documented in online.ml: sub-kind, net digest, peers,
   six scalars, per-peer word suffixes, node cores, then edges. Decoding
   the layout independently pins it, and lets a test forge a frame. *)

module W = Dqsq.Wire

type node = {
  positions : int array;
  cut : Datalog.Term.t list;  (** in frame order *)
  tips : Datalog.Term.t list list;
  succs : (Datalog.Term.t * int) list;  (** (event, target node index) *)
}

type word = { len : int; base : int; syms : string list }

type t = {
  digest : string;
  peers : string list;
  scalars : int list;
      (** gc flag, state budget, alarms seen, unknown alarms, states, reclaimed *)
  words : word list;
  nodes : node list;
}

let loop n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

let read snap =
  let d = W.decoder () in
  W.decode_snapshot d snap @@ fun r ->
  ignore (W.get_uvarint r);
  let digest = W.get_string r in
  let npeers = W.get_uvarint r in
  let peers = loop npeers (fun () -> W.get_string r) in
  let scalars = loop 6 (fun () -> W.get_uvarint r) in
  let words =
    loop npeers (fun () ->
        let len = W.get_uvarint r in
        let base = W.get_uvarint r in
        { len; base; syms = loop (len - base) (fun () -> W.get_string r) })
  in
  let cores =
    loop (W.get_uvarint r) (fun () ->
        let positions = Array.of_list (loop npeers (fun () -> W.get_uvarint r)) in
        let cut = loop (W.get_uvarint r) (fun () -> W.get_term d r) in
        let tips =
          loop (W.get_uvarint r) (fun () -> loop (W.get_uvarint r) (fun () -> W.get_term d r))
        in
        (positions, cut, tips))
  in
  let nodes =
    List.map
      (fun (positions, cut, tips) ->
        let succs =
          loop (W.get_uvarint r) (fun () ->
              let ev = W.get_term d r in
              (ev, W.get_uvarint r))
        in
        { positions; cut; tips; succs })
      cores
  in
  { digest; peers; scalars; words; nodes }

(* the inverse of [read]: a checkpoint's own bytes come back *)
let write s =
  let e = W.encoder () in
  W.encode_snapshot e (fun buf ->
      let uv = W.put_uvarint buf and term = W.put_term e buf in
      let list f l =
        uv (List.length l);
        List.iter f l
      in
      uv 0;
      W.put_string buf s.digest;
      list (W.put_string buf) s.peers;
      List.iter uv s.scalars;
      List.iter
        (fun w ->
          uv w.len;
          uv w.base;
          List.iter (W.put_string buf) w.syms)
        s.words;
      list
        (fun n ->
          Array.iter uv n.positions;
          list term n.cut;
          list (list term) n.tips)
        s.nodes;
      List.iter
        (fun n ->
          list
            (fun (ev, i) ->
              term ev;
              uv i)
            n.succs)
        s.nodes)

(* A frame valid for [net] up to its first word, which claims [len]
   symbols and carries none. *)
let forged_word net ~len =
  let s = read (Diagnosis.Online.checkpoint (Diagnosis.Online.start net)) in
  W.encode_snapshot (W.encoder ()) (fun buf ->
      W.put_uvarint buf 0;
      W.put_string buf s.digest;
      W.put_uvarint buf (List.length s.peers);
      List.iter (W.put_string buf) s.peers;
      List.iter (W.put_uvarint buf) [ 1; 1_000; 0; 0; 1; 0 ];
      W.put_uvarint buf len;
      W.put_uvarint buf 0)
