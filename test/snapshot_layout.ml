(* Test-side readers and writers of [Online.checkpoint] frames, following
   the body layout documented in online.ml: sub-kind, net digest, peers,
   six scalars, per-peer word suffixes, node cores, then edges. Decoding
   the layout independently pins it, and lets a test forge a frame. *)

module W = Dqsq.Wire

type node = { positions : int array; tips : Datalog.Term.t list list }

type t = { digest : string; peers : string list; nodes : node list }

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
  (* gc flag, state budget, alarms seen, unknown alarms, states, reclaimed *)
  ignore (loop 6 (fun () -> W.get_uvarint r));
  for _ = 1 to npeers do
    let len = W.get_uvarint r in
    let base = W.get_uvarint r in
    ignore (loop (len - base) (fun () -> W.get_string r))
  done;
  let nodes =
    loop (W.get_uvarint r) (fun () ->
        let positions = Array.of_list (loop npeers (fun () -> W.get_uvarint r)) in
        ignore (loop (W.get_uvarint r) (fun () -> W.get_term d r));
        let tips =
          loop (W.get_uvarint r) (fun () -> loop (W.get_uvarint r) (fun () -> W.get_term d r))
        in
        { positions; tips })
  in
  List.iter
    (fun _ ->
      ignore
        (loop (W.get_uvarint r) (fun () ->
             ignore (W.get_term d r);
             W.get_uvarint r)))
    nodes;
  { digest; peers; nodes }

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
