(* The in-process replay: the live run's post-barrier inputs fed through
   one in-process Broker per node, the way the daemon handles a line,
   with a span around every call into a layer's public function
   (Linebuf, Codec, Span, Broker, Health). Its deliveries must equal the
   oracle's. Socket reads and writes and the select loop have no
   in-process counterpart; they are what remains of the measured hop. *)

open Xroute_core
open Xroute_xml
module Span = Xroute_obs.Span
module Health = Xroute_obs.Health
module Linebuf = Xroute_daemon.Linebuf
module Mono = Xroute_support.Mono

type node = {
  id : int;
  broker : Broker.t;
  lb : Linebuf.t;
  spans : Span.t;
  health : Health.t;
  clock : Mono.t;
  out : Buffer.t; (* stands in for the connection's output buffer *)
}

type counts = {
  mutable subs : int; (* Subscribe messages handled, both nodes *)
  mutable client_subs : int;
  mutable client_subs_forwarded : int;
  mutable srt_ops : int;
  mutable cover_checks : int;
  mutable pubs : int; (* Publish messages handled, both nodes *)
  mutable prt_checks : int;
  mutable outputs : int;
  mutable out_bytes : int;
  mutable lines : int;
  mutable hops : int;
}

type t = { n0 : node; n1 : node; tr : Tracer.t; c : counts }

let node id =
  {
    id;
    broker = Broker.create ~id ~neighbors:[ 1 - id ] ();
    lb = Linebuf.create ~initial:256 ();
    spans = Span.create ~id_base:(id * 1_000_000_000) ();
    health = Health.create id;
    clock = Mono.create ~source:(fun () -> Unix.gettimeofday () *. 1000.0) ();
    out = Buffer.create 65536;
  }

let create () =
  {
    n0 = node 0;
    n1 = node 1;
    tr = Tracer.create ();
    c =
      {
        subs = 0;
        client_subs = 0;
        client_subs_forwarded = 0;
        srt_ops = 0;
        cover_checks = 0;
        pubs = 0;
        prt_checks = 0;
        outputs = 0;
        out_bytes = 0;
        lines = 0;
        hops = 0;
      };
  }

let other t n = if n.id = 0 then t.n1 else t.n0

(* ---------------- control plane ---------------- *)

(* Handle a control message and everything it triggers on the other
   node, timing each Broker.handle. *)
let control t n ~from msg =
  let q = Queue.create () in
  Queue.push (n, from, msg) q;
  while not (Queue.is_empty q) do
    let n, from, msg = Queue.pop q in
    let name =
      match (msg : Message.t) with
      | Subscribe _ -> "broker.sub"
      | Unsubscribe _ -> "broker.unsub"
      | Advertise _ | Unadvertise _ | Publish _ -> "broker.control"
    in
    let s0, _, c0 = Broker.stage_ops n.broker in
    let outs = Tracer.span t.tr ~trace:0 name (fun () -> Broker.handle n.broker ~from msg) in
    let s1, _, c1 = Broker.stage_ops n.broker in
    (match msg with
    | Subscribe _ ->
      t.c.subs <- t.c.subs + 1;
      t.c.srt_ops <- t.c.srt_ops + (s1 - s0);
      t.c.cover_checks <- t.c.cover_checks + (c1 - c0);
      (match from with
      | Rtable.Client _ ->
        t.c.client_subs <- t.c.client_subs + 1;
        if
          List.exists
            (fun (ep, m) ->
              match (ep, m) with Rtable.Neighbor _, Message.Subscribe _ -> true | _ -> false)
            outs
        then t.c.client_subs_forwarded <- t.c.client_subs_forwarded + 1
      | Rtable.Neighbor _ -> ())
    | Advertise _ | Unadvertise _ | Unsubscribe _ | Publish _ -> ());
    List.iter
      (fun (ep, m) ->
        match ep with
        | Rtable.Neighbor _ -> Queue.push (other t n, Rtable.Neighbor n.id, m) q
        | Rtable.Client _ -> ())
      outs
  done

(* Subscription lines through the codec, as the daemon receives them. *)
let decode_subs t xpes =
  List.iteri
    (fun i xpe ->
      let line =
        Codec.encode (Message.Subscribe { id = { Message.origin = 0; seq = i }; xpe })
      in
      ignore (Tracer.span t.tr ~trace:0 "codec.decode_sub" (fun () -> Codec.decode line)))
    xpes

(* ---------------- data plane ---------------- *)

(* One hop: the line handling of the daemon's handle_line and
   handle_publish, split into the calls it makes. Returns the output
   lines per endpoint. *)
let hop t n ~doc ~from ~batch_t line =
  let tr = t.tr in
  let h = Tracer.open_ tr ~trace:doc "hop" in
  let parent = h.Tracer.id in
  let outs =
    match String.split_on_char '|' line with
    | "M" :: _ -> (
      let payload = String.sub line 2 (String.length line - 2) in
      match Tracer.span tr ~parent ~trace:doc "codec.decode" (fun () -> Codec.decode payload) with
      | Ok (Message.Publish { pub; trail; ctx }) ->
        let b = n.id in
        let trace, root, hop_sp, t_dec, s0, m0, c0 =
          Tracer.span tr ~parent ~trace:doc "span.open" (fun () ->
              let t0 = Mono.now n.clock in
              let trace, span_parent, root =
                match (ctx : Message.trace_ctx option) with
                | Some c -> (c.trace, Some c.parent_span, None)
                | None ->
                  let root =
                    match Span.root_for n.spans ~trace:pub.Xml_paths.doc_id with
                    | Some r -> r
                    | None ->
                      Span.start_span n.spans ~trace:pub.Xml_paths.doc_id ~name:"pub" ~broker:(-1)
                        ~at:batch_t ()
                  in
                  (pub.Xml_paths.doc_id, Some root.Span.id, Some root)
              in
              let hop_sp =
                Span.start_span n.spans ?parent:span_parent ~trace ~name:"hop" ~broker:b ~at:batch_t
                  ()
              in
              let leaf name start stop =
                if stop -. start > 0.0 then
                  ignore
                    (Span.record n.spans ~parent:hop_sp.Span.id ~trace ~name ~broker:b ~start ~stop ())
              in
              leaf "queue" batch_t t0;
              let t_dec = Mono.now n.clock in
              leaf "parse" t0 t_dec;
              let s0, m0, c0 = Broker.stage_ops n.broker in
              (trace, root, hop_sp, t_dec, s0, m0, c0))
        in
        let outs =
          Tracer.span tr ~parent ~trace:doc "broker.handle" (fun () ->
              Broker.handle n.broker ~from (Message.Publish { pub; trail; ctx }))
        in
        let t_match =
          Tracer.span tr ~parent ~trace:doc "span.match" (fun () ->
              let t_match = Mono.now n.clock in
              let s1, m1, c1 = Broker.stage_ops n.broker in
              t.c.prt_checks <- t.c.prt_checks + (m1 - m0);
              ignore
                (Span.record n.spans ~parent:hop_sp.Span.id
                   ~meta:
                     [
                       ("srt_ops", string_of_int (s1 - s0));
                       ("prt_ops", string_of_int (m1 - m0));
                       ("cover_ops", string_of_int (c1 - c0));
                     ]
                   ~trace ~name:"match" ~broker:b ~start:t_dec ~stop:t_match ());
              t_match)
        in
        t.c.pubs <- t.c.pubs + 1;
        let ctx' = Some { Message.trace; parent_span = hop_sp.Span.id } in
        let lines =
          List.map
            (fun (ep, m) ->
              let m =
                match m with
                | Message.Publish p -> Message.Publish { p with ctx = ctx' }
                | m -> m
              in
              (match ep with
              | Rtable.Neighbor peer ->
                Tracer.span tr ~parent ~trace:doc "health.send" (fun () ->
                    Health.record_send n.health ~peer)
              | Rtable.Client _ -> ());
              let line =
                Tracer.span tr ~parent ~trace:doc "codec.encode" (fun () ->
                    "M|" ^ Codec.encode m)
              in
              Tracer.span tr ~parent ~trace:doc "enqueue" (fun () ->
                  Buffer.add_string n.out line;
                  Buffer.add_char n.out '\n');
              t.c.outputs <- t.c.outputs + 1;
              t.c.out_bytes <- t.c.out_bytes + String.length line + 1;
              (ep, line, m))
            outs
        in
        Tracer.span tr ~parent ~trace:doc "span.close" (fun () ->
            let t_ser = Mono.now n.clock in
            if t_ser -. t_match > 0.0 then
              ignore
                (Span.record n.spans ~parent:hop_sp.Span.id ~trace ~name:"serialize" ~broker:b
                   ~start:t_match ~stop:t_ser ());
            Span.finish hop_sp ~at:t_ser;
            Option.iter (fun r -> Span.extend r ~at:t_ser) root);
        Tracer.span tr ~parent ~trace:doc "health.hop" (fun () ->
            let t_ser = Mono.now n.clock in
            Health.record_pub n.health;
            Health.record_hop_latency n.health (t_ser -. batch_t);
            List.iter
              (fun (ep, _) ->
                match ep with
                | Rtable.Neighbor peer ->
                  Health.record_link_latency n.health ~peer (t_ser -. batch_t)
                | Rtable.Client _ -> ())
              outs);
        lines
      | Ok _ | Error _ -> [])
    | _ -> []
  in
  Tracer.close h;
  t.c.hops <- t.c.hops + 1;
  outs

(* One read's worth of lines (a document's paths) at node [n]: the
   buffer append and line split, then a hop per line. Neighbor output
   is handed to the other node as its next read; client output is
   returned as deliveries. *)
let rec batch t n ~doc ~from data =
  let tr = t.tr in
  let rd = Tracer.open_ tr ~trace:doc "read" in
  let batch_t = Mono.now n.clock in
  Tracer.span tr ~parent:rd.Tracer.id ~trace:doc "linebuf.add_string" (fun () ->
      Linebuf.add_string n.lb data);
  let rec lines acc =
    match
      Tracer.span tr ~parent:rd.Tracer.id ~trace:doc "linebuf.next_line" (fun () ->
          Linebuf.next_line n.lb)
    with
    | Some l -> lines (l :: acc)
    | None -> List.rev acc
  in
  let ls = lines [] in
  Tracer.close rd;
  t.c.lines <- t.c.lines + List.length ls;
  let fwd = Buffer.create 4096 in
  let delivered = ref [] in
  List.iter
    (fun line ->
      List.iter
        (fun (ep, l, m) ->
          match (ep, m) with
          | Rtable.Neighbor _, _ ->
            Buffer.add_string fwd l;
            Buffer.add_char fwd '\n'
          | Rtable.Client _, Message.Publish { pub; _ } ->
            delivered := (pub.Xml_paths.doc_id, pub.Xml_paths.path_id) :: !delivered
          | Rtable.Client _, _ -> ())
        (hop t n ~doc ~from ~batch_t line))
    ls;
  Buffer.clear n.out;
  let downstream =
    if Buffer.length fwd = 0 then []
    else batch t (other t n) ~doc ~from:(Rtable.Neighbor n.id) (Buffer.contents fwd)
  in
  List.rev_append !delivered downstream

(* Publish one document at b0 as the client would (lines built outside
   any hop) and return its deliveries at b1's subscriber. *)
let publish t ~client ~doc_id tree =
  let pubs = Xml_paths.decompose ~doc_id tree in
  let data = Buffer.create 4096 in
  List.iter
    (fun pub ->
      Buffer.add_string data "M|";
      Buffer.add_string data (Codec.encode (Message.Publish { pub; trail = []; ctx = None }));
      Buffer.add_char data '\n')
    pubs;
  batch t t.n0 ~doc:doc_id ~from:(Rtable.Client client) (Buffer.contents data)

(* ---------------- results ---------------- *)

type layer = { name : string; calls : int; self_ns : int }

let layers t =
  Hashtbl.fold (fun name (calls, _, self) acc -> { name; calls; self_ns = self } :: acc)
    (Tracer.self_times t.tr) []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)
