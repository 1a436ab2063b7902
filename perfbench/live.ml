(* The live run: a publisher client on b0 and a subscriber client on b1,
   driven by this process with two threads. The sender thread publishes
   documents open-loop on a schedule; the main thread receives, and on
   the churn workload also changes subscriptions. Convergence is proved
   with the public protocol only (see [barrier]).

   Sentinels. A sentinel document is the one-path document
   /xbsentinel/<tag>; the publisher advertises /xbsentinel/* and the
   subscriber subscribes /xbsentinel/<tag>. Workload XPEs are absolute
   and at least six steps long, so none of them can select (or cover) a
   two-step sentinel path, and a sentinel subscription is always
   forwarded to b0. Every link is FIFO, so:
   - barrier k: the subscriber sends /xbsentinel/b<k> after its other
     changes and the publisher republishes /xbsentinel/b<k> until one
     arrives; the arrival proves every earlier change is installed on
     both brokers;
   - drain: /xbsentinel/drain is subscribed at set-up; a drain document
     that arrives proves every document published before it has been
     fully routed. *)

open Xroute_core
open Xroute_xml
module C = Xroute_daemon.Client
module Adv = Xroute_xpath.Adv
module Xpe = Xroute_xpath.Xpe

let now = Unix.gettimeofday
let sentinel_root = "xbsentinel"
let sentinel_adv = Adv.of_names [ sentinel_root; "*" ]
let sentinel_xpe tag = Xpe.absolute_of_names [ sentinel_root; tag ]
let sentinel_doc tag = Xml_tree.element sentinel_root [ Xml_tree.leaf tag ]
let drain_tag = "drain"
let barrier_tag k = "b" ^ string_of_int k

let sentinel_of (p : Xml_paths.publication) =
  if Array.length p.steps = 2 && String.equal p.steps.(0) sentinel_root then Some p.steps.(1)
  else None

let publisher_id = 1001
let subscriber_id = 2002

type kind = Work of int (* index into the document pool *) | Sentinel

type sent = {
  doc_id : int;
  kind : kind;
  seg : int; (* schedule segment; -1 for sentinels *)
  due : float;
  t0 : float; (* publish_doc called *)
}

(* One subscription version: the active pool entries after epoch [k]'s
   changes; in force on both brokers from [t_close] until the next
   epoch's [t_open]. *)
type version = {
  k : int;
  t_open : float;
  mutable t_close : float;
  active : bool array;
  ops : (bool * int) list; (* the epoch's changes in order: (subscribe?, pool index) *)
  cpu_open : float; (* both brokers' CPU, s, when the epoch opened *)
  mutable cpu_close : float; (* and when its barrier passed; nan if not seen *)
}

type t = {
  pub : C.t;
  sub : C.t;
  pair : Brokers.pair;
  docs : Xml_tree.t array;
  mutable cursor : int; (* next pool document *)
  mutable next_doc : int; (* next doc id, shared by work and sentinel documents *)
  mutable sent : sent list; (* newest first *)
  arrivals : (int, (int * float) list) Hashtbl.t; (* doc id -> (path id, time) *)
  barrier_at : (int, float) Hashtbl.t;
  mutable next_barrier : int;
  mutable last_sentinel : float;
  mutable send_failures : int;
  pending : int Atomic.t; (* barrier awaiting its sentinel, or -1 *)
  drain_from : int Atomic.t; (* drain documents with ids >= this end a section *)
  drained : bool Atomic.t;
  sending : bool Atomic.t;
  sender_done : bool Atomic.t;
  abort : string option Atomic.t;
  mutable send_tracer : Tracer.t option; (* set for traced sections *)
  mutable recv_tracer : Tracer.t option;
}

let fail st why = ignore (Atomic.compare_and_set st.abort None (Some why))

let publish st ~kind ~seg ~due tree =
  let doc_id = st.next_doc in
  st.next_doc <- doc_id + 1;
  let t0 = now () in
  let call () = C.publish_doc st.pub ~doc_id tree in
  (match
     match st.send_tracer with
     | None -> call ()
     | Some tr -> Tracer.span tr ~trace:doc_id "client.publish_doc" call
   with
  | _ -> ()
  | exception (C.Unavailable _ | Unix.Unix_error _) -> st.send_failures <- st.send_failures + 1);
  st.sent <- { doc_id; kind; seg; due; t0 } :: st.sent

(* Republish the pending barrier's sentinel at most every 10 ms. *)
let service st =
  let k = Atomic.get st.pending in
  let t = now () in
  if k >= 0 && t -. st.last_sentinel >= 0.01 then begin
    st.last_sentinel <- t;
    publish st ~kind:Sentinel ~seg:(-1) ~due:t (sentinel_doc (barrier_tag k))
  end

let rec wait_until st t =
  service st;
  let d = t -. now () in
  if d > 0.0 && Atomic.get st.abort = None then begin
    Unix.sleepf (Float.min d 0.002);
    wait_until st t
  end

let record_arrival st (p : Xml_paths.publication) t =
  let prev = Option.value (Hashtbl.find_opt st.arrivals p.doc_id) ~default:[] in
  Hashtbl.replace st.arrivals p.doc_id ((p.path_id, t) :: prev);
  match sentinel_of p with
  | Some tag when String.equal tag drain_tag ->
    if p.doc_id >= Atomic.get st.drain_from then Atomic.set st.drained true
  | Some tag ->
    let k = Atomic.get st.pending in
    if k >= 0 && String.equal tag (barrier_tag k) then begin
      Hashtbl.replace st.barrier_at k t;
      Atomic.set st.pending (-1)
    end
  | None -> ()

(* Receive for up to [timeout] seconds (one message at most). *)
let receive st ~timeout =
  let t0 = Tracer.now_ns () in
  match C.recv ~timeout st.sub with
  | Some (Message.Publish { pub; _ }) ->
    let t = now () in
    Option.iter
      (fun tr ->
        Tracer.record tr ~trace:pub.Xml_paths.doc_id "client.recv" ~start:t0
          ~stop:(Tracer.now_ns ()))
      st.recv_tracer;
    record_arrival st pub t
  | Some _ | None -> ()
  | exception (C.Unavailable _ | Unix.Unix_error _) -> fail st "subscriber connection lost"

(* CPU time of both brokerd processes, s (see Procfs.sample). *)
let brokers_cpu pair =
  let c (p : Brokers.proc) =
    match Procfs.sample p.Brokers.pid with Some s -> s.Procfs.cpu_s | None -> Float.nan
  in
  c pair.Brokers.b0 +. c pair.Brokers.b1

let check_brokers st =
  List.iter
    (fun p -> if not (Brokers.alive p) then fail st (Brokers.describe p))
    [ st.pair.Brokers.b0; st.pair.Brokers.b1 ]

let subscribe_sentinel st tag =
  match C.subscribe st.sub (sentinel_xpe tag) with
  | id -> Some id
  | exception (C.Unavailable _ | Unix.Unix_error _) ->
    fail st "subscriber connection lost";
    None

(* Open barrier [k] on the subscriber's connection; returns the sentinel
   subscription's id. *)
let open_barrier st =
  let k = st.next_barrier in
  st.next_barrier <- k + 1;
  let id = subscribe_sentinel st (barrier_tag k) in
  Atomic.set st.pending k;
  (k, id)

(* A barrier with no section running: this thread publishes and
   receives. [Some arrival_time], or [None] after [timeout] seconds or
   when a broker or connection is lost. *)
let barrier st ~timeout =
  let k, _ = open_barrier st in
  let deadline = now () +. timeout in
  let last_check = ref 0.0 in
  while Atomic.get st.pending = k && Atomic.get st.abort = None && now () < deadline do
    service st;
    receive st ~timeout:0.005;
    if now () -. !last_check > 0.1 then begin
      last_check := now ();
      check_brokers st
    end
  done;
  if Atomic.get st.pending = k then begin
    Atomic.set st.pending (-1);
    None
  end
  else Hashtbl.find_opt st.barrier_at k

(* ---------------- set-up ---------------- *)

type setup = {
  st : t;
  setup_s : float; (* spawn -> last set-up barrier passed *)
  subs_per_cpu_s : float; (* initial subscriptions / brokers' CPU s to install them *)
  ready_at : float;
  sub_ids : Message.sub_id list; (* of the initial subscriptions, in order *)
}

let connect_both pair ~deadline =
  match
    ( Brokers.connect pair.Brokers.b0 ~client_id:publisher_id ~deadline,
      Brokers.connect pair.Brokers.b1 ~client_id:subscriber_id ~deadline )
  with
  | Some p, Some s -> Ok (p, s)
  | p, s ->
    Option.iter C.close p;
    Option.iter C.close s;
    Error "a brokerd did not start listening"

(* The b0-b1 link is up once a FEDSTATS pull from b0 returns b1's
   summary too: b1 answered on that link, so it has read b0's HELLO. *)
let rec wait_link pub ~deadline =
  match C.fedstats ~timeout:0.5 ~ttl:1 pub with
  | Some view when List.length view >= 2 -> true
  | Some _ | None ->
    if now () > deadline then false
    else begin
      Unix.sleepf 0.02;
      wait_link pub ~deadline
    end
  | exception (C.Unavailable _ | Unix.Unix_error _) -> false

let make ~pair ~pub ~sub ~docs =
  {
    pub;
    sub;
    pair;
    docs;
    cursor = 0;
    next_doc = 1;
    sent = [];
    arrivals = Hashtbl.create 4096;
    barrier_at = Hashtbl.create 16;
    next_barrier = 0;
    last_sentinel = 0.0;
    send_failures = 0;
    pending = Atomic.make (-1);
    drain_from = Atomic.make max_int;
    drained = Atomic.make false;
    sending = Atomic.make false;
    sender_done = Atomic.make false;
    abort = Atomic.make None;
    send_tracer = None;
    recv_tracer = None;
  }

(* Spawn the pair, advertise the DTD and pass barrier 0, install [xpes]
   and pass barrier 1. The brokers' CPU between the two barriers is the
   cost of installing [xpes]. On failure the pair is stopped and the
   reason returned. *)
let setup ~exe ~log_dir ~advs ~xpes ~docs =
  let t_spawn = now () in
  let pair = Brokers.start_pair ~exe ~log_dir in
  let deadline = t_spawn +. 20.0 in
  match connect_both pair ~deadline with
  | Error e ->
    Brokers.stop_pair pair;
    Error e
  | Ok (pub, sub) -> (
    C.set_reconnect_wait pub 1.0;
    C.set_reconnect_wait sub 1.0;
    let st = make ~pair ~pub ~sub ~docs in
    let abort e =
      C.close pub;
      C.close sub;
      Brokers.stop_pair pair;
      Error e
    in
    if not (wait_link pub ~deadline) then abort "the b0-b1 link did not come up"
    else
      let lost () = abort (Option.value (Atomic.get st.abort) ~default:"set-up barrier timed out") in
      match
        List.iter (fun a -> ignore (C.advertise pub a)) advs;
        ignore (C.advertise pub sentinel_adv);
        ignore (C.subscribe sub (sentinel_xpe drain_tag))
      with
      | exception (C.Unavailable _ | Unix.Unix_error _) -> abort "connection lost during set-up"
      | () -> (
        match barrier st ~timeout:60.0 with
        | None -> lost ()
        | Some _ -> (
          let cpu0 = brokers_cpu pair in
          match List.map (fun x -> C.subscribe sub x) xpes with
          | exception (C.Unavailable _ | Unix.Unix_error _) -> abort "connection lost during set-up"
          | sub_ids -> (
            match barrier st ~timeout:120.0 with
            | None -> lost ()
            | Some at ->
              Ok
                {
                  st;
                  setup_s = at -. t_spawn;
                  subs_per_cpu_s = float_of_int (List.length xpes) /. (brokers_cpu pair -. cpu0);
                  ready_at = at;
                  sub_ids;
                }))))

let teardown st =
  C.close st.pub;
  C.close st.sub;
  Brokers.stop_pair st.pair

(* ---------------- sections ---------------- *)

(* A schedule segment: [rate] documents per second for [dur] seconds. *)
type segment = { seg : int; rate : float; dur : float }

let sender st segs =
  (try
     List.iter
       (fun s ->
         let start = now () in
         let n = int_of_float (Float.round (s.rate *. s.dur)) in
         for i = 0 to n - 1 do
           if Atomic.get st.abort = None then begin
             let due = start +. (float_of_int i /. s.rate) in
             wait_until st due;
             let j = st.cursor mod Array.length st.docs in
             st.cursor <- st.cursor + 1;
             publish st ~kind:(Work j) ~seg:s.seg ~due st.docs.(j)
           end
         done)
       segs;
     Atomic.set st.sending false;
     Atomic.set st.drain_from st.next_doc;
     let deadline = now () +. 60.0 in
     while
       (not (Atomic.get st.drained && Atomic.get st.pending < 0))
       && Atomic.get st.abort = None
     do
       if now () > deadline then fail st "drain timed out"
       else begin
         if not (Atomic.get st.drained) then
           publish st ~kind:Sentinel ~seg:(-1) ~due:(now ()) (sentinel_doc drain_tag);
         wait_until st (now () +. 0.01)
       end
     done
   with e -> fail st ("sender: " ^ Printexc.to_string e));
  Atomic.set st.sending false;
  Atomic.set st.sender_done true

(* Run [segs] on the sender thread while this thread receives and calls
   [tick] (the churn driver) between messages. Returns when the final
   drain has arrived, or on abort. *)
let section ?(tick = fun () -> ()) ?(every_100ms = fun () -> ()) st segs =
  Atomic.set st.drained false;
  Atomic.set st.sender_done false;
  Atomic.set st.sending true;
  Atomic.set st.drain_from max_int;
  let th = Thread.create (fun () -> sender st segs) () in
  let planned = List.fold_left (fun a s -> a +. s.dur) 0.0 segs in
  let deadline = now () +. planned +. 90.0 in
  let last_check = ref 0.0 in
  while not (Atomic.get st.sender_done) do
    if Atomic.get st.abort = None then tick ();
    receive st ~timeout:0.005;
    if now () -. !last_check > 0.1 then begin
      last_check := now ();
      check_brokers st;
      every_100ms ();
      if now () > deadline then fail st "section overran"
    end
  done;
  Thread.join th

(* ---------------- churn ---------------- *)

(* Subscription churn over a Zipf-skewed pool, in epochs: each epoch
   sends [per_epoch] changes (subscribe the picked XPE if inactive,
   unsubscribe it if active), then a barrier; the next epoch opens
   [gap] seconds after the barrier passed. The exponent is 0.6, the
   Scenario default outside flash crowds: at 1.0 a handful of XPEs made
   most of the changes, so the cost of a change was that of whichever
   XPEs the seed put first. *)
type churn = {
  pool : Xpe.t array;
  ids : Message.sub_id option array;
  zipf : Xroute_support.Zipf.t;
  prng : Xroute_support.Prng.t;
  per_epoch : int;
  gap : float;
  mutable versions : version list; (* newest first *)
  mutable open_k : (int * Message.sub_id option) option; (* barrier in flight *)
  mutable prev_sentinel : Message.sub_id option;
  mutable next_open : float;
}

let active_of ids = Array.map Option.is_some ids

let initial_version ~at active =
  { k = 0; t_open = at; t_close = at; active; ops = []; cpu_open = Float.nan; cpu_close = Float.nan }

let churn_create ~pool ~ids ~seed ~per_epoch ~gap ~ready_at =
  {
    pool;
    ids;
    zipf = Xroute_support.Zipf.create ~n:(Array.length pool) ~exponent:0.6;
    prng = Xroute_support.Prng.create seed;
    per_epoch;
    gap;
    versions = [ initial_version ~at:ready_at (active_of ids) ];
    open_k = None;
    prev_sentinel = None;
    next_open = ready_at +. gap;
  }

let churn_tick st c () =
  match c.open_k with
  | Some (k, id) -> (
    match Hashtbl.find_opt st.barrier_at k with
    | Some at ->
      let v = List.hd c.versions in
      v.t_close <- at;
      v.cpu_close <- brokers_cpu st.pair;
      c.open_k <- None;
      (* the barrier sentinel is dropped in the next epoch's changes *)
      c.prev_sentinel <- id;
      c.next_open <- at +. c.gap
    | None -> ())
  | None ->
    if Atomic.get st.sending && now () >= c.next_open then begin
      let t_open = now () and cpu_open = brokers_cpu st.pair in
      match
        let ops =
          List.init c.per_epoch (fun _ ->
              let j = Xroute_support.Zipf.sample c.zipf c.prng in
              match c.ids.(j) with
              | Some id ->
                C.unsubscribe st.sub id;
                c.ids.(j) <- None;
                (false, j)
              | None ->
                c.ids.(j) <- Some (C.subscribe st.sub c.pool.(j));
                (true, j))
        in
        Option.iter (C.unsubscribe st.sub) c.prev_sentinel;
        ops
      with
      | exception (C.Unavailable _ | Unix.Unix_error _) -> fail st "subscriber connection lost"
      | ops ->
        let k, id = open_barrier st in
        c.versions <-
          { k; t_open; t_close = infinity; active = active_of c.ids; ops; cpu_open; cpu_close = Float.nan }
          :: c.versions;
        c.open_k <- Some (k, id)
    end

(* Close the last epoch if its barrier passed after the section's
   receive loop ended. *)
let churn_finish st c =
  List.iter
    (fun v ->
      if v.t_close = infinity then
        Option.iter (fun at -> v.t_close <- at) (Hashtbl.find_opt st.barrier_at v.k))
    c.versions;
  c.open_k <- None

(* Subscription changes per second of the brokers' CPU in the change
   windows, each from an epoch's first change to its barrier. The
   documents routed meanwhile are in that CPU time too. *)
let churn_subs_per_cpu_s c =
  let n, cpu =
    List.fold_left
      (fun (n, cpu) v ->
        if v.k > 0 && Float.is_finite v.cpu_close then
          (n + List.length v.ops, cpu +. (v.cpu_close -. v.cpu_open))
        else (n, cpu))
      (0, 0.0) c.versions
  in
  float_of_int n /. cpu

(* ---------------- analysis ---------------- *)

type seg_stats = {
  docs : int; (* work documents sent *)
  paths : int; (* path publications sent *)
  latencies : float array; (* ms, ascending, timed documents *)
  timed : (float * float) list; (* (due, latency ms) of the timed documents *)
  sends : (float * int) list; (* (publish time, path count) of every work document *)
  untimed : int; (* documents with nothing expected *)
  lenient : int; (* documents routed while subscriptions changed *)
  late : float array; (* ms the sender ran behind schedule, ascending *)
  backlog_max : int;
  backlog_end : int;
  tally : Oracle.tally;
  strict : (int * int * int) list;
      (* (doc id, pool index, version index) of the documents routed under
         one version, in send order *)
  spurious : (int * Xml_paths.publication * int * int) list;
      (* (doc id, path, first and last candidate version) of each path
         that arrived though no candidate version selects it *)
}

(* [versions] oldest first; a single version for workloads without
   churn. For a path publication sent at [l] and last routable at [u]
   (its own arrival, or the first arrival of anything the publisher
   sent after it — FIFO links), the candidate versions run from the
   last one fully installed at [l] to the last one opened by [u]. Only
   a path with a single candidate version must arrive; any candidate
   allows it. *)
let analyze st ~oracle ~pubs ~versions ~seg =
  let versions = Array.of_list versions in
  let nv = Array.length versions in
  let lo_at l =
    let r = ref 0 in
    Array.iteri (fun i v -> if i > 0 && v.t_close <= l then r := i) versions;
    !r
  in
  let hi_at u =
    let r = ref 0 in
    Array.iteri (fun i v -> if i > 0 && v.t_open <= u then r := i) versions;
    !r
  in
  let sent = List.rev st.sent in
  (* first arrival of anything sent after each document *)
  let after = Hashtbl.create 1024 in
  let _ =
    List.fold_left
      (fun acc (s : sent) ->
        Hashtbl.replace after s.doc_id acc;
        let first =
          List.fold_left
            (fun m (_, t) -> Float.min m t)
            infinity
            (Option.value (Hashtbl.find_opt st.arrivals s.doc_id) ~default:[])
        in
        Float.min acc first)
      infinity (List.rev sent)
  in
  let tally = Oracle.tally () in
  let lat = ref [] and late = ref [] and untimed = ref 0 and lenient = ref 0 in
  let ndocs = ref 0 and npaths = ref 0 and sends = ref [] in
  let spans = ref [] and strict = ref [] and spurious = ref [] in
  List.iter
    (fun (s : sent) ->
      match s.kind with
      | Work j when s.seg = seg ->
        incr ndocs;
        sends := (s.t0, List.length pubs.(j)) :: !sends;
        late := ((s.t0 -. s.due) *. 1000.0) :: !late;
        let arr = Option.value (Hashtbl.find_opt st.arrivals s.doc_id) ~default:[] in
        let all_strict = ref true and must_n = ref 0 and done_at = ref neg_infinity in
        let missing = ref false in
        List.iter
          (fun (p : Xml_paths.publication) ->
            incr npaths;
            let hits = List.filter (fun (pid, _) -> pid = p.path_id) arr in
            let count = List.length hits in
            let u =
              match hits with
              | (_, t) :: _ -> t
              | [] -> Option.value (Hashtbl.find_opt after s.doc_id) ~default:infinity
            in
            let lo = lo_at s.t0 and hi = if nv = 1 then 0 else hi_at u in
            let strict = lo >= hi && u < infinity || nv = 1 in
            let sel v = Oracle.selected oracle ~active:versions.(v).active p in
            let may = ref false in
            for v = lo to max lo hi do
              if sel v then may := true
            done;
            let must = strict && sel lo in
            if count > 0 && not !may then spurious := (s.doc_id, p, lo, max lo hi) :: !spurious;
            if not strict then all_strict := false;
            Oracle.judge tally ~must ~may:!may ~count;
            if must then begin
              incr must_n;
              match hits with
              | (_, t) :: _ -> done_at := Float.max !done_at t
              | [] -> missing := true
            end)
          pubs.(j);
        if !all_strict then strict := (s.doc_id, j, lo_at s.t0) :: !strict;
        if not !all_strict then incr lenient
        else if !must_n = 0 then incr untimed
        else if not !missing then begin
          lat := (s.due, (!done_at -. s.due) *. 1000.0) :: !lat;
          spans := (s.due, !done_at) :: !spans
        end
      | Work _ | Sentinel -> ())
    sent;
  (* backlog: documents due but not yet fully delivered, at each due time *)
  let intervals = Array.of_list !spans in
  Array.sort compare intervals;
  let backlog_at t =
    Array.fold_left (fun n (d, e) -> if d <= t && e > t then n + 1 else n) 0 intervals
  in
  let backlog_max =
    Array.fold_left (fun m (d, _) -> max m (backlog_at d)) 0 intervals
  in
  let backlog_end =
    if Array.length intervals = 0 then 0 else backlog_at (fst intervals.(Array.length intervals - 1))
  in
  {
    docs = !ndocs;
    paths = !npaths;
    latencies = Quantile.sorted (List.map snd !lat);
    timed = List.rev !lat;
    sends = List.rev !sends;
    untimed = !untimed;
    lenient = !lenient;
    late = Quantile.sorted !late;
    backlog_max;
    backlog_end;
    tally;
    strict = List.rev !strict;
    spurious = List.rev !spurious;
  }
