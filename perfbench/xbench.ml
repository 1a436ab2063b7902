(* xroute's benchmark: a two-process broker line (b0 - b1, default
   flags) under a traffic mix, plus the discrete-event simulator, with
   every delivery checked against an oracle.

     xbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
                --brokerd <path to xroute_brokerd.exe> --out <dir>

   Every run goes through the same phases, sized by the workload:
   set-up (repeated; the last pair stays up), a fixed-rate open-loop
   phase of --seconds, a ladder of higher rates with rungs a tenth as
   long, and a simulator phase in a child process. Every end-to-end
   metric is reported on every workload, so no phase is skipped; the
   workload decides which one dominates. [--trace 0] prints the
   end-to-end metrics; [--trace 1]
   repeats the fixed-rate phase with client spans on, replays its
   inputs in-process through each layer, and prints the per-layer
   metrics. The last line of output is one JSON object. *)

open Xroute_xml
module Workload = Xroute_workload.Workload
module Dtd_samples = Xroute_dtd.Dtd_samples

type workload = {
  name : string;
  set_b : bool; (* Set B XPEs (moderate covering) instead of Set A *)
  subs : int; (* initial subscriptions *)
  churn : (int * int * float) option; (* pool size, changes per epoch, gap s *)
  setups : int;
  rate : float; (* fixed-rate phase, documents/s *)
  ladder : float list; (* documents/s, one rung each *)
  limit_ms : float; (* p99 delivery limit of a sustained rate *)
  sim : string; (* scenario spec, without its seed *)
  sim_seeds : int; (* scenarios at seeds 1..sim_seeds *)
  rss_of_sim : bool; (* peak_rss_mb of the simulator, not the brokers *)
}

(* Rungs about 25% apart, from 2x the fixed rate of wire-small. *)
let wire_ladder = [ 300.; 380.; 475.; 600.; 750. ]
let small_sim = "kind=flash,clients=5000,levels=2,docs=16,zipf=0,batch=4096"
let sim_reps = 4 (* runs of each scenario *)

let workloads =
  [
    {
      name = "wire-small";
      set_b = false;
      subs = 300;
      churn = None;
      setups = 3;
      rate = 150.;
      ladder = wire_ladder;
      limit_ms = 100.;
      sim = small_sim;
      sim_seeds = 1;
      rss_of_sim = false;
    };
    {
      name = "match-large";
      set_b = false;
      subs = 3000;
      churn = None;
      setups = 2;
      rate = 50.;
      ladder = [ 100.; 125.; 155.; 195.; 240. ];
      limit_ms = 200.;
      sim = small_sim;
      sim_seeds = 1;
      rss_of_sim = false;
    };
    {
      name = "sub-churn";
      set_b = true;
      subs = 100;
      churn = Some (400, 16, 0.25);
      setups = 3;
      rate = 120.;
      ladder = wire_ladder;
      limit_ms = 100.;
      sim = small_sim;
      sim_seeds = 1;
      rss_of_sim = false;
    };
    {
      name = "sim-flash";
      set_b = false;
      subs = 300;
      churn = None;
      setups = 3;
      rate = 150.;
      ladder = wire_ladder;
      limit_ms = 100.;
      sim = "kind=flash,clients=40000,levels=2,docs=16,zipf=0,batch=4096";
      sim_seeds = 2;
      rss_of_sim = true;
    };
  ]

(* ---------------- output ---------------- *)

let metrics : (string * float * string) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics
let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let fatal msg =
  prerr_endline ("xbench: " ^ msg);
  exit 1

(* ---------------- micro timings ---------------- *)

(* Median over [reps] timed passes of [f] (which performs [ops]
   operations), in ns per operation. *)
let ns_per_op ?(reps = 5) ~ops f =
  Quantile.median
    (List.init reps (fun _ ->
         let t0 = Tracer.now_ns () in
         f ();
         float_of_int (Tracer.now_ns () - t0) /. float_of_int ops))

let sketch_ns () =
  let n = 100_000 in
  let prng = Xroute_support.Prng.create 7 in
  let xs = Array.init n (fun _ -> Xroute_support.Prng.exponential prng ~mean:2.0) in
  ns_per_op ~ops:n (fun () ->
      let s = Xroute_obs.Sketch.create () in
      Array.iter (Xroute_obs.Sketch.observe s) xs)

let equeue_ns () =
  let n = 100_000 in
  let prng = Xroute_support.Prng.create 11 in
  let ts = Array.init n (fun _ -> Xroute_support.Prng.float prng 1000.0) in
  let noop () = () in
  ns_per_op ~ops:(2 * n) (fun () ->
      let q = Xroute_support.Equeue.create () in
      Array.iter (fun time -> Xroute_support.Equeue.push q ~time noop) ts;
      while Xroute_support.Equeue.pop_with q (fun _ k -> k ()) do
        ()
      done)

(* ---------------- windows ---------------- *)

(* The fixed-rate phase is cut into [windows] equal time windows, and
   its latency figures are read over the [quiet] windows in which the
   hypervisor stole the least of the host's CPU time. Steal
   comes from neighbouring machines, not from xroute, and on a shared
   host it swings from 0 to 30% within seconds; choosing windows by
   steal, never by the metric itself, keeps those bursts out without
   favouring lucky latencies. *)
let windows = 10
let quiet = 5
let costly = 2

(* A probe taken every 100 ms of the phase. *)
type sample = { at : float; cpu : float; (* both brokers, s *) host : int * int (* ticks, steal *) }

type window = { lo : float; hi : float; steal : float; cpu : float; (* s *) paths : int }

(* Broker CPU per path publication sent in [ws], us. *)
let us_per_path ws =
  List.fold_left (fun a w -> a +. w.cpu) 0.0 ws
  /. float_of_int (max 1 (List.fold_left (fun a w -> a + w.paths) 0 ws))
  *. 1e6

let steal_between (a : sample) (b : sample) =
  float_of_int (snd b.host - snd a.host) /. float_of_int (max 1 (fst b.host - fst a.host))

let phase_windows (a : Live.seg_stats) samples =
  match (a.Live.sends, samples) with
  | [], _ | _, [] -> []
  | (t0, _) :: _, _ ->
    let t1 = List.fold_left (fun m (t, _) -> Float.max m t) t0 a.Live.sends in
    let w = (t1 -. t0) /. float_of_int windows in
    let at t =
      match List.find_opt (fun s -> s.at >= t) samples with
      | Some s -> s
      | None -> List.nth samples (List.length samples - 1)
    in
    List.init windows (fun i ->
        let lo = t0 +. (float_of_int i *. w) in
        let hi = if i = windows - 1 then infinity else lo +. w in
        let s0 = at lo and s1 = at hi in
        let paths =
          List.fold_left
            (fun n (t, p) -> if t >= s0.at && t < s1.at then n + p else n)
            0 a.Live.sends
        in
        {
          lo;
          hi;
          steal = steal_between s0 s1;
          cpu = s1.cpu -. s0.cpu;
          paths;
        })

let quiet_windows ws =
  List.filteri (fun i _ -> i < quiet) (List.stable_sort (fun a b -> compare a.steal b.steal) ws)

(* Delivery latency over the documents due in [ws]: ascending ms. *)
let latencies_in (a : Live.seg_stats) ws =
  Quantile.sorted
    (List.filter_map
       (fun (d, l) -> if List.exists (fun w -> d >= w.lo && d < w.hi) ws then Some l else None)
       a.Live.timed)

(* ---------------- the run ---------------- *)

type phase_probe = { b0 : Brokers.probe; b1 : Brokers.probe; driver_cpu : float }

let run w ~seed ~seconds ~trace ~brokerd ~out =
  let nproc = Domain.recommended_domain_count () in
  let ticks0 = Procfs.host_ticks () in
  say "workload %s  seed %d  seconds %.0f  trace %b" w.name seed seconds trace;
  say "host: nproc %d, OCaml %s, xroute %s" nproc Sys.ocaml_version
    (match Procfs.read_file "COMMIT" with Some c -> String.trim c | None -> "(no COMMIT file)");
  (* ---- inputs, from the seed ---- *)
  let nitf = Lazy.force Dtd_samples.nitf in
  let advs = Xroute_dtd.Dtd_paths.advertisements (Xroute_dtd.Dtd_graph.build nitf) in
  let params = if w.set_b then Workload.set_b_params nitf else Workload.set_a_params nitf in
  let pool_n = match w.churn with Some (n, _, _) -> n | None -> w.subs in
  let pool = Array.of_list (Workload.xpes ~params ~count:pool_n ~seed ()) in
  let xpes = Array.to_list (Array.sub pool 0 (min w.subs (Array.length pool))) in
  let docs = Array.of_list (Workload.documents ~dtd:nitf ~count:300 ~seed:(seed + 1) ()) in
  let pubs = Array.map (fun d -> Xml_paths.decompose ~doc_id:0 d) docs in
  let oracle = Oracle.create pool in
  let sentinel = Xml_paths.publication_of_string "/xbsentinel/b0" in
  if Array.exists (fun x -> Xroute_xpath.Xpe_eval.matches_publication x sentinel) pool then
    fatal "a workload XPE selects the sentinel path";
  let paths_per_doc =
    float_of_int (Array.fold_left (fun a p -> a + List.length p) 0 pubs)
    /. float_of_int (Array.length pubs)
  in
  say "inputs: %d advertisements, %d XPEs (%s%s), %d documents, %.1f paths/doc"
    (List.length advs) (Array.length pool)
    (if w.set_b then "Set B" else "Set A")
    (match w.churn with Some _ -> Printf.sprintf ", %d initially active" w.subs | None -> "")
    (Array.length docs) paths_per_doc;
  Array.iter (fun p -> List.iter (fun q -> ignore (Oracle.matching oracle q)) p) pubs;
  (* the host's slowness, gauged between phases; see Refloop *)
  let slowness = ref [] in
  let gauge_s = ref 0.0 in
  let gauge () =
    let t0 = Unix.gettimeofday () in
    slowness := Refloop.slowness () :: !slowness;
    gauge_s := !gauge_s +. (Unix.gettimeofday () -. t0)
  in
  (* ---- set-up, repeated; the last pair stays up ---- *)
  let rec setups i acc =
    if i = w.setups then List.rev acc
    else begin
      gauge ();
      match Live.setup ~exe:brokerd ~log_dir:out ~advs ~xpes ~docs with
      | Error e -> fatal ("set-up failed: " ^ e)
      | Ok s ->
        if i < w.setups - 1 then Live.teardown s.Live.st;
        setups (i + 1) (s :: acc)
    end
  in
  let all_setups = setups 0 [] in
  let s = List.nth all_setups (w.setups - 1) in
  let st = s.Live.st in
  let setup_s = Quantile.median (List.map (fun s -> s.Live.setup_s) all_setups) in
  say "set-up: %s s (median %.3f s)"
    (String.concat ", " (List.map (fun s -> Printf.sprintf "%.3f" s.Live.setup_s) all_setups))
    setup_s;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let ctl p id =
    match Brokers.connect p ~client_id:id ~deadline with
    | Some c -> c
    | None -> fatal "control connection failed"
  in
  let ctl0 = ctl st.Live.pair.Brokers.b0 3000 and ctl1 = ctl st.Live.pair.Brokers.b1 3001 in
  let probe () =
    {
      b0 = Brokers.probe ctl0 st.Live.pair.Brokers.b0;
      b1 = Brokers.probe ctl1 st.Live.pair.Brokers.b1;
      driver_cpu = Procfs.cpu_s ();
    }
  in
  let p_setup = probe () in
  let churn =
    Option.map
      (fun (_, per_epoch, gap) ->
        let ids = Array.make (Array.length pool) None in
        List.iteri (fun i id -> ids.(i) <- Some id) s.Live.sub_ids;
        Live.churn_create ~pool ~ids ~seed:(seed + 2) ~per_epoch ~gap ~ready_at:s.Live.ready_at)
      w.churn
  in
  let tick = Option.map (fun c -> Live.churn_tick st c) churn in
  let fixed_s = seconds and rung_s = seconds /. 10.0 in
  let samples = ref [] in
  let sample_cpu () =
    samples :=
      {
        at = Unix.gettimeofday ();
        cpu = Live.brokers_cpu st.Live.pair;
        host = Option.value (Procfs.host_ticks ()) ~default:(0, 0);
      }
      :: !samples
  in
  let fixed_phase seg =
    Live.section ?tick ~every_100ms:sample_cpu st [ { Live.seg; rate = w.rate; dur = fixed_s } ];
    Option.iter (Live.churn_finish st) churn
  in
  (* ---- fixed-rate phase ---- *)
  sample_cpu ();
  fixed_phase 0;
  sample_cpu ();
  let phase_samples = List.rev !samples in
  let p_fixed = probe () in
  gauge ();
  (* ---- traced repeat of the fixed-rate phase ---- *)
  let traced_seg = 100 in
  if trace then begin
    st.Live.send_tracer <- Some (Tracer.create ());
    st.Live.recv_tracer <- Some (Tracer.create ());
    fixed_phase traced_seg
  end;
  let versions =
    match churn with
    | Some c -> List.rev c.Live.versions
    | None ->
      [ Live.initial_version ~at:0.0 (Array.make (Array.length pool) true) ]
  in
  let analyze seg = Live.analyze st ~oracle ~pubs ~versions ~seg in
  (* ---- ladder ---- *)
  let rung_stats = ref [] in
  let passes rate (a : Live.seg_stats) =
    Oracle.failures a.Live.tally = 0
    && Array.length a.Live.latencies > 0
    && Quantile.nearest_rank a.Live.latencies 99.0 <= w.limit_ms
    && float_of_int a.Live.backlog_end <= (rate *. w.limit_ms /. 1000.0) +. 1.0
  in
  let fixed = analyze 0 in
  let sustained = ref (if passes w.rate fixed then w.rate else 0.0) in
  if not trace then begin
    let seg = ref 0 in
    let rung rate =
      Atomic.get st.Live.abort = None
      &&
      (incr seg;
       let h0 = Procfs.host_ticks () in
       Live.section st [ { Live.seg = !seg; rate; dur = rung_s } ];
       let steal =
         match (h0, Procfs.host_ticks ()) with
         | Some (t0, s0), Some (t1, s1) -> float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))
         | _ -> 0.0
       in
       let a = analyze !seg in
       rung_stats := a :: !rung_stats;
       let ok = passes rate a in
       say "rung %.0f docs/s: p99 %.1f ms (n=%d), backlog at end %d, host steal %.1f%%, %s" rate
         (Quantile.nearest_rank a.Live.latencies 99.0)
         (Array.length a.Live.latencies) a.Live.backlog_end (100.0 *. steal)
         (if ok then "sustained" else "not sustained");
       ok)
    in
    let rec climb = function
      | [] -> ()
      | rate :: rest ->
        if rung rate then begin
          sustained := rate;
          climb rest
        end
    in
    (* below the fixed rate when even that misses the limit *)
    let rec descend = function
      | [] -> ()
      | rate :: rest -> if rung rate then sustained := rate else descend rest
    in
    if !sustained > 0.0 then climb w.ladder
    else descend (List.map (fun f -> f *. w.rate) [ 0.75; 0.5; 0.25 ])
  end;
  let broker_failure =
    List.find_opt (fun p -> not (Brokers.alive p)) [ st.Live.pair.Brokers.b0; st.Live.pair.Brokers.b1 ]
  in
  gauge ();
  Xroute_daemon.Client.close ctl0;
  Xroute_daemon.Client.close ctl1;
  Live.teardown st;
  let abort = Atomic.get st.Live.abort in
  Option.iter (fun why -> say "ABORTED: %s" why) abort;
  Option.iter (fun p -> say "FAILED: %s" (Brokers.describe p)) broker_failure;
  (* ---- simulator ---- *)
  (* The scenario seeds are fixed, not drawn from --seed: a flash
     crowd's event count swings threefold from seed to seed while its
     wall time stays put, so a drawn seed would make sim_events_per_s
     measure the seed. *)
  let specs = List.init w.sim_seeds (fun i -> Printf.sprintf "%s,seed=%d" w.sim (i + 1)) in
  let sim =
    match Simphase.run ~exe:Sys.executable_name ~reps:sim_reps ~specs with
    | Ok r -> r
    | Error e -> fatal e
  in
  List.iter
    (fun (r : Simphase.run) ->
      say "simulator %s: %.3f s wall, %.3f s CPU, %d events, %d deliveries, digest %s"
        r.Simphase.spec r.Simphase.wall r.Simphase.cpu r.Simphase.events r.Simphase.deliveries
        r.Simphase.digest)
    sim.Simphase.runs;
  gauge ();
  (* ---- verdicts ---- *)
  let traced = if trace then Some (analyze traced_seg) else None in
  let segs = (fixed :: Option.to_list traced) @ !rung_stats in
  let expected = List.fold_left (fun n a -> n + a.Live.tally.Oracle.expected) 0 segs in
  let failures = List.fold_left (fun n a -> n + Oracle.failures a.Live.tally) 0 segs in
  let t = fixed.Live.tally in
  say "oracle (fixed-rate phase): %d expected, %d missed, %d spurious, %d duplicate; %d documents routed while subscriptions changed"
    t.Oracle.expected t.Oracle.missed t.Oracle.spurious t.Oracle.duplicate fixed.Live.lenient;
  (* For a spurious path: the pool XPEs that select it, and the versions
     in which each was active. *)
  List.iteri
    (fun i (doc_id, (p : Xml_paths.publication), lo, hi) ->
      if i < 5 then
        say "SPURIOUS doc %d path %d %s, candidate versions %d-%d of %d; selected by %s" doc_id
          p.Xml_paths.path_id (Oracle.key p) lo hi (List.length versions)
          (String.concat ", "
             (Array.to_list
                (Array.map
                   (fun j ->
                     Printf.sprintf "%s active in [%s]"
                       (Xroute_xpath.Xpe.to_string pool.(j))
                       (String.concat " "
                          (List.filter_map Fun.id
                             (List.mapi
                                (fun i (v : Live.version) ->
                                  if v.Live.active.(j) then Some (string_of_int i) else None)
                                versions))))
                   (Oracle.matching oracle p)))))
    (List.concat_map (fun a -> a.Live.spurious) segs);
  let failed = failures + st.Live.send_failures + sim.Simphase.mismatches in
  let attempted = expected + List.length specs in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  say "failed_frac = %.6f (%d of %d; send failures %d, simulator mismatches %d)" failed_frac failed
    attempted st.Live.send_failures sim.Simphase.mismatches;
  let cpu_delta a b f = f b -. f a in
  let d_cpu0 = cpu_delta p_setup.b0 p_fixed.b0 Brokers.cpu
  and d_cpu1 = cpu_delta p_setup.b1 p_fixed.b1 Brokers.cpu in
  let hops p q name = Brokers.scalar q name -. Brokers.scalar p name in
  let d_hops0 = hops p_setup.b0 p_fixed.b0 "xroute_broker_pubs_in_total"
  and d_hops1 = hops p_setup.b1 p_fixed.b1 "xroute_broker_pubs_in_total" in
  let paths_sent = float_of_int fixed.Live.paths in
  let lat = fixed.Live.latencies in
  say "delivery latency deciles (ms): %s"
    (String.concat " "
       (List.map
          (fun q -> Printf.sprintf "%.1f" (Quantile.nearest_rank lat q))
          [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ]));
  say "fixed-rate phase: %.0f docs/s offered for %.1f s, %d documents (%d timed, %d with nothing expected)"
    w.rate fixed_s fixed.Live.docs (Array.length lat) fixed.Live.untimed;
  (match (ticks0, Procfs.host_ticks ()) with
  | Some (a, s0), Some (b, s1) when b > a ->
    say "host steal during the run: %.1f%% of CPU time" (100.0 *. float_of_int (s1 - s0) /. float_of_int (b - a))
  | _ -> ());
  let ok = abort = None && broker_failure = None && failed = 0 in
  if not trace then begin
    let subs_per_cpu_s =
      match churn with
      | Some c -> Live.churn_subs_per_cpu_s c
      | None -> Quantile.median (List.map (fun s -> s.Live.subs_per_cpu_s) all_setups)
    in
    let all_ws = phase_windows fixed phase_samples in
    let ws = quiet_windows all_ws in
    (* The brokers run through the whole phase, slow spells and all, so
       the run's speed is the mean of its gauges. *)
    let slow = Quantile.mean !slowness in
    (* Interference from other machines only ever adds CPU time, so
       the [costly] dearest windows are left out. A window holds too few
       documents to stand for the workload, so no fewer are kept. *)
    let by_cost = List.sort (fun a b -> compare (us_per_path [ a ]) (us_per_path [ b ])) all_ws in
    let cpu_us_per_pub = us_per_path (List.filteri (fun i _ -> i < windows - costly) by_cost) in
    let quiet_lat = latencies_in fixed ws in
    let p50 = Quantile.nearest_rank quiet_lat 50.0 and p99 = Quantile.nearest_rank quiet_lat 99.0 in
    let rss =
      if w.rss_of_sim then float_of_int sim.Simphase.hwm_kb /. 1024.0
      else Brokers.hwm_mb p_fixed.b0 +. Brokers.hwm_mb p_fixed.b1
    in
    (* Times and rates are scaled to the reference host's speed, so that
       a slow spell of a shared host does not read as a regression. *)
    say "host slowness %.3f (mean of %s, gauged in %.2f s); as measured: setup_s %.4f, broker_cpu_us_per_pub %.3f, subs_per_cpu_s %.2f, sim_events_per_cpu_s %.1f"
      slow
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !slowness))
      !gauge_s
      setup_s cpu_us_per_pub subs_per_cpu_s sim.Simphase.events_per_cpu_s;
    put "setup_s" "s" (setup_s /. slow);
    put "broker_cpu_us_per_pub" "us" (cpu_us_per_pub /. slow);
    put "subs_per_cpu_s" "1/s" (subs_per_cpu_s *. slow);
    put "peak_rss_mb" "MB" rss;
    (* Wall-clock latency and throughput move with the host's steal by
       more than any bound a regression check could use, so they are
       reported here, not as bounded metrics; so is the simulator's
       event rate, whose CPU-time figure swings by a third between runs
       in the host's slow spells. *)
    say "windows: host steal %s; the %d quietest used for latency; broker CPU us per path %s"
      (String.concat " " (List.map (fun w -> Printf.sprintf "%.1f%%" (100.0 *. w.steal)) all_ws))
      (List.length ws)
      (String.concat " " (List.map (fun w -> Printf.sprintf "%.1f" (us_per_path [ w ])) all_ws));
    say "deliver_p50_ms %.3f, deliver_p99_ms %.3f (p95 %.3f) over the %d documents of the quiet windows; whole phase: p50 %.3f, p95 %.3f, p99 %.3f over %d"
      p50 p99 (Quantile.nearest_rank quiet_lat 95.0) (Array.length quiet_lat)
      (Quantile.nearest_rank lat 50.0) (Quantile.nearest_rank lat 95.0)
      (Quantile.nearest_rank lat 99.0) (Array.length lat);
    say "sustained_pubs_per_s %.1f (p99 limit %.0f ms)" !sustained w.limit_ms;
    say "sim_events_per_cpu_s %.1f at the reference speed; sim_events_per_s %.1f (wall clock)"
      (sim.Simphase.events_per_cpu_s *. slow) sim.Simphase.events_per_s;
    say "broker_cpu_us_per_pub: whole phase %.3f us" ((d_cpu0 +. d_cpu1) /. paths_sent *. 1e6)
  end
  else begin
    let traced = Option.get traced in
    let replay_ok = ref true in
    (* ---- replay ---- *)
    let r = Replay.create () in
    List.iteri
      (fun i adv ->
        Replay.control r r.Replay.n0 ~from:(Xroute_core.Rtable.Client Live.publisher_id)
          (Xroute_core.Message.Advertise { id = { origin = Live.publisher_id; seq = i + 1 }; adv }))
      (advs @ [ Live.sentinel_adv ]);
    let seq = ref 0 in
    let sub_msg xpe =
      incr seq;
      Xroute_core.Message.Subscribe { id = { origin = Live.subscriber_id; seq = !seq }; xpe }
    in
    let from_sub = Xroute_core.Rtable.Client Live.subscriber_id in
    let replay_ids = Array.make (Array.length pool) None in
    let subscribe_pool j =
      let m = sub_msg pool.(j) in
      (match m with
      | Xroute_core.Message.Subscribe { id; _ } -> replay_ids.(j) <- Some id
      | _ -> ());
      Replay.control r r.Replay.n1 ~from:from_sub m
    in
    let unsubscribe_pool j =
      match replay_ids.(j) with
      | Some id ->
        replay_ids.(j) <- None;
        Replay.control r r.Replay.n1 ~from:from_sub (Xroute_core.Message.Unsubscribe { id })
      | None -> ()
    in
    let sentinel tag = Replay.control r r.Replay.n1 ~from:from_sub (sub_msg (Live.sentinel_xpe tag)) in
    sentinel Live.drain_tag;
    sentinel (Live.barrier_tag 0);
    List.iteri (fun j _ -> subscribe_pool j) xpes;
    sentinel (Live.barrier_tag 1);
    Replay.decode_subs r xpes;
    (* the replayed tables must equal the daemons' after set-up *)
    let table b p name = (float_of_int b, Brokers.scalar p name) in
    List.iter
      (fun (what, (mine, theirs)) ->
        if float_of_int (truncate theirs) <> mine then begin
          replay_ok := false;
          say "REPLAY MISMATCH: %s replay %.0f, brokerd %.0f" what mine theirs
        end)
      [
        ("b0 SRT", table (Xroute_core.Broker.srt_size r.Replay.n0.broker) p_setup.b0 "xroute_srt_size");
        ("b1 SRT", table (Xroute_core.Broker.srt_size r.Replay.n1.broker) p_setup.b1 "xroute_srt_size");
        ("b0 PRT", table (Xroute_core.Broker.prt_size r.Replay.n0.broker) p_setup.b0 "xroute_prt_size");
        ("b1 PRT", table (Xroute_core.Broker.prt_size r.Replay.n1.broker) p_setup.b1 "xroute_prt_size");
      ];
    (* data plane: the documents routed under one version, capped *)
    let cap = 150 in
    let todo = List.filteri (fun i _ -> i < cap) fixed.Live.strict in
    let version = ref 0 in
    let versions_a = Array.of_list versions in
    let mismatched = ref 0 in
    List.iter
      (fun (doc_id, j, v) ->
        while !version < v do
          incr version;
          List.iter
            (fun (sub, k) -> if sub then subscribe_pool k else unsubscribe_pool k)
            versions_a.(!version).Live.ops
        done;
        let got = List.sort compare (Replay.publish r ~client:Live.publisher_id ~doc_id docs.(j)) in
        let want =
          List.sort compare
            (List.map (fun p -> (doc_id, p))
               (Oracle.expected oracle ~active:versions_a.(v).Live.active pubs.(j)))
        in
        if got <> want then incr mismatched)
      todo;
    if !mismatched > 0 then begin
      replay_ok := false;
      say "REPLAY MISMATCH: %d of %d documents delivered differently from the oracle" !mismatched
        (List.length todo)
    end;
    (* unsubscription path: withdraw up to 100 of the initial subscriptions *)
    if churn = None then List.iteri (fun j _ -> if j < 100 then unsubscribe_pool j) xpes;
    let self = Tracer.self_times r.Replay.tr in
    let get name = Option.value (Hashtbl.find_opt self name) ~default:(0, 0, 0) in
    let self_ns name = let _, _, s = get name in float_of_int s in
    let calls name = let c, _, _ = get name in float_of_int c in
    let per name = self_ns name /. Float.max 1.0 (calls name) in
    let c = r.Replay.c in
    let hops_r = float_of_int c.Replay.hops in
    let root_ns = let _, d, _ = get "hop" in let _, d', _ = get "read" in float_of_int (d + d') in
    let replay_us_per_hop = root_ns /. hops_r /. 1000.0 in
    let live_us_per_hop = (d_cpu0 +. d_cpu1) /. (d_hops0 +. d_hops1) *. 1e6 in
    say "replay: %d documents, %d hops, %d lines" (List.length todo) c.Replay.hops c.Replay.lines;
    say "replay budget per hop (self time, us):";
    List.iter
      (fun (l : Replay.layer) ->
        if l.Replay.calls > 0 && not (List.mem l.Replay.name [ "broker.sub"; "broker.unsub"; "broker.control"; "codec.decode_sub" ])
        then say "  %-20s %8.3f" l.Replay.name (float_of_int l.Replay.self_ns /. hops_r /. 1000.0))
      (Replay.layers r);
    say "  %-20s %8.3f  (sum of layer self times)" "total" replay_us_per_hop;
    say "measured brokerd CPU per hop: b0 %.3f us, b1 %.3f us, both %.3f us; unexplained %.3f us (socket reads and writes, the select loop, scheduling)"
      (d_cpu0 /. d_hops0 *. 1e6) (d_cpu1 /. d_hops1 *. 1e6) live_us_per_hop
      (live_us_per_hop -. replay_us_per_hop);
    let n0c = Xroute_core.Broker.counters r.Replay.n0.broker
    and n1c = Xroute_core.Broker.counters r.Replay.n1.broker in
    let pubs_in = n0c.Xroute_core.Broker.pubs_in + n1c.Xroute_core.Broker.pubs_in in
    let dropped = n0c.Xroute_core.Broker.pubs_dropped + n1c.Xroute_core.Broker.pubs_dropped in
    let sum2 name = Brokers.scalar p_setup.b0 name +. Brokers.scalar p_setup.b1 name in
    let send_tr = Option.get st.Live.send_tracer and recv_tr = Option.get st.Live.recv_tracer in
    let traced_docs = Hashtbl.create 256 in
    List.iter
      (fun (x : Live.sent) ->
        match x.Live.kind with
        | Live.Work _ when x.Live.seg = traced_seg -> Hashtbl.replace traced_docs x.Live.doc_id ()
        | _ -> ())
      st.Live.sent;
    let publish_us =
      Quantile.mean
        (List.filter_map
           (fun (sp : Tracer.span) ->
             if String.equal sp.Tracer.name "client.publish_doc" && Hashtbl.mem traced_docs sp.Tracer.trace
             then Some (float_of_int (sp.Tracer.stop - sp.Tracer.start) /. 1000.0)
             else None)
           (Tracer.to_list send_tr))
    in
    let recv_us = Quantile.median (Tracer.durations recv_tr "client.recv") /. 1000.0 in
    let decompose_us =
      ns_per_op ~ops:(Array.length docs) (fun () ->
          Array.iter (fun d -> ignore (Xml_paths.decompose ~doc_id:0 d)) docs)
      /. 1000.0
    in
    let names =
      Array.of_list
        (List.concat_map
           (fun p -> List.concat_map (fun (q : Xml_paths.publication) -> Array.to_list q.steps) p)
           (Array.to_list pubs))
    in
    let intern_ns =
      ns_per_op ~ops:(Array.length names) (fun () ->
          Array.iter (fun n -> ignore (Xroute_support.Symbol.intern n)) names)
    in
    put "brokerd0.cpu_us_per_hop" "us" (d_cpu0 /. d_hops0 *. 1e6);
    put "brokerd1.cpu_us_per_hop" "us" (d_cpu1 /. d_hops1 *. 1e6);
    put "brokerd.ctxsw_per_kpub" "count"
      ((cpu_delta p_setup.b0 p_fixed.b0 Brokers.ctxsw +. cpu_delta p_setup.b1 p_fixed.b1 Brokers.ctxsw)
      /. (paths_sent /. 1000.0));
    put "brokerd.unexplained_us_per_hop" "us" (live_us_per_hop -. replay_us_per_hop);
    put "replay.layers_us_per_hop" "us" replay_us_per_hop;
    put "linebuf.ns_per_line" "ns"
      ((self_ns "linebuf.add_string" +. self_ns "linebuf.next_line") /. float_of_int c.Replay.lines);
    put "codec.decode_ns_per_pub" "ns" (per "codec.decode");
    put "codec.encode_ns_per_pub" "ns" (per "codec.encode");
    put "codec.bytes_per_pub" "bytes" (float_of_int c.Replay.out_bytes /. float_of_int c.Replay.outputs);
    put "codec.decode_ns_per_sub" "ns" (per "codec.decode_sub");
    put "span.hop_ns" "ns" ((self_ns "span.open" +. self_ns "span.match" +. self_ns "span.close") /. hops_r);
    put "health.hop_ns" "ns" ((self_ns "health.send" +. self_ns "health.hop") /. hops_r);
    put "sketch.observe_ns" "ns" (sketch_ns ());
    put "broker.pub_us" "us" (per "broker.handle" /. 1000.0);
    put "prt.match_checks_per_pub" "count" (float_of_int c.Replay.prt_checks /. float_of_int c.Replay.pubs);
    put "prt.nfa_states" "count" (sum2 "xroute_nfa_states");
    put "broker.outputs_per_pub" "count" (float_of_int c.Replay.outputs /. float_of_int c.Replay.pubs);
    put "broker.pub_drop_ratio" "ratio" (float_of_int dropped /. float_of_int (max 1 pubs_in));
    put "broker.sub_us" "us" (per "broker.sub" /. 1000.0);
    put "broker.unsub_us" "us" (per "broker.unsub" /. 1000.0);
    put "srt.ops_per_sub" "count" (float_of_int c.Replay.srt_ops /. float_of_int c.Replay.subs);
    put "cover.checks_per_sub" "count" (float_of_int c.Replay.cover_checks /. float_of_int c.Replay.subs);
    put "broker.sub_forward_ratio" "ratio"
      (float_of_int c.Replay.client_subs_forwarded /. float_of_int c.Replay.client_subs);
    put "srt.size" "count" (sum2 "xroute_srt_size");
    put "prt.size" "count" (sum2 "xroute_prt_size");
    put "xml_paths.decompose_us_per_doc" "us" decompose_us;
    put "symbol.intern_ns" "ns" intern_ns;
    put "client.publish_us_per_doc" "us" publish_us;
    put "client.recv_us_per_msg" "us" recv_us;
    put "scenario.events" "count" (float_of_int sim.Simphase.events);
    put "scenario.deliveries" "count" (float_of_int sim.Simphase.deliveries);
    put "equeue.ns_per_op" "ns" (equeue_ns ());
    put "driver.late_p99_ms" "ms" (Quantile.nearest_rank fixed.Live.late 99.0);
    put "driver.cpu_share" "ratio"
      (let d = p_fixed.driver_cpu -. p_setup.driver_cpu in
       d /. (d +. d_cpu0 +. d_cpu1));
    put "driver.backlog_max" "count" (float_of_int fixed.Live.backlog_max);
    let p50_traced = Quantile.nearest_rank traced.Live.latencies 50.0 in
    put "trace.overhead_ms" "ms" (p50_traced -. Quantile.nearest_rank lat 50.0);
    say "tracing overhead: deliver p50 %.3f ms traced vs %.3f ms untraced (%d / %d documents)"
      p50_traced (Quantile.nearest_rank lat 50.0) (Array.length traced.Live.latencies) (Array.length lat);
    (* spans out *)
    let path = Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" w.name seed) in
    let oc = open_out path in
    Tracer.write oc ~tag:"send" send_tr;
    Tracer.write oc ~tag:"recv" recv_tr;
    Tracer.write oc ~tag:"replay" r.Replay.tr;
    close_out oc;
    say "spans written to %s" path;
    let failed = failed + if !replay_ok then 0 else 1 in
    emit ~correct:(ok && !replay_ok) ~attempted ~failed;
    exit 0
  end;
  emit ~correct:ok ~attempted ~failed

(* ---------------- entry ---------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "sim-child" :: reps :: specs -> Simphase.child ~reps:(int_of_string reps) specs
  | _ :: "selftest" :: rest ->
    let brokerd = match rest with b :: _ -> b | [] -> fatal "selftest needs the brokerd path" in
    exit (Selftest.run ~brokerd)
  | _ :: args ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | x :: _ -> fatal ("unexpected argument " ^ x)
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> fatal ("missing --" ^ k) in
    let name = get "workload" in
    let w =
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> w
      | None -> fatal ("unknown workload " ^ name)
    in
    let num k = match int_of_string_opt (get k) with Some n -> n | None -> fatal ("bad --" ^ k) in
    let out = get "out" in
    (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    run w ~seed:(num "seed") ~seconds:(float_of_int (num "seconds")) ~trace:(num "trace" = 1)
      ~brokerd:(get "brokerd") ~out
  | [] -> fatal "no arguments"
