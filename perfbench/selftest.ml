(* Self-tests of the benchmark's own pieces: the oracle's tally, the
   percentile helper, the /proc parser and the barrier's timeout.
   Exit status 0 when all pass. *)

open Xroute_xml

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let oracle () =
  let pool = Array.map Xroute_xpath.Xpe_parser.parse [| "/a/b"; "/a/c" |] in
  let o = Oracle.create pool in
  let doc =
    Xml_tree.element "a" [ Xml_tree.leaf "b"; Xml_tree.leaf "c"; Xml_tree.leaf "d" ]
  in
  let pubs = Xml_paths.decompose ~doc_id:1 doc in
  let active = [| true; false |] in
  let expected = Oracle.expected o ~active pubs in
  check "oracle: /a/b alone selects one path" (List.length expected = 1);
  (* delivered: nothing of /a/b (missed), /a/c (spurious: inactive), /a/d twice
     (spurious and a duplicate) *)
  let delivered = function "b" -> 0 | "c" -> 1 | _ -> 2 in
  let t = Oracle.tally () in
  List.iter
    (fun (p : Xml_paths.publication) ->
      let sel = Oracle.selected o ~active p in
      Oracle.judge t ~must:sel ~may:sel ~count:(delivered p.steps.(1)))
    pubs;
  check "oracle: planted missing delivery counted" (t.Oracle.missed = 1);
  check "oracle: planted spurious deliveries counted" (t.Oracle.spurious = 2);
  check "oracle: planted duplicate counted" (t.Oracle.duplicate = 1);
  check "oracle: expected count" (t.Oracle.expected = 1);
  let clean = Oracle.tally () in
  List.iter
    (fun (p : Xml_paths.publication) ->
      let sel = Oracle.selected o ~active p in
      Oracle.judge clean ~must:sel ~may:sel ~count:(if sel then 1 else 0))
    pubs;
  check "oracle: exact delivery has no failures" (Oracle.failures clean = 0)

let percentile () =
  let a = Quantile.sorted [ 15.; 20.; 35.; 40.; 50. ] in
  let nr = Quantile.nearest_rank a in
  check "nearest rank p5 of 5 samples is the minimum" (nr 5.0 = 15.);
  check "nearest rank p30" (nr 30.0 = 20.);
  check "nearest rank p40" (nr 40.0 = 20.);
  check "nearest rank p50" (nr 50.0 = 35.);
  check "nearest rank p100" (nr 100.0 = 50.);
  let h = Quantile.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  check "nearest rank p99 of 1..100" (Quantile.nearest_rank h 99.0 = 99.);
  check "nearest rank of nothing is nan" (Float.is_nan (Quantile.nearest_rank [||] 50.0));
  check "median of an even count" (Quantile.median [ 4.; 1.; 3.; 2. ] = 2.5)

let procfs () =
  let line =
    "4242 (we ird) (na)me) R 1 4242 4242 0 -1 4194560 120 0 0 0 731 52 0 0 20 0 1 0 9 1 2"
  in
  (match Procfs.parse_stat line with
  | Some s ->
    check "stat: comm with spaces and ')'" (s.Procfs.comm = "we ird) (na)me");
    check "stat: pid and state" (s.Procfs.pid = 4242 && s.Procfs.state = 'R');
    check "stat: utime and stime" (s.Procfs.utime = 731 && s.Procfs.stime = 52)
  | None -> check "stat: comm with spaces and ')'" false);
  check "stat: truncated line rejected" (Procfs.parse_stat "12 (x) S 1 2" = None);
  check "stat: this process" (Procfs.sample (Unix.getpid ()) <> None);
  check "sched: sum_exec_runtime in s"
    (Procfs.parse_sched
       "x (7, #threads: 1)\n---\nse.exec_start    :   10608399.185538\nse.sum_exec_runtime   :   1234.500000\n"
     = Some 1.2345);
  match
    Procfs.parse_status
      "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n"
  with
  | Some s -> check "status: VmHWM and context switches" (s.Procfs.hwm_kb = 2048 && s.Procfs.vol_ctxsw = 7 && s.Procfs.invol_ctxsw = 3)
  | None -> check "status: VmHWM and context switches" false

let barrier ~brokerd =
  let log_dir = ".perfbench" in
  (try Unix.mkdir log_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let docs = [| Xml_tree.leaf "nitf" |] in
  match Live.setup ~exe:brokerd ~log_dir ~advs:[] ~xpes:[] ~docs with
  | Error e ->
    Printf.printf "set-up failed: %s\n" e;
    check "barrier: set-up on a live pair" false
  | Ok s ->
    let st = s.Live.st in
    check "barrier: passes on a live pair" (Live.barrier st ~timeout:10.0 <> None);
    Unix.kill st.Live.pair.Brokers.b1.Brokers.pid Sys.sigkill;
    let t0 = Unix.gettimeofday () in
    let r = try Ok (Live.barrier st ~timeout:3.0) with e -> Error (Printexc.to_string e) in
    let dt = Unix.gettimeofday () -. t0 in
    check "barrier: fails without raising when a brokerd is killed" (r = Ok None);
    check "barrier: gives up within its timeout" (dt < 5.0);
    check "barrier: the killed brokerd is reported"
      (Brokers.failed st.Live.pair.Brokers.b1 && Atomic.get st.Live.abort <> None);
    Live.teardown st

let run ~brokerd =
  oracle ();
  percentile ();
  procfs ();
  barrier ~brokerd;
  if !failures = 0 then (print_endline "all self-tests passed"; 0)
  else (Printf.printf "%d self-test(s) failed\n" !failures; 1)
