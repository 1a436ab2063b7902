(* The simulator phase: Scenarios (lib/overlay Net over lib/support
   Equeue) in a child process of its own, no sockets. The child runs the
   specs round-robin, [reps] times each. The first run of a spec is the
   reference for the others: their ledger digests, delivery counts and
   event counts must be equal. A spec's timing is its cheapest run in CPU
   time. CPU time leaves out what the hypervisor steals on a shared host,
   but not the slowdown that neighbouring machines cause through shared
   caches, which comes and goes within seconds and only ever adds time;
   the cheapest of runs spread over the phase leaves most of it out. *)

module Scenario = Xroute_workload.Scenario

(* Child side: one "run" line per run, then the process's VmHWM. *)
let child ~reps specs =
  let parsed =
    List.map
      (fun spec ->
        match Scenario.spec_of_string spec with
        | Ok p -> (spec, p)
        | Error e ->
          prerr_endline ("bad scenario spec: " ^ e);
          exit 2)
      specs
  in
  for _ = 1 to reps do
    List.iter
      (fun (spec, p) ->
        let t0 = Unix.gettimeofday () and c0 = Procfs.cpu_s () in
        let o = Scenario.run ~ledger:`Digest ~decisions:false p in
        let wall = Unix.gettimeofday () -. t0 and cpu = Procfs.cpu_s () -. c0 in
        Printf.printf "run %s %.6f %.6f %d %d %Lx\n%!" spec wall cpu o.Scenario.events
          o.Scenario.deliveries o.Scenario.ledger_digest)
      parsed
  done;
  let hwm =
    match Option.bind (Procfs.read_file "/proc/self/status") Procfs.parse_status with
    | Some s -> s.Procfs.hwm_kb
    | None -> -1
  in
  Printf.printf "hwm %d\n%!" hwm

type run = {
  spec : string;
  wall : float;
  cpu : float;
  events : int;
  deliveries : int;
  digest : string;
}

type result = {
  runs : run list;
  hwm_kb : int;
  mismatches : int; (* specs whose runs disagree *)
  events : int; (* over the specs, once each *)
  deliveries : int;
  events_per_cpu_s : float; (* events / the least CPU time of each spec *)
  events_per_s : float; (* events / the least wall time of each spec *)
}

let run ~exe ~reps ~specs =
  let ic =
    Unix.open_process_args_in exe (Array.of_list (exe :: "sim-child" :: string_of_int reps :: specs))
  in
  let runs = ref [] and hwm = ref (-1) in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "run"; spec; wall; cpu; events; deliveries; digest ] -> (
         match
           ( float_of_string_opt wall,
             float_of_string_opt cpu,
             int_of_string_opt events,
             int_of_string_opt deliveries )
         with
         | Some wall, Some cpu, Some events, Some deliveries ->
           runs := { spec; wall; cpu; events; deliveries; digest } :: !runs
         | _ -> ())
       | [ "hwm"; kb ] -> hwm := Option.value (int_of_string_opt kb) ~default:(-1)
       | _ -> ()
     done
   with End_of_file -> ());
  let runs = List.rev !runs in
  let by_spec = List.map (fun spec -> List.filter (fun r -> String.equal r.spec spec) runs) specs in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when List.for_all (fun rs -> List.length rs = reps) by_spec ->
    let firsts = List.map List.hd by_spec in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 firsts in
    let per f =
      float_of_int (sum (fun r -> r.events))
      /. List.fold_left
           (fun acc rs -> acc +. List.fold_left (fun m r -> Float.min m (f r)) infinity rs)
           0.0 by_spec
    in
    Ok
      {
        runs;
        hwm_kb = !hwm;
        mismatches =
          List.length
            (List.filter
               (fun rs ->
                 let a = List.hd rs in
                 List.exists
                   (fun b ->
                     a.digest <> b.digest || a.deliveries <> b.deliveries || a.events <> b.events)
                   rs)
               by_spec);
        events = sum (fun r -> r.events);
        deliveries = sum (fun r -> r.deliveries);
        events_per_cpu_s = per (fun r -> r.cpu);
        events_per_s = per (fun r -> r.wall);
      }
  | Unix.WEXITED 0 -> Error "the simulator reported too few runs"
  | Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c ->
    Error (Printf.sprintf "the simulator process failed (%d)" c)
