(* CPU time and memory of processes: readers for /proc/<pid>/stat,
   /proc/<pid>/status and the scheduler's per-thread files. *)

(* User plus system CPU time of this process, s. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type stat = { pid : int; comm : string; state : char; utime : int; stime : int }

(* The comm field is parenthesised and may itself hold spaces and ')',
   so it ends at the LAST ')' of the line; the fixed fields follow. *)
let parse_stat s =
  match (String.index_opt s '(', String.rindex_opt s ')') with
  | Some l, Some r when r > l -> (
    let rest =
      String.sub s (r + 1) (String.length s - r - 1)
      |> String.split_on_char ' '
      |> List.filter (fun f -> f <> "")
      |> Array.of_list
    in
    (* rest.(0) is field 3 (state); utime and stime are fields 14, 15. *)
    match int_of_string_opt (String.trim (String.sub s 0 l)) with
    | Some pid when Array.length rest > 12 && String.length rest.(0) = 1 -> (
      match (int_of_string_opt rest.(11), int_of_string_opt rest.(12)) with
      | Some utime, Some stime ->
        Some { pid; comm = String.sub s (l + 1) (r - l - 1); state = rest.(0).[0]; utime; stime }
      | _ -> None)
    | _ -> None)
  | _ -> None

type status = { hwm_kb : int; vol_ctxsw : int; invol_ctxsw : int }

let parse_status s =
  let field name =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = name -> (
          match
            String.split_on_char ' '
              (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          with
          | v :: _ -> int_of_string_opt (String.trim v)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match
    (field "VmHWM", field "voluntary_ctxt_switches", field "nonvoluntary_ctxt_switches")
  with
  | Some hwm_kb, Some vol_ctxsw, Some invol_ctxsw -> Some { hwm_kb; vol_ctxsw; invol_ctxsw }
  | _ -> None

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let n = input ic chunk 0 4096 in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      end
    in
    (try go () with Sys_error _ -> ());
    close_in_noerr ic;
    Some (Buffer.contents buf)

(* Linux reports stat times in USER_HZ ticks, fixed at 100 by the ABI. *)
let ticks_per_s = 100.0

(* se.sum_exec_runtime of a /proc/<pid>/task/<tid>/sched file, in s:
   the scheduler's own count of the thread's time on a CPU, kept in ns
   where stat's times are 10 ms ticks. Only kernels built with
   CONFIG_SCHED_DEBUG have these files. *)
let parse_sched s =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = "se.sum_exec_runtime" ->
        Option.map
          (fun ms -> ms /. 1000.0)
          (float_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
      | _ -> None)
    (String.split_on_char '\n' s)

(* CPU time of all of [pid]'s threads from their sched files, s. *)
let sched_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match (acc, Option.bind (read_file (Filename.concat dir tid ^ "/sched")) parse_sched) with
        | Some a, Some c -> Some (a +. c)
        | _ -> None)
      (Some 0.0) tids

type sample = { cpu_s : float; hwm_kb : int; ctxsw : int }

let sample pid =
  let dir = Printf.sprintf "/proc/%d/" pid in
  match
    ( Option.bind (read_file (dir ^ "stat")) parse_stat,
      Option.bind (read_file (dir ^ "status")) parse_status )
  with
  | Some st, Some su ->
    Some
      {
        cpu_s =
          (match sched_cpu_s pid with
          | Some c -> c
          | None -> float_of_int (st.utime + st.stime) /. ticks_per_s);
        hwm_kb = su.hwm_kb;
        ctxsw = su.vol_ctxsw + su.invol_ctxsw;
      }
  | _ -> None

(* (all ticks, steal ticks) of the host's aggregate cpu line in
   /proc/stat: the share stolen by the hypervisor says how much the
   machine itself was contended during a run. *)
let host_ticks () =
  match Option.map (String.split_on_char '\n') (read_file "/proc/stat") with
  | Some (line :: _) -> (
    match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      Some (List.fold_left ( + ) 0 v, steal)
    | _ -> None)
  | _ -> None
