(* The broker line b0 - b1 as two xroute_brokerd processes with default
   flags, and the process probe that watches them from outside. *)

type proc = { id : int; pid : int; port : int; mutable status : Unix.process_status option }

(* A port the kernel just handed out; the race with another binder
   between close and the daemon's bind is accepted. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> failwith "free_port")

let spawn ~exe ~log ~id ~port ~neighbor:(nid, nport) =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [|
      exe; "--id"; string_of_int id; "--port"; string_of_int port; "--neighbor";
      Printf.sprintf "%d:127.0.0.1:%d" nid nport;
    |]
  in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  { id; pid; port; status = None }

let alive p =
  match p.status with
  | Some _ -> false
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> true
    | _, st ->
      p.status <- Some st;
      false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      p.status <- Some (Unix.WEXITED 255);
      false)

let describe p =
  match p.status with
  | None -> Printf.sprintf "brokerd%d running" p.id
  | Some (Unix.WEXITED c) -> Printf.sprintf "brokerd%d exited with code %d" p.id c
  | Some (Unix.WSIGNALED s) -> Printf.sprintf "brokerd%d killed by signal %d" p.id s
  | Some (Unix.WSTOPPED s) -> Printf.sprintf "brokerd%d stopped by signal %d" p.id s

(* A stop the benchmark asked for: SIGTERM, a grace period, SIGKILL;
   always reaped. *)
let stop p =
  if alive p then begin
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 3.0 in
    while alive p && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if alive p then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      match Unix.waitpid [] p.pid with
      | _, st -> p.status <- Some st
      | exception Unix.Unix_error _ -> p.status <- Some (Unix.WSIGNALED Sys.sigkill)
    end
  end

(* Ended on its own, or other than by our SIGTERM (the daemon exits 0
   on SIGTERM). *)
let failed p =
  ignore (alive p);
  match p.status with None | Some (Unix.WEXITED 0) -> false | Some _ -> true

type pair = { b0 : proc; b1 : proc }

let start_pair ~exe ~log_dir =
  let p0 = free_port () and p1 = free_port () in
  let b0 =
    spawn ~exe ~log:(Filename.concat log_dir "brokerd0.log") ~id:0 ~port:p0 ~neighbor:(1, p1)
  in
  let b1 =
    spawn ~exe ~log:(Filename.concat log_dir "brokerd1.log") ~id:1 ~port:p1 ~neighbor:(0, p0)
  in
  { b0; b1 }

let stop_pair pr =
  stop pr.b0;
  stop pr.b1

(* Connect once the daemon listens; [None] if it died or the deadline
   passed. *)
let connect p ~client_id ~deadline =
  let rec go () =
    if not (alive p) then None
    else
      match Xroute_daemon.Client.connect ~client_id ~host:"127.0.0.1" ~port:p.port with
      | c -> Some c
      | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf 0.01;
          go ()
        end
  in
  go ()

(* ---- STATS|prom scalars ---- *)

let parse_prom text =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Some (String.sub line 0 i, v)
          | None -> None)
        | None -> None)
    (String.split_on_char '\n' text)

type probe = { proc : Procfs.sample option; prom : (string * float) list }

let probe ctl p =
  let prom =
    match Xroute_daemon.Client.stats ~timeout:5.0 ctl with
    | Some text -> parse_prom text
    | None -> []
    | exception Xroute_daemon.Client.Unavailable _ -> []
  in
  { proc = Procfs.sample p.pid; prom }

let scalar pr name = Option.value (List.assoc_opt name pr.prom) ~default:Float.nan
let cpu pr = match pr.proc with Some s -> s.Procfs.cpu_s | None -> Float.nan
let ctxsw pr = match pr.proc with Some s -> float_of_int s.Procfs.ctxsw | None -> Float.nan
let hwm_mb pr = match pr.proc with Some s -> float_of_int s.Procfs.hwm_kb /. 1024.0 | None -> Float.nan
