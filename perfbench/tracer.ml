(* The benchmark's own span recorder: spans around calls into xroute's
   public functions, kept in memory and written out at the end. One
   recorder per thread. Times are monotonic nanoseconds. *)

type span = { id : int; parent : int; trace : int; name : string; start : int; mutable stop : int }

type t = { mutable spans : span array; mutable n : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let dummy = { id = -1; parent = -1; trace = -1; name = ""; start = 0; stop = 0 }
let create () = { spans = Array.make 4096 dummy; n = 0 }

let push t sp =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- sp;
  t.n <- t.n + 1

(* Ids are unique per recorder; [parent] -1 marks a root. *)
let open_ t ?(parent = -1) ~trace name =
  let sp = { id = t.n; parent; trace; name; start = now_ns (); stop = 0 } in
  push t sp;
  sp

let close sp = sp.stop <- now_ns ()

(* A span timed by the caller. *)
let record t ?(parent = -1) ~trace name ~start ~stop =
  push t { id = t.n; parent; trace; name; start; stop }

let span t ?parent ~trace name f =
  let sp = open_ t ?parent ~trace name in
  let r = f () in
  close sp;
  r

let to_list t = Array.to_list (Array.sub t.spans 0 t.n)

(* Per name: (count, total duration ns, total self time ns). A span's
   self time is its duration minus the time its children cover; the
   children of one span never overlap, because each recorder serves
   one thread. *)
let self_times t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let sp = t.spans.(i) in
    if sp.parent >= 0 then child.(sp.parent) <- child.(sp.parent) + (sp.stop - sp.start)
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let sp = t.spans.(i) in
    let dur = sp.stop - sp.start in
    let c, d, s = Option.value (Hashtbl.find_opt acc sp.name) ~default:(0, 0, 0) in
    Hashtbl.replace acc sp.name (c + 1, d + dur, s + dur - child.(i))
  done;
  acc

let durations t name =
  let l = ref [] in
  for i = t.n - 1 downto 0 do
    let sp = t.spans.(i) in
    if String.equal sp.name name then l := float_of_int (sp.stop - sp.start) :: !l
  done;
  !l

(* Tab-separated, one span per line: recorder tag, id, parent, trace,
   name, start ns, stop ns. *)
let write oc ~tag t =
  for i = 0 to t.n - 1 do
    let sp = t.spans.(i) in
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%d\n" tag sp.id sp.parent sp.trace sp.name sp.start
      sp.stop
  done
