(* A fixed piece of work that uses no xroute code, timed at a few points
   of every run to gauge how fast the host runs at the moment. On a
   shared host the CPU time of the same work swings by up to 2x for
   minutes at a time with the load of neighbouring machines, which no
   number of repetitions within one run averages out. Like the router,
   the work allocates, hashes and compares short strings and chases
   pointers. *)

(* CPU time of one pass on this benchmark's reference host (2 vCPU,
   OCaml 5.1.1, at a quiet time), s. *)
let nominal_s = 0.010

let pass () =
  let h = Hashtbl.create 16384 in
  let keys = Array.init 12000 (fun i -> "node" ^ string_of_int ((i * 7919) mod 30011)) in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  let hits = ref 0 in
  for r = 0 to 3 do
    Array.iter (fun k -> if Hashtbl.mem h (k ^ if r = 0 then "" else "x") then incr hits) keys
  done;
  let l = List.init 12000 (fun i -> (keys.((i * 31) mod 12000), i)) in
  let a = Array.of_list (List.rev l) in
  Array.stable_sort (fun (x, _) (y, _) -> String.compare x y) a;
  ignore (Sys.opaque_identity (!hits, a))

(* The host's slowness now: the least CPU time of [n] passes over
   [nominal_s]; above 1 on a slower host. The least of a few passes
   leaves out a stray collection or preemption, not a slow spell. *)
let slowness ?(n = 7) () =
  let best = ref infinity in
  for _ = 1 to n do
    Gc.full_major ();
    let c0 = Procfs.cpu_s () in
    pass ();
    best := Float.min !best (Procfs.cpu_s () -. c0)
  done;
  !best /. nominal_s
