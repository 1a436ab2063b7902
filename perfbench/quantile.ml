(* Order statistics over float samples. Percentiles and means are
   Xroute_support.Stats's, except that an empty sample gives [nan]
   rather than 0, which would read as a measurement. *)

module Stats = Xroute_support.Stats

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in percent. *)
let nearest_rank a q = if Array.length a = 0 then Float.nan else Stats.percentile a (q /. 100.0)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = match l with [] -> Float.nan | _ -> Stats.mean (Array.of_list l)
