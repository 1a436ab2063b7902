(* Delivery oracle, independent of the broker's routing tables: a path
   publication is expected at the subscriber when some subscription
   that is active for it selects it under
   [Xroute_xpath.Xpe_eval.matches_publication]. *)

open Xroute_xml

(* [pool] holds every XPE the subscriber ever uses; matches are
   memoised per distinct path (names and attributes), since documents
   drawn from one DTD repeat most of their paths. *)
type t = { pool : Xroute_xpath.Xpe.t array; cache : (string, int array) Hashtbl.t }

let create pool = { pool; cache = Hashtbl.create 4096 }

let key (p : Xml_paths.publication) =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i step ->
      Buffer.add_char b '/';
      Buffer.add_string b step;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b '@';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b v)
        p.Xml_paths.attrs.(i))
    p.Xml_paths.steps;
  Buffer.contents b

(* Indices of the pool XPEs that select [p]. *)
let matching t p =
  let k = key p in
  match Hashtbl.find_opt t.cache k with
  | Some m -> m
  | None ->
    let hits = ref [] in
    for i = Array.length t.pool - 1 downto 0 do
      if Xroute_xpath.Xpe_eval.matches_publication t.pool.(i) p then hits := i :: !hits
    done;
    let m = Array.of_list !hits in
    Hashtbl.replace t.cache k m;
    m

let selected t ~active p = Array.exists (fun i -> active.(i)) (matching t p)

(* Path ids of a document's publications expected under [active]. *)
let expected t ~active pubs =
  List.filter_map
    (fun (p : Xml_paths.publication) -> if selected t ~active p then Some p.path_id else None)
    pubs

type tally = {
  mutable expected : int;
  mutable missed : int;
  mutable spurious : int;
  mutable duplicate : int;
}

let tally () = { expected = 0; missed = 0; spurious = 0; duplicate = 0 }
let failures t = t.missed + t.spurious + t.duplicate

(* Compare one publication's delivery count with the verdicts:
   [must] — it had to arrive; [may] — arriving is allowed (a path
   routed while subscriptions were changing may go either way). *)
let judge t ~must ~may ~count =
  if must then t.expected <- t.expected + 1;
  if count = 0 then (if must then t.missed <- t.missed + 1)
  else begin
    if not may then t.spurious <- t.spurious + 1;
    if count > 1 then t.duplicate <- t.duplicate + (count - 1)
  end
