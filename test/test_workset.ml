(* The engine's worklist primitives: Vec (growable int vector with
   in-place sort) and Fifo (ring-buffer queue). Both are checked
   against their obvious executable models. *)

module Vec = Countq_util.Vec
module Fifo = Countq_util.Fifo

let vec_sort_model =
  QCheck2.Test.make ~count:500 ~name:"Vec.sort = List.sort"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list (int_range (-1000) 1000))
    (fun xs ->
      let v = Vec.create ~capacity:1 () in
      List.iter (Vec.push v) xs;
      Vec.sort v;
      Vec.to_list v = List.sort compare xs)

(* Worklist-shaped inputs, as the engine's sort sees them: a sorted
   prefix (the compacted survivors) followed by a suffix of fresh
   pushes that is either near-sorted (each element displaced by at most
   [d]) or long and reversed (too many moves for the insertion sort, so
   the heapsort fallback finishes it). The suffix's values either
   overlap the prefix's, lie above them (no merge) or lie below them
   (every prefix element moves). *)
type suffix_shape = Displaced of int | Reversed

let worklist_gen =
  let open QCheck2.Gen in
  let* prefix = list_size (int_range 0 200) (int_range 0 1000) in
  let* shape = oneof [ map (fun d -> Displaced d) (int_range 0 8); return Reversed ] in
  let* len =
    match shape with Displaced _ -> int_range 0 300 | Reversed -> int_range 20 400
  in
  let* base = oneofl [ 0; 1001; -2000 ] in
  let* fresh = list_size (return len) (int_range base (base + 1000)) in
  let* jitter = list_size (return len) (int_range 0 8) in
  let sorted = List.sort compare fresh in
  let suffix =
    match shape with
    | Reversed -> List.rev sorted
    | Displaced d ->
        (* Sorting on index + jitter moves no element more than [d]. *)
        List.combine jitter sorted
        |> List.mapi (fun i (j, x) -> (i + (j mod (d + 1)), x))
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
  in
  return (List.sort compare prefix, suffix)

let worklist_print = QCheck2.Print.(pair (list int) (list int))

let vec_sort_worklists =
  QCheck2.Test.make ~count:500 ~name:"Vec.sort = List.sort on worklist shapes"
    ~print:worklist_print worklist_gen (fun (prefix, suffix) ->
      let v = Vec.create () in
      List.iter (Vec.push v) (prefix @ suffix);
      Vec.sort v;
      Vec.to_list v = List.sort compare (prefix @ suffix))

(* The engine's round shape, repeated on one vector so the merge
   scratch is reused at several sizes: sort, keep some survivors, push
   fresh work, sort again. *)
let vec_sort_rounds =
  QCheck2.Test.make ~count:200 ~name:"Vec.sort across compaction rounds"
    ~print:QCheck2.Print.(list (pair int (list int)))
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (pair (int_range 1 4) (list_size (int_range 0 200) (int_range 0 500))))
    (fun rounds ->
      let v = Vec.create ~capacity:1 () in
      List.for_all
        (fun (keep, fresh) ->
          let w = ref 0 in
          for i = 0 to Vec.length v - 1 do
            if i mod keep = 0 then begin
              Vec.set v !w (Vec.get v i);
              incr w
            end
          done;
          Vec.truncate v !w;
          let before = Vec.to_list v @ fresh in
          List.iter (Vec.push v) fresh;
          Vec.sort v;
          Vec.to_list v = List.sort compare before)
        rounds)

let fifo_queue_model =
  (* Random push/pop interleavings behave exactly like Stdlib.Queue. *)
  QCheck2.Test.make ~count:500 ~name:"Fifo = Queue on random ops"
    ~print:QCheck2.Print.(list (option int))
    QCheck2.Gen.(list (option (int_range 0 1000)))
    (fun ops ->
      let f = Fifo.create () in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Fifo.push f x;
              Queue.push x q;
              Fifo.length f = Queue.length q
              && Fifo.peek f = Queue.peek q
          | None -> (
              match Fifo.pop f with
              | a -> (
                  match Queue.pop q with
                  | b -> a = b && Fifo.length f = Queue.length q
                  | exception Queue.Empty -> false)
              | exception Fifo.Empty -> (
                  match Queue.pop q with
                  | _ -> false
                  | exception Queue.Empty -> true)))
        ops)

let test_vec_compaction () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 5; 1; 9; 3; 7 ];
  Vec.sort v;
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (Vec.to_list v);
  (* Keep the odd-indexed survivors, engine-style. *)
  let w = ref 0 in
  for i = 0 to Vec.length v - 1 do
    if i mod 2 = 1 then begin
      Vec.set v !w (Vec.get v i);
      incr w
    end
  done;
  Vec.truncate v !w;
  Alcotest.(check (list int)) "compacted" [ 3; 7 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_fifo_wraparound () =
  (* Force the head past the ring boundary, then grow: order must be
     preserved across the re-linearisation. *)
  let f = Fifo.create () in
  for i = 0 to 9 do
    Fifo.push f i
  done;
  for i = 0 to 5 do
    Alcotest.(check int) "drain head" i (Fifo.pop f)
  done;
  for i = 10 to 30 do
    Fifo.push f i
  done;
  let seen = ref [] in
  Fifo.iter (fun x -> seen := x :: !seen) f;
  Alcotest.(check (list int))
    "iter in order"
    (List.init 25 (fun i -> i + 6))
    (List.rev !seen);
  let out = ref [] in
  while not (Fifo.is_empty f) do
    out := Fifo.pop f :: !out
  done;
  Alcotest.(check (list int))
    "FIFO across growth"
    (List.init 25 (fun i -> i + 6))
    (List.rev !out)

let suite =
  [
    Helpers.qcheck vec_sort_model;
    Helpers.qcheck vec_sort_worklists;
    Helpers.qcheck vec_sort_rounds;
    Helpers.qcheck fifo_queue_model;
    Alcotest.test_case "Vec compaction idiom" `Quick test_vec_compaction;
    Alcotest.test_case "Fifo wraparound and growth" `Quick test_fifo_wraparound;
  ]
