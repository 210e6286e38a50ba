(* Binary min-heap with FIFO tie-breaking. See heap.mli. *)

type ('k, 'v) entry = { key : 'k; seq : int; value : 'v }

type ('k, 'v) t = {
  mutable data : ('k, 'v) entry option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = Array.make 16 None; size = 0; next_seq = 0 }

let size h = h.size
let is_empty h = h.size = 0

let less a b =
  match compare a.key b.key with 0 -> a.seq < b.seq | c -> c < 0

let get h i =
  match h.data.(i) with Some e -> e | None -> assert false

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less (get h i) (get h parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less (get h l) (get h !smallest) then smallest := l;
  if r < h.size && less (get h r) (get h !smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h key value =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (2 * h.size) None in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  h.data.(h.size) <- Some { key; seq = h.next_seq; value };
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h =
  if h.size = 0 then None
  else begin
    let e = get h 0 in
    Some (e.key, e.value)
  end

let pop h =
  if h.size = 0 then None
  else begin
    let e = get h 0 in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    Some (e.key, e.value)
  end

let pop_exn h = match pop h with Some kv -> kv | None -> raise Not_found

(* A subtree's keys are all at least its root's: prune past [bound]. *)
let iter_upto h bound f =
  let rec go i =
    if i < h.size then begin
      let e = get h i in
      if compare e.key bound <= 0 then begin
        f e.key e.value;
        go ((2 * i) + 1);
        go ((2 * i) + 2)
      end
    end
  in
  go 0
