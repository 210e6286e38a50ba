(* Growable int vectors. See vec.mli. *)

(* [scratch] is the merge buffer of {!sort}, kept between calls. *)
type t = { mutable data : int array; mutable len : int; mutable scratch : int array }

let create ?(capacity = 16) () =
  { data = Array.make (max 1 capacity) 0; len = 0; scratch = [||] }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  Array.unsafe_set t.data i x

let push t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let truncate t len =
  if len < 0 || len > t.len then invalid_arg "Vec.truncate: bad length";
  t.len <- len

let clear t = t.len <- 0

(* Insertion sort of the suffix gives up after this many element moves
   per suffix element, and heapsort takes over. *)
let insertion_budget = 8

(* Heapsort of [a.(p0) .. a.(p0 + s - 1)]. Here and below the [int array]
   annotation makes the comparisons the int primitives. *)
let heapsort (a : int array) p0 s =
  let sift_down i len =
    let x = Array.unsafe_get a (p0 + i) in
    let i = ref i in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= len then moving := false
      else begin
        let c =
          if
            l + 1 < len
            && Array.unsafe_get a (p0 + l + 1) > Array.unsafe_get a (p0 + l)
          then l + 1
          else l
        in
        if Array.unsafe_get a (p0 + c) > x then begin
          Array.unsafe_set a (p0 + !i) (Array.unsafe_get a (p0 + c));
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set a (p0 + !i) x
  in
  for i = (s / 2) - 1 downto 0 do
    sift_down i s
  done;
  for last = s - 1 downto 1 do
    let tmp = Array.unsafe_get a p0 in
    Array.unsafe_set a p0 (Array.unsafe_get a (p0 + last));
    Array.unsafe_set a (p0 + last) tmp;
    sift_down 0 last
  done

(* Insertion sort of [a.(p0) .. a.(n - 1)], giving up once more than
   [budget] element moves are spent; [true] when it finished. Given up,
   the range is still a permutation of its input. *)
let insertion_sort (a : int array) p0 n budget =
  let moves = ref 0 in
  let i = ref (p0 + 1) in
  while !i < n && !moves <= budget do
    let x = Array.unsafe_get a !i in
    let j = ref (!i - 1) in
    while !j >= p0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x;
    moves := !moves + (!i - 1 - !j);
    incr i
  done;
  !i >= n

(* Adaptive sort tuned for the engine's worklists, which arrive as an
   already-sorted prefix (survivors compacted in order) plus a suffix of
   fresh pushes that is usually nearly sorted. Strategy: scan off the
   sorted prefix (O(len), the common all-sorted case stops there);
   insertion-sort the suffix while its moves stay within
   [insertion_budget] per element, else heapsort it (so O(s log s)
   worst case for [s] fresh elements); then merge the two runs from the
   back through the vector's scratch copy of the suffix, O(s + displaced
   prefix elements). *)
let sort t =
  let a = t.data in
  let n = t.len in
  let p = ref 1 in
  while !p < n && Array.unsafe_get a (!p - 1) <= Array.unsafe_get a !p do
    incr p
  done;
  if !p < n then begin
    let p0 = !p in
    let s = n - p0 in
    if not (insertion_sort a p0 n (insertion_budget * s)) then heapsort a p0 s;
    (* Both runs sorted; merge only if they actually overlap. *)
    if p0 > 0 && Array.unsafe_get a (p0 - 1) > Array.unsafe_get a p0 then begin
      if Array.length t.scratch < s then
        t.scratch <- Array.make (max s (2 * Array.length t.scratch)) 0;
      let scratch = t.scratch in
      Array.blit a p0 scratch 0 s;
      let i = ref (p0 - 1) and j = ref (s - 1) and k = ref (n - 1) in
      while !j >= 0 do
        if !i >= 0 && Array.unsafe_get a !i > Array.unsafe_get scratch !j then begin
          Array.unsafe_set a !k (Array.unsafe_get a !i);
          decr i
        end
        else begin
          Array.unsafe_set a !k (Array.unsafe_get scratch !j);
          decr j
        end;
        decr k
      done
    end
  end

let to_list t = List.init t.len (fun i -> Array.unsafe_get t.data i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done
