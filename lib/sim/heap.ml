(* 4-ary min-heap keyed by (time, sequence), stored as parallel arrays.

   The sequence number breaks ties so that events scheduled for the same
   instant fire in insertion order, which is what makes whole-simulation
   runs deterministic. The heap order lives in three int arrays: [times],
   [seqs] and [slots], the index in [data] of the entry's payload. A
   payload stays in its slot from push to take, so sifting moves only
   ints: no pointer store, and so no write barrier, per level. Both sifts
   move a hole rather than swapping: each level writes one entry, and the
   moving entry is written once where it lands. [free] is a stack of the
   unused slots. Neither [push] nor [take] allocates (bar growth). *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable data : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

(* The arrays are allocated by the first push, so a scheduler that is
   created and never arms a timer (a booted but unrun world) costs one
   record. *)
let create ~dummy_payload =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    data = [||];
    free = [||];
    nfree = 0;
    size = 0;
    next_seq = 0;
    dummy = dummy_payload;
  }

let size h = h.size
let is_empty h = h.size = 0

let max_key = Int64.of_int max_int
let key_of_time time = if time > max_key then max_int else Int64.to_int time

(* Only called when every slot is in use, so the new slots [cap, n) are
   exactly the free ones. *)
let grow h =
  let cap = Array.length h.times in
  let n = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.times <- extend h.times 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.data <- extend h.data h.dummy;
  h.free <- Array.init n (fun i -> n - 1 - i);
  h.nfree <- n - cap

(* Sift up from the new leaf. Sequence numbers only grow, so the new entry
   never precedes an equal-time entry already queued: a strict time
   comparison decides each level. *)
let push h ~time payload =
  if h.size = Array.length h.times then grow h;
  let key = key_of_time time in
  let times = h.times and seqs = h.seqs and slots = h.slots in
  h.nfree <- h.nfree - 1;
  let slot = h.free.(h.nfree) in
  h.data.(slot) <- payload;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) in
    if key < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let min_time h = if h.size = 0 then max_int else h.times.(0)

(* Remove the root and sift the last entry down from the top through the
   smallest of up to four children per level. *)
let take h =
  if h.size = 0 then invalid_arg "Heap.take: empty heap";
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let top = slots.(0) in
  let payload = h.data.(top) in
  h.data.(top) <- h.dummy;
  h.free.(h.nfree) <- top;
  h.nfree <- h.nfree + 1;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let key = times.(n) and seq = seqs.(n) in
    let slot = slots.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let c = (4 * !i) + 1 in
      if c >= n then moving := false
      else begin
        let m = ref c in
        let mt = ref times.(c) in
        let ms = ref seqs.(c) in
        let stop = if c + 3 < n then c + 3 else n - 1 in
        for j = c + 1 to stop do
          let tj = times.(j) in
          if tj < !mt || (tj = !mt && seqs.(j) < !ms) then begin
            m := j;
            mt := tj;
            ms := seqs.(j)
          end
        done;
        if !mt < key || (!mt = key && !ms < seq) then begin
          times.(!i) <- !mt;
          seqs.(!i) <- !ms;
          slots.(!i) <- slots.(!m);
          i := !m
        end
        else moving := false
      end
    done;
    times.(!i) <- key;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  payload

(* Drain every entry in key order; used by tests. *)
let drain h =
  let rec loop acc =
    if h.size = 0 then List.rev acc
    else
      let time = min_time h in
      loop ((time, take h) :: acc)
  in
  loop []
