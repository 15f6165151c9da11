(* Hierarchical timer wheel with the binary heap's exact semantics.

   The protocol stack restarts timers constantly — PIM prune and state
   refresh, MLD queries, binding lifetimes, and the (S,G) data timeout
   on every streamed datagram.  Under the heap every restart is a
   cancel plus an O(log n) push whose entry later bubbles through pops.
   Here a push is an O(1) append into the slot covering its quantized
   deadline (plus an amortized sift within that slot), a cancel is one
   store, and a restart to a later deadline ([postpone]) is three
   stores: the entry keeps its slot and is re-placed lazily, only if
   the scan ever reaches it.

   Correctness bar: pops must replay the heap's order {e exactly} —
   strictly increasing (time, global push seq) — because golden trace
   digests pin event order.  Three devices deliver that:

   - Each slot is itself a tiny binary min-heap on (time, seq), so
     entries that share a slot (and, at L1/L2, a coarse time range)
     drain in true order, not insertion order.
   - The quantum is fine (2^-10 s) relative to every protocol timer
     and link delay, and slots are scanned in quantum order, so
     cross-slot order equals time order; equal times always share a
     quantum and therefore a slot, where seq decides.
   - Deadlines beyond the outermost window go to an overflow heap
     ordered the same way; the front candidate is always min of the
     wheel's first live root and the overflow root, compared on
     (time, seq) with the {e global} seq counter breaking ties across
     the two structures.

   Postponement.  An entry sits under its {e placement} key
   (time, q, seq) and fires under its {e real} key (due, due_seq).
   They differ only after [postpone], which moves the real key later
   and leaves the entry where it is, so placement key <= real key
   always.  Slot heaps order on placement keys.  Whenever [prune] (of a
   wheel slot or the overflow heap) or [cascade] meets a postponed
   entry it re-keys the entry to its real key and re-places it — always at the same or a
   later position in scan order — so a postponed entry is re-placed
   before it can be chosen, and the first live, un-postponed root the
   scan finds is the true minimum: every other entry's real key is at
   least its placement key, which is at least that root's.

   Windows advance only when a pop crosses them.  Any slot the advance
   skips can hold only cancelled or postponed entries — a live,
   un-postponed one would have been an earlier minimum than the entry
   being popped — and the scan that found that entry already re-placed
   the postponed ones.  That is also why a slot index aliased from an
   older window can never hide a live entry: such leftovers are
   provably cancelled and are dropped on the next prune or cascade of
   that slot. *)

type status = Live | Cancelled | Fired

type 'a entry = {
  mutable time : Time.t;  (* placement key: the slot heaps order on it *)
  mutable q : int;  (* quantized placement time: [time * 1024] truncated *)
  mutable seq : int;  (* global push order; the tie-break everywhere *)
  mutable due : Time.t;  (* real key: when the entry fires ... *)
  mutable due_seq : int;  (* ... and its order among equal [due]s *)
  mutable status : status;
  payload : 'a;
}

(* A handle is the entry itself with its payload type forgotten: one
   record per event, shared by the caller and the slot storage. *)
type handle = H : 'a entry -> handle [@@unboxed]

(* A slot: small binary min-heap on (time, seq).  [arr] is [||] while
   empty so a drained slot retains no payloads. *)
type 'a slot = { mutable arr : 'a entry array; mutable len : int }

let bits0 = 10 (* 1024 L0 slots of one quantum: a 1 s window *)

let bits1 = 9 (* 512 L1 slots of one L0 window: a 512 s window *)

let bits2 = 8 (* 256 L2 slots of one L1 window: a ~36 h window *)

type 'a t = {
  l0 : 'a slot array;
  l1 : 'a slot array;
  l2 : 'a slot array;
  overflow : 'a slot;  (* deadlines beyond the L2 window *)
  empty : 'a slot;  (* never filled: a scan's "nothing found" *)
  mutable b0 : int;  (* current window index per level: b0 = floor-quantum lsr bits0 *)
  mutable b1 : int;
  mutable b2 : int;
  (* Physical entry counts per level (cancelled included) — scan
     short-circuits on empty levels. *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  (* Scan cursors, monotone except when a placement lands below them:
     no L0 entry at a quantum below [hint0] (within the current
     window), no L1 entry in an absolute slot below [hint1], no L2
     entry in an absolute slot below [hint2]. *)
  mutable hint0 : int;
  mutable hint1 : int;
  mutable hint2 : int;
  mutable seq : int;
  mutable live : int;
  (* Memoized front of the queue.  While [front_ok], the root of
     [front_slot] (at level [front_level], 3 = overflow) has the least
     placement key of every entry physically present: a scan sets it,
     a push that beats it moves it, and anything that removes or moves
     entries clears [front_ok].  Cancelling or postponing that root
     leaves it in place — the cache is usable only while the root is
     also live and un-postponed ([front_valid]).  No allocation: the
     front is named by its slot, not boxed in an option. *)
  mutable front_ok : bool;
  mutable front_slot : 'a slot;
  mutable front_level : int;
  mutable scan_level : int;  (* level of the slot [wheel_min] returned *)
}

let fresh_slot () = { arr = [||]; len = 0 }

let create () =
  let overflow = fresh_slot () in
  { l0 = Array.init (1 lsl bits0) (fun _ -> fresh_slot ());
    l1 = Array.init (1 lsl bits1) (fun _ -> fresh_slot ());
    l2 = Array.init (1 lsl bits2) (fun _ -> fresh_slot ());
    overflow;
    empty = fresh_slot ();
    b0 = 0;
    b1 = 0;
    b2 = 0;
    c0 = 0;
    c1 = 0;
    c2 = 0;
    hint0 = 0;
    hint1 = 0;
    hint2 = 0;
    seq = 0;
    live = 0;
    front_ok = false;
    front_slot = overflow;
    front_level = 3;
    scan_level = 0 }

let quantum time =
  let f = Time.seconds time *. 1024.0 in
  (* Guard the int conversion: huge or non-finite deadlines saturate
     and land in the overflow heap, where ordering uses the raw time. *)
  if f >= 4.0e18 then max_int else if f > 0.0 then int_of_float f else 0

let entry_before a b =
  match Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

(* Sequence numbers are unique, so an entry is postponed exactly when
   its real seq differs from its placement seq. *)
let postponed e = e.due_seq <> e.seq

let rekey e =
  e.time <- e.due;
  e.q <- quantum e.due;
  e.seq <- e.due_seq

(* ---- slot heaps ---- *)

let rec sift_down arr len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < len && entry_before arr.(l) arr.(i) then l else i in
  let smallest = if r < len && entry_before arr.(r) arr.(smallest) then r else smallest in
  if smallest <> i then begin
    let tmp = arr.(i) in
    arr.(i) <- arr.(smallest);
    arr.(smallest) <- tmp;
    sift_down arr len smallest
  end

let sift_up arr i =
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    entry_before arr.(!i) arr.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = arr.(!i) in
    arr.(!i) <- arr.(p);
    arr.(p) <- tmp;
    i := p
  done

let slot_push s entry =
  let arr =
    if s.len = Array.length s.arr then begin
      let bigger = Array.make (max 4 (2 * s.len)) entry in
      Array.blit s.arr 0 bigger 0 s.len;
      s.arr <- bigger;
      bigger
    end
    else s.arr
  in
  arr.(s.len) <- entry;
  s.len <- s.len + 1;
  sift_up arr (s.len - 1)

(* Pop the root; caller checked [len > 0].  Vacated cells are cleared
   (aliased to a still-live entry, or the whole array dropped) so a
   fired or cancelled payload is never retained by slot storage. *)
let slot_pop s =
  let arr = s.arr in
  let top = arr.(0) in
  s.len <- s.len - 1;
  if s.len = 0 then s.arr <- [||]
  else begin
    arr.(0) <- arr.(s.len);
    arr.(s.len) <- arr.(0);
    sift_down arr s.len 0
  end;
  top

(* Remove the entry at heap index [i] (not necessarily the root),
   restoring the heap invariant and clearing the vacated cell like
   [slot_pop].  Caller checked [i < s.len]. *)
let slot_remove s i =
  let arr = s.arr in
  s.len <- s.len - 1;
  if s.len = 0 then s.arr <- [||]
  else begin
    if i < s.len then begin
      arr.(i) <- arr.(s.len);
      arr.(s.len) <- arr.(i);
      if i > 0 && entry_before arr.(i) arr.((i - 1) / 2) then sift_up arr i
      else sift_down arr s.len i
    end
    else arr.(s.len) <- arr.(0)
  end

(* ---- placement ---- *)

(* Returns the level the entry landed in (3 = overflow). *)
let place t e =
  let q = e.q in
  if q lsr bits0 = t.b0 then begin
    slot_push t.l0.(q land ((1 lsl bits0) - 1)) e;
    t.c0 <- t.c0 + 1;
    if q < t.hint0 then t.hint0 <- q;
    0
  end
  else if q lsr (bits0 + bits1) = t.b1 then begin
    let s1 = q lsr bits0 in
    slot_push t.l1.(s1 land ((1 lsl bits1) - 1)) e;
    t.c1 <- t.c1 + 1;
    if s1 < t.hint1 then t.hint1 <- s1;
    1
  end
  else if q lsr (bits0 + bits1 + bits2) = t.b2 then begin
    let s2 = q lsr (bits0 + bits1) in
    slot_push t.l2.(s2 land ((1 lsl bits2) - 1)) e;
    t.c2 <- t.c2 + 1;
    if s2 < t.hint2 then t.hint2 <- s2;
    2
  end
  else begin
    slot_push t.overflow e;
    3
  end

(* The slot [place] put quantum [q] in, given the level it returned. *)
let slot_at t level q =
  match level with
  | 0 -> t.l0.(q land ((1 lsl bits0) - 1))
  | 1 -> t.l1.((q lsr bits0) land ((1 lsl bits1) - 1))
  | 2 -> t.l2.((q lsr (bits0 + bits1)) land ((1 lsl bits2) - 1))
  | _ -> t.overflow

let push t time payload =
  let q = quantum time in
  if q < t.b0 lsl bits0 then
    invalid_arg "Wheel.push: time precedes the last popped event";
  let seq = t.seq in
  let e = { time; q; seq; due = time; due_seq = seq; status = Live; payload } in
  t.seq <- seq + 1;
  t.live <- t.live + 1;
  (* Keep the front cache exact when the new entry beats it: compared
     on placement keys, whatever the cached root's status, so the
     cache keeps naming the physical minimum.  With no cache, claiming
     [e] is the minimum without a scan would be wrong. *)
  let beats = t.front_ok && entry_before e t.front_slot.arr.(0) in
  let level = place t e in
  if beats then begin
    t.front_slot <- slot_at t level q;
    t.front_level <- level
  end;
  H e

let cancel t (H e) =
  if e.status = Live then begin
    e.status <- Cancelled;
    t.live <- t.live - 1
  end

let is_cancelled _t (H e) = e.status = Cancelled

(* Exactly the order cancel-then-push gives: the fresh seq is the one
   [push] would have drawn.  The entry stays where it is; its real key
   only grows, so every structure ordered on placement keys stays a
   valid lower bound and the front cache, if it named this entry,
   turns stale by [front_valid]'s postponed check. *)
let postpone t (H e) time =
  if e.status <> Live then invalid_arg "Wheel.postpone: event is not live";
  if Time.compare time e.due < 0 then
    invalid_arg "Wheel.postpone: deadline precedes the current one";
  e.due <- time;
  e.due_seq <- t.seq;
  t.seq <- t.seq + 1

(* ---- cascading ---- *)

(* Move every entry of an L1/L2 slot one level down (after the windows
   advanced), re-keying postponed entries and dropping cancelled ones —
   including aliased leftovers from older windows, which the header
   argument shows are always cancelled. *)
let cascade t s ~level =
  let n = s.len in
  if n > 0 then begin
    (match level with
     | 1 -> t.c1 <- t.c1 - n
     | _ -> t.c2 <- t.c2 - n);
    let arr = s.arr in
    s.arr <- [||];
    s.len <- 0;
    for i = 0 to n - 1 do
      let e = arr.(i) in
      if e.status = Live then begin
        if postponed e then rekey e;
        ignore (place t e)
      end
    done
  end

(* Advance the windows so [q] lies in the L0 window, cascading the
   newly-covered L2 and L1 slots down.  Called with [q] the quantum of
   the entry being popped (the global minimum), which is what makes
   skipped slots provably dead. *)
let advance_to t q =
  let n0 = q lsr bits0 in
  if n0 <> t.b0 then begin
    let n1 = q lsr (bits0 + bits1) in
    if n1 <> t.b1 then begin
      let n2 = q lsr (bits0 + bits1 + bits2) in
      if n2 <> t.b2 then t.b2 <- n2;
      t.b1 <- n1;
      t.b0 <- n0;
      cascade t t.l2.(n1 land ((1 lsl bits2) - 1)) ~level:2;
      cascade t t.l1.(n0 land ((1 lsl bits1) - 1)) ~level:1
    end
    else begin
      t.b0 <- n0;
      cascade t t.l1.(n0 land ((1 lsl bits1) - 1)) ~level:1
    end
  end

(* ---- the front of the queue ---- *)

let uncount t level =
  match level with
  | 0 -> t.c0 <- t.c0 - 1
  | 1 -> t.c1 <- t.c1 - 1
  | 2 -> t.c2 <- t.c2 - 1
  | _ -> ()

(* Drop cancelled roots and re-place postponed ones until the root is
   live and current (or the slot is empty).  A re-placed entry lands at
   the same or a later position in scan order — possibly this very
   slot, where its now-larger key sinks below the new root. *)
let prune t s ~level =
  let continue = ref true in
  while !continue && s.len > 0 do
    let e = s.arr.(0) in
    match e.status with
    | Cancelled ->
      ignore (slot_pop s);
      uncount t level
    | Live when postponed e ->
      ignore (slot_pop s);
      uncount t level;
      rekey e;
      ignore (place t e)
    | Live | Fired -> continue := false
  done

let rec scan_l0 t q w_end =
  if q >= w_end then begin
    t.hint0 <- w_end;
    t.empty
  end
  else begin
    let s = t.l0.(q land ((1 lsl bits0) - 1)) in
    prune t s ~level:0;
    if s.len > 0 then begin
      t.hint0 <- q;
      s
    end
    else scan_l0 t (q + 1) w_end
  end

let rec scan_l1 t s1 s_end =
  if s1 >= s_end then begin
    t.hint1 <- s_end;
    t.empty
  end
  else begin
    let s = t.l1.(s1 land ((1 lsl bits1) - 1)) in
    prune t s ~level:1;
    if s.len > 0 then begin
      t.hint1 <- s1;
      s
    end
    else scan_l1 t (s1 + 1) s_end
  end

let rec scan_l2 t s2 s_end =
  if s2 >= s_end then begin
    t.hint2 <- s_end;
    t.empty
  end
  else begin
    let s = t.l2.(s2 land ((1 lsl bits2) - 1)) in
    prune t s ~level:2;
    if s.len > 0 then begin
      t.hint2 <- s2;
      s
    end
    else scan_l2 t (s2 + 1) s_end
  end

(* The slot whose root is the earliest live wheel entry, its level in
   [scan_level]; [t.empty] when the wheel holds none.  Levels cover
   disjoint, increasing quantum ranges, so the first level with a live
   entry holds the wheel minimum.  Each level's count is read only
   after the levels before it were scanned: re-placements there can
   only add entries further on. *)
let wheel_min t =
  let s =
    if t.c0 = 0 then t.empty
    else scan_l0 t (max t.hint0 (t.b0 lsl bits0)) ((t.b0 + 1) lsl bits0)
  in
  if s.len > 0 then begin
    t.scan_level <- 0;
    s
  end
  else
    let s =
      if t.c1 = 0 then t.empty
      else scan_l1 t (max t.hint1 (t.b0 + 1)) ((t.b1 + 1) lsl bits1)
    in
    if s.len > 0 then begin
      t.scan_level <- 1;
      s
    end
    else
      let s =
        if t.c2 = 0 then t.empty
        else scan_l2 t (max t.hint2 (t.b1 + 1)) ((t.b2 + 1) lsl bits2)
      in
      t.scan_level <- 2;
      s

let front_valid t =
  t.front_ok
  &&
  let e = t.front_slot.arr.(0) in
  e.status = Live && not (postponed e)

(* Make the cached front the global minimum: the earlier of the wheel
   scan and the overflow root, compared on (time, seq) — the overflow
   can hold quanta that meanwhile fell inside the windows.  The
   overflow is pruned first: re-keying a postponed overflow root may
   move it into the wheel, where the scan must see it.  (The scan in
   turn can only push entries beyond every window into the overflow,
   later than any wheel entry it finds.)  A valid cache is reused
   as-is, which makes the peek-then-pop cycle cost one scan. *)
let refresh_front t =
  if not (front_valid t) then begin
    prune t t.overflow ~level:3;
    let s = wheel_min t in
    let o = t.overflow in
    if s.len = 0 then begin
      t.front_ok <- o.len > 0;
      t.front_slot <- o;
      t.front_level <- 3
    end
    else begin
      t.front_ok <- true;
      if o.len > 0 && entry_before o.arr.(0) s.arr.(0) then begin
        t.front_slot <- o;
        t.front_level <- 3
      end
      else begin
        t.front_slot <- s;
        t.front_level <- t.scan_level
      end
    end
  end

(* Remove the (valid, cached) front entry and mark it fired. *)
let take_front t =
  let s = t.front_slot in
  let e = s.arr.(0) in
  (match t.front_level with
   | 0 ->
     ignore (slot_pop s);
     t.c0 <- t.c0 - 1
   | 1 | 2 ->
     (* Bring the entry's quantum into the L0 window (cascades move
        it down), then take it off the front of its L0 slot. *)
     advance_to t e.q;
     let s = t.l0.(e.q land ((1 lsl bits0) - 1)) in
     prune t s ~level:0;
     ignore (slot_pop s);
     t.c0 <- t.c0 - 1
   | _ ->
     ignore (slot_pop s);
     (* Advance anyway so subsequent pushes place near the new now. *)
     advance_to t e.q);
  e.status <- Fired;
  t.live <- t.live - 1;
  t.front_ok <- false;
  e

let peek_time t =
  refresh_front t;
  if t.front_ok then Some t.front_slot.arr.(0).time else None

let pop t =
  refresh_front t;
  if t.front_ok then
    let e = take_front t in
    Some (e.time, e.payload)
  else None

let next_time t =
  refresh_front t;
  if not t.front_ok then invalid_arg "Wheel.next_time: empty";
  t.front_slot.arr.(0).time

let pop_payload t =
  refresh_front t;
  if not t.front_ok then invalid_arg "Wheel.pop_payload: empty";
  (take_front t).payload

let size t = t.live

let is_empty t = t.live = 0

(* ---- choice points over the front ---- *)

(* The slot where current placement logic would put quantum [q] (and
   the level it sits at), or [None] when [q] lies beyond the wheel and
   only the overflow heap can hold it.  Every live entry with quantum
   [q] is either in this slot or in the overflow: placement is a pure
   function of (q, windows), windows only advance at pops of the global
   minimum, and [advance_to] cascades exactly the slots a new window
   uncovers — so live entries never linger at a stale level above the
   one this function reports (the header argument: skipped slots hold
   only cancelled or already re-placed entries). *)
let slot_of_quantum t q =
  if q lsr bits0 = t.b0 then Some (t.l0.(q land ((1 lsl bits0) - 1)), 0)
  else if q lsr (bits0 + bits1) = t.b1 then
    Some (t.l1.((q lsr bits0) land ((1 lsl bits1) - 1)), 1)
  else if q lsr (bits0 + bits1 + bits2) = t.b2 then
    Some (t.l2.((q lsr (bits0 + bits1)) land ((1 lsl bits2) - 1)), 2)
  else None

(* Apply [f entry slot level heap_index] to every live entry whose
   real deadline equals the front entry's.  The front has the least
   placement key of all, and placement key <= real key, so such an
   entry's placement time equals the front's too: it shares the front
   quantum's placement slot or sits in the overflow heap.  A postponed
   entry still placed at the front time is a tie only if it was
   postponed to that same time; its real [due_seq] orders it. *)
let iter_front_ties t front f =
  let scan s level =
    for i = 0 to s.len - 1 do
      let x = s.arr.(i) in
      if x.status = Live && Time.compare x.due front.time = 0 then f x s level i
    done
  in
  (match slot_of_quantum t front.q with
   | Some (s, level) -> scan s level
   | None -> ());
  scan t.overflow 3

let front_count t =
  refresh_front t;
  if not t.front_ok then 0
  else begin
    let n = ref 0 in
    iter_front_ties t t.front_slot.arr.(0) (fun _ _ _ _ -> incr n);
    !n
  end

let pop_kth t k =
  refresh_front t;
  if not t.front_ok then None
  else if k = 0 then pop t
  else begin
    let cands = ref [] in
    iter_front_ties t t.front_slot.arr.(0) (fun x s level i ->
        cands := (x, s, level, i) :: !cands);
    let arr = Array.of_list !cands in
    Array.sort
      (fun ((a : _ entry), _, _, _) ((b : _ entry), _, _, _) ->
        compare a.due_seq b.due_seq)
      arr;
    if k < 0 || k >= Array.length arr then
      invalid_arg
        (Printf.sprintf "Wheel.pop_kth: index %d out of %d front ties" k
           (Array.length arr));
    let x, s, level, i = arr.(k) in
    slot_remove s i;
    uncount t level;
    x.status <- Fired;
    t.live <- t.live - 1;
    t.front_ok <- false;
    (* Advance after removal, matching [pop]'s floor semantics: the
       popped quantum becomes the wheel floor. *)
    advance_to t x.q;
    Some (x.due, x.payload)
  end
