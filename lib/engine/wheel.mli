(** Hierarchical timer wheel: a drop-in replacement for {!Event_queue}
    with identical observable semantics — pops come out in strictly
    increasing (time, push order), handles cancel exactly the event
    whose [push] returned them — but with O(1) placement and
    cancellation and near-O(1) extraction for the clustered,
    frequently-restarted deadlines protocol timers produce.

    Three levels of slots (1 s, 512 s, ~36 h of coverage at a 2^-10 s
    quantum) hold near-future deadlines; anything beyond the outermost
    window falls back to a binary heap.  Each slot is itself a tiny
    (time, push order) min-heap, so entries sharing a slot drain in
    exact queue order and golden traces are bit-identical to the heap
    implementation's.

    Unlike {!Event_queue}, deadlines must not precede the time of the
    most recently popped event (the wheel's floor).  The simulator
    guarantees this — it never schedules in the past. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled.  Handles are
    physical: a handle cancels exactly the event whose [push] returned
    it. *)

val create : unit -> 'a t

val push : 'a t -> Time.t -> 'a -> handle
(** @raise Invalid_argument if [time] precedes the time of the most
    recently popped event. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val postpone : 'a t -> handle -> Time.t -> unit
(** [postpone t h time] moves the live event [h] to the later (or
    equal) deadline [time] in place: the handle stays valid, the
    payload is kept, and the event takes a fresh sequence number.  Pops,
    {!front_count} and {!pop_kth} then behave {e exactly} as after
    [cancel t h] followed by a [push] of the same payload at [time]
    (whose handle would replace [h]) — the same position in the global
    push order included — but nothing is allocated and no cancelled
    entry is left behind.  The entry keeps its slot and is re-placed
    lazily, before it can be chosen.
    @raise Invalid_argument if [h] is not live (fired or cancelled) or
    [time] precedes its current deadline; an earlier deadline needs
    [cancel] plus [push]. *)

val is_cancelled : 'a t -> handle -> bool

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event, if any. *)

val next_time : 'a t -> Time.t
(** Timestamp of the earliest live event, without the option of
    {!peek_time}: the run loop's allocation-free peek.
    @raise Invalid_argument if the wheel is empty. *)

val pop_payload : 'a t -> 'a
(** Remove the earliest live event and return its payload, without
    the option and pair of {!pop}; its time is {!next_time}'s just
    before.  @raise Invalid_argument if the wheel is empty. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event.

    {b Same-timestamp ordering contract} (shared with {!Event_queue},
    pinned by golden trace digests): every push is stamped with a
    global, monotonically increasing sequence number, and pops come
    out in strictly increasing [(time, seq)] — events with equal
    timestamps are delivered in push order, regardless of which slot,
    level, or overflow heap physically holds them.  [pop] is
    equivalent to [pop_kth t 0]. *)

val front_count : 'a t -> int
(** Number of live events sharing the earliest timestamp — the arity
    of the schedule choice the next pop represents.  [0] iff the wheel
    is empty; [1] means the next pop is forced. *)

val pop_kth : 'a t -> int -> (Time.t * 'a) option
(** [pop_kth t k] removes and returns the [k]-th event (0-based, in
    global push order) among the live events sharing the earliest
    timestamp — the controlled-nondeterminism hook: a schedule
    explorer may deliver same-timestamp ties in any order, and every
    such order is legal for the protocols under test (see
    PROTOCOLS.md).  [pop_kth t 0] behaves exactly like {!pop}.
    Handles of unchosen ties stay live and cancellable.
    @raise Invalid_argument if [k < 0] or [k >= front_count t]. *)

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool
