(** Restartable one-shot timers.

    Protocol state machines (MLD group membership timers, PIM prune and
    (S,G) expiry timers, Mobile IPv6 binding lifetimes) are expressed as
    timers that are (re)started and stopped; restarting an armed timer
    replaces its previous expiry. *)

type t

val create : ?category:string -> Sim.t -> name:string -> on_expire:(unit -> unit) -> t
(** The timer starts disarmed.  [name] appears in traces and error
    messages; [category] (default ["timer"]) labels the expiry events
    for {!Sim.profile}. *)

val start : t -> Time.t -> unit
(** Arm (or re-arm) the timer to fire after the given duration.

    Re-arming fires exactly as {!stop} followed by a fresh arming would
    (same time, same position among same-time events).  When the new
    expiry is no earlier than the current one the pending event is
    moved in place ({!Sim.postpone}): nothing is left behind in the
    queue and nothing is allocated beyond the new expiry time, so a
    timer restarted on every packet costs O(1) and keeps
    {!Sim.pending} flat.  An earlier expiry cancels and schedules
    afresh.  A moved event keeps the profiling category and wrapping it
    was first scheduled with. *)

val stop : t -> unit
(** Disarm; a no-op if not armed.  Cancels exactly the pending expiry,
    moved or not. *)

val is_armed : t -> bool

val expiry : t -> Time.t option
(** Absolute expiry time when armed: the one set by the latest
    {!start}. *)

val remaining : t -> Time.t option
(** Time left until expiry when armed. *)

val name : t -> string
