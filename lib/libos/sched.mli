(** The SIP scheduler: per-vCPU run queues with deterministic work
    stealing. The LibOS builds one at every core count; [cores = 1] is
    simply a one-core instance.

    One [core] models one simulated vCPU: a run queue (FIFO: the owner
    claims from the front, thieves steal from the back) and its steal
    backoff. The cores are virtual. Every core's quanta run on the one
    host thread that drives the LibOS, share the LibOS's one block JIT
    and report to its one {!Occlum_obs.Obs}; what a core adds is a run
    queue and an overlapping share of virtual time.

    Scheduling runs in {e epochs}. An epoch's claim phase walks the
    cores in index order; each core claims at most one runnable SIP —
    round-robin from its own queue first, then (unless backing off) by
    stealing from victims in the deterministic order [(self+1) mod n,
    ...]. A claimed SIP is requeued at the tail of the claiming core's
    queue at claim time. Claims exclude two SIPs that share a domain
    slot (threads) from running in the same epoch, so a slot runs at
    most one quantum per epoch. Everything here is plain sequential
    data-structure manipulation driven by the LibOS, so a run is
    bit-reproducible for a fixed core count. *)

type core = {
  cid : int;
  mutable rq : int list;  (** pids; front = next to claim *)
  mutable backoff : int;  (** epochs left before stealing again *)
  mutable fail_streak : int;  (** consecutive failed steal rounds *)
  mutable steals : int;  (** SIPs this core stole *)
}

type t = {
  ncores : int;
  cores : core array;
  mutable epochs : int;
  mutable cross_wakes : int;
      (** futex wakeups targeting a SIP queued on another core *)
  mutable merged_epochs : int;  (** merge-at-report bookkeeping *)
  mutable merged_steals : int;
  mutable merged_wakes : int;
}

val max_backoff : int
(** Cap on the exponential steal backoff, in epochs. *)

val create : ncores:int -> t
(** [ncores] empty run queues. *)

val enqueue : t -> int -> unit
(** Queue a new pid on its home core ([pid mod ncores]), clearing that
    core's steal backoff. *)

val core_of : t -> int -> int option
(** Index of the core whose queue currently holds [pid]; [None] once
    it is gone. *)

val notify_wake : t -> waker:int -> int -> unit
(** A futex wake from a SIP running on core [waker] targeted [pid]:
    clear the holding core's steal backoff so the wakeup is picked up
    next epoch, and count it as cross-core if it landed elsewhere. *)

val claim :
  t ->
  runnable:(int -> bool) ->
  live:(int -> bool) ->
  slot_of:(int -> int) ->
  (int * int) list
(** One epoch's claim phase: returns [(core, pid)] pairs in core order,
    at most one per core, no two sharing a domain slot. The owner pops
    its queue's front up to [length + 1] times: a dead pid is dropped, a
    live one moves behind the tail — the claimed one too, so a child it
    spawns queues after it — and a queue with nothing claimable ends
    rotated by one. A stolen pid leaves the victim's queue for the tail
    of the thief's. Bumps [epochs] and ticks the backoff counters. *)

val steals_total : t -> int

val merge_metrics : t -> Occlum_obs.Obs.t -> unit
(** Fold the scheduler's counters ([sched.epochs], [sched.steals],
    [sched.cross_wakes]) into [obs]. Idempotent across repeated calls
    (merges only the deltas since the last call). No-op on a disabled
    [obs]. *)
