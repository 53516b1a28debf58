(** The SIP scheduler: per-vCPU run queues with deterministic work
    stealing. The LibOS builds one at every core count; [cores = 1] is
    simply a one-core instance.

    One [core] models one simulated vCPU. Each core owns a run queue
    (FIFO: the owner claims from the front, thieves steal from the
    back) and a private block JIT. Core 0's quanta report their
    interpreter events to the LibOS's {!Occlum_obs.Obs}; the other
    cores' run untraced, since they may execute on worker domains.

    Scheduling runs in {e epochs}. An epoch's claim phase walks the
    cores in index order; each core claims at most one runnable SIP —
    round-robin from its own queue first, then (unless backing off) by
    stealing from victims in the deterministic order [(self+1) mod n,
    ...]. A claimed SIP is requeued at the tail of the claiming core's
    queue at claim time. Claims exclude two SIPs that share a domain
    slot (threads) from running in the same epoch, so a SIP's quantum is
    the only writer of its slot memory during the parallel phase.
    Everything here is plain sequential data-structure manipulation
    driven by the LibOS from one domain — the OCaml [Domain]s of {!Pool}
    only execute interpreter quanta, never touch these queues, and
    therefore cannot perturb the schedule: a run is bit-reproducible for
    a fixed core count regardless of host timing. *)

type core = {
  cid : int;
  mutable rq : int list;  (** pids; front = next to claim *)
  jit : Occlum_machine.Jit.t option;
      (** this vCPU's private block JIT — compiled blocks (and their
          mutable successor links) are never shared across domains;
          [None] runs the reference loop *)
  obs : Occlum_obs.Obs.t;
      (** where this vCPU's quanta report: the scheduler's [obs] for
          core 0, {!Occlum_obs.Obs.disabled} for the rest *)
  mutable backoff : int;  (** epochs left before stealing again *)
  mutable fail_streak : int;  (** consecutive failed steal rounds *)
  mutable steals : int;  (** SIPs this core stole *)
  mutable quanta : int;  (** quanta this core executed *)
  mutable insns : int;
  mutable cycles : int;
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

val create : ncores:int -> jit:bool -> obs:Occlum_obs.Obs.t -> unit -> t
(** [jit] gives every core a block JIT (the tiered loop);
    without it every core runs the reference loop. Core 0 reports to
    [obs]. *)

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

(** A pool of worker [Domain]s executing one epoch's interpreter quanta
    in parallel. The pool is an accelerator only: workers run closures
    handed to {!run_all} and never touch LibOS state, so results are
    identical with or without it. *)
module Pool : sig
  type pool

  val create : int -> pool
  (** Spawn [n] worker domains (0 is legal: {!run_all} then runs
      everything on the caller). *)

  val run_all : pool -> (unit -> unit) array -> unit
  (** Run all thunks to completion: thunk 0 on the calling domain, the
      rest on workers (overflow beyond the pool size runs on the
      caller). Re-raises the first worker exception. *)

  val shutdown : pool -> unit
  (** Join every worker domain. Idempotent. *)
end
