(** The multi-core SIP scheduler: per-vCPU run queues with deterministic
    work stealing.

    One [core] models one simulated vCPU. Each core owns a run queue
    (FIFO: the owner claims from the front, thieves steal from the
    back), a private decode cache, and a private {!Occlum_obs.Obs}
    metrics shard merged back into the main registry at report time.

    Scheduling runs in {e epochs}. An epoch's claim phase walks the
    cores in index order; each core claims at most one runnable SIP —
    from its own queue first, then (unless backing off) by stealing from
    victims in the deterministic order [(self+1) mod n, ...]. Claims
    exclude two SIPs that share a domain slot (threads) from running in
    the same epoch, so a SIP's quantum is the only writer of its slot
    memory during the parallel phase. Everything here is plain
    sequential data-structure manipulation driven by the LibOS from one
    domain — the OCaml [Domain]s of {!Pool} only execute interpreter
    quanta, never touch these queues, and therefore cannot perturb the
    schedule: a multi-core run is bit-reproducible for a fixed core
    count regardless of host timing. *)

type core = {
  cid : int;
  mutable rq : int list;  (** pids; front = next to claim *)
  dcache : Occlum_machine.Decode_cache.t option;
      (** this vCPU's private decoded-block cache *)
  jit : Occlum_machine.Jit.t option;
      (** this vCPU's private block-JIT code cache — compiled closures
          are never shared across domains *)
  shard : Occlum_obs.Obs.t;  (** this vCPU's private metrics shard *)
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

val create :
  ncores:int ->
  decode_cache:bool ->
  jit:bool ->
  obs:Occlum_obs.Obs.t ->
  unit ->
  t
(** [jit] gives every core a block JIT; it takes effect only when
    [decode_cache] is also on. *)

val enqueue : t -> int -> unit
(** Queue a new pid on its home core ([pid mod ncores]), clearing that
    core's steal backoff. *)

val requeue : t -> core:int -> int -> unit
(** Put a claimed pid back at the tail of the core that ran it (a stolen
    SIP migrates to the thief — locality follows the work). *)

val core_of : t -> int -> int option
(** Index of the core whose queue currently holds [pid]; [None] while
    the pid is claimed (mid-epoch) or gone. *)

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
    at most one per core, no two sharing a domain slot. Dead pids are
    dropped from the queues; blocked ones keep their position. Bumps
    [epochs] and ticks the backoff counters. *)

val steals_total : t -> int

val merge_metrics : t -> Occlum_obs.Obs.t -> unit
(** Fold every core's metrics shard plus the scheduler's own counters
    ([sched.mc.epochs], [sched.mc.steals], [sched.mc.cross_wakes]) into
    [obs]. Idempotent across repeated calls (drains shards, merges
    counter deltas). No-op on a disabled [obs]. *)

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
