(** The SIP scheduler: one round-robin run queue shared by every
    virtual core. The LibOS builds one at every core count; [cores = 1]
    is simply a one-core instance. The LibOS queues its process records
    themselves, so a claim reads liveness, runnability and slot straight
    from each record.

    The cores are virtual. Every quantum runs on the one host thread
    that drives the LibOS; what [ncores] adds is how many SIPs one
    epoch may claim, and so how many quanta overlap in virtual time.
    Everything here is plain sequential data-structure manipulation
    driven by the LibOS, so a run is bit-reproducible for a fixed core
    count. *)

type 'a t

val create : ncores:int -> 'a t
(** An empty queue for [ncores] cores. *)

val enqueue : 'a t -> 'a -> unit
(** Queue a new entry at the tail. *)

val queued : 'a t -> 'a list
(** The queue, front first. *)

val claim :
  'a t ->
  runnable:('a -> bool) ->
  live:('a -> bool) ->
  slot_of:('a -> int) ->
  'a list
(** One epoch's claim pass: the claimed entries, the i-th for core i, at
    most [ncores] of them, no two physically equal or sharing a domain
    slot (a negative slot shares with nothing). It pops the front up to
    [length + 1] times, stopping early once [ncores] entries are
    claimed: a dead entry is dropped, a live one moves behind the tail —
    the claimed ones too, so a child one spawns queues after it — and a
    queue with nothing claimable ends rotated by one. *)
