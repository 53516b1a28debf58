(** The SIP scheduler: one round-robin run queue shared by every
    virtual core. The LibOS builds one at every core count; [cores = 1]
    is simply a one-core instance.

    The cores are virtual. Every quantum runs on the one host thread
    that drives the LibOS; what [ncores] adds is how many SIPs one
    epoch may claim, and so how many quanta overlap in virtual time.
    Everything here is plain sequential data-structure manipulation
    driven by the LibOS, so a run is bit-reproducible for a fixed core
    count. *)

type t

val create : ncores:int -> t
(** An empty queue for [ncores] cores. *)

val enqueue : t -> int -> unit
(** Queue a new pid at the tail. *)

val queued : t -> int list
(** The queue, front first. *)

val claim :
  t ->
  runnable:(int -> bool) ->
  live:(int -> bool) ->
  slot_of:(int -> int) ->
  (int * int) list
(** One epoch's claim pass: returns [(i, pid)] for the i-th claim, at
    most [ncores] of them, no two sharing a pid or a domain slot (a
    negative slot shares with nothing). It pops the front up to
    [length + 1] times, stopping early once [ncores] SIPs are claimed:
    a dead pid is dropped, a live one moves behind the tail — the
    claimed ones too, so a child one spawns queues after it — and a
    queue with nothing claimable ends rotated by one. *)
