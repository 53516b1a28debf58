(** Attested enclave-to-enclave channels over the untrusted
    {!Occlum_libos.Host_transport}: payloads enciphered under the
    attested session key, MAC'd over (channel identity, direction,
    epoch, seq, ciphertext), and strictly sequenced per direction.
    Corruption and loss are absorbed by bounded retransmission with the
    SEFS/Net backoff curve; replay, rollback (including stale-epoch
    frames after a re-handshake), retry-budget exhaustion and idle
    timeout fail the channel closed with a typed {!fault_kind}. *)

type fault_kind =
  | Replay  (** an authentic frame older than the receive cursor *)
  | Rollback
      (** an authentic frame ahead of the cursor, or from a stale epoch *)
  | Timeout  (** idle past the virtual-clock deadline *)
  | Budget_exhausted  (** [max_attempts] transfers all failed *)
  | Peer_down  (** the peer was torn down *)

val fault_name : fault_kind -> string

type state = Open | Closed | Failed of fault_kind

(** {1 Constants} (see docs/cluster.md) *)

val max_attempts : int
(** Total attempts per exchange, = [Sefs.max_io_attempts]. *)

val backoff_ns_of_attempt : int -> int64
(** Deterministic exponential backoff before retry [k], shared with the
    SEFS/Net retry wrappers; accrued on the channel and drained into
    the owning node's virtual clock. *)

val idle_timeout_ns : int64
(** An [Open] channel fails with [Timeout] at exactly
    [last_activity + idle_timeout_ns] on the virtual clock. *)

val frame_cost_ns : int -> int64
(** Virtual cost of moving one frame of [len] payload bytes between
    enclaves: two boundary crossings plus seal/unseal work. *)

val frame_nonce : src:int -> epoch:int -> seq:int -> string
(** [frame_nonce ~src ~epoch ~seq] is a frame's 12-byte cipher nonce:
    [src], [epoch] and [seq], each a little-endian 32-bit word. The
    session key is unique per (pair, epoch), so the nonce is unique per
    frame under it.
    @raise Invalid_argument if any of the three is outside [0, 2^32). *)

type t

val establish :
  a:int ->
  b:int ->
  key:string ->
  epoch:int ->
  transport:Occlum_libos.Host_transport.t ->
  now:int64 ->
  obs:Occlum_obs.Obs.t ->
  t
(** A fresh channel in state [Open] with zeroed sequence counters; the
    caller (the cluster) has already completed the attested key
    exchange yielding [key] and [epoch].
    @raise Invalid_argument on a key that is not 32 bytes or an epoch
    outside [0, 2^32). *)

val state : t -> state
val retries : t -> int
val duplicates : t -> int
val mac_failures : t -> int
val sent : t -> int
val received : t -> int

val drain_backoff : t -> int64
(** Retry backoff accrued since the last drain (cluster charges it to
    the initiating node's virtual clock). *)

val send : t -> src:int -> string -> (int, fault_kind) result
(** Seal and hand one payload to the transport; returns its seq.
    @raise Invalid_argument, and sends nothing, once the direction's
    seq would reach 2^32. *)

val resend : t -> src:int -> attempt:int -> (int, fault_kind) result
(** Retransmit the direction's last frame under its original seq;
    counts a retry and accrues backoff for [attempt] (1-based over the
    exchange). *)

val try_recv : t -> dst:int -> now:int64 -> (string option, fault_kind) result
(** Drain frames for [dst] until a fresh in-order payload ([Ok (Some
    p)]), the queue runs dry ([Ok None]), or a hard fault. MAC failures
    are discarded (transport noise); a duplicate of the immediately
    preceding seq is benign and counted. *)

val deliver : t -> src:int -> string -> now:int64 -> (string, fault_kind) result
(** One stop-and-wait exchange: send, then poll the peer side,
    retransmitting with backoff up to {!max_attempts} total attempts.
    Never hangs: exhaustion is [Error Budget_exhausted]. *)

val check_idle : t -> now:int64 -> bool
(** Fail the channel with [Timeout] iff [now] has reached the idle
    deadline; true when it just fired. *)

val fail : t -> fault_kind -> unit
val close : t -> unit
