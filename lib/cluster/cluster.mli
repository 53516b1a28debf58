(** The enclave cluster: N single-enclave Occlum instances joined by
    quote-based remote attestation and {!Channel}s over the untrusted
    {!Occlum_libos.Host_transport}, serving a sharded KV store with
    failover. Every host-visible transition is simultaneously checked
    by a {!Lifecycle} orderliness monitor; the production path raising
    {!Violation} is a bug, and fuzz property #9 drives hostile
    sequences at the same monitor. *)

exception Violation of string
(** The cluster drove its own lifecycle checker out of order. *)

exception Cluster_down
(** No alive node can own a shard. *)

val handshake_ns : int64
(** Virtual cost of one pairwise attested handshake, charged to both
    endpoints. *)

val shard_count : int
(** Virtual shards; keys hash onto shards, shards map onto nodes. *)

type t

val create :
  ?obs:Occlum_obs.Obs.t ->
  ?connect:bool ->
  nodes:int ->
  unit ->
  t
(** Boot [nodes] instances (each ECREATE→EADD→EINIT→quote→verify→
    EENTER) and, when [connect] (default), establish the full mesh of
    attested channels. *)

val destroy : t -> unit
(** Tear down every alive node (releases all EPC pools). *)

(** {1 Topology} *)

val size : t -> int
val alive : t -> int -> bool
val alive_count : t -> int
val node_os : t -> int -> Occlum_libos.Os.t
(** @raise Invalid_argument if the node is down. *)

val node_clock : t -> int -> int64
val advance_node_clock : t -> int -> int64 -> unit
val channel : t -> int -> int -> Channel.t option
val checker : t -> Lifecycle.t
val transport : t -> Occlum_libos.Host_transport.t

(** {1 Lifecycle steps} (exposed for tests and drivers; {!create},
    {!revive} and the KV layer compose them) *)

val boot_node : t -> int -> unit
val attest_node : t -> int -> unit
val enter_node : t -> int -> unit
val begin_handshake : t -> int -> int -> unit
val complete_handshake : t -> int -> int -> unit
val connect : t -> int -> int -> unit
val connect_all : t -> unit

val kill_node : t -> int -> unit
(** Peer crash/teardown: fail + close its channels, drop queued frames,
    destroy its enclave (EPC fully released). Shards fail over on the
    next operation. *)

val revive : t -> int -> unit
(** Full lifecycle from ECREATE (fresh enclave, measurement, quote) and
    re-handshakes under bumped epochs; home shards fail back. *)

val reconnect : t -> int -> int -> unit
(** Tear the pair's channel down and re-attest under a fresh epoch. *)

(** {1 Sharded KV} *)

val shard_of_key : string -> int
val owner_of_shard : t -> int -> int
(** The shard's home node when alive, else the next alive node.
    @raise Cluster_down when nothing is alive. *)

val owner_of_key : t -> string -> int

val rpc : t -> src:int -> dst:int -> string -> (string, Channel.fault_kind) result
(** One cross-enclave request/reply exchange over the pair's channel;
    frame costs charged to both clocks, retry backoff to the
    retransmitting sender. *)

val kv_put : t -> ?via:int -> string -> string -> bool
val kv_get : t -> ?via:int -> string -> string option
(** Route to the key's owner — locally or by RPC. On a hard channel
    fault: one re-attestation + retry, then declare the peer down (its
    shards fail over) and re-route. Keys must be nonempty and
    slash-free. *)

val kv_digest : t -> string
(** Hex SHA-256 over the sorted union of every alive node's /kv tree —
    the cluster-level observable state for twin differentials. *)

(** {1 Maintenance} *)

val tick : t -> unit
(** Idle sweep: fail channels whose virtual idle deadline passed. *)

(** {1 Stats} *)

type chan_stats = {
  cs_a : int;
  cs_b : int;
  cs_epoch : int;
  cs_state : string;
  cs_sent : int;
  cs_received : int;
  cs_retries : int;
  cs_duplicates : int;
  cs_mac_failures : int;
}

val chan_stats : t -> chan_stats list
val handshakes : t -> int
val rpcs : t -> int
val rpc_failures : t -> int
val failovers : t -> int
