(** The cross-layer fuzzing properties and their driver. Every run is a
    pure function of [(seed, cases, properties)]: reports are
    bit-reproducible, which is what makes a failing seed a bug report.
    Every property that executes generated code runs it on the
    {!Exec.lockstep} engine.

    Properties:
    - {b codec-roundtrip}: encode/decode/encode is a fixpoint over random
      instructions; decoding arbitrary byte soup is total, and whatever
      it decodes re-encodes to something that decodes back identically.
    - {b verifier-soundness}: generator-well-formed programs are
      accepted; accepted programs (including hostile mutants and
      byte-flipped binaries that slip through) never violate pc/memory
      containment at runtime, even under an AEX storm whose every
      round trip restores the CPU bit-identically.
    - {b aex-identity}: an {!Occlum_sgx.Enclave.aex}/[resume] round trip
      at arbitrary instruction boundaries — with the CPU scrambled in
      between, as another SIP's execution would — restores every
      register, bound register, flag and the pc bit-identically, and the
      interrupted run matches an uninterrupted twin (state, counters and
      memory) at every syscall and at the end.
    - {b epc-pressure}: EPC exhaustion (injected at the k-th allocation
      or real) leaves the pool balanced, partial enclaves destroyable
      with exact page restitution, and the LibOS failing cleanly
      ([Spawn_error ENOMEM]) while remaining fully functional; injected
      SEFS/net I/O faults surface as clean errnos/short transfers.
    - {b mc-determinism}: a random mix of CPU-bound SIPs and futex
      ping-pong thread pairs produces identical {!Occlum_libos.Os}
      state digests at cores=1 and a random cores=c, and across
      repeated runs at the same c — parallel scheduling must be both
      reproducible and semantically equivalent to sequential.
    - {b guard-elide}: the static guard-elision pass preserves both the
      security and the semantics of its input — well-formed programs
      elide to binaries the unmodified verifier re-accepts, with
      bit-identical registers, flags and data/victim memory at every
      syscall/fault/exit sync point under an interrupt storm; hostile
      programs the verifier rejects must still be rejected ([the pass
      reports [Input_rejected]]), and accepted mutants are never
      re-signed without re-verification.
    - {b jit-equivalence}: the tiered loop (the block JIT over its
      decode cache) and the reference loop produce bit-identical
      architectural state, counters and memory at every stop, under
      interrupt storms (counter-based schedules, so a fused
      superinstruction that skipped a boundary consultation diverges
      immediately), on RX and on RWX (fragile) code, under
      self-modifying-code byte flips applied identically to both
      machines (generation invalidation, deopt, rebuild), and under EPC
      pressure with driver-forced evictions reloaded transparently
      through ELDU.
    - {b cluster-orderliness}: the {!Occlum_cluster.Lifecycle}
      orderliness checker bisimulates an independently-stated shadow
      model of the cluster protocol — random legal interleavings are
      fully accepted, guaranteed-illegal mutations (out-of-order
      ECREATE/EINIT/EENTER, handshakes without serving endpoints,
      sequence skips, replayed/rolled-back deliveries, out-of-range
      ids) are 100% rejected without moving the machine; channel fault
      storms through the {!Occlum_libos.Host_transport} hook are
      absorbed bit-deterministically (same digest, RPC/failover/retry
      counts across runs); and a fault-free N-node cluster is
      digest- and read-identical to its single-enclave twin. *)

open Occlum_toolchain

type property =
  | Codec_roundtrip
  | Verifier_soundness
  | Aex_identity
  | Epc_pressure
  | Mc_determinism
      (** the same workload mix digests identically at cores=1 and a
          random cores=c, and across repeated runs at the same c *)
  | Guard_elide
      (** well-formed programs survive the guard-elision pass: the
          elided binary re-verifies, re-signs, and is observationally
          identical at every sync point (syscall, fault, exit — full
          register file and data/victim memory) under an interrupt
          storm; rejected hostile mutants come back [Input_rejected],
          and accepted ones are never re-signed unverified *)
  | Jit_equivalence
      (** the tiered and reference loops are bit-equivalent at
          every stop under interrupt storms, identical self-modifying
          byte flips, and EPC pressure with transparent reloads *)
  | Cluster_orderliness
      (** the cluster lifecycle checker accepts every legal
          interleaving and rejects every hostile mutation (zero false
          accepts); channel fault storms are deterministic; fault-free
          N-node clusters twin with a single enclave *)

val all_properties : property list
val property_name : property -> string
val property_of_name : string -> property option

type failure = {
  prop : property;
  case : int;
  detail : string;
  minimized : Asm.item list option;
      (** shrunk reproducer, for item-level failures with shrinking on *)
}

type prop_result = {
  rprop : property;
  cases_run : int;
  failures : failure list;
}

type report = {
  seed : int64;
  cases : int;
  results : prop_result list;
  injected : Inject.t;
}

val run :
  ?properties:property list ->
  ?shrink:bool ->
  ?metrics:Occlum_obs.Metrics.registry ->
  seed:int64 ->
  cases:int ->
  unit ->
  report
(** Run [cases] cases of each property. With [?metrics], exports
    [fuzz.cases], [fuzz.failures] and the injection counters. *)

val ok : report -> bool
val report_to_json : report -> string

val summary : report -> string
(** Human-readable one-line-per-property summary. *)

val replay_items : Asm.item list -> (unit, string) result
(** Corpus replay: link against {!Gen.layout}, require verifier
    acceptance, containment under an interrupt storm, survival of the
    guard-elision pass, and tiered-vs-reference loop agreement. *)

val emit_corpus : dir:string -> seed:int64 -> (string * int) list
(** Generate one minimized program per generator feature (guarded SIB
    store/load, push/pop, rip-relative, indirect jump, call, syscall,
    bounded loop, ...), each still verifier-accepted and contained after
    minimization, and write them as [dir/gen-<feature>.fuzz]. Returns
    [(file, instruction_count)] per file written. *)

(** {1 Cluster orderliness} *)

val orderliness_stress : seed:int64 -> cases:int -> (int * string) list
(** [cases] seed-fixed hostile cases against the
    {!Occlum_cluster.Lifecycle} checker: each is one fully-accepted
    legal walk plus one guaranteed-illegal mutation that must be
    rejected without moving the machine. Returns the (empty, on a
    correct checker) list of [(case, detail)] failures — any entry is a
    false accept or a false reject. *)

val replay_orderliness : string -> (unit, string) result
(** Replay the orderliness corpus file at the given path: [nodes n]
    lines reset the checker, [ok <transition>] lines must be accepted,
    [reject <transition>] lines must be rejected (state unchanged). *)

val emit_orderliness_corpus : dir:string -> seed:int64 -> string
(** Write [dir/gen-cluster-orderliness.fuzz]: a handful of short
    scenarios interleaving legal progress with must-reject mutations,
    derived from the shadow model at [seed]. Returns the file path. *)
