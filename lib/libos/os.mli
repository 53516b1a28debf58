(** The Occlum LibOS: one enclave, one LibOS instance, many SIPs.

    SIPs are interpreter green-threads over the shared enclave address
    space, scheduled round-robin with a fixed instruction quantum.
    Blocking system calls use a retry model: a blocked SIP's registers
    are left untouched and its call is re-dispatched when it might make
    progress.

    The same engine runs the evaluation's three execution models: [Sip]
    (Occlum), [Eip] (the Graphene-SGX baseline: a fresh measured enclave
    plus attestation and an encrypted state transfer per process, ocalls
    per syscall, encrypted pipes, no secure writable FS), and [Linux]
    (native: unverified bare binaries, plaintext FS, cheap syscalls). *)

open Occlum_machine

type mode = Sip | Eip | Linux

(** One SIP (or LibOS thread: threads share their process's slot and
    file table). *)
type proc = {
  pid : int;
  mutable parent : int;
  img : Loader.image;
  cpu : Cpu.t;
  fds : Fd.table;
  slot_refs : int ref;
  is_thread : bool;
  mutable state : [ `Runnable | `Blocked | `Zombie ];
  mutable exit_code : int;
  mutable brk : int;
  mutable mmaps : (int * int) list;
  mutable mmap_top : int;
  mutable children : int list;
  mutable sig_handlers : (int * int64) list;
  mutable sig_pending : int list;
  mutable saved_ctx : Cpu.snapshot option;
  mutable futex_woken : bool;
  mutable wake_time : int64 option;
  mutable last_cycles : int;
  mutable eip_enclave : Occlum_sgx.Enclave.t option;
  path : string;
}

type config = {
  mode : mode;
  sgx2 : bool;
      (** EDMM: commit domain pages per binary instead of preallocating
          (§6's "can be avoided on SGX 2.0") *)
  domains : Domain_mgr.config;
  quantum : int;  (** instructions per scheduling slice *)
  cores : int;
      (** simulated vCPUs (default 1). Every core count runs the same
          epoch scheduler over per-core run queues ({!Sched}); with more
          than one core an epoch's quanta execute in parallel on OCaml
          domains. Runs are bit-reproducible for a fixed core count. *)
  decode_cache : bool;
      (** run SIPs on [Interp.run]'s tiered loop — the decode cache plus
          the block JIT, one per core (default on); off runs the
          reference loop *)
  fs_key : string;
  eip_runtime_image_bytes : int;
      (** the Graphene runtime pages measured on every EIP creation *)
  eip_ocall_ns : int64;
  sip_syscall_ns : int64;
}

val default_config : config

type t = {
  cfg : config;
  epc : Occlum_sgx.Epc.t;
  enclave : Occlum_sgx.Enclave.t;
  mem : Mem.t;
  domains : Domain_mgr.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  sefs : Sefs.t;
  net : Net.t;
  mutable clock_ns : int64;  (** the virtual clock *)
  console : Buffer.t;
  proc_out : (int, Buffer.t) Hashtbl.t;
  futexq : (int, int list ref) Hashtbl.t;
  mutable syscalls : int;
  mutable gate_crossings : int;
      (** user->LibOS trampoline entries; batching submits many syscalls
          per crossing, so this diverges from [syscalls] under
          [Abi.Sys.batch] *)
  mutable spawns : int;
  mutable faults : (int * Fault.t) list;
  prng : Occlum_util.Prng.t;
  eip_runtime_image : Bytes.t;
  obs : Occlum_obs.Obs.t;
      (** the observability instance every layer of this LibOS reports
          to; {!Occlum_obs.Obs.disabled} unless one was passed to
          {!boot} *)
  sched : Sched.t;
      (** the scheduler: per-core run queues, decode caches and JITs *)
  mutable cur_core : int;
      (** core whose claim is being post-processed; attributes futex
          wakes to their waker core *)
  mutable last_run_pid : int;
  mutable paging_cycles_seen : int;
      (** EWB/ELDU cycle charges already folded into [clock_ns] *)
  mutable io_backoff_seen : int64;
      (** Sefs/Net retry backoff already folded into [clock_ns] *)
}

val cycles_to_ns : int -> int64
(** The clock calibration: simulated cycles to virtual nanoseconds. *)

val sync_pressure_charges : t -> unit
(** Fold freshly accrued EPC paging cycles and I/O retry backoff into
    the virtual clock. Called automatically by [boot], [spawn] and every
    scheduler [step]; exposed for drivers that run the interpreter
    directly. *)

val boot :
  ?config:config ->
  ?obs:Occlum_obs.Obs.t ->
  ?epc:Occlum_sgx.Epc.t ->
  ?host_fs:Sefs.Host_store.t ->
  unit ->
  t
(** Build the enclave (with its domain slots), EINIT it, and mount the
    FS — fresh, or over an existing untrusted host volume. Passing an
    enabled [obs] routes trace events and metrics from the enclave, the
    interpreter, the syscall layer, the scheduler and the I/O stacks to
    it, timestamped with this LibOS's virtual clock; the simulation
    itself is bit-identical with or without it. *)

val clock : t -> int64
val console_output : t -> string

val decode_cache_stats : t -> (int * int * int) option
(** [(hits, misses, invalidations)] summed over the per-core JITs'
    decode caches; [None] under the reference loop. *)

val jit_stats : t -> (int * int * int) option
(** [(compiles, hits, invalidations)] summed over the per-core JITs;
    [None] under the reference loop. *)

val proc_output : t -> int -> string
val find_proc : t -> int -> proc option
val live_procs : t -> proc list

val install_binary : t -> string -> Occlum_oelf.Oelf.t -> unit
(** Place a binary on the file system (creating parent directories). *)

exception Spawn_error of int  (** errno *)

val spawn : t -> parent_pid:int -> path:string -> args:string list -> int
(** The spawn system call's implementation: load a signed binary from
    the FS into a free domain slot as a new SIP (in EIP mode, also build
    and attest its enclave). Returns the pid.
    @raise Spawn_error with an errno. *)

val spawn_initial : t -> Occlum_oelf.Oelf.t -> args:string list -> int
(** Install a binary as /bin/init and spawn it (pid 1). *)

(** {1 Scheduling} *)

type run_status = All_exited | Deadlock of int list | Quota_exhausted

val step : t -> bool
(** Retry blocked SIPs, then run one epoch: claim at most one runnable
    SIP per core, run one quantum of each (sequentially on the calling
    domain — only {!run} spins up the worker pool), then handle their
    stops in core order. Before a SIP's stop is handled the clock reads
    the epoch's start plus that quantum's cycles; the epoch ends at the
    latest clock any handler reached. [false] if nothing was runnable. *)

val run : ?max_steps:int -> t -> run_status
(** Run until every process has exited (advancing the clock over sleep
    gaps), deadlock, or the step quota. With [cores > 1] this owns the
    worker-domain pool (created on entry, joined before returning, even
    on exceptions). Folds the scheduler counters into [t.obs] when the
    run completes. *)

val wait_pid_exit : ?max_steps:int -> t -> int -> run_status
(** Run until a specific process has exited (or was reaped). *)

val merge_core_metrics : t -> unit
(** Fold the scheduler counters into [t.obs] now (normally done by
    {!run}). Idempotent. *)

val state_digest : t -> string
(** Hex SHA-256 over the workload-observable final state: processes
    (parent, state, exit code, path), per-SIP output streams, faults,
    spawn count and the full FS tree. Excludes the virtual clock,
    syscall/retry counters and the interleaved global console, which
    legitimately vary with scheduling granularity — so a fixed workload
    must digest identically at any core count. *)

val flush_fs : t -> unit
