(** The Occlum LibOS: one enclave, one LibOS instance, many SIPs.

    SIPs are interpreter green-threads over the shared enclave address
    space, scheduled round-robin with a fixed instruction quantum.
    Blocking system calls use a retry model: a blocked SIP's registers
    are left untouched and its call is re-dispatched when it might make
    progress. Every call, direct or in a batch entry, is found by one
    lookup in a table indexed by number; any 64-bit number the table
    does not implement, negative or huge included, returns [ENOSYS].

    The same engine runs the evaluation's three execution models: [Sip]
    (Occlum), [Eip] (the Graphene-SGX baseline: a fresh measured enclave
    plus attestation and an encrypted state transfer per process, ocalls
    per syscall, encrypted pipes, no secure writable FS), and [Linux]
    (native: unverified bare binaries, plaintext FS, cheap syscalls). *)

open Occlum_machine

type mode = Sip | Eip | Linux

(** One SIP (or LibOS thread: threads share their process's slot and
    file table). Read-only outside the LibOS: only {!Os} changes a
    process. *)
type proc = private {
  pid : int;
  mutable parent : int;
  img : Loader.image;
  cpu : Cpu.t;
  fds : Fd.table;
  slot_refs : int ref;
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
  mutable eip_enclave : Occlum_sgx.Enclave.t option;
  path : string;
}

type config = {
  mode : mode;
  sgx2 : bool;
      (** EDMM: commit domain pages per binary instead of preallocating
          (§6's "can be avoided on SGX 2.0") *)
  domains : Domain_mgr.config;
  cores : int;
      (** simulated vCPUs (default 1). Every core count runs the same
          epoch scheduler over one run queue ({!Sched}); with more
          than one core an epoch's quanta overlap in virtual time. Every
          quantum runs on the calling thread, and runs are
          bit-reproducible for a fixed core count. *)
  jit : bool;
      (** run SIPs on [Interp.run]'s tiered loop — one block JIT that
          every core's quanta share, every block compiled at its first
          execution (default on); off runs the reference loop *)
  fs_key : string;
  eip_runtime_image_bytes : int;
      (** the Graphene runtime pages measured on every EIP creation *)
}

val default_config : config

type meters
(** Every metric the LibOS updates, resolved against the [obs] registry
    at {!boot}; each registers at its first update, so exports are as if
    looked up by name. *)

(** One LibOS instance: the state every SIP shares. Callers read its
    fields and match on them; only this module assigns one, and
    {!advance_clock} is the one way to move the clock from outside. *)
type t = private {
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
  eip_runtime_image : Bytes.t;
      (** the Graphene runtime pages; empty unless [mode = Eip] *)
  obs : Occlum_obs.Obs.t;
      (** the observability instance every layer of this LibOS reports
          to; {!Occlum_obs.Obs.disabled} unless one was passed to
          {!boot} *)
  meters : meters;
  sched : Sched.t;  (** the scheduler: the one run queue *)
  jit : Occlum_machine.Jit.t option;
      (** the block JIT every core's quanta run through; [None] under
          the reference loop *)
  mutable last_run_pid : int;
  mutable paging_cycles_seen : int;
      (** EWB/ELDU cycle charges already folded into [clock_ns] *)
  mutable io_backoff_seen : int64;
      (** Sefs/Net retry backoff already folded into [clock_ns] *)
  images : (string, string * Loader.checked) Hashtbl.t;
      (** The checked-image memo: path -> the exact bytes last admitted
          from it and their admission. A spawn reuses an entry only for
          a byte-identical binary. Per instance, never shared. *)
}

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

val advance_clock : t -> int64 -> unit
(** [advance_clock t ns] moves the virtual clock forward by [ns]: the
    time an enclave spends outside its SIPs, such as a cluster node's
    network and attestation work. *)

val console_output : t -> string

val decode_cache_stats : t -> (int * int * int) option
(** The code cache's block-level [(hits, builds, invalidations)]: lookups (and link follows) that found a
    valid compiled block, blocks built and compiled, and compiled
    blocks dropped as stale. The same three numbers as {!jit_stats}, in
    hit-first order, so [hits / (hits + builds)] is the fraction of
    block entries that reused a translation. [None] under the
    reference loop. *)

val jit_stats : t -> (int * int * int) option
(** [(compiles, hits, invalidations)] of the one block JIT ([Jit.stats]);
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
    and attest its enclave). Returns the pid. The binary is read from
    the FS on every call; its signature check and label scan are reused
    from [images] only when the bytes read equal those last admitted
    from [path].
    @raise Spawn_error with an errno: [EINVAL] for a malformed binary,
    [EACCES] for a bad signature or an oversized one, [EAGAIN] when no
    slot is free. *)

val spawn_initial : t -> Occlum_oelf.Oelf.t -> args:string list -> int
(** Install a binary as /bin/init and spawn it (pid 1). *)

(** {1 Scheduling} *)

type run_status = All_exited | Deadlock of int list | Quota_exhausted

val step : t -> bool
(** Retry blocked SIPs, then run one epoch: claim up to [cores]
    runnable SIPs in one pass over the run queue ({!Sched.claim}), run
    one quantum of each in claim order, then handle their stops in claim
    order. Before a SIP's stop is handled the clock reads the epoch's
    start plus that quantum's cycles; the epoch ends at the latest clock
    any handler reached. Counts [sched.epochs] in [t.obs], and the i-th
    claim's quantum in [sched.core<i>.quanta]. [false] if nothing was
    runnable. *)

val run : ?max_steps:int -> t -> run_status
(** Run until every process has exited (advancing the clock over sleep
    gaps), deadlock, or the step quota: {!step} until nothing is live,
    and on a step where nothing ran, advance to the earliest sleeper's
    wake time or retry every blocked call once more. *)

val wait_pid_exit : ?max_steps:int -> t -> int -> run_status
(** Run until a specific process has exited (or was reaped). Idle steps
    are handled as in {!run}: sleep gaps advance the clock, and blocked
    calls are retried once more before a [Deadlock]. *)

val state_digest : t -> string
(** Hex SHA-256 over the workload-observable final state: processes
    (parent, state, exit code, path), per-SIP output streams, faults,
    spawn count and the full FS tree. Excludes the virtual clock,
    syscall/retry counters and the interleaved global console, which
    legitimately vary with scheduling granularity — so a fixed workload
    must digest identically at any core count. *)

val flush_fs : t -> unit
