(** Benchmark harness: boots a LibOS in one of the evaluation's three
    execution models and runs the application workloads on it. Results
    carry both wall-clock time of the real simulation work and the
    simulated virtual clock (see EXPERIMENTS.md for the calibration). *)

module Os = Occlum_libos.Os

type system =
  | Occlum    (** SIP mode: instrumented, verified binaries; one enclave *)
  | Graphene  (** EIP mode: one enclave per process *)
  | Linux     (** native mode: uninstrumented binaries, plaintext FS *)

val system_name : system -> string
val codegen_config : system -> Occlum_toolchain.Codegen.config

val build_for : system -> Occlum_toolchain.Ast.program -> Occlum_oelf.Oelf.t
(** Compile for the system, verifying + signing for the SGX systems. *)

(** [boot system] boots a LibOS for [system]; [cores] (default 1)
    selects the number of simulated vCPUs (see [Os.config]). *)
val boot :
  ?domains:Occlum_libos.Domain_mgr.config ->
  ?cores:int ->
  ?obs:Occlum_obs.Obs.t ->
  system ->
  Os.t
val install : Os.t -> system -> (string * Occlum_toolchain.Ast.program) list -> unit

type run_result = {
  wall_s : float;
  vclock_ns : int64;
  status : Os.run_status;
  console : string;
  spawns : int;
  syscalls : int;
  faults : int;
}

val timed_run : ?args:string list -> ?max_steps:int -> Os.t -> string -> run_result

(** {1 Bare runs} *)

type bare_result = {
  exit_code : int;  (** [-1] if the process never exited *)
  stdout : string;
  cpu : Occlum_machine.Cpu.t;  (** the process's counters *)
  fault : Occlum_machine.Fault.t option;  (** the fault that killed it *)
}

val run_bare :
  ?config:Os.config -> ?obs:Occlum_obs.Obs.t -> ?args:string list ->
  Occlum_oelf.Oelf.t -> bare_result
(** Run an unsigned binary to exit alone in a [Linux]-mode LibOS, in one
    domain slot fitted to it: the "process on native Linux" of Fig. 7
    and RIPE's baseline. [config]'s [mode] and [domains] are replaced. *)

(** {1 Per-figure workload drivers} *)

val run_fish : ?repeats:int -> ?lines:int -> system -> run_result
(** Fig 5a: the gen|tr|filter|wc pipeline, [repeats] times. *)

val run_gcc : ?lines:int -> system -> run_result
(** Fig 5b: the cpp→cc1→as→ld pipeline over a [lines]-line source. *)

type httpd_result = {
  served : int;
  h_wall_s : float;
  h_vclock_ns : int64;
  throughput_wall : float;
  throughput_vclock : float;
}

val run_httpd :
  ?workers:int -> ?concurrency:int -> ?requests:int -> system -> httpd_result
(** Fig 5c: master + workers, external clients injected by the harness. *)

type serving_result = {
  s_connections : int;  (** concurrent keep-alive clients driven *)
  s_completed : int;    (** responses fully received by clients *)
  s_peak_open : int;
  s_vclock_ns : int64;
  s_wall_s : float;
  s_rps_vclock : float; (** responses per virtual second *)
  s_p50_ns : int;
  s_p99_ns : int;
  s_gate_crossings : int;
  s_syscalls : int;
}

val response_bytes : int
(** Bytes of one full HTTP response (header + page). *)

val run_serving :
  ?connections:int ->
  ?rounds:int ->
  ?batch:bool ->
  ?servers:int ->
  ?cores:int ->
  ?obs:Occlum_obs.Obs.t ->
  ?around:(Os.t -> (unit -> serving_result) -> serving_result) ->
  system ->
  serving_result
(** The C10K load harness: [connections] concurrent keep-alive external
    clients, [rounds] requests each, against the event-loop server
    ([Httpd.ev_prog]). [batch] turns on the server's [Abi.Sys.batch]
    mode; compare [s_gate_crossings] across the two runs at equal load.
    [servers] (default 1) spawns that many server SIPs on consecutive
    ports with clients sharded round-robin, and [cores] (default 1)
    selects the vCPU count — set both to N for the multi-core serving
    benchmark. [around os run] wraps the whole run after boot, e.g. to
    arm a fault on that instance's network. Latencies are
    virtual-clock, hence deterministic. *)

val sized_program : code_kb:int -> Occlum_toolchain.Ast.program
(** A program padded to roughly [code_kb] KiB of code (Fig 6a). *)

val spawn_latency : ?tries:int -> Os.t -> string -> float
(** Median wall seconds to spawn + run-to-exit one instance. *)

val run_pipe :
  ?total:int -> bufsz:int -> system -> float * float * run_result
(** Fig 6b: (wall MB/s, virtual MB/s, raw result). *)

val file_io_prog : Occlum_toolchain.Ast.program

val run_file_io :
  ?total:int -> bufsz:int -> write:bool -> system -> float * run_result
(** Fig 6c/6d: sequential file throughput (virtual MB/s, raw result). *)

(** {1 Multi-core scaling} *)

val compute_prog : Occlum_toolchain.Ast.program
(** A pure CPU-bound SIP (no syscalls or clock reads in the hot loop):
    spins [argv0] iterations of integer arithmetic. *)

type scaling_result = {
  sc_cores : int;
  sc_sips : int;
  sc_vclock_ns : int64;
  sc_wall_s : float;
  sc_insns : int;  (** aggregate instructions retired across all SIPs *)
  sc_status : Os.run_status;
  sc_digest : string;
      (** [Os.state_digest] — for determinism differentials *)
}

val run_compute_scaling :
  ?sips:int -> ?iters:int -> cores:int -> system -> scaling_result
(** Run [sips] independent CPU-bound SIPs to completion on [cores]
    simulated vCPUs. Aggregate virtual-time throughput
    ([sc_insns] / [sc_vclock_ns]) across core counts is the multi-core
    scaling curve. *)
