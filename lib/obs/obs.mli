(** The observability switchboard. One [Obs.t] per enclave bundles a
    metrics registry, an event tracer and per-class enable flags; the
    LibOS, the SGX model, the interpreter's tiered loop and the I/O
    stacks all hold one and test a single boolean before doing any
    observability work — the disabled path costs one branch and the
    simulation (registers, memory, cycle counts, virtual clock) is
    bit-identical with tracing on or off. *)

(** Event classes, selectable with [--events=] on the CLI. *)
type cls =
  | Quantum  (** instruction-quantum start/end *)
  | Syscall  (** syscall enter/exit with number and latency *)
  | Sched  (** scheduler switches between SIPs *)
  | Lifecycle  (** spawn/exit, enclave create/init/destroy *)
  | Aex  (** asynchronous enclave exits and resumes *)
  | Page  (** page map/unmap (EADD/EAUG/EREMOVE) *)
  | Jit  (** block-JIT compile/hit/invalidate/deopt *)
  | Sefs  (** encrypted-FS reads/writes with byte counts *)
  | Net  (** network send/recv with byte counts *)
  | Cluster  (** quotes, attested channels, RPC retries, failover *)

val all_classes : cls list

val classes_of_string : string -> (cls list, string) result
(** Parse a comma-separated class list; ["all"] selects everything. *)

type t = {
  enabled : bool;
  trace : Trace.t;
  metrics : Metrics.registry;
  mutable now : unit -> int64;
      (** the virtual-clock time source; the LibOS installs its own *)
  t_quantum : bool;
  t_syscall : bool;
  t_sched : bool;
  t_life : bool;
  t_aex : bool;
  t_page : bool;
  t_jit : bool;
  t_sefs : bool;
  t_net : bool;
  t_cluster : bool;
}

val disabled : t
(** The shared no-op instance: [enabled] false, every class off, a
    zero-capacity ring. Default everywhere. *)

val create : ?capacity:int -> ?events:cls list -> unit -> t
(** An enabled instance recording the given classes (default: all) into
    a ring of [capacity] events (default 65536). *)

val emit : t -> Trace.kind -> unit
(** Record an event stamped [now ()]. The caller has already checked the
    class flag. *)

val emit_at : t -> ts:int64 -> Trace.kind -> unit

val report : t -> string
(** Text summary: metrics then trace statistics. *)
