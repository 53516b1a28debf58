(** Enclave-backed isolated execution of a fuzzed OELF binary, with the
    MMDSFI containment policies asserted at runtime (the dynamic side of
    Theorems 5.2/5.3):

    - the pc never leaves the code region C (checked after every
      instruction);
    - a live, writable "victim" region where an adjacent SIP's domain
      would sit is never written, and C itself is never modified
      (audited periodically and at the end).

    The environment is a real {!Occlum_sgx.Enclave.t} (ECREATE/EADD/
    EINIT against its own EPC pool) holding the LibOS loader's image of
    the binary, so {!Occlum_sgx.Enclave.aex}/[resume] work against it.
    Every run, containment and every differential property in {!Check},
    goes through {!lockstep}. *)

open Occlum_machine

type violation =
  | Pc_escape of int
  | Victim_written
  | Code_modified
  | Resume_diverged of string
      (** an interrupt's AEX round trip did not restore the CPU *)

val violation_to_string : violation -> string

type env = {
  enclave : Occlum_sgx.Enclave.t;
  mem : Mem.t;
  cpu : Cpu.t;
  code_base : int;
  code_region : int;
  d_base : int;
  d_size : int;
  victim_base : int;
  victim_size : int;
  code_snapshot : Bytes.t;
}

val make : ?epc:Occlum_sgx.Epc.t -> ?code_perm:Mem.perm -> Occlum_oelf.Oelf.t -> env
(** Build and EINIT an enclave around the binary: the code and data
    images {!Occlum_libos.Loader.build} makes for domain 1 (EADDed, so
    measured as loaded), a sentinel-filled victim region one guard page
    past D, and a CPU set by {!Occlum_libos.Loader.init_cpu}. A fresh
    EPC pool is created unless [epc] is given. [code_perm] (default RWX,
    the historical fuzz mapping) is the code region's page permission;
    RX matches the LibOS loader and lets the block JIT compile
    non-fragile blocks. *)

val audit : env -> violation option
(** The end-of-run memory policy check (victim + code integrity). *)

(** {1 Lockstep engine}

    N machines run side by side from sync point to sync point; at each,
    one comparator checks every machine against the first. *)

(** Both tiers run through {!Interp.run}: [Reference] is its reference
    loop, [Tiered] its tiered loop (every block compiled by the block
    JIT at its first execution). *)
type tier = Reference | Tiered of Jit.t

(** An interrupt schedule, consulted once per boundary. On a firing,
    [round_trip = None] preempts ([Stop_quantum], a sync point);
    [Some rt] runs [rt] (an AEX round trip) before the instruction, and
    it must restore the architectural state bit-identically. *)
type interrupt = { fires : unit -> bool; round_trip : (env -> unit) option }

(** What a machine does on [Epc_miss] (not a sync point): the checked
    round trip [aex], then [reload] the page, then retry. The retried
    attempt of a data access is charged to [insns] again; it spends
    fuel only if [retry_spends_fuel]. Eight misses in a row with no
    instruction retired fail the run with
    ["pager made no progress at pc 0x..."]. *)
type pager = {
  reload : env -> page:int -> unit;
  aex : (env -> unit) option;
  retry_spends_fuel : bool;
}

type machine = {
  env : env;
  tier : tier;
  interrupt : interrupt option;
  pager : pager option;
}

val machine : env -> machine
(** Reference tier, no interrupt schedule, no pager. *)

(** What the machines legitimately differ in, which configures the
    comparator. [Identical]: every sync point compares pc, flags,
    registers, bounds, counters and retired instructions, and every one
    but a preemption also code, data and victim memory. [Paging] (paged
    vs unpaged): no counters, and memory only at the final stop, since a
    privileged read reloads evicted pages. [Layout] (an elided binary):
    no counters, retired instructions or code bytes, pc only at
    syscall/exit (inside the pinned trampoline), and a machine out of
    fuel ends the run uncompared. *)
type difference = Identical | Paging | Layout

type sync =
  | S_syscall of int  (** a non-exit syscall, then answered with 0 *)
  | S_exit
  | S_fault of Fault.t
  | S_preempt
  | S_fuel

val lockstep :
  differ:difference ->
  fuel:int ->
  ?perturb:(unit -> env -> unit) ->
  machine list ->
  (sync, string) result
(** Run every machine for at most [fuel] retired instructions. At each
    sync point all must stop alike and compare equal; after a syscall
    or preemption, [perturb] draws once and its action is applied to
    every machine. Returns the final sync point (exit, fault, fuel) or
    the first divergence. *)

val round_trip : scramble:Rng.t option -> env -> unit
(** AEX, then (with [scramble]) every register, bound, flag and the pc
    overwritten from the RNG as another SIP would, then resume. *)

val eldu : Occlum_sgx.Epc.t -> env -> page:int -> unit

val smc_flip : Rng.t -> code_region:int -> unit -> env -> unit
(** A [perturb]: one time in three, flip one byte past the trampoline. *)

val evict : Rng.t -> Occlum_sgx.Epc.t -> pages:int -> unit -> env -> unit
(** A [perturb]: one time in two, evict one of the first [pages]. *)

(** {1 Containment} *)

type outcome =
  | Exited          (** the program issued an exit syscall *)
  | Faulted of Fault.t  (** a contained stop: the policy held *)
  | Out_of_fuel

val run_contained :
  ?fuel:int ->
  ?interrupt:(unit -> bool) ->
  ?on_interrupt:(env -> unit) ->
  env ->
  (outcome, violation) result
(** Run one reference-tier machine on the engine, asserting pc
    containment after every instruction, auditing the victim
    periodically and {!audit}ing at the end; non-exit syscalls return 0
    through the trampoline. [interrupt] is consulted once per boundary;
    when it fires, [on_interrupt] (default: an
    {!Occlum_sgx.Enclave.aex}/[resume] round trip) runs before the
    instruction executes and must leave the CPU as it found it
    ([Resume_diverged] otherwise). *)
