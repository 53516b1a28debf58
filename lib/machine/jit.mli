(** Block-JIT execution tier: hot decoded basic blocks (per
    {!Decode_cache.block.hot}) are translated once into chains of
    specialized OCaml closures — operands pre-resolved, guard+load /
    guard+store / guard+guard pairs fused over one effective-address
    computation, straight-line runs chained up to four instructions per
    unit — and replayed by {!Interp.run} when [?jit] is passed.

    A JIT owns its {!Decode_cache.t}: the cache builds the blocks it
    compiles and replays every block still below the promotion
    threshold.

    Every unit exists in two variants: [fast] (no internal checks; used
    only when the remaining fuel covers the whole unit and no interrupt
    hook is armed) and [safe] (re-checks fuel and consults the interrupt
    hook at every internal instruction boundary). Compiled blocks reuse
    the source block's page-generation snapshot for invalidation, and
    blocks on writable+executable pages compile to single-instruction
    units so the interpreter can revalidate between instructions.

    Every bound check in a block compiles to a checking body; the JIT
    never omits a check the verifier did not accept. *)

type stop =
  | Stop_syscall  (** reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum  (** fuel exhausted; SIP is preempted *)

type ustat = U_fall | U_stop of stop

type body = Mem.t -> Cpu.t -> ustat
(** One translated instruction (or a fast whole unit): charges counters,
    executes, parks pc. Faults raise {!Fault.Fault}. *)

type unit_fn = Mem.t -> Cpu.t -> int -> (unit -> bool) -> ustat
(** Safe unit: [f mem cpu fuel intr] with [fuel] the remaining fuel
    before the unit's first instruction and [intr] the interrupt hook
    consulted at each internal boundary. *)

type compiled = {
  entry : int;
  src : Decode_cache.block;  (** carries the generation snapshot *)
  units_fast : body array;
  units_safe : unit_fn array;
  unit_insns : int array;  (** original instructions per unit *)
  fragile : bool;  (** revalidate [src] between units when replaying *)
  writes : bool;
      (** some instruction writes memory; the interpreter's self-loop
          re-entry revalidates only such blocks *)
}

type t

val create : ?threshold:int -> ?max_blocks:int -> unit -> t
(** A fresh JIT over a fresh {!Decode_cache.t}. [threshold] (default 16)
    is the decode-cache replay count at which a block is promoted; [0]
    promotes every block at build, so all code runs compiled from its
    first execution. [max_blocks] (default 4096) flushes the code cache
    wholesale when full. *)

val decode_cache : t -> Decode_cache.t
(** The decode cache this JIT builds from and falls back to. *)

val compile : Decode_cache.block -> compiled
(** Translate a block (total: every opcode compiles, privileged ones to
    charge-then-fault stubs). Exposed for tests; use {!promote} to also
    intern the result. *)

type lookup = Hit of compiled | Stale | Miss

val lookup : t -> Mem.t -> int -> lookup
(** Find valid compiled code at pc. A stale block (page generations
    moved) is dropped and reported so the interpreter can count the
    invalidation. *)

val note_hit : t -> unit
(** Count a hit that bypassed {!lookup} — the interpreter's self-loop
    re-entry when a block branches back to its own entry. *)

val hot_enough : t -> Decode_cache.block -> bool

val promote : t -> Decode_cache.block -> compiled
(** Compile and intern the block, flushing the cache first if full. *)

val stats : t -> int * int * int
(** Lifetime [(compiles, hits, invalidations)]. *)
