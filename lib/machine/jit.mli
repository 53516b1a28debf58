(** Block JIT, the tiered loop's only fast tier: every basic block
    ({!Decode_cache.build}) is translated the first time it runs into a
    chain of specialized OCaml closures — operands pre-resolved,
    guard+load / guard+store / guard+guard pairs fused over one
    effective-address computation, straight-line runs chained up to four
    instructions per unit — and replayed by {!Interp.run} when [?jit] is
    passed.

    Every unit has one compiled form with no internal checks. The
    interpreter runs it only when the remaining fuel covers the whole
    unit; otherwise it replays the unit's decoded instructions from
    [src] up to the boundary where the fuel ends. Compiled blocks keep
    the source block's page-generation snapshot for invalidation. Blocks
    on writable+executable pages (every LibOS SIP block: SGX1 code pages
    are RWX) get the same fusion, but each unit ends at its first
    memory-writing instruction, so the interpreter can revalidate right
    after every write. Each compiled block links to the successor the
    last lookup at its exit found ({!follow}).

    Every bound check in a block compiles to a checking body; the JIT
    never omits a check the verifier did not accept. *)

type stop =
  | Stop_syscall  (** reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum  (** fuel exhausted; SIP is preempted *)

type ustat = U_fall | U_stop of stop

type body = Mem.t -> Cpu.t -> ustat
(** One translated instruction or a whole unit: charges counters,
    executes, parks pc. Faults raise {!Fault.Fault}. *)

type compiled = {
  entry : int;
  src : Decode_cache.block;
      (** carries the generation snapshot, and the decoded instructions
          a unit's tail is replayed from *)
  units : body array;
  unit_insns : int array;  (** original instructions per unit *)
  revalidate : bool array;
      (** per unit: revalidate [src] before it — the block is fragile and
          the previous unit ends in a memory write *)
  writes : bool;
      (** some instruction writes memory; the interpreter's self-loop
          re-entry revalidates only such blocks *)
  mutable live : bool;  (** the code cache's current entry for [entry] *)
  mutable link : compiled;
      (** the successor found by the last {!lookup_from} at this block's
          exit; the block itself until then *)
}

type t

val create : ?max_blocks:int -> unit -> t
(** An empty code cache. [max_blocks] (default 4096) flushes it
    wholesale when full. *)

val insn_writes : Occlum_isa.Insn.t -> bool
(** The instruction writes memory ([Store], [Push], the calls,
    [Vscatter]). Within a block only these can move a page generation,
    so the interpreter revalidates a fragile block only after one. *)

val compile : Decode_cache.block -> compiled
(** Translate a block (total: every opcode compiles, privileged ones to
    charge-then-fault stubs). Exposed for tests and the compile-cost
    micro; {!translate} also builds the block and interns the result. *)

type lookup = Hit of compiled | Stale | Miss

val lookup : t -> Mem.t -> int -> lookup
(** Find valid compiled code at pc. A stale block (page generations
    moved) is dropped and reported so the interpreter can count the
    invalidation. *)

val lookup_from : t -> Mem.t -> compiled -> int -> lookup
(** [lookup_from t mem c pc] is [lookup t mem pc] at [c]'s exit; a hit
    becomes [c]'s link. *)

val follow : t -> Mem.t -> compiled -> int -> bool
(** [follow t mem c pc]: [c]'s link is the code cache's valid entry for
    [pc], i.e. exactly what {!lookup} would hit, and the hit is counted.
    A wholesale flush or a stale lookup unlinks every block it drops. *)

val note_hit : t -> unit
(** Count a hit that bypassed {!lookup} — the interpreter's self-loop
    re-entry when a block branches back to its own entry. *)

val translate : t -> Mem.t -> int -> compiled option
(** Build the block at pc, compile it and intern it, flushing the cache
    first if full. [None] when no block can be built there (the first
    instruction does not fetch or decode). Call it only after a lookup
    at pc missed or was stale. *)

val stats : t -> int * int * int
(** Lifetime [(compiles, hits, invalidations)]. *)
