(** Block JIT, the tiered loop's only fast tier: every basic block
    ({!Decode_cache.build}) is translated the first time it runs into
    one OCaml closure, its [body], and run whole by {!Interp.run} when
    [?jit] is passed. Operands are pre-resolved and addresses computed
    inline, guard+load / guard+store / guard+guard pairs are fused over
    one effective-address computation, pure-register runs are charged in
    bulk, a pure run and the load or store after it are one unit, so is
    each code-generator idiom around a load ([mov_imm ; load ; op ; mov],
    [mov_imm ; load ; cmp ; jcc]), and each instruction or unit
    tail-calls the next.

    A compiled block's counters are charged once, when {!Interp.run}
    enters it (from the [compiled] totals below): a unit's fast path
    computes only registers and memory, and only the block's end sets
    pc. The places a block can be observed mid-block are cold paths — a
    checked {!Mem} access that faults, a failing bound check, a division
    by zero, a privileged stub, the syscall gate and a stale exit — and
    each first takes back what the instructions after it charge and
    parks pc where the reference loop has it, so every observed state is
    {!Interp.step}'s exactly.

    The body has no internal fuel check. The interpreter runs it only
    when the remaining fuel covers the whole block; otherwise it replays
    the block's decoded instructions from [src] up to the boundary where
    the fuel ends. Compiled blocks keep the source block's
    page-generation snapshot for invalidation. Blocks on
    writable+executable pages (every LibOS SIP block: SGX1 code pages
    are RWX) get the same fusion; a write that takes the checked path
    there (a direct store never moves the epoch) compares
    {!Mem.code_epoch} across itself, unless it is the block's last
    instruction. When it moved, the body re-checks the block's
    generations and stops at the boundary after a write that made the
    block stale. Each compiled block links to the successor the last
    lookup at its exit found ({!follow}).

    A code cache is bound to one {!Mem.t} ({!create}): bodies capture it
    at translation, so a body and each unit's continuation take the CPU
    alone. Block entries (a lookup, a followed link, the interpreter's
    self-loop re-entry) compare the block's [valid_at] with
    {!Mem.code_epoch} and compare the generation snapshot only when the
    epoch moved ({!valid}).

    A block that writes no sp also gets a window body, in which each
    load and store of a stack slot ([sp+d]) skips its page check: the
    tiered loop runs it only when one test at block entry shows that
    every such access would pass the check, which nothing a block runs
    can make fail later ([window]).

    Every bound check in a block compiles to a checking body; the JIT
    never omits a check the verifier did not accept. *)

type stop =
  | Stop_syscall  (** reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum  (** fuel exhausted; SIP is preempted *)

type ustat =
  | U_fall  (** ran to the block's end *)
  | U_stop of stop
  | U_stale
      (** a write made the block stale (self-modifying code); pc and
          every counter are parked at the boundary after that write *)

type body = Cpu.t -> ustat
(** A whole translated block, run once its caller has charged the
    block's [insns], [cycles], [loads], [stores] and [bound_checks]:
    executes and sets pc at its end. Faults raise
    {!Fault.Fault} with the reference's state. It runs against the
    memory of the {!t} that compiled it. *)

type window = {
  lo : int;
  hi : int;
      (** the bytes [\[sp+lo, sp+hi)] that the block's loads and stores
          of stack slots touch *)
  need : int;
      (** the direct bits those accesses need: {!Mem.direct_read}, and
          {!Mem.direct_write} if one stores *)
  fast : body;
      (** the block's body with each of those accesses on the direct
          path, with no page test of its own. {!Interp.run} runs it in
          place of [body] when the window's entry test passes: the
          window lies in [\[0, addr_mask\]] and within one page whose
          {!Mem.direct} byte has every bit in [need]. Built from the
          same units as [body]. *)
}

type compiled = {
  entry : int;
  src : Decode_cache.block;
      (** carries the generation snapshot, and the decoded instructions
          a replay runs *)
  insns : int;  (** instructions in the block *)
  cycles : int;
  loads : int;
  stores : int;
  bound_checks : int;
      (** what the block's instructions charge ({!Cost.of_insn} and the
          reference's counts), which the caller charges before it runs
          [body] *)
  body : body;
  window : window option;
      (** the block's stack window; [None] when some instruction writes
          sp, or no load or store touches a stack slot ([sp+d], no
          index), or they span more than a page *)
  unit_starts : int array;
      (** the index of each fused unit's first instruction, in order:
          the layout the body was built from. Every memory write ends
          its unit. *)
  writes : bool;
      (** some instruction writes memory; the interpreter's self-loop
          re-entry revalidates only such blocks *)
  mutable valid_at : int;
      (** a {!Mem.code_epoch} at which the block was found valid. The
          epoch moves whenever a page generation does, so while it still
          reads [valid_at] the block is valid without a snapshot compare
          ({!valid}). *)
  mutable live : bool;  (** the code cache's current entry for [entry] *)
  mutable link : compiled;
      (** the successor found by the last {!lookup_from} at this block's
          exit; the block itself until then *)
}

type t

val create : ?max_blocks:int -> Mem.t -> t
(** An empty code cache over one memory: every block it compiles reads,
    writes and validates that memory, and {!Interp.run} refuses to run
    it against another. [max_blocks] (default 4096) flushes it wholesale
    when full. *)

val mem : t -> Mem.t
(** The memory the code cache is bound to. *)

val insn_writes : Occlum_isa.Insn.t -> bool
(** The instruction writes memory ([Store], [Push], the calls,
    [Vscatter]). Within a block only these can move a page generation,
    so a fragile block's body checks the code epoch only after one. *)

val compile : t -> Decode_cache.block -> compiled
(** Translate a block built from [t]'s memory, without interning it
    (total: every opcode compiles, privileged ones to stubs that stop
    with the reference's fault). Exposed for tests and the compile-cost
    micro; {!translate} also builds the block and interns the result. *)

val valid : t -> compiled -> bool
(** The block's generation snapshot still matches [t]'s memory: exactly
    {!Decode_cache.block_valid}, but the snapshot is compared only when
    {!Mem.code_epoch} moved since [valid_at], and a match moves
    [valid_at] up to the current epoch. *)

type lookup = Hit of compiled | Stale | Miss

val lookup : t -> int -> lookup
(** Find valid compiled code at pc. A stale block (page generations
    moved) is dropped and reported so the interpreter can count the
    invalidation. *)

val lookup_from : t -> compiled -> int -> lookup
(** [lookup_from t c pc] is [lookup t pc] at [c]'s exit; a hit becomes
    [c]'s link. *)

val follow : t -> compiled -> int -> bool
(** [follow t c pc]: [c]'s link is the code cache's valid entry for
    [pc], i.e. exactly what {!lookup} would hit, and the hit is counted.
    A wholesale flush or a stale lookup unlinks every block it drops. *)

val note_hit : t -> unit
(** Count a hit that bypassed {!lookup} — the interpreter's self-loop
    re-entry when a block branches back to its own entry. *)

val translate : t -> int -> compiled option
(** Build the block at pc, compile it and intern it, flushing the cache
    first if full. [None] when no block can be built there (the first
    instruction does not fetch or decode). Call it only after a lookup
    at pc missed or was stale. *)

val stats : t -> int * int * int
(** Lifetime [(compiles, hits, invalidations)]. *)
