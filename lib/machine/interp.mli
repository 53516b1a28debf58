(** The fetch/decode/execute loop. Runs untrusted SIP code; the LibOS is
    OCaml and interacts through {!Cpu} and {!Mem}. *)

type stop = Jit.stop =
  | Stop_syscall  (** reached a LibOS trampoline's syscall gate *)
  | Stop_fault of Fault.t  (** AEX: captured by the LibOS *)
  | Stop_quantum  (** fuel exhausted; the SIP is preempted *)

val stop_to_string : stop -> string

val step : Mem.t -> Cpu.t -> stop option
(** Execute exactly one instruction; [Some stop] when control leaves the
    interpreter. *)

val run :
  ?jit:Jit.t ->
  ?obs:Occlum_obs.Obs.t ->
  ?interrupt:(unit -> bool) ->
  Mem.t ->
  Cpu.t ->
  fuel:int ->
  stop
(** Run until a stop condition or [fuel] executed instructions.

    Two loops implement this. Without [?jit], the reference loop runs
    {!step} once per instruction; tests and fuzz properties compare the
    tiered loop against it. With [?jit], the tiered loop runs every
    basic block as compiled closure chains from the JIT's code cache:
    hit → compiled replay; stale → invalidate, then translate again;
    miss → build and compile the block now ({!Jit.translate}) and run
    it; no block buildable at pc (the fetch faults or does not decode)
    → one {!step}, which raises the fault exactly as the reference
    does. A compiled block's exit first tries its link ({!Jit.follow}),
    which hits exactly when the lookup would.

    The tiered loop is architecturally bit-identical to the reference:
    the same per-instruction cycle charges and counters, the same fault
    points and payloads, and the same stop boundaries — fuzz property
    #8 (jit-equivalence) checks this. Every instruction boundary is
    consulted in one order: fuel check, then revalidation of a block on
    writable+executable pages (only at the boundary after a memory
    write), then the interrupt hook, then fetch or replay. A fault
    inside compiled code deopts to the interpreter's fault path, and
    writes to a JIT'd page invalidate its blocks through per-page
    generations. JIT compile/hit/invalidation/deopt totals accumulate
    into the {!Cpu.t} stats fields.

    With [?obs] (default {!Occlum_obs.Obs.disabled}), JIT trace events
    are emitted per block lookup when the [Jit] class is enabled.
    Observability never alters architectural state, counters or cycle
    charges.

    With [?interrupt], the hook is consulted exactly once per executed
    instruction boundary, in the order above, in both loops, so a
    deterministic counter-based schedule fires at identical boundaries
    either way. Returning [true] preempts the run with
    [Stop_quantum] and the pc parked on the boundary, modelling a
    hardware interrupt (the AEX cause); the fault-injection harness uses
    this to force AEX storms. Without [?interrupt] no hook is called,
    and compiled units run their check-free fast variant whenever the
    remaining fuel covers them. *)
