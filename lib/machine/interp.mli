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
  ?jit:Jit.t -> ?obs:Occlum_obs.Obs.t -> Mem.t -> Cpu.t -> fuel:int -> stop
(** Run until a stop condition or [fuel] executed instructions. A [?jit]
    runs only against the memory it was created over ({!Jit.create});
    any other raises [Invalid_argument] before an instruction retires.

    Two loops implement this. Without [?jit], the reference loop runs
    {!step} once per instruction; tests and fuzz properties compare the
    tiered loop against it. With [?jit], the tiered loop runs every
    basic block as one compiled closure from the JIT's code cache:
    hit → run the block's body; stale → invalidate, then translate again;
    miss → build and compile the block now ({!Jit.translate}) and run
    it; no block buildable at pc (the fetch faults or does not decode)
    → one {!step}, which raises the fault exactly as the reference
    does. A compiled block's exit first tries its link ({!Jit.follow}),
    which hits exactly when the lookup would. Every block entry checks
    validity against {!Mem.code_epoch} first ({!Jit.valid}): the
    generation snapshot is compared only when the epoch moved since the
    block was last found valid, so each validity outcome, and each JIT
    counter, is the one the snapshot alone gives.

    The tiered loop is architecturally bit-identical to the reference:
    the same per-instruction cycle charges and counters, the same fault
    points and payloads, and the same stop boundaries — fuzz property
    #8 (jit-equivalence) checks this. Every instruction boundary is
    consulted in one order: fuel check, then revalidation of a block on
    writable+executable pages (only at the boundary after a memory
    write that moved {!Mem.code_epoch}), then fetch or execute. A
    block's body runs only when the remaining fuel covers the whole
    block; when the fuel ends inside it, the loop replays the block's
    decoded instructions from its entry through the reference semantics
    up to the last boundary the fuel reaches. Fuel is therefore the
    only way to preempt the tiered loop, and it stops on the same
    boundary as the reference. A fault inside compiled code
    deopts to the interpreter's fault path, and writes to a JIT'd page
    invalidate its blocks through per-page generations. JIT
    compile/hit/invalidation/deopt totals accumulate into the {!Cpu.t}
    stats fields.

    With [?obs] (default {!Occlum_obs.Obs.disabled}), JIT trace events
    are emitted per block lookup when the [Jit] class is enabled.
    Observability never alters architectural state, counters or cycle
    charges. *)

val run_reference :
  ?interrupt:(unit -> unit) -> Mem.t -> Cpu.t -> fuel:int -> stop
(** The reference loop ([run] without [?jit]). With [?interrupt], the
    hook runs exactly once per executed instruction boundary, after the
    fuel check and before the fetch, modelling a hardware interrupt
    taken there; the fault-injection harness makes it an AEX round trip
    to force AEX storms. Only the reference loop takes a hook, and no
    hook preempts: in both loops, fuel is the only way to stop a run
    early. *)
