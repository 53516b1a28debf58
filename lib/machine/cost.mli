(** The cycle cost model — one place for every constant so the Figure-7
    overhead benchmarks and their ablations share a single calibration.
    Loosely shaped on a Kaby Lake core: ALU ops cheap, memory dearer,
    MPX bound checks a couple of cycles including the extra address
    generation. *)

val alu : int
val mov : int
val load : int
val store : int
val push : int
val pop : int
val call : int
val ret : int
val bound_check : int
val div : int

val ewb : int
(** Per-page eviction: encrypt + MAC a 4 KiB page to the backing store. *)

val eldu : int
(** Per-page reload: verify + decrypt, plus the AEX/ERESUME round trip. *)

val variable_latency : Occlum_isa.Insn.t -> bool
(** True for instructions whose cycle count depends on operand values on
    real hardware (unsigned division/remainder here) — the ones the
    constant-time checker flags when an operand is secret-tainted. *)

val of_insn : Occlum_isa.Insn.t -> int
(** The cycle charge for one instruction — the single table both the
    reference loop and the JIT's compiled blocks charge from, so the two
    agree cycle-for-cycle. Privileged/LibOS-only opcodes cost 0
    (they still count as retired instructions). *)
