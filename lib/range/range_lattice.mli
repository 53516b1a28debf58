(** The range-analysis abstract domain of §4.3/§5 Stage 4 and its
    transfer, shared by the toolchain's guard optimizer and the verifier
    so the two cannot drift apart: both step a state with
    {!guard_effect} and {!insn_effect}.

    A fact [(r, (lo, hi))] means "for every d in [lo, hi], the address
    (r + d) lies in D or a guard page": accessing it either succeeds
    inside D or faults in a guard page. An alias [(d, s, k)] records
    d = s + k so facts refresh through pointer copies. All interval
    arithmetic is clamped to ±{!clamp_bound}, keeping the lattice
    finite. *)

open Occlum_isa

val shift_limit : int
(** Constant add/sub larger than this kills a fact instead of shifting. *)

type state = {
  facts : (int * (int * int)) list;  (** reg -> interval [lo, hi] *)
  aliases : (int * int * int) list;  (** (d, s, k): d = s + k *)
}

val top : state
val equal : state -> state -> bool

val meet : state -> state -> state
(** Path merge: keeps only facts true on both paths. *)

val kill_reg : state -> int -> state

val covers : state -> int -> int -> int -> bool
(** [covers s base lo hi]: the facts prove [base+d] safe for all
    d in [lo, hi]. *)

val simple_sib : Insn.mem -> (int * int) option
(** An index-free SIB operand as (base register, displacement). *)

val sp : int
(** The stack pointer's register number. *)

val guard_redundant : state -> Insn.mem -> bool
(** A mem_guard on this operand is redundant: its operand is index-free
    and the state proves its whole 8-byte window. *)

val written_regs : Insn.t -> int list
(** The registers an instruction writes (a stack op writes {!sp}; an
    add of a constant counts as a write). *)

val guard_effect : Insn.mem -> state -> state
(** A mem_guard on the operand: its checked address is in D. *)

val insn_effect : Insn.t -> state -> state
(** The per-instruction transfer of both analyses: verified accesses
    refresh facts, constant add/sub shift them, moves copy them, any
    other register write kills them; a stack op models its access at
    [sp] and shifts [sp]. A syscall gate leaves the state alone (Stage 2
    rejects it before Stage 4 runs). *)
