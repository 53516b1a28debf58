(** The range-analysis abstract domain of §4.3/§5 Stage 4, shared by
    the toolchain's guard optimizer and the verifier so the two cannot
    drift apart.

    A fact [(r, (lo, hi))] means "for every d in [lo, hi], the address
    (r + d) lies in D or a guard page": accessing it either succeeds
    inside D or faults in a guard page. An alias [(d, s, k)] records
    d = s + k so facts refresh through pointer copies. All interval
    arithmetic is clamped to ±{!clamp_bound}, keeping the lattice
    finite. *)

open Occlum_isa

val slack : int
(** [guard_size - 1]: how far around a proven address D∪G extends. *)

val shift_limit : int
(** Constant add/sub larger than this kills a fact instead of shifting. *)

type state = {
  facts : (int * (int * int)) list;  (** reg -> interval [lo, hi] *)
  aliases : (int * int * int) list;  (** (d, s, k): d = s + k *)
}

val top : state
val normalize : state -> state
val equal : state -> state -> bool

val meet : state -> state -> state
(** Path merge: keeps only facts true on both paths. *)

val kill_reg : state -> int -> state

val shift_reg : state -> int -> int -> state
(** [shift_reg s r c]: r := r + c. *)

val copy_reg : state -> int -> int -> state
(** [copy_reg s d src]: d := src. *)

val set_anchor : state -> int -> int -> state
(** "base + anchor is proven in D" — from a guard or a verified access;
    propagates through aliases; hulls with overlapping intervals. *)

val covers : state -> int -> int -> int -> bool
(** [covers s base lo hi]: the facts prove [base+d] safe for all
    d in [lo, hi]. *)

val simple_sib : Insn.mem -> (int * int) option
(** An index-free SIB operand as (base register, displacement). *)

val sp : int
(** The stack pointer's register number. *)

val access : state -> Insn.mem -> size:int -> state
(** Model one memory access of [size] bytes: refresh if provable. *)

val push_effect : state -> state
(** Store at [sp-8], then sp -= 8. *)

val pop_effect : state -> Reg.t option -> state
(** Load at [sp], sp += 8, then kill the destination (if any). *)
