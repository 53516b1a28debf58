(** Register conventions of the Occlum toolchain's code generator.

    - r0: function result
    - r1..r5: expression evaluation window (depth-allocated)
    - r6..r8: reg_vars, variables pinned to registers for a function
    - r9, r10: call/return scratch (trampoline target, popped return
      address)
    - r11: code base, set by the loader, never written by user code
    - r12: data base (D.begin), ditto
    - r13: unused
    - sp (r14): stack pointer
    - scr (r15): MMDSFI scratch, reserved for cfi_guard sequences *)

open Occlum_isa

val result : Reg.t
val depth_base : int
val call_scratch : Reg.t
val ret_scratch : Reg.t
val code_base : Reg.t
val data_base : Reg.t

val depth_reg : int -> Reg.t
(** The expression register of depth [d], r1..r5.
    @raise Invalid_argument past depth 5. *)

val reg_var : int -> Reg.t
(** The register pinned to a function's [i]th register variable, from
    r6. *)
