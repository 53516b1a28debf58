(** The OASM instruction set: the simulated stand-in for x86-64 + MPX +
    SGX opcodes, deliberately shaped so that every row of the paper's
    verification tables exists here — Figure 3's four control-transfer
    categories, Figure 4's five memory-operand categories, and Stage 2's
    dangerous-instruction classes. *)

(** A memory operand. *)
type mem =
  | Sib of { base : Reg.t; index : Reg.t option; scale : int; disp : int }
      (** scale–index–base, the common form *)
  | Rip_rel of int  (** displacement from the end of the instruction *)
  | Abs of int64    (** direct memory offset; always rejected (Fig. 4) *)

type operand = O_reg of Reg.t | O_imm of int64

type alu_op = Add | Sub | Mul | Divu | Remu | And | Or | Xor | Shl | Shr
(** [Divu]/[Remu] are unsigned; division by zero faults. *)

type cond = Eq | Ne | Lt | Le | Gt | Ge
(** Signed comparisons over the flags set by [Cmp]. *)

(** Effective-address operand of a bound check: a register value
    (cfi_guard) or a memory operand's address (mem_guard). *)
type ea = Ea_reg of Reg.t | Ea_mem of mem

type t =
  | Nop
  | Mov_imm of Reg.t * int64
  | Mov_reg of Reg.t * Reg.t
  | Load of { dst : Reg.t; src : mem; size : int }  (** size 1 or 8 *)
  | Store of { dst : mem; src : Reg.t; size : int }
  | Push of Reg.t
  | Pop of Reg.t
  | Lea of Reg.t * mem
  | Alu of alu_op * Reg.t * operand
  | Cmp of Reg.t * operand
  | Jmp of int  (** direct, relative to the end of the instruction *)
  | Jcc of cond * int
  | Call of int
  | Jmp_reg of Reg.t   (** register-based indirect: needs a cfi_guard *)
  | Call_reg of Reg.t
  | Jmp_mem of mem     (** memory-based indirect: rejected (Fig. 3) *)
  | Call_mem of mem
  | Ret                (** return-based indirect: rejected (Fig. 3) *)
  | Ret_imm of int
  | Syscall_gate       (** the LibOS trampoline's gate; loader-only *)
  | Hlt
  | Bndcl of Reg.bnd * ea  (** MPX lower-bound check *)
  | Bndcu of Reg.bnd * ea  (** MPX upper-bound check *)
  | Bndmk of Reg.bnd * mem (** bound creation: dangerous (Stage 2) *)
  | Bndmov of Reg.bnd * Reg.bnd
  | Cfi_label of int32     (** the special 8-byte NOP; payload = domain id *)
  | Eexit
  | Emodpe
  | Eaccept
  | Xrstor
  | Wrfsbase of Reg.t
  | Wrgsbase of Reg.t
  | Vscatter of { base : Reg.t; index : Reg.t; scale : int; src : Reg.t }
      (** vector SIB: one instruction, many non-contiguous stores;
          rejected (Fig. 4) *)

(** {1 Stage-2 classification} *)

type danger =
  | Sgx_instruction   (** eexit / emodpe / eaccept *)
  | Mpx_modification  (** bndmk / bndmov *)
  | Misc_privileged   (** xrstor / wrfsbase / wrgsbase / hlt *)
  | Libos_gate        (** syscall_gate outside the loader's trampoline *)

val danger_of : t -> danger option

(** {1 Stage-3 classification (Figure 3)} *)

type control_transfer =
  | Ct_direct of { cond : bool; rel : int }
  | Ct_register of Reg.t
  | Ct_memory
  | Ct_return
  | Ct_none

val control_transfer_of : t -> control_transfer

(** {1 Register writes} *)

val written_regs : t -> Reg.t list
(** The registers an instruction writes: a stack op writes {!Reg.sp},
    an add of a constant counts as a write, and [wrfsbase]/[wrgsbase]
    count as writing their operand. *)

(** {1 Stage-4 classification (Figure 4)} *)

type mem_access =
  | Ma_sib of { base : Reg.t; index : Reg.t option; scale : int; disp : int;
                is_store : bool; size : int }
  | Ma_implicit of { push : bool }  (** push/pop through sp *)
  | Ma_rip_rel of { disp : int; is_store : bool; size : int }
  | Ma_direct_offset
  | Ma_vector_sib
  | Ma_none

val mem_access_of : t -> mem_access

(** {1 Printing} *)

val cond_name : cond -> string
val mem_to_string : mem -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
