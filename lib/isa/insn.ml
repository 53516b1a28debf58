(* The OASM instruction set.

   This is the simulated stand-in for x86-64 + MPX + SGX opcodes. It is
   deliberately shaped so that every row of the paper's verification
   tables exists here:

   Figure 3 (control transfers): direct [Jmp]/[Jcc]/[Call],
   register-based indirect [Jmp_reg]/[Call_reg], memory-based indirect
   [Jmp_mem]/[Call_mem], return-based [Ret]/[Ret_imm].

   Figure 4 (memory operands): SIB ([Mem.Sib]), implicit register-based
   ([Push]/[Pop]), RIP-relative ([Mem.Rip_rel]), direct memory offset
   ([Mem.Abs]), vector SIB ([Vscatter]).

   Stage-2 dangerous instructions: SGX ([Eexit]/[Emodpe]/[Eaccept]), MPX
   bound-modifying ([Bndmk]/[Bndmov]), miscellaneous ([Xrstor],
   [Wrfsbase]/[Wrgsbase]), plus the loader-only [Syscall_gate] and
   [Hlt]. *)

type mem =
  | Sib of { base : Reg.t; index : Reg.t option; scale : int; disp : int }
  | Rip_rel of int  (* displacement from the end of the instruction *)
  | Abs of int64    (* direct memory offset; always rejected by the verifier *)

type operand = O_reg of Reg.t | O_imm of int64

type alu_op = Add | Sub | Mul | Divu | Remu | And | Or | Xor | Shl | Shr

type cond = Eq | Ne | Lt | Le | Gt | Ge

(* Effective-address operand of a bound check: either the address already
   in a register (cfi_guard) or the effective address of a memory operand
   (mem_guard). *)
type ea = Ea_reg of Reg.t | Ea_mem of mem

type t =
  | Nop
  | Mov_imm of Reg.t * int64
  | Mov_reg of Reg.t * Reg.t
  | Load of { dst : Reg.t; src : mem; size : int }  (* size = 1 or 8 *)
  | Store of { dst : mem; src : Reg.t; size : int }
  | Push of Reg.t
  | Pop of Reg.t
  | Lea of Reg.t * mem
  | Alu of alu_op * Reg.t * operand
  | Cmp of Reg.t * operand
  | Jmp of int       (* relative to end of instruction *)
  | Jcc of cond * int
  | Call of int
  | Jmp_reg of Reg.t
  | Call_reg of Reg.t
  | Jmp_mem of mem
  | Call_mem of mem
  | Ret
  | Ret_imm of int
  | Syscall_gate     (* trampoline into the LibOS; loader-inserted only *)
  | Hlt
  | Bndcl of Reg.bnd * ea
  | Bndcu of Reg.bnd * ea
  | Bndmk of Reg.bnd * mem
  | Bndmov of Reg.bnd * Reg.bnd
  | Cfi_label of int32  (* the special 8-byte NOP; payload = domain id *)
  | Eexit
  | Emodpe
  | Eaccept
  | Xrstor
  | Wrfsbase of Reg.t
  | Wrgsbase of Reg.t
  | Vscatter of { base : Reg.t; index : Reg.t; scale : int; src : Reg.t }

(* --- Stage-2 classification: dangerous instructions ------------------- *)

type danger =
  | Sgx_instruction       (* eexit / emodpe / eaccept *)
  | Mpx_modification      (* bndmk / bndmov *)
  | Misc_privileged       (* xrstor / wrfsbase / wrgsbase / hlt *)
  | Libos_gate            (* syscall_gate: only the loader may insert it *)

let danger_of = function
  | Eexit | Emodpe | Eaccept -> Some Sgx_instruction
  | Bndmk _ | Bndmov _ -> Some Mpx_modification
  | Xrstor | Wrfsbase _ | Wrgsbase _ | Hlt -> Some Misc_privileged
  | Syscall_gate -> Some Libos_gate
  | Nop | Mov_imm _ | Mov_reg _ | Load _ | Store _ | Push _ | Pop _ | Lea _
  | Alu _ | Cmp _ | Jmp _ | Jcc _ | Call _ | Jmp_reg _ | Call_reg _
  | Jmp_mem _ | Call_mem _ | Ret | Ret_imm _ | Bndcl _ | Bndcu _
  | Cfi_label _ | Vscatter _ ->
      None

(* --- Stage-3 classification: control transfers (Figure 3) ------------- *)

type control_transfer =
  | Ct_direct of { cond : bool; rel : int }  (* target computable statically *)
  | Ct_register of Reg.t                     (* needs a cfi_guard *)
  | Ct_memory                                (* rejected *)
  | Ct_return                                (* rejected *)
  | Ct_none

let control_transfer_of = function
  | Jmp rel -> Ct_direct { cond = false; rel }
  | Call rel -> Ct_direct { cond = false; rel }
  | Jcc (_, rel) -> Ct_direct { cond = true; rel }
  | Jmp_reg r | Call_reg r -> Ct_register r
  | Jmp_mem _ | Call_mem _ -> Ct_memory
  | Ret | Ret_imm _ -> Ct_return
  | Nop | Mov_imm _ | Mov_reg _ | Load _ | Store _ | Push _ | Pop _ | Lea _
  | Alu _ | Cmp _ | Syscall_gate | Hlt | Bndcl _ | Bndcu _ | Bndmk _
  | Bndmov _ | Cfi_label _ | Eexit | Emodpe | Eaccept | Xrstor | Wrfsbase _
  | Wrgsbase _ | Vscatter _ ->
      Ct_none

(* --- Register writes ------------------------------------------------------ *)

(* A stack op writes sp; [wrfsbase]/[wrgsbase] count as writing their
   register, which errs on the safe side for every caller (they fault as
   privileged before writing anything). *)
let written_regs = function
  | Mov_imm (r, _) | Mov_reg (r, _) | Lea (r, _) | Alu (_, r, _)
  | Wrfsbase r | Wrgsbase r ->
      [ r ]
  | Load { dst; _ } -> [ dst ]
  | Pop r -> [ r; Reg.sp ]
  | Push _ | Ret | Ret_imm _ | Call _ | Call_reg _ | Call_mem _ -> [ Reg.sp ]
  | Cmp _ | Store _ | Jmp _ | Jcc _ | Jmp_reg _ | Jmp_mem _ | Nop
  | Syscall_gate | Hlt | Bndcl _ | Bndcu _ | Bndmk _ | Bndmov _
  | Cfi_label _ | Eexit | Emodpe | Eaccept | Xrstor | Vscatter _ ->
      []

(* --- Stage-4 classification: memory accesses (Figure 4) --------------- *)

type mem_access =
  | Ma_sib of { base : Reg.t; index : Reg.t option; scale : int; disp : int;
                is_store : bool; size : int }
  | Ma_implicit of { push : bool }  (* push/pop through sp *)
  | Ma_rip_rel of { disp : int; is_store : bool; size : int }
  | Ma_direct_offset                (* rejected *)
  | Ma_vector_sib                   (* rejected *)
  | Ma_none

let mem_access_of = function
  | Load { src = Sib { base; index; scale; disp }; size; _ } ->
      Ma_sib { base; index; scale; disp; is_store = false; size }
  | Store { dst = Sib { base; index; scale; disp }; size; _ } ->
      Ma_sib { base; index; scale; disp; is_store = true; size }
  | Load { src = Rip_rel disp; size; _ } -> Ma_rip_rel { disp; is_store = false; size }
  | Store { dst = Rip_rel disp; size; _ } -> Ma_rip_rel { disp; is_store = true; size }
  | Load { src = Abs _; _ } | Store { dst = Abs _; _ } -> Ma_direct_offset
  | Push _ -> Ma_implicit { push = true }
  | Pop _ -> Ma_implicit { push = false }
  | Vscatter _ -> Ma_vector_sib
  | Nop | Mov_imm _ | Mov_reg _ | Lea _ | Alu _ | Cmp _ | Jmp _ | Jcc _
  | Call _ | Jmp_reg _ | Call_reg _ | Jmp_mem _ | Call_mem _ | Ret
  | Ret_imm _ | Syscall_gate | Hlt | Bndcl _ | Bndcu _ | Bndmk _ | Bndmov _
  | Cfi_label _ | Eexit | Emodpe | Eaccept | Xrstor | Wrfsbase _
  | Wrgsbase _ ->
      Ma_none

(* Call and Ret also access the stack implicitly; the verifier treats the
   stack through the same SIB range analysis as push/pop. *)

(* --- Pretty printing --------------------------------------------------- *)

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Divu -> "divu"
  | Remu -> "remu" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr"

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let mem_to_string = function
  | Sib { base; index; scale; disp } ->
      let idx =
        match index with
        | None -> ""
        | Some i -> Printf.sprintf "+%s*%d" (Reg.name i) scale
      in
      Printf.sprintf "[%s%s%+d]" (Reg.name base) idx disp
  | Rip_rel d -> Printf.sprintf "[rip%+d]" d
  | Abs a -> Printf.sprintf "[abs 0x%Lx]" a

let operand_to_string = function
  | O_reg r -> Reg.name r
  | O_imm i -> Printf.sprintf "$%Ld" i

let ea_to_string = function
  | Ea_reg r -> Reg.name r
  | Ea_mem m -> mem_to_string m

let to_string = function
  | Nop -> "nop"
  | Mov_imm (r, i) -> Printf.sprintf "mov %s, $%Ld" (Reg.name r) i
  | Mov_reg (d, s) -> Printf.sprintf "mov %s, %s" (Reg.name d) (Reg.name s)
  | Load { dst; src; size } ->
      Printf.sprintf "load%d %s, %s" size (Reg.name dst) (mem_to_string src)
  | Store { dst; src; size } ->
      Printf.sprintf "store%d %s, %s" size (mem_to_string dst) (Reg.name src)
  | Push r -> Printf.sprintf "push %s" (Reg.name r)
  | Pop r -> Printf.sprintf "pop %s" (Reg.name r)
  | Lea (r, m) -> Printf.sprintf "lea %s, %s" (Reg.name r) (mem_to_string m)
  | Alu (op, d, o) ->
      Printf.sprintf "%s %s, %s" (alu_name op) (Reg.name d) (operand_to_string o)
  | Cmp (r, o) -> Printf.sprintf "cmp %s, %s" (Reg.name r) (operand_to_string o)
  | Jmp rel -> Printf.sprintf "jmp %+d" rel
  | Jcc (c, rel) -> Printf.sprintf "j%s %+d" (cond_name c) rel
  | Call rel -> Printf.sprintf "call %+d" rel
  | Jmp_reg r -> Printf.sprintf "jmp *%s" (Reg.name r)
  | Call_reg r -> Printf.sprintf "call *%s" (Reg.name r)
  | Jmp_mem m -> Printf.sprintf "jmp *%s" (mem_to_string m)
  | Call_mem m -> Printf.sprintf "call *%s" (mem_to_string m)
  | Ret -> "ret"
  | Ret_imm n -> Printf.sprintf "ret %d" n
  | Syscall_gate -> "syscall_gate"
  | Hlt -> "hlt"
  | Bndcl (b, ea) -> Printf.sprintf "bndcl %s, %s" (Reg.bnd_name b) (ea_to_string ea)
  | Bndcu (b, ea) -> Printf.sprintf "bndcu %s, %s" (Reg.bnd_name b) (ea_to_string ea)
  | Bndmk (b, m) -> Printf.sprintf "bndmk %s, %s" (Reg.bnd_name b) (mem_to_string m)
  | Bndmov (d, s) -> Printf.sprintf "bndmov %s, %s" (Reg.bnd_name d) (Reg.bnd_name s)
  | Cfi_label id -> Printf.sprintf "cfi_label <%ld>" id
  | Eexit -> "eexit"
  | Emodpe -> "emodpe"
  | Eaccept -> "eaccept"
  | Xrstor -> "xrstor"
  | Wrfsbase r -> Printf.sprintf "wrfsbase %s" (Reg.name r)
  | Wrgsbase r -> Printf.sprintf "wrgsbase %s" (Reg.name r)
  | Vscatter { base; index; scale; src } ->
      Printf.sprintf "vscatter [%s+%s*%d], %s" (Reg.name base) (Reg.name index)
        scale (Reg.name src)

let pp fmt i = Format.pp_print_string fmt (to_string i)
