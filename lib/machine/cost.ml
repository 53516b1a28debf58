(* Cycle cost model. One place holds every constant so the SPEC-style
   overhead benchmarks (Fig. 7) and the ablations are driven by a single
   calibration. Values are loosely shaped on a Kaby Lake core: ALU ops
   are cheap, memory traffic costs more, bound checks are one cheap uop
   each (the reason MPX-based SFI is viable at ~36% overhead). *)

let alu = 1
let mov = 1
let load = 4 (* L1 hit latency-ish *)
let store = 2
let push = 3
let pop = 4
let lea = 1
let branch = 2
let branch_indirect = 6
let call = 4
let ret = 5
let bound_check = 2 (* check itself plus the extra address generation *)
let cfi_label = 1 (* an 8-byte nop still occupies a slot *)
let nop = 1
let syscall_gate = 60 (* enter/leave the LibOS: stack + TLS switch, sanity checks *)
let div = 20

(* EPC paging: EWB encrypts + MACs a 4 KiB page out to untrusted memory,
   ELDU verifies + decrypts it back and additionally pays the AEX/ERESUME
   round trip that delivered the fault. Both are flat per-page charges so
   the "overhead vs. EPC size" curve is a pure function of the fault
   count — the dramatic-but-deterministic paging cost §2 alludes to. *)
let ewb = 12_000
let eldu = 14_000

(* The cycle charge of one instruction. Both interpreter loops — the
   decode-every-time reference loop and the JIT's compiled blocks —
   charge through this single function, so compilation can never
   perturb the cycle accounting the Fig. 5/7 results are built on. Privileged instructions
   stop execution before being charged, so they map to 0 here. *)
(* Instructions whose cycle count depends on operand *values* on real
   hardware (division latency varies with dividend magnitude). The
   constant-time checker flags these when an operand is secret-tainted:
   even with straight-line code, their timing leaks through the port. *)
let variable_latency (i : Occlum_isa.Insn.t) =
  match i with Alu ((Divu | Remu), _, _) -> true | _ -> false

let of_insn (i : Occlum_isa.Insn.t) =
  match i with
  | Nop -> nop
  | Cfi_label _ -> cfi_label
  | Mov_imm _ | Mov_reg _ -> mov
  | Load _ -> load
  | Store _ -> store
  | Push _ -> push
  | Pop _ -> pop
  | Lea _ -> lea
  | Alu ((Divu | Remu), _, _) -> div
  | Alu _ | Cmp _ -> alu
  | Jmp _ | Jcc _ -> branch
  | Call _ -> call
  | Jmp_reg _ | Call_reg _ | Jmp_mem _ | Call_mem _ -> branch_indirect
  | Ret | Ret_imm _ -> ret
  | Bndcl _ | Bndcu _ -> bound_check
  | Syscall_gate -> syscall_gate
  | Vscatter _ -> store * 4
  | Hlt | Bndmk _ | Bndmov _ | Eexit | Emodpe | Eaccept | Xrstor
  | Wrfsbase _ | Wrgsbase _ ->
      0
