(* Block JIT: translate every decoded basic block into one pre-built
   OCaml closure the first time it runs.

   In [Interp.run]'s tiered loop, a lookup miss (or a stale hit) at a
   block boundary forms the block ([Decode_cache.build]) and compiles
   it here at once, as a DBT code cache copies each block before its
   first run. Each instruction is translated into a specialized closure
   with its operands pre-resolved (register indices, immediates, cycle
   cost, target pcs) that ends by tail-calling the next one, and
   consecutive instructions are fused into superinstruction units —
   guard+load / guard+store / guard+guard pairs share one
   effective-address computation, and pure-register runs are charged in
   bulk. The block's [body] is the first unit: calling it runs the
   whole block.

   Equivalence contract (checked by fuzz property #8 and test_jit):
   every closure replicates [Interp.exec_decoded]'s architectural
   effects exactly — the same counter charges in the same order, the
   same fault payloads and fault-atomicity, the same pc parking. The
   body has no internal fuel check: the interpreter runs it only when
   the remaining fuel covers the whole block, and otherwise replays the
   block's decoded instructions ([src.insns]) through
   [Interp.exec_decoded], so a quantum ends on the same boundary as in
   the reference loop.

   Invalidation: a compiled block keeps its source block's
   page-generation snapshot and is dropped when a lookup finds the
   generations moved. Blocks spanning a writable+executable page
   ("fragile": every LibOS SIP block, since SGX1 code pages are RWX) get
   the same fusion, but each unit ends at its first memory-writing
   instruction: within a block only such an instruction can move a page
   generation, and every move also moves [Mem.code_epoch]. So the body
   compares the epoch across each writing unit and, if it moved,
   re-checks the block's generations: a write to some other executable
   page runs on, and one that made the block stale stops at the
   boundary after it, where self-modifying code deopts to a fresh
   translation on the very next fetch.

   Binding: a [t] serves one memory, captured by every closure at
   translation, so a body and each continuation take the CPU alone — a
   unit's tail call is a one-argument call, never [caml_applyN]. Each
   compiled block records a code epoch at which it was found valid;
   while the epoch still reads it no page generation moved, so a lookup,
   a followed link or a self-loop re-entry compares one int and compares
   the generation snapshot only after the epoch moved ([valid]).

   Block linking: each compiled block remembers the last successor a
   lookup found at its exit. Following that link is exactly a lookup hit
   — the target must still be the table's entry for the pc ([live]) and
   still valid — so the JIT counters do not depend on it.

   Translation never drops a bound check: every bndcl/bndcu in the
   block compiles to a checking body. The only way to run with fewer
   checks is to run a binary the verifier re-accepted without them (the
   output of [Occlum_analysis.Elide.run]). *)

open Occlum_isa

type stop =
  | Stop_syscall
  | Stop_fault of Fault.t
  | Stop_quantum

(* how a block's body returned: it ran to the block's end, it stopped,
   or a write made the block stale and it parked at the boundary after
   that write *)
type ustat = U_fall | U_stop of stop | U_stale

type body = Cpu.t -> ustat
(* one translated instruction, unit or the whole block: charge, execute,
   park pc, run on; faults raise. The memory is the JIT's, bound at
   translation, so every continuation is a one-argument call. *)

type compiled = {
  entry : int;
  src : Decode_cache.block;
      (* the generation snapshot, and the decoded instructions a replay
         runs *)
  insns : int; (* instructions in the block *)
  body : body;
  unit_starts : int array;
      (* the first instruction index of each unit, in order; a fragile
         block's body checks the code epoch at each unit boundary after
         a write *)
  writes : bool;
      (* some instruction writes memory, so the block could invalidate
         itself (a store into its own executable page) — the self-loop
         re-entry must check its generations *)
  mutable valid_at : int;
      (* a [Mem.code_epoch] at which the block was found valid: while
         the epoch still reads it, no page generation has moved *)
  mutable live : bool; (* the table's current entry for [entry] *)
  mutable link : compiled;
      (* the successor the last lookup at this block's exit found;
         the block itself until then *)
}

(* keyed by entry pc: a lookup hashes and compares without a C call *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (pc : int) = pc
end)

type t = {
  mem : Mem.t; (* the memory every body reads, writes and validates *)
  tbl : compiled Tbl.t;
  max_blocks : int;
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
}

let create ?(max_blocks = 4096) mem =
  {
    mem;
    tbl = Tbl.create 256;
    max_blocks;
    compiles = 0;
    hits = 0;
    invalidations = 0;
  }

(* ---- translation helpers (must mirror Interp exactly) ----

   Host-cost rule for everything a body runs per instruction: the
   library may be built with [-opaque] (dune's dev profile), which stops
   every cross-module call from inlining. So a hot-path helper is either
   defined here, small and [@inline], or an [external] ([Cpu.get64],
   [Cpu.set64], [Reg.to_int]). Register values stay unboxed and no
   [int64] crosses a closure boundary, so a body allocates nothing
   unless it faults or falls back to a checked [Mem] accessor. *)

let addr_mask = 0xFF_FFFF_FFFFL

let[@inline] unsigned_lt a b =
  Int64.compare (Int64.sub a Int64.min_int) (Int64.sub b Int64.min_int) < 0

let[@inline] off r = Reg.to_int r lsl 3 (* a register's byte offset in [regs] *)
let[@inline] get (cpu : Cpu.t) o = Cpu.get64 cpu.Cpu.regs o
let[@inline] set (cpu : Cpu.t) o v = Cpu.set64 cpu.Cpu.regs o v
let sp_o = off Reg.sp

let[@inline] charge (cpu : Cpu.t) cost =
  cpu.Cpu.insns <- cpu.Cpu.insns + 1;
  cpu.Cpu.cycles <- cpu.Cpu.cycles + cost

let[@inline] clamp v =
  if Int64.compare (Int64.logand v addr_mask) v <> 0 then Int64.to_int addr_mask
  else Int64.to_int v

(* A 40-bit address from a register or loaded value: stack slots and
   indirect branch targets (no clamp, as in the interpreter) *)
let[@inline] masked v = Int64.to_int (Int64.logand v addr_mask)

(* bndcl/bndcu: count the check, raise the reference's fault *)
let[@inline] bound_check (cpu : Cpu.t) bi lower v =
  cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + 1;
  let bd = cpu.Cpu.bnds.(bi) in
  if if lower then unsigned_lt v bd.Cpu.lower else unsigned_lt bd.Cpu.upper v
  then raise (Fault.Fault (Bound_fault { bnd = bi; value = v }))

(* The page check. An access [a, a+size) within one page whose
   [Mem.direct] byte has [bit] set behaves exactly like the checked
   accessor (no fault, no side effect, no generation bump), so it touches
   [Mem.data] directly; any other access takes the checked accessor,
   which raises the identical fault. [a] is a clamped address, never
   negative. The page size is a literal so this compiles to a shift and
   a mask. *)
let page_shift = 12
let () = assert (Mem.page_size = 1 lsl page_shift)
let rd = Mem.direct_read
let wr = Mem.direct_write

let[@inline] direct (mem : Mem.t) a size bit =
  a land ((1 lsl page_shift) - 1) <= (1 lsl page_shift) - size
  && a lsr page_shift < Bytes.length mem.Mem.direct
  && Char.code (Bytes.unsafe_get mem.Mem.direct (a lsr page_shift)) land bit
     <> 0

let[@inline] load8 mem a =
  if direct mem a 1 rd then Char.code (Bytes.unsafe_get mem.Mem.data a)
  else Mem.read_u8 mem a

(* A 64-bit load lands in its register (or, masked, in pc) inside each
   branch: a helper returning the [int64] from a branch that calls [Mem]
   would box it. *)
let[@inline] load64_to cpu o mem a =
  if direct mem a 8 rd then set cpu o (Bytes.get_int64_le mem.Mem.data a)
  else set cpu o (Mem.read_u64 mem a)

let[@inline] load_addr mem a =
  if direct mem a 8 rd then masked (Bytes.get_int64_le mem.Mem.data a)
  else masked (Mem.read_u64 mem a)

let[@inline] store8 mem a v =
  if direct mem a 1 wr then
    Bytes.unsafe_set mem.Mem.data a (Char.unsafe_chr (v land 0xFF))
  else Mem.write_u8 mem a v

let[@inline] store64 mem a v =
  if direct mem a 8 wr then Bytes.set_int64_le mem.Mem.data a v
  else Mem.write_u64 mem a v

(* Effective address, pre-resolved. Sib/Abs do not depend on end_pc;
   Rip_rel folds to a constant. Mirrors [Interp.effective_address]. *)
let compile_ea (m : Insn.mem) ~end_pc : Cpu.t -> int =
  match m with
  | Sib { base; index = None; scale = _; disp } ->
      let bo = off base and d = Int64.of_int disp in
      fun cpu -> clamp (Int64.add (get cpu bo) d)
  | Sib { base; index = Some r; scale; disp } ->
      let bo = off base and io = off r in
      let s = Int64.of_int scale and d = Int64.of_int disp in
      fun cpu ->
        clamp (Int64.add (Int64.add (get cpu bo) (Int64.mul (get cpu io) s)) d)
  | Rip_rel disp ->
      let a = clamp (Int64.of_int (end_pc + disp)) in
      fun _ -> a
  | Abs v ->
      let a = clamp v in
      fun _ -> a

let compile_cond (c : Insn.cond) : bool -> bool -> bool =
  match c with
  | Eq -> fun eq _ -> eq
  | Ne -> fun eq _ -> not eq
  | Lt -> fun _ lt -> lt
  | Le -> fun eq lt -> lt || eq
  | Gt -> fun eq lt -> not (lt || eq)
  | Ge -> fun _ lt -> not lt

(* ---- pure-register cores ---- *)

(* A "core" is the architectural effect of a register-only instruction
   that can neither fault nor touch memory: no counter charges, no pc
   parking. [compile_body] wraps one in a charge and a park; a pure run
   chains several under one bulk charge (see [pure_unit]). *)
let core_of (insn : Insn.t) : (Cpu.t -> unit) option =
  match insn with
  | Nop -> Some (fun _ -> ())
  | Mov_imm (d, v) ->
      let dO = off d in
      Some (fun cpu -> set cpu dO v)
  | Mov_reg (d, s) ->
      let dO = off d and so = off s in
      Some (fun cpu -> set cpu dO (get cpu so))
  | Alu (op, d, o) -> (
      let dO = off d in
      match (op, o) with
      | Add, O_imm v -> Some (fun cpu -> set cpu dO (Int64.add (get cpu dO) v))
      | Sub, O_imm v -> Some (fun cpu -> set cpu dO (Int64.sub (get cpu dO) v))
      | Mul, O_imm v -> Some (fun cpu -> set cpu dO (Int64.mul (get cpu dO) v))
      | And, O_imm v ->
          Some (fun cpu -> set cpu dO (Int64.logand (get cpu dO) v))
      | Or, O_imm v -> Some (fun cpu -> set cpu dO (Int64.logor (get cpu dO) v))
      | Xor, O_imm v ->
          Some (fun cpu -> set cpu dO (Int64.logxor (get cpu dO) v))
      | Shl, O_imm v ->
          let n = Int64.to_int v land 63 in
          Some (fun cpu -> set cpu dO (Int64.shift_left (get cpu dO) n))
      | Shr, O_imm v ->
          let n = Int64.to_int v land 63 in
          Some
            (fun cpu -> set cpu dO (Int64.shift_right_logical (get cpu dO) n))
      | Add, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.add (get cpu dO) (get cpu ro)))
      | Sub, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.sub (get cpu dO) (get cpu ro)))
      | Mul, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.mul (get cpu dO) (get cpu ro)))
      | And, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.logand (get cpu dO) (get cpu ro)))
      | Or, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.logor (get cpu dO) (get cpu ro)))
      | Xor, O_reg r ->
          let ro = off r in
          Some (fun cpu -> set cpu dO (Int64.logxor (get cpu dO) (get cpu ro)))
      | Shl, O_reg r ->
          let ro = off r in
          Some
            (fun cpu ->
              set cpu dO
                (Int64.shift_left (get cpu dO)
                   (Int64.to_int (get cpu ro) land 63)))
      | Shr, O_reg r ->
          let ro = off r in
          Some
            (fun cpu ->
              set cpu dO
                (Int64.shift_right_logical (get cpu dO)
                   (Int64.to_int (get cpu ro) land 63)))
      | (Divu | Remu), _ -> None (* can fault: needs a full body *))
  | Cmp (a, O_imm v) ->
      let ao = off a in
      Some
        (fun cpu ->
          let x = get cpu ao in
          cpu.Cpu.flag_eq <- Int64.equal x v;
          cpu.Cpu.flag_lt <- Int64.compare x v < 0)
  | Cmp (a, O_reg r) ->
      let ao = off a and ro = off r in
      Some
        (fun cpu ->
          let x = get cpu ao and y = get cpu ro in
          cpu.Cpu.flag_eq <- Int64.equal x y;
          cpu.Cpu.flag_lt <- Int64.compare x y < 0)
  | _ -> None

(* Translate one instruction spanning [pc, pc+len). Total: every opcode
   compiles (privileged ones to a charge-then-fault stub, exactly as the
   interpreter charges before classifying them). *)
let compile_body (mem : Mem.t) (insn : Insn.t) ~pc ~len ~(k : body) : body =
  let end_pc = pc + len in
  let cost = Cost.of_insn insn in
  let priv name =
    fun (cpu : Cpu.t) ->
      charge cpu cost;
      U_stop (Stop_fault (Privileged { addr = pc; insn = name }))
  in
  let guard lower b (ea : Insn.ea) =
    let bi = Reg.bnd_to_int b in
    match ea with
    | Ea_reg r ->
        let ro = off r in
        fun (cpu : Cpu.t) ->
          charge cpu cost;
          bound_check cpu bi lower (get cpu ro);
          cpu.Cpu.pc <- end_pc;
          k cpu
    | Ea_mem m ->
        let ea_f = compile_ea m ~end_pc in
        fun (cpu : Cpu.t) ->
          charge cpu cost;
          bound_check cpu bi lower (Int64.of_int (ea_f cpu));
          cpu.Cpu.pc <- end_pc;
          k cpu
  in
  match insn with
  | Nop | Cfi_label _ ->
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Mov_imm (r, v) ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        set cpu ro v;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Mov_reg (d, s) ->
      let dO = off d and so = off s in
      fun cpu ->
        charge cpu cost;
        set cpu dO (get cpu so);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Load { dst; src; size } ->
      let dO = off dst in
      let ea_f = compile_ea src ~end_pc in
      if size = 1 then fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        set cpu dO (Int64.of_int (load8 mem (ea_f cpu)));
        cpu.Cpu.pc <- end_pc;
        k cpu
      else fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        load64_to cpu dO mem (ea_f cpu);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Store { dst; src; size } ->
      let so = off src in
      let ea_f = compile_ea dst ~end_pc in
      if size = 1 then fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store8 mem (ea_f cpu) (Int64.to_int (get cpu so));
        cpu.Cpu.pc <- end_pc;
        k cpu
      else fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store64 mem (ea_f cpu) (get cpu so);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Push r ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        (* store before the sp update: fault atomicity *)
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) (get cpu ro);
        set cpu sp_o sp;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Pop r ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        load64_to cpu ro mem (masked sp);
        (* [pop sp] keeps the loaded value, as in the interpreter *)
        if ro <> sp_o then set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Lea (r, m) ->
      let ro = off r in
      let ea_f = compile_ea m ~end_pc in
      fun cpu ->
        charge cpu cost;
        set cpu ro (Int64.of_int (ea_f cpu));
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Alu (Add, d, O_imm v) ->
      let dO = off d in
      fun cpu ->
        charge cpu cost;
        set cpu dO (Int64.add (get cpu dO) v);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Alu (Add, d, O_reg r) ->
      let dO = off d and ro = off r in
      fun cpu ->
        charge cpu cost;
        set cpu dO (Int64.add (get cpu dO) (get cpu ro));
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Alu (Sub, d, O_imm v) ->
      let dO = off d in
      fun cpu ->
        charge cpu cost;
        set cpu dO (Int64.sub (get cpu dO) v);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Alu (((Divu | Remu) as op), d, o) ->
      let dO = off d and rem = op = Remu in
      (* [so] < 0: the divisor is the immediate *)
      let so = match o with O_reg r -> off r | O_imm _ -> -1 in
      let imm = match o with O_imm v -> v | O_reg _ -> 0L in
      fun cpu ->
        charge cpu cost;
        let b = if so < 0 then imm else get cpu so in
        if Int64.equal b 0L then raise (Fault.Fault (Div_by_zero { addr = pc }));
        let a = get cpu dO in
        set cpu dO
          (if rem then Int64.unsigned_rem a b else Int64.unsigned_div a b);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Alu _ | Cmp _ -> (
      match core_of insn with
      | Some core ->
          fun cpu ->
            charge cpu cost;
            core cpu;
            cpu.Cpu.pc <- end_pc;
            k cpu
      | None -> assert false)
  | Jmp rel ->
      let tgt = end_pc + rel in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- tgt;
        k cpu
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      let decide = compile_cond c in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <-
          (if decide cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc);
        k cpu
  | Call rel ->
      let tgt = end_pc + rel in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- tgt;
        k cpu
  | Jmp_reg r ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- masked (get cpu ro);
        k cpu
  | Call_reg r ->
      let ro = off r in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- masked (get cpu ro);
        k cpu
  | Jmp_mem m ->
      let ea_f = compile_ea m ~end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        cpu.Cpu.pc <- load_addr mem (ea_f cpu);
        k cpu
  | Call_mem m ->
      let ea_f = compile_ea m ~end_pc in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let target = load_addr mem (ea_f cpu) in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- target;
        k cpu
  | Ret ->
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        let target = load_addr mem (masked sp) in
        set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- target;
        k cpu
  | Ret_imm n ->
      let adj = Int64.of_int n in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; sp commits only afterwards *)
        let sp = get cpu sp_o in
        let target = load_addr mem (masked sp) in
        set cpu sp_o (Int64.add (Int64.add sp 8L) adj);
        cpu.Cpu.pc <- target;
        k cpu
  | Bndcl (b, ea) -> guard true b ea
  | Bndcu (b, ea) -> guard false b ea
  | Syscall_gate ->
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- end_pc;
        U_stop Stop_syscall
  | Hlt -> priv "hlt"
  | Bndmk _ -> priv "bndmk"
  | Bndmov _ -> priv "bndmov"
  | Eexit -> priv "eexit"
  | Emodpe -> priv "emodpe"
  | Eaccept -> priv "eaccept"
  | Xrstor -> priv "xrstor"
  | Wrfsbase _ -> priv "wrfsbase"
  | Wrgsbase _ -> priv "wrgsbase"
  | Vscatter { base; index; scale; src } ->
      let bo = off base and io = off index and so = off src in
      let s = Int64.of_int scale in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 4;
        let b = get cpu bo and i = get cpu io in
        for lane = 0 to 3 do
          let a = Int64.add b (Int64.mul (Int64.add i (Int64.of_int lane)) s) in
          store64 mem (masked a) (get cpu so)
        done;
        cpu.Cpu.pc <- end_pc;
        k cpu

(* ---- superinstructions ---- *)

(* guard+memory superinstruction: a bndcl/bndcu over a Sib/Abs operand
   followed by a load/store/guard with the structurally identical
   operand computes the effective address once. Rip_rel is excluded —
   its address depends on each instruction's own end pc. *)

type second =
  | S_load of Reg.t * int
  | S_store of Reg.t * int
  | S_guard of bool * Reg.bnd (* lower?, register *)

(* The pair's guard half: charge, check, park; returns the shared
   effective address. Closed and [@inline], so each fused body below
   runs it without a call. *)
let[@inline] guard_half (cpu : Cpu.t) ea_f ~cost1 ~bi1 ~lower1 ~pc2 =
  charge cpu cost1;
  let a = ea_f cpu in
  bound_check cpu bi1 lower1 (Int64.of_int a);
  cpu.Cpu.pc <- pc2;
  a

let fuse_guard_mem (mem : Mem.t) ~lower1 ~b1 ~m ~pc1 ~len1 ~cost1
    ~(second : second) ~len2 ~cost2 ~(k : body) : body =
  let pc2 = pc1 + len1 in
  let end2 = pc2 + len2 in
  let bi1 = Reg.bnd_to_int b1 in
  let ea_f = compile_ea m ~end_pc:pc2 in
  match second with
  | S_load (dst, size) ->
      let dO = off dst in
      if size = 1 then fun cpu ->
        let a = guard_half cpu ea_f ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        set cpu dO (Int64.of_int (load8 mem a));
        cpu.Cpu.pc <- end2;
        k cpu
      else fun cpu ->
        let a = guard_half cpu ea_f ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        load64_to cpu dO mem a;
        cpu.Cpu.pc <- end2;
        k cpu
  | S_store (src, size) ->
      let so = off src in
      if size = 1 then fun cpu ->
        let a = guard_half cpu ea_f ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store8 mem a (Int64.to_int (get cpu so));
        cpu.Cpu.pc <- end2;
        k cpu
      else fun cpu ->
        let a = guard_half cpu ea_f ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store64 mem a (get cpu so);
        cpu.Cpu.pc <- end2;
        k cpu
  | S_guard (lower2, b2) ->
      let bi2 = Reg.bnd_to_int b2 in
      fun cpu ->
        let a = guard_half cpu ea_f ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        bound_check cpu bi2 lower2 (Int64.of_int a);
        cpu.Cpu.pc <- end2;
        k cpu

(* ---- pure-register superinstructions ---- *)

(* A maximal run of cores compiles into one unit that charges
   [insns]/[cycles] in bulk and executes the cores back to back — legal
   because a body only runs when the remaining fuel covers the whole
   block, and a pure run cannot fault or write, so there is no
   observation point inside the run. *)

(* A direct branch as the run's tail: it only sets pc, so fusing it
   (cmp+branch is the classic pair) costs nothing extra. *)
let term_core_of (insn : Insn.t) ~end_pc : (Cpu.t -> unit) option =
  match insn with
  | Jmp rel ->
      let tgt = end_pc + rel in
      Some (fun cpu -> cpu.Cpu.pc <- tgt)
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      let decide = compile_cond c in
      Some
        (fun cpu ->
          cpu.Cpu.pc <-
            (if decide cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc))
  | _ -> None

(* Flatten a core list into one closure, unrolled for the common short
   runs so the per-iteration call count stays minimal. *)
let rec seq_cores = function
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ a; b ] ->
      fun cpu ->
        a cpu;
        b cpu
  | [ a; b; c ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu
  | [ a; b; c; d ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu
  | [ a; b; c; d; e ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu
  | [ a; b; c; d; e; f ] ->
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu;
        f cpu
  | a :: b :: c :: d :: e :: f :: rest ->
      let g = seq_cores rest in
      fun cpu ->
        a cpu;
        b cpu;
        c cpu;
        d cpu;
        e cpu;
        f cpu;
        g cpu

let pure_unit ~(cores : (Cpu.t -> unit) list) ~n ~total_cost ~(k : body) : body
    =
  let ops = seq_cores cores in
  fun cpu ->
    cpu.Cpu.insns <- cpu.Cpu.insns + n;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + total_cost;
    ops cpu;
    k cpu

(* ---- block compilation ---- *)

(* The instructions that write memory: within a block, the only way a
   page generation can move. A fragile block's body checks the code
   epoch only after one of these. *)
let insn_writes = function
  | Insn.Store _ | Insn.Push _ | Insn.Call _ | Insn.Call_reg _
  | Insn.Call_mem _ | Insn.Vscatter _ ->
      true
  | _ -> false

let fusable_mem = function
  | Insn.Sib _ | Insn.Abs _ -> true
  | Insn.Rip_rel _ -> false

let guard_of = function
  | Insn.Bndcl (b, Insn.Ea_mem m) -> Some (true, b, m)
  | Insn.Bndcu (b, Insn.Ea_mem m) -> Some (false, b, m)
  | _ -> None

(* The end of a block, and of a write the epoch is checked after *)
let ret : body = fun _ -> U_fall

(* A write of block [b], fragile, compiled to return to [checked] rather
   than to run on. An unmoved epoch proves no page generation moved; a
   moved one re-checks [b]'s generations. Either way a still-valid block
   goes on to [k]; a stale one stops at the boundary after the write. *)
let checked (mem : Mem.t) (b : Decode_cache.block) (w : body) (k : body) :
    body =
 fun cpu ->
  let e = mem.Mem.code_epoch in
  match w cpu with
  | U_fall ->
      if mem.Mem.code_epoch = e || Decode_cache.block_valid mem b then
        k cpu
      else U_stale
  | s -> s

let compile t (b : Decode_cache.block) : compiled =
  let mem = t.mem in
  let n = Array.length b.insns in
  let insn i = fst b.insns.(i) and len i = snd b.insns.(i) in
  let pcs = Array.make (n + 1) b.entry in
  for i = 0 to n - 1 do
    pcs.(i + 1) <- pcs.(i) + len i
  done;
  (* does a guard+memory superinstruction start at i? *)
  let pair_at i =
    i + 1 < n
    &&
    match guard_of (insn i) with
    | Some (_, _, m) when fusable_mem m -> (
        match insn (i + 1) with
        | Load { src; _ } -> src = m
        | Store { dst; _ } -> dst = m
        | Bndcl (_, Ea_mem m2) | Bndcu (_, Ea_mem m2) -> m2 = m
        | _ -> false)
    | _ -> false
  in
  (* the units, last first: (first instruction, instructions, the unit
     given its continuation) *)
  let units = ref [] in
  let emit i k f = units := (i, k, f) :: !units in
  let i = ref 0 in
  while !i < n do
    if pair_at !i then begin
      let lower1, b1, m =
        match guard_of (insn !i) with Some g -> g | None -> assert false
      in
      let second =
        match insn (!i + 1) with
        | Load { dst; size; _ } -> S_load (dst, size)
        | Store { src; size; _ } -> S_store (src, size)
        | Bndcl (b2, _) -> S_guard (true, b2)
        | Bndcu (b2, _) -> S_guard (false, b2)
        | _ -> assert false
      in
      emit !i 2
        (fuse_guard_mem mem ~lower1 ~b1 ~m ~pc1:pcs.(!i) ~len1:(len !i)
           ~cost1:(Cost.of_insn (insn !i))
           ~second
           ~len2:(len (!i + 1))
           ~cost2:(Cost.of_insn (insn (!i + 1))));
      i := !i + 2
    end
    else begin
      (* maximal pure-register run starting at i, with an optional
         direct-branch tail (cmp+branch fusion falls out of this) *)
      let run = ref 0 in
      while !i + !run < n && core_of (insn (!i + !run)) <> None do
        incr run
      done;
      let tail =
        if !i + !run = n - 1 then term_core_of (insn (n - 1)) ~end_pc:pcs.(n)
        else None
      in
      let kk = !run + match tail with Some _ -> 1 | None -> 0 in
      if kk >= 2 then begin
        (* one bulk-charged unit over the whole run *)
        let core j =
          match core_of (insn j) with Some f -> f | None -> assert false
        in
        let park =
          match tail with
          | Some f -> f
          | None ->
              let end_pc = pcs.(!i + !run) in
              fun cpu -> cpu.Cpu.pc <- end_pc
        in
        let cores = List.init !run (fun j -> core (!i + j)) @ [ park ] in
        let total_cost = ref 0 in
        for j = !i to !i + kk - 1 do
          total_cost := !total_cost + Cost.of_insn (insn j)
        done;
        emit !i kk (pure_unit ~cores ~n:kk ~total_cost:!total_cost);
        i := !i + kk
      end
      else begin
        emit !i 1 (compile_body mem (insn !i) ~pc:pcs.(!i) ~len:(len !i));
        incr i
      end
    end
  done;
  (* in a fragile block every write ends its unit, and the epoch is
     checked after each one but the block's last instruction, whose
     write the block exit's validity check covers *)
  let check_after j = b.fragile && j < n - 1 && insn_writes (insn j) in
  let body =
    List.fold_left
      (fun k (j, kk, f) ->
        if check_after (j + kk - 1) then checked mem b (f ~k:ret) k else f ~k)
      ret !units
  in
  let rec c =
    {
      entry = b.entry;
      src = b;
      insns = n;
      body;
      unit_starts = Array.of_list (List.rev_map (fun (j, _, _) -> j) !units);
      writes = Array.exists (fun (insn, _) -> insn_writes insn) b.insns;
      valid_at = mem.Mem.code_epoch;
      live = false;
      link = c;
    }
  in
  c

(* ---- the code cache ---- *)

type lookup = Hit of compiled | Stale | Miss

let mem t = t.mem

(* [c]'s generation snapshot still matches memory. The code epoch moves
   whenever some page generation does, so while it reads [c.valid_at]
   no snapshot compare is needed; a compare that finds [c] valid at a
   newer epoch records that epoch. *)
let valid t c =
  let e = t.mem.Mem.code_epoch in
  if c.valid_at = e then true
  else if Decode_cache.block_valid t.mem c.src then begin
    c.valid_at <- e;
    true
  end
  else false

(* [Tbl.find], not [find_opt]: a hit allocates no option *)
let lookup t pc =
  match Tbl.find t.tbl pc with
  | exception Not_found -> Miss
  | c ->
      if valid t c then begin
        t.hits <- t.hits + 1;
        Hit c
      end
      else begin
        Tbl.remove t.tbl pc;
        c.live <- false;
        t.invalidations <- t.invalidations + 1;
        Stale
      end

(* [lookup] at [from]'s exit, linking [from] to what it finds *)
let lookup_from t from pc =
  match lookup t pc with
  | Hit c as h ->
      from.link <- c;
      h
  | r -> r

(* A live link names the table's entry for its pc, so following a valid
   one is exactly the hit [lookup] would return, and counts as one. *)
let follow t from pc =
  let l = from.link in
  if l.entry = pc && l.live && valid t l then begin
    t.hits <- t.hits + 1;
    true
  end
  else false

let note_hit t = t.hits <- t.hits + 1
(* a hit that bypassed [lookup] (the interpreter's self-loop re-entry) *)

(* Entries leave the table only at a stale [lookup] and at this flush,
   and both clear [live], so no link survives its target's eviction.
   [translate] follows a lookup that missed at [pc] (or found it stale
   and removed it), so [replace] never drops a live entry. *)
let translate t pc =
  match Decode_cache.build t.mem pc with
  | None -> None
  | Some b ->
      if Tbl.length t.tbl >= t.max_blocks then begin
        Tbl.iter (fun _ c -> c.live <- false) t.tbl;
        Tbl.reset t.tbl
      end;
      let c = compile t b in
      c.live <- true;
      t.compiles <- t.compiles + 1;
      Tbl.replace t.tbl pc c;
      Some c

let stats t = (t.compiles, t.hits, t.invalidations)
