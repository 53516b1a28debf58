(* Block JIT: translate every decoded basic block into a pre-built
   OCaml closure chain the first time it runs.

   In [Interp.run]'s tiered loop, a lookup miss (or a stale hit) at a
   block boundary forms the block ([Decode_cache.build]) and compiles
   it here at once, as a DBT code cache copies each block before its
   first run. Each instruction is translated into a specialized closure
   with its operands pre-resolved (register indices, immediates, cycle
   cost, target pcs), and consecutive instructions are fused into
   superinstruction units — guard+load / guard+store / guard+guard
   pairs share one effective-address computation, and straight-line
   runs are chained so the per-instruction loop overhead is amortized
   over up to four instructions.

   Equivalence contract (checked by fuzz property #8 and test_jit):
   every closure replicates [Interp.exec_decoded]'s architectural
   effects exactly — the same counter charges in the same order, the
   same fault payloads and fault-atomicity, the same pc parking. Each
   unit has one compiled form, with no internal fuel check: the
   interpreter runs it only when the remaining fuel covers the whole
   unit, and otherwise replays the unit's decoded instructions (the
   block's [src.insns]) through [Interp.exec_decoded], so a quantum
   ends on the same boundary as in the reference loop.

   Invalidation: a compiled block keeps its source block's
   page-generation snapshot and is dropped when a lookup finds the
   generations moved. Blocks spanning a writable+executable page
   ("fragile": every LibOS SIP block, since SGX1 code pages are RWX) get
   the same fusion, but each unit ends at its first memory-writing
   instruction: within a block only such an instruction can move a page
   generation, so the interpreter revalidates a fragile block only at
   the boundary after a writing unit, and self-modifying code deopts to
   a fresh translation on the very next fetch.

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

type ustat = U_fall | U_stop of stop

type body = Mem.t -> Cpu.t -> ustat
(* one translated instruction or a whole unit: charge, execute, park
   pc; faults raise *)

type compiled = {
  entry : int;
  src : Decode_cache.block; (* carries the generation snapshot *)
  units : body array;
  unit_insns : int array; (* original instructions per unit *)
  revalidate : bool array;
      (* per unit: the block is fragile and the previous unit wrote
         memory, so the block may have rewritten its own code *)
  writes : bool;
      (* some instruction writes memory, so the block could invalidate
         itself (a store into its own executable page) — the self-loop
         re-entry must revalidate *)
  mutable live : bool; (* the table's current entry for [entry] *)
  mutable link : compiled;
      (* the successor the last lookup at this block's exit found;
         the block itself until then *)
}

type t = {
  tbl : (int, compiled) Hashtbl.t;
  max_blocks : int;
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
}

let create ?(max_blocks = 4096) () =
  {
    tbl = Hashtbl.create 256;
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
let compile_body (insn : Insn.t) ~pc ~len : body =
  let end_pc = pc + len in
  let cost = Cost.of_insn insn in
  let priv name =
    fun _ (cpu : Cpu.t) ->
      charge cpu cost;
      U_stop (Stop_fault (Privileged { addr = pc; insn = name }))
  in
  let guard lower b (ea : Insn.ea) =
    let bi = Reg.bnd_to_int b in
    match ea with
    | Ea_reg r ->
        let ro = off r in
        fun _ (cpu : Cpu.t) ->
          charge cpu cost;
          bound_check cpu bi lower (get cpu ro);
          cpu.Cpu.pc <- end_pc;
          U_fall
    | Ea_mem m ->
        let ea_f = compile_ea m ~end_pc in
        fun _ (cpu : Cpu.t) ->
          charge cpu cost;
          bound_check cpu bi lower (Int64.of_int (ea_f cpu));
          cpu.Cpu.pc <- end_pc;
          U_fall
  in
  match insn with
  | Nop | Cfi_label _ ->
      fun _ cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Mov_imm (r, v) ->
      let ro = off r in
      fun _ cpu ->
        charge cpu cost;
        set cpu ro v;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Mov_reg (d, s) ->
      let dO = off d and so = off s in
      fun _ cpu ->
        charge cpu cost;
        set cpu dO (get cpu so);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Load { dst; src; size } ->
      let dO = off dst in
      let ea_f = compile_ea src ~end_pc in
      if size = 1 then fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        set cpu dO (Int64.of_int (load8 mem (ea_f cpu)));
        cpu.Cpu.pc <- end_pc;
        U_fall
      else fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        load64_to cpu dO mem (ea_f cpu);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Store { dst; src; size } ->
      let so = off src in
      let ea_f = compile_ea dst ~end_pc in
      if size = 1 then fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store8 mem (ea_f cpu) (Int64.to_int (get cpu so));
        cpu.Cpu.pc <- end_pc;
        U_fall
      else fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store64 mem (ea_f cpu) (get cpu so);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Push r ->
      let ro = off r in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        (* store before the sp update: fault atomicity *)
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) (get cpu ro);
        set cpu sp_o sp;
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Pop r ->
      let ro = off r in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        load64_to cpu ro mem (masked sp);
        (* [pop sp] keeps the loaded value, as in the interpreter *)
        if ro <> sp_o then set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Lea (r, m) ->
      let ro = off r in
      let ea_f = compile_ea m ~end_pc in
      fun _ cpu ->
        charge cpu cost;
        set cpu ro (Int64.of_int (ea_f cpu));
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu (Add, d, O_imm v) ->
      let dO = off d in
      fun _ cpu ->
        charge cpu cost;
        set cpu dO (Int64.add (get cpu dO) v);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu (Add, d, O_reg r) ->
      let dO = off d and ro = off r in
      fun _ cpu ->
        charge cpu cost;
        set cpu dO (Int64.add (get cpu dO) (get cpu ro));
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu (Sub, d, O_imm v) ->
      let dO = off d in
      fun _ cpu ->
        charge cpu cost;
        set cpu dO (Int64.sub (get cpu dO) v);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu (((Divu | Remu) as op), d, o) ->
      let dO = off d and rem = op = Remu in
      (* [so] < 0: the divisor is the immediate *)
      let so = match o with O_reg r -> off r | O_imm _ -> -1 in
      let imm = match o with O_imm v -> v | O_reg _ -> 0L in
      fun _ cpu ->
        charge cpu cost;
        let b = if so < 0 then imm else get cpu so in
        if Int64.equal b 0L then raise (Fault.Fault (Div_by_zero { addr = pc }));
        let a = get cpu dO in
        set cpu dO
          (if rem then Int64.unsigned_rem a b else Int64.unsigned_div a b);
        cpu.Cpu.pc <- end_pc;
        U_fall
  | Alu _ | Cmp _ -> (
      match core_of insn with
      | Some core ->
          fun _ cpu ->
            charge cpu cost;
            core cpu;
            cpu.Cpu.pc <- end_pc;
            U_fall
      | None -> assert false)
  | Jmp rel ->
      let tgt = end_pc + rel in
      fun _ cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- tgt;
        U_fall
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      let decide = compile_cond c in
      fun _ cpu ->
        charge cpu cost;
        cpu.Cpu.pc <-
          (if decide cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc);
        U_fall
  | Call rel ->
      let tgt = end_pc + rel in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- tgt;
        U_fall
  | Jmp_reg r ->
      let ro = off r in
      fun _ cpu ->
        charge cpu cost;
        cpu.Cpu.pc <- masked (get cpu ro);
        U_fall
  | Call_reg r ->
      let ro = off r in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- masked (get cpu ro);
        U_fall
  | Jmp_mem m ->
      let ea_f = compile_ea m ~end_pc in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        cpu.Cpu.pc <- load_addr mem (ea_f cpu);
        U_fall
  | Call_mem m ->
      let ea_f = compile_ea m ~end_pc in
      let ret = Int64.of_int end_pc in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let target = load_addr mem (ea_f cpu) in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store64 mem (masked sp) ret;
        set cpu sp_o sp;
        cpu.Cpu.pc <- target;
        U_fall
  | Ret ->
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        let target = load_addr mem (masked sp) in
        set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- target;
        U_fall
  | Ret_imm n ->
      let adj = Int64.of_int n in
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; sp commits only afterwards *)
        let sp = get cpu sp_o in
        let target = load_addr mem (masked sp) in
        set cpu sp_o (Int64.add (Int64.add sp 8L) adj);
        cpu.Cpu.pc <- target;
        U_fall
  | Bndcl (b, ea) -> guard true b ea
  | Bndcu (b, ea) -> guard false b ea
  | Syscall_gate ->
      fun _ cpu ->
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
      fun mem cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 4;
        let b = get cpu bo and i = get cpu io in
        for lane = 0 to 3 do
          let a = Int64.add b (Int64.mul (Int64.add i (Int64.of_int lane)) s) in
          store64 mem (masked a) (get cpu so)
        done;
        cpu.Cpu.pc <- end_pc;
        U_fall

(* ---- superinstructions ---- *)

(* Straight-line chains: the bodies back to back, stopping at the
   first that stops. Each returns a closure built once its bodies are
   known, so running a unit is one two-argument call, not a partial
   application. *)
let chain2 b0 b1 : body =
  let f mem cpu = match b0 mem cpu with U_fall -> b1 mem cpu | s -> s in
  f

let chain3 b0 b1 b2 : body =
  let f mem cpu =
    match b0 mem cpu with
    | U_fall -> ( match b1 mem cpu with U_fall -> b2 mem cpu | s -> s)
    | s -> s
  in
  f

let chain4 b0 b1 b2 b3 : body =
  let f mem cpu =
    match b0 mem cpu with
    | U_fall -> (
        match b1 mem cpu with
        | U_fall -> ( match b2 mem cpu with U_fall -> b3 mem cpu | s -> s)
        | s -> s)
    | s -> s
  in
  f

(* guard+memory superinstruction: a bndcl/bndcu over a Sib/Abs operand
   followed by a load/store/guard with the structurally identical
   operand computes the effective address once. Rip_rel is excluded —
   its address depends on each instruction's own end pc. *)

type second =
  | S_load of Reg.t * int
  | S_store of Reg.t * int
  | S_guard of bool * Reg.bnd (* lower?, register *)

let fuse_guard_mem ~lower1 ~b1 ~m ~pc1 ~len1 ~cost1 ~(second : second) ~len2
    ~cost2 : body =
  let pc2 = pc1 + len1 in
  let end2 = pc2 + len2 in
  let bi1 = Reg.bnd_to_int b1 in
  let ea_f = compile_ea m ~end_pc:pc2 in
  (* guard, returning the shared effective address *)
  let part1 (cpu : Cpu.t) =
    charge cpu cost1;
    let a = ea_f cpu in
    bound_check cpu bi1 lower1 (Int64.of_int a);
    cpu.Cpu.pc <- pc2;
    a
  in
  let part2 : Mem.t -> Cpu.t -> int -> ustat =
    match second with
    | S_load (dst, size) ->
        let dO = off dst in
        if size = 1 then fun mem cpu a ->
          charge cpu cost2;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          set cpu dO (Int64.of_int (load8 mem a));
          cpu.Cpu.pc <- end2;
          U_fall
        else fun mem cpu a ->
          charge cpu cost2;
          cpu.Cpu.loads <- cpu.Cpu.loads + 1;
          load64_to cpu dO mem a;
          cpu.Cpu.pc <- end2;
          U_fall
    | S_store (src, size) ->
        let so = off src in
        if size = 1 then fun mem cpu a ->
          charge cpu cost2;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          store8 mem a (Int64.to_int (get cpu so));
          cpu.Cpu.pc <- end2;
          U_fall
        else fun mem cpu a ->
          charge cpu cost2;
          cpu.Cpu.stores <- cpu.Cpu.stores + 1;
          store64 mem a (get cpu so);
          cpu.Cpu.pc <- end2;
          U_fall
    | S_guard (lower2, b2) ->
        let bi2 = Reg.bnd_to_int b2 in
        fun _ cpu a ->
          charge cpu cost2;
          bound_check cpu bi2 lower2 (Int64.of_int a);
          cpu.Cpu.pc <- end2;
          U_fall
  in
  fun mem cpu ->
    let a = part1 cpu in
    part2 mem cpu a

(* ---- pure-register superinstructions ---- *)

(* A maximal run of cores compiles into one unit that charges
   [insns]/[cycles] in bulk and executes the cores back to back — legal
   because a unit only runs when the remaining fuel covers all of it, so
   there is no observation point inside the run. *)

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

let pure_unit ~(cores : (Cpu.t -> unit) list) ~k ~total_cost : body =
  let ops = seq_cores cores in
  fun _ cpu ->
    cpu.Cpu.insns <- cpu.Cpu.insns + k;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + total_cost;
    ops cpu;
    U_fall

(* ---- block compilation ---- *)

(* The instructions that write memory: within a block, the only way a
   page generation can move. Both tiers revalidate a fragile block only
   after one of these. *)
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

let compile (b : Decode_cache.block) : compiled =
  let n = Array.length b.insns in
  let pcs = Array.make (n + 1) b.entry in
  for i = 0 to n - 1 do
    pcs.(i + 1) <- pcs.(i) + snd b.insns.(i)
  done;
  (* does a guard+memory superinstruction start at i? *)
  let pair_at i =
    i + 1 < n
    &&
    match guard_of (fst b.insns.(i)) with
    | Some (_, _, m) when fusable_mem m -> (
        match fst b.insns.(i + 1) with
        | Load { src; _ } -> src = m
        | Store { dst; _ } -> dst = m
        | Bndcl (_, Ea_mem m2) | Bndcu (_, Ea_mem m2) -> m2 = m
        | _ -> false)
    | _ -> false
  in
  let units = ref [] in
  (* (unit, insns) in reverse order *)
  let emit u k = units := (u, k) :: !units in
  let body i =
    let insn, len = b.insns.(i) in
    compile_body insn ~pc:pcs.(i) ~len
  in
  let i = ref 0 in
  while !i < n do
    if pair_at !i then begin
      let lower1, b1, m =
        match guard_of (fst b.insns.(!i)) with
        | Some g -> g
        | None -> assert false
      in
      let second =
        match fst b.insns.(!i + 1) with
        | Load { dst; size; _ } -> S_load (dst, size)
        | Store { src; size; _ } -> S_store (src, size)
        | Bndcl (b2, _) -> S_guard (true, b2)
        | Bndcu (b2, _) -> S_guard (false, b2)
        | _ -> assert false
      in
      emit
        (fuse_guard_mem ~lower1 ~b1 ~m ~pc1:pcs.(!i)
           ~len1:(snd b.insns.(!i))
           ~cost1:(Cost.of_insn (fst b.insns.(!i)))
           ~second
           ~len2:(snd b.insns.(!i + 1))
           ~cost2:(Cost.of_insn (fst b.insns.(!i + 1))))
        2;
      i := !i + 2
    end
    else begin
      (* maximal pure-register run starting at i, with an optional
         direct-branch tail (cmp+branch fusion falls out of this) *)
      let run = ref 0 in
      while
        !i + !run < n
        && core_of (fst b.insns.(!i + !run)) <> None
      do
        incr run
      done;
      let tail =
        if !i + !run = n - 1 then
          term_core_of (fst b.insns.(n - 1)) ~end_pc:pcs.(n)
        else None
      in
      let kk = !run + (match tail with Some _ -> 1 | None -> 0) in
      if kk >= 2 then begin
        (* one bulk-charged unit over the whole run *)
        let core j =
          match core_of (fst b.insns.(j)) with
          | Some f -> f
          | None -> assert false
        in
        let park =
          match tail with
          | Some f -> f
          | None ->
              let end_pc = pcs.(!i + !run) in
              fun cpu -> cpu.Cpu.pc <- end_pc
        in
        let cores =
          List.init !run (fun j -> core (!i + j)) @ [ park ]
        in
        let total_cost = ref 0 in
        for j = !i to !i + kk - 1 do
          total_cost := !total_cost + Cost.of_insn (fst b.insns.(j))
        done;
        emit (pure_unit ~cores ~k:kk ~total_cost:!total_cost) kk;
        i := !i + kk
      end
      else begin
        (* chain up to four straight-line bodies, cutting before the
           next guard+memory superinstruction or pure run, and in a
           fragile block after the first memory write *)
        let k = ref 1 in
        while
          !k < 4
          && !i + !k < n
          && (not (pair_at (!i + !k)))
          && core_of (fst b.insns.(!i + !k)) = None
          && not (b.fragile && insn_writes (fst b.insns.(!i + !k - 1)))
        do
          incr k
        done;
        (match !k with
        | 1 -> emit (body !i) 1
        | 2 -> emit (chain2 (body !i) (body (!i + 1))) 2
        | 3 -> emit (chain3 (body !i) (body (!i + 1)) (body (!i + 2))) 3
        | _ ->
            emit
              (chain4 (body !i) (body (!i + 1)) (body (!i + 2)) (body (!i + 3)))
              4);
        i := !i + !k
      end
    end
  done;
  let us = List.rev !units in
  let unit_insns = Array.of_list (List.map snd us) in
  (* a unit ends at its first write, so unit u-1 wrote iff its last
     instruction did *)
  let revalidate = Array.make (Array.length unit_insns) false in
  if b.fragile then begin
    let last = ref (-1) in
    Array.iteri
      (fun u k ->
        if u > 0 then revalidate.(u) <- insn_writes (fst b.insns.(!last));
        last := !last + k)
      unit_insns
  end;
  let rec c =
    {
      entry = b.entry;
      src = b;
      units = Array.of_list (List.map fst us);
      unit_insns;
      revalidate;
      writes = Array.exists (fun (insn, _) -> insn_writes insn) b.insns;
      live = false;
      link = c;
    }
  in
  c

(* ---- the code cache ---- *)

type lookup = Hit of compiled | Stale | Miss

(* [Hashtbl.find], not [find_opt]: a hit allocates no option *)
let lookup t mem pc =
  match Hashtbl.find t.tbl pc with
  | exception Not_found -> Miss
  | c ->
      if Decode_cache.block_valid mem c.src then begin
        t.hits <- t.hits + 1;
        Hit c
      end
      else begin
        Hashtbl.remove t.tbl pc;
        c.live <- false;
        t.invalidations <- t.invalidations + 1;
        Stale
      end

(* [lookup] at [from]'s exit, linking [from] to what it finds *)
let lookup_from t mem from pc =
  match lookup t mem pc with
  | Hit c as h ->
      from.link <- c;
      h
  | r -> r

(* A live link names the table's entry for its pc, so following a valid
   one is exactly the hit [lookup] would return, and counts as one. *)
let follow t mem from pc =
  let l = from.link in
  if l.entry = pc && l.live && Decode_cache.block_valid mem l.src then begin
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
let translate t mem pc =
  match Decode_cache.build mem pc with
  | None -> None
  | Some b ->
      if Hashtbl.length t.tbl >= t.max_blocks then begin
        Hashtbl.iter (fun _ c -> c.live <- false) t.tbl;
        Hashtbl.reset t.tbl
      end;
      let c = compile b in
      c.live <- true;
      t.compiles <- t.compiles + 1;
      Hashtbl.replace t.tbl pc c;
      Some c

let stats t = (t.compiles, t.hits, t.invalidations)
