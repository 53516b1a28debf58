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
   effective-address computation, pure-register runs are charged in
   bulk, a pure run and the load or store after it are one unit, and so
   is each idiom the code generator emits around a load (a binop's
   [mov_imm rA ; load rB ; op rB,rA ; mov rA,rB], a loop test's
   [mov_imm rA ; load rB ; cmp rB,rA ; jcc]), which keeps the loaded and
   computed values in locals. The block's [body] is the first unit:
   calling it runs the whole block.

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

let[@inline] charge_n (cpu : Cpu.t) n cost =
  cpu.Cpu.insns <- cpu.Cpu.insns + n;
  cpu.Cpu.cycles <- cpu.Cpu.cycles + cost

let[@inline] charge cpu cost = charge_n cpu 1 cost

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

(* The access of a load or store at [pc]. Only the checked accessor can
   fault, so it runs with pc parked at the accessing instruction: a unit
   that fuses instructions before the access faults with the reference's
   pc. A unit charges all its instructions before its access; an idiom's
   [load_v] also commits [v] to the register at byte offset [ao] there,
   if [ao] >= 0 (the deferred [mov_imm]), and holds back the [after]
   instructions ([after_cost] cycles) that follow the load until the
   checked read returns, so a fault leaves the reference's counters. A
   value returned here is let-bound by an inlined caller, so it stays
   unboxed. *)
let[@inline] load_v mem (cpu : Cpu.t) a ~size ~pc ~ao ~v ~after ~after_cost =
  if direct mem a size rd then
    if size = 1 then Int64.of_int (Char.code (Bytes.unsafe_get mem.Mem.data a))
    else Bytes.get_int64_le mem.Mem.data a
  else begin
    cpu.Cpu.pc <- pc;
    if ao >= 0 then set cpu ao v;
    charge_n cpu (-after) (-after_cost);
    let x =
      if size = 1 then Int64.of_int (Mem.read_u8 mem a) else Mem.read_u64 mem a
    in
    charge_n cpu after after_cost;
    x
  end

let[@inline] load mem cpu a ~size ~pc =
  load_v mem cpu a ~size ~pc ~ao:(-1) ~v:0L ~after:0 ~after_cost:0

let[@inline] store mem (cpu : Cpu.t) a v ~size ~pc =
  if size = 1 then
    if direct mem a 1 wr then
      Bytes.unsafe_set mem.Mem.data a
        (Char.unsafe_chr (Int64.to_int v land 0xFF))
    else begin
      cpu.Cpu.pc <- pc;
      Mem.write_u8 mem a (Int64.to_int v)
    end
  else if direct mem a 8 wr then Bytes.set_int64_le mem.Mem.data a v
  else begin
    cpu.Cpu.pc <- pc;
    Mem.write_u64 mem a v
  end

(* A memory operand, pre-resolved so that a body computes its effective
   address inline, with no call: [bo] and [io] are the base's and the
   index's byte offsets in [regs] ([io] < 0: no index), and [bo] < 0
   means the address folds to the constant [disp] (Rip_rel, Abs).
   Mirrors [Interp.effective_address]. *)
type ea = { bo : int; io : int; scale : int; disp : int }

let resolve (m : Insn.mem) ~end_pc =
  match m with
  | Sib { base; index; scale; disp } ->
      let io = match index with Some r -> off r | None -> -1 in
      { bo = off base; io; scale; disp }
  | Rip_rel disp ->
      let a = clamp (Int64.of_int (end_pc + disp)) in
      { bo = -1; io = -1; scale = 0; disp = a }
  | Abs v -> { bo = -1; io = -1; scale = 0; disp = clamp v }

let[@inline] addr cpu e =
  if e.io < 0 then
    if e.bo < 0 then e.disp
    else clamp (Int64.add (get cpu e.bo) (Int64.of_int e.disp))
  else
    clamp
      (Int64.add
         (Int64.add (get cpu e.bo)
            (Int64.mul (get cpu e.io) (Int64.of_int e.scale)))
         (Int64.of_int e.disp))

let[@inline] holds (c : Insn.cond) eq lt =
  match c with
  | Eq -> eq
  | Ne -> not eq
  | Lt -> lt
  | Le -> lt || eq
  | Gt -> not (lt || eq)
  | Ge -> not lt

(* an idiom's operation: never [Divu]/[Remu], which can fault *)
let[@inline] alu (op : Insn.alu_op) x y =
  match op with
  | Add -> Int64.add x y
  | Sub -> Int64.sub x y
  | Mul -> Int64.mul x y
  | And -> Int64.logand x y
  | Or -> Int64.logor x y
  | Xor -> Int64.logxor x y
  | Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | Shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | Divu | Remu -> assert false

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

(* ---- memory units ---- *)

(* The access a memory unit is built around: a load into, or a store
   from, a register, of 1 or 8 bytes *)
type access = Ld of Reg.t * int | St of Reg.t * int

(* The rest of a codegen idiom after its load into rB: the operand rA,
   held as the local [v] when a [mov_imm rA,v] came before the load,
   then [alu rB,rA ; mov rA,rB] or the block-ending [cmp rB,rA ; jcc]
   (condition, taken target); [cost2] is the cycles of those two *)
type idiom = { a : Reg.t; v : int64 option; op : idiom_op; cost2 : int }
and idiom_op = I_alu of Insn.alu_op | I_jcc of Insn.cond * int

(* One unit around one load or store at [pc]. Its [n] instructions up to
   and including the access cost [cost] cycles; an idiom's two after the
   load cost [cost2]. The unit charges them all at its start, and the
   checked path, the only one that can fault, holds back the idiom's two
   until the read returns. So a fault leaves the reference's counters,
   pc and registers. The unit starts with the pure run [cores], or, in
   an idiom, with the [mov_imm rA,v] that only the checked path commits
   before the access: each register is written once, at the end. *)
let mem_unit mem ~n ~cost ~cores ~(access : access) ~e ~pc ~end_pc
    ~(idiom : idiom option) ~(k : body) : body =
  let ops = seq_cores cores in
  let run = match cores with [] -> false | _ :: _ -> true in
  match (access, idiom) with
  | St (s, size), _ ->
      let so = off s in
      fun cpu ->
        charge_n cpu n cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        if run then ops cpu;
        store mem cpu (addr cpu e) (get cpu so) ~size ~pc;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Ld (b, size), None ->
      let bo = off b in
      fun cpu ->
        charge_n cpu n cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        if run then ops cpu;
        let x = load mem cpu (addr cpu e) ~size ~pc in
        set cpu bo x;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Ld (b, size), Some { a; v; op; cost2 } -> (
      let bo = off b and ao = off a in
      let has_v = Option.is_some v and v = Option.value v ~default:0L in
      let park = if has_v then ao else -1 in
      let n = n + 2 and total = cost + cost2 in
      match op with
      | I_alu op ->
          fun cpu ->
            charge_n cpu n total;
            cpu.Cpu.loads <- cpu.Cpu.loads + 1;
            let x =
              load_v mem cpu (addr cpu e) ~size ~pc ~ao:park ~v ~after:2
                ~after_cost:cost2
            in
            let y = if has_v then v else get cpu ao in
            let r = alu op x y in
            set cpu bo r;
            set cpu ao r;
            cpu.Cpu.pc <- end_pc;
            k cpu
      | I_jcc (c, tgt) ->
          fun cpu ->
            charge_n cpu n total;
            cpu.Cpu.loads <- cpu.Cpu.loads + 1;
            let x =
              load_v mem cpu (addr cpu e) ~size ~pc ~ao:park ~v ~after:2
                ~after_cost:cost2
            in
            let y = if has_v then v else get cpu ao in
            set cpu bo x;
            set cpu ao y;
            let eq = Int64.equal x y and lt = Int64.compare x y < 0 in
            cpu.Cpu.flag_eq <- eq;
            cpu.Cpu.flag_lt <- lt;
            cpu.Cpu.pc <- (if holds c eq lt then tgt else end_pc);
            k cpu)

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
        let e = resolve m ~end_pc in
        fun (cpu : Cpu.t) ->
          charge cpu cost;
          bound_check cpu bi lower (Int64.of_int (addr cpu e));
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
      mem_unit mem ~n:1 ~cost ~cores:[] ~access:(Ld (dst, size))
        ~e:(resolve src ~end_pc) ~pc ~end_pc ~idiom:None ~k
  | Store { dst; src; size } ->
      mem_unit mem ~n:1 ~cost ~cores:[] ~access:(St (src, size))
        ~e:(resolve dst ~end_pc) ~pc ~end_pc ~idiom:None ~k
  | Push r ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        (* store before the sp update: fault atomicity *)
        let sp = Int64.sub (get cpu sp_o) 8L in
        store mem cpu (masked sp) (get cpu ro) ~size:8 ~pc;
        set cpu sp_o sp;
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Pop r ->
      let ro = off r in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        let x = load mem cpu (masked sp) ~size:8 ~pc in
        set cpu ro x;
        (* [pop sp] keeps the loaded value, as in the interpreter *)
        if ro <> sp_o then set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- end_pc;
        k cpu
  | Lea (r, m) ->
      let ro = off r in
      let e = resolve m ~end_pc in
      fun cpu ->
        charge cpu cost;
        set cpu ro (Int64.of_int (addr cpu e));
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
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.pc <-
          (if holds c cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc);
        k cpu
  | Call rel ->
      let tgt = end_pc + rel in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store mem cpu (masked sp) ret ~size:8 ~pc;
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
        store mem cpu (masked sp) ret ~size:8 ~pc;
        set cpu sp_o sp;
        cpu.Cpu.pc <- masked (get cpu ro);
        k cpu
  | Jmp_mem m ->
      let e = resolve m ~end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let target = load mem cpu (addr cpu e) ~size:8 ~pc in
        cpu.Cpu.pc <- masked target;
        k cpu
  | Call_mem m ->
      let e = resolve m ~end_pc in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let target = load mem cpu (addr cpu e) ~size:8 ~pc in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let sp = Int64.sub (get cpu sp_o) 8L in
        store mem cpu (masked sp) ret ~size:8 ~pc;
        set cpu sp_o sp;
        cpu.Cpu.pc <- masked target;
        k cpu
  | Ret ->
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let sp = get cpu sp_o in
        let target = load mem cpu (masked sp) ~size:8 ~pc in
        set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- masked target;
        k cpu
  | Ret_imm n ->
      let adj = Int64.of_int n in
      fun cpu ->
        charge cpu cost;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; sp commits only afterwards *)
        let sp = get cpu sp_o in
        let target = load mem cpu (masked sp) ~size:8 ~pc in
        set cpu sp_o (Int64.add (Int64.add sp 8L) adj);
        cpu.Cpu.pc <- masked target;
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
          store mem cpu (masked a) (get cpu so) ~size:8 ~pc
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
let[@inline] guard_half (cpu : Cpu.t) e ~cost1 ~bi1 ~lower1 ~pc2 =
  charge cpu cost1;
  let a = addr cpu e in
  bound_check cpu bi1 lower1 (Int64.of_int a);
  cpu.Cpu.pc <- pc2;
  a

let fuse_guard_mem (mem : Mem.t) ~lower1 ~b1 ~m ~pc1 ~len1 ~cost1
    ~(second : second) ~len2 ~cost2 ~(k : body) : body =
  let pc2 = pc1 + len1 in
  let end2 = pc2 + len2 in
  let bi1 = Reg.bnd_to_int b1 in
  let e = resolve m ~end_pc:pc2 in
  match second with
  | S_load (dst, size) ->
      let dO = off dst in
      fun cpu ->
        let a = guard_half cpu e ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let x = load mem cpu a ~size ~pc:pc2 in
        set cpu dO x;
        cpu.Cpu.pc <- end2;
        k cpu
  | S_store (src, size) ->
      let so = off src in
      fun cpu ->
        let a = guard_half cpu e ~cost1 ~bi1 ~lower1 ~pc2 in
        charge cpu cost2;
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        store mem cpu a (get cpu so) ~size ~pc:pc2;
        cpu.Cpu.pc <- end2;
        k cpu
  | S_guard (lower2, b2) ->
      let bi2 = Reg.bnd_to_int b2 in
      fun cpu ->
        let a = guard_half cpu e ~cost1 ~bi1 ~lower1 ~pc2 in
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
      Some
        (fun cpu ->
          cpu.Cpu.pc <-
            (if holds c cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc))
  | _ -> None

let pure_unit ~(cores : (Cpu.t -> unit) list) ~n ~total_cost ~(k : body) : body
    =
  let ops = seq_cores cores in
  fun cpu ->
    charge_n cpu n total_cost;
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

(* a load whose address reads register [r] *)
let reads (insn : Insn.t) r =
  match insn with
  | Load { src = Sib { base; index; _ }; _ } -> base = r || index = Some r
  | _ -> false

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
  let cost_of i j =
    (* the cycles of instructions [i, j) *)
    let c = ref 0 in
    for x = i to j - 1 do
      c := !c + Cost.of_insn (insn x)
    done;
    !c
  in
  let cores = Array.init n (fun j -> core_of (insn j)) in
  let core j = match cores.(j) with Some f -> f | None -> assert false in
  (* the last three instructions of a codegen idiom at j:
     [load rB,[m] ; alu rB,rA ; mov rA,rB] (no divu/remu, which can
     fault) or the block-ending [load rB,[m] ; cmp rB,rA ; jcc] *)
  let idiom_body j =
    match if j + 2 < n then insn j else Nop with
    | Load { dst = rb; _ } -> (
        match (insn (j + 1), insn (j + 2)) with
        | Alu (op, rb', O_reg ra), Mov_reg (ra', rb'')
          when rb' = rb && ra' = ra && rb'' = rb && ra <> rb && op <> Divu
               && op <> Remu ->
            Some (ra, I_alu op)
        | Cmp (rb', O_reg ra), Jcc (c, rel) when rb' = rb && ra <> rb ->
            Some (ra, I_jcc (c, pcs.(j + 3) + rel))
        | _ -> None)
    | _ -> None
  in
  (* the idiom starting at i: (the [mov_imm rA,v] before its load, rA,
     op). The mov_imm joins only if [m] does not read rA, since the
     inline address reads the register file, which the idiom writes
     last. *)
  let idiom_at i =
    match insn i with
    | Mov_imm (ra, v) -> (
        match idiom_body (i + 1) with
        | Some (ra', op) when ra' = ra && not (reads (insn (i + 1)) ra) ->
            Some (Some v, ra, op)
        | _ -> None)
    | Load _ -> Option.map (fun (ra, op) -> (None, ra, op)) (idiom_body i)
    | _ -> None
  in
  (* the units, last first: (first instruction, instructions, the unit
     given its continuation) *)
  let units = ref [] in
  let emit i k f = units := (i, k, f) :: !units in
  let i = ref 0 in
  (* the memory unit of instructions [i, j], the access at j, and an
     idiom's last two *)
  let emit_mem j ~cores ~idiom =
    let access, m =
      match insn j with
      | Load { dst; src; size } -> (Ld (dst, size), src)
      | Store { dst; src; size } -> (St (src, size), dst)
      | _ -> assert false
    in
    let kk = j - !i + if Option.is_none idiom then 1 else 3 in
    emit !i kk
      (mem_unit mem ~n:(j - !i + 1) ~cost:(cost_of !i (j + 1)) ~cores ~access
         ~e:(resolve m ~end_pc:pcs.(j + 1))
         ~pc:pcs.(j) ~end_pc:pcs.(!i + kk) ~idiom);
    i := !i + kk
  in
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
    else
      match idiom_at !i with
      | Some (v, a, op) ->
          let j = if Option.is_none v then !i else !i + 1 in
          emit_mem j ~cores:[]
            ~idiom:(Some { a; v; op; cost2 = cost_of (j + 1) (j + 3) })
      | None ->
          (* maximal pure-register run starting at i, up to the next
             idiom; inside a run only a mov_imm can start one *)
          let run = ref 0 in
          while
            !i + !run < n
            && Option.is_some cores.(!i + !run)
            && (!run = 0
               ||
               match insn (!i + !run) with
               | Mov_imm _ -> Option.is_none (idiom_at (!i + !run))
               | _ -> true)
          do
            incr run
          done;
          let r = !i + !run in
          let cores = List.init !run (fun j -> core (!i + j)) in
          (* the run and the load or store after it *)
          if
            !run > 0 && r < n
            && (match insn r with Load _ | Store _ -> true | _ -> false)
            && Option.is_none (idiom_at r)
          then emit_mem r ~cores ~idiom:None
          else
            (* an optional direct-branch tail: cmp+branch fusion falls
               out of this *)
            let tail =
              if r = n - 1 then term_core_of (insn (n - 1)) ~end_pc:pcs.(n)
              else None
            in
            let kk = !run + match tail with Some _ -> 1 | None -> 0 in
            if kk >= 2 then begin
              (* one bulk-charged unit over the whole run *)
              let park =
                match tail with
                | Some f -> f
                | None ->
                    let end_pc = pcs.(r) in
                    fun cpu -> cpu.Cpu.pc <- end_pc
              in
              emit !i kk
                (pure_unit ~cores:(cores @ [ park ]) ~n:kk
                   ~total_cost:(cost_of !i (!i + kk)));
              i := !i + kk
            end
            else begin
              emit !i 1 (compile_body mem (insn !i) ~pc:pcs.(!i) ~len:(len !i));
              incr i
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
