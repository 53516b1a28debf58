(* Block JIT: translate every decoded basic block into one pre-built
   OCaml closure the first time it runs.

   In [Interp.run]'s tiered loop, a lookup miss (or a stale hit) at a
   block boundary forms the block ([Decode_cache.build]) and compiles
   it here at once, as a DBT code cache copies each block before its
   first run. Each instruction is translated into a specialized closure
   with its operands pre-resolved (register indices, immediates, target
   pcs) that ends by tail-calling the next one, and consecutive
   instructions are fused into superinstruction units — guard+load /
   guard+store / guard+guard pairs share one effective-address
   computation, pure-register runs execute back to back, a pure run and
   the load or store after it are one unit, and so is each idiom the
   code generator emits around a load (a binop's
   [mov_imm rA ; load rB ; op rB,rA ; mov rA,rB], a loop test's
   [mov_imm rA ; load rB ; cmp rB,rA ; jcc]), which keeps the loaded and
   computed values in locals. The block's [body] is the first unit:
   the interpreter charges the block's counter totals and calls it,
   which runs the whole block.

   Equivalence contract (checked by fuzz property #8 and test_jit):
   wherever a block can be observed, its state is [Interp.exec_decoded]'s
   exactly — counters, fault payloads, fault-atomicity, pc. The block's
   counter totals are charged before the body runs and only the
   block's end sets pc; each place a block can stop mid-block is a cold
   path that first rebuilds the reference's counters and pc ([rewind]).
   The body has no internal fuel check: the interpreter runs it only
   when the remaining fuel covers the whole block, and otherwise replays
   the block's decoded instructions ([src.insns]) through
   [Interp.exec_decoded], so a quantum ends on the same boundary as in
   the reference loop.

   The page check is hoisted, never dropped. A block that writes no sp
   has a second body ([window]) whose loads and stores of stack slots
   ([sp+d]) use [Mem.data] with no page test; [Interp.exec_compiled]
   runs it only when one test at entry shows every such access would
   pass the check (the window lies in [0, addr_mask], within one page
   whose direct byte has each bit the accesses need). One test stands
   for all of them because nothing a block runs clears a direct bit or
   shrinks [Mem.data]: checked writes and growth only grant bits, and
   [Mem.map], [unmap], [enable_paging] and [install] run between quanta.
   So which body runs never shows: counters, faults, pc, page
   generations, the accessed bit and the JIT counters are the same.

   Invalidation: a compiled block keeps its source block's
   page-generation snapshot and is dropped when a lookup finds the
   generations moved. Blocks spanning a writable+executable page
   ("fragile": every LibOS SIP block, since SGX1 code pages are RWX) get
   the same fusion. Within a block only a memory write can move a page
   generation, every move also moves [Mem.code_epoch], and a direct
   store never moves it. So a fragile block compares the epoch across
   each write that takes the checked path and, if it moved, re-checks
   the block's generations: a write to some other executable page runs
   on, and one that made the block stale stops at the boundary after
   it, where self-modifying code deopts to a fresh translation on the
   very next fetch.

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
(* one translated instruction, unit or the whole block: execute, run on;
   faults raise. The memory is the JIT's, bound at translation, so every
   continuation is a one-argument call. *)

(* A block's stack window: the bytes [sp+lo, sp+hi) that its loads and
   stores of stack slots touch, the direct bits they need, and the body
   that runs when the window's entry test passes (see "the stack window"
   below) *)
type window = { lo : int; hi : int; need : int; fast : body }

type compiled = {
  entry : int;
  src : Decode_cache.block;
      (* the generation snapshot, and the decoded instructions a replay
         runs and a cold path rewinds over *)
  insns : int; (* instructions in the block *)
  cycles : int;
  loads : int;
  stores : int;
  bound_checks : int;
      (* what the block's instructions charge, charged at once before
         [body] runs *)
  body : body;
  window : window option;
      (* [None] when some instruction writes sp, or no load or store
         touches a stack slot, or they span more than a page *)
  unit_starts : int array;
      (* the first instruction index of each unit, in order *)
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

(* ---- the reference state on a cold path ----

   A cold path inside instruction [j] of block [b] takes back what the
   instructions after [j] charge and parks pc where the reference has
   it, both derived from [b.insns] and [j]: no unit carries a record.
   Only a fault, a privileged stop, the syscall gate or a stale exit
   gets here, each far costlier than the walk over the block. *)

(* the [loads], [stores] and [bound_checks] one instruction counts in
   [Interp.exec_decoded] *)
let bumps (insn : Insn.t) =
  match insn with
  | Load _ | Pop _ | Jmp_mem _ | Ret | Ret_imm _ -> (1, 0, 0)
  | Store _ | Push _ | Call _ | Call_reg _ -> (0, 1, 0)
  | Call_mem _ -> (1, 1, 0)
  | Vscatter _ -> (0, 4, 0)
  | Bndcl _ | Bndcu _ -> (0, 0, 1)
  | _ -> (0, 0, 0)

(* take back the counters of [b]'s instructions from index [from] on *)
let take_back (cpu : Cpu.t) (b : Decode_cache.block) ~from =
  for x = from to Array.length b.insns - 1 do
    let insn = fst b.insns.(x) in
    let l, s, c = bumps insn in
    cpu.Cpu.insns <- cpu.Cpu.insns - 1;
    cpu.Cpu.cycles <- cpu.Cpu.cycles - Cost.of_insn insn;
    cpu.Cpu.loads <- cpu.Cpu.loads - l;
    cpu.Cpu.stores <- cpu.Cpu.stores - s;
    cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks - c
  done

(* the pc of [b]'s instruction [j] *)
let pc_at (b : Decode_cache.block) j =
  let pc = ref b.entry in
  for x = 0 to j - 1 do
    pc := !pc + snd b.insns.(x)
  done;
  !pc

(* The reference's state inside instruction [j]: it has charged and
   counted everything it counts before its access or check, nothing
   after it has, and pc is on it. *)
let rewind (cpu : Cpu.t) b j =
  take_back cpu b ~from:(j + 1);
  cpu.Cpu.pc <- pc_at b j

let[@inline never] bound_fault cpu b j bi v =
  rewind cpu b j;
  raise (Fault.Fault (Bound_fault { bnd = bi; value = v }))

let[@inline never] div_fault (cpu : Cpu.t) b j =
  rewind cpu b j;
  raise (Fault.Fault (Div_by_zero { addr = cpu.Cpu.pc }))

(* A checked [Mem] access is the only one that can fault, and only its
   fault can observe the block mid-access: the exception passes through
   here, which rebuilds the reference's state at instruction [j] before
   it goes on. A checked access that succeeds rebuilds nothing. [held]
   is the store a [call_mem] counts only after its load. *)
let[@inline never] faulted cpu b j ~held ex =
  rewind cpu b j;
  cpu.Cpu.stores <- cpu.Cpu.stores - held;
  raise ex

(* returns the code epoch before the write, for [settle] *)
let[@inline] write_checked (mem : Mem.t) cpu b j a v ~size =
  let e = mem.Mem.code_epoch in
  (try
     if size = 1 then Mem.write_u8 mem a (Int64.to_int v)
     else Mem.write_u64 mem a v
   with ex -> faulted cpu b j ~held:0 ex);
  e

(* After the checked writes of instruction [j] of a fragile block, the
   epoch [e] before them: an unmoved epoch proves no page generation
   moved, and a moved one re-checks [b]'s generations. Either way a
   still-valid block runs on to [k]; a stale one stops at the boundary
   after the write. The block's last instruction is not checked: the
   block exit's validity check covers its write. *)
let[@inline never] settle (mem : Mem.t) (cpu : Cpu.t) (b : Decode_cache.block)
    j e (k : Cpu.t -> ustat) =
  if
    (not b.fragile)
    || j = Array.length b.insns - 1
    || mem.Mem.code_epoch = e
    || Decode_cache.block_valid mem b
  then k cpu
  else begin
    take_back cpu b ~from:(j + 1);
    cpu.Cpu.pc <- pc_at b (j + 1);
    U_stale
  end

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

let[@inline] clamp v =
  if Int64.compare (Int64.logand v addr_mask) v <> 0 then Int64.to_int addr_mask
  else Int64.to_int v

(* A 40-bit address from a register or loaded value: stack slots and
   indirect branch targets (no clamp, as in the interpreter) *)
let[@inline] masked v = Int64.to_int (Int64.logand v addr_mask)

(* bndcl/bndcu of instruction [j]: the block charged the check, a
   failing one raises the reference's fault *)
let[@inline] bound_check (cpu : Cpu.t) bi lower v ~b ~j =
  let bd = cpu.Cpu.bnds.(bi) in
  if if lower then unsigned_lt v bd.Cpu.lower else unsigned_lt bd.Cpu.upper v
  then bound_fault cpu b j bi v

(* The page check. An access [a, a+size) within one page whose
   [Mem.direct] byte has [bit] set behaves exactly like the checked
   accessor (no fault, no side effect, no generation bump), so it touches
   [Mem.data] directly; any other access takes the checked accessor,
   which raises the identical fault. [a] is a clamped address, never
   negative. The page size is a literal so this compiles to a shift and
   a mask. *)
let page_shift = 12
let () = assert (Mem.page_shift = page_shift)
let rd = Mem.direct_read
let wr = Mem.direct_write

let[@inline] direct (mem : Mem.t) a size bit =
  a land ((1 lsl page_shift) - 1) <= (1 lsl page_shift) - size
  && a lsr page_shift < Bytes.length mem.Mem.direct
  && Char.code (Bytes.unsafe_get mem.Mem.direct (a lsr page_shift)) land bit
     <> 0

(* The direct path: the only unchecked reads and writes of [Mem.data]
   (scripts/check.sh keeps every other one out of this file). The caller
   has proved that [a, a+size) lies in one page whose direct byte has
   the bit the access needs, by [direct] or by the stack window's entry
   test. That page lies below the extent, a page multiple, and [data]
   only grows, so the access is inside [data] and needs no bounds check.
   [data] is little-endian: a big-endian host swaps, as [Cipher] does. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] data_load (mem : Mem.t) a ~size =
  if size = 1 then Int64.of_int (Char.code (Bytes.unsafe_get mem.Mem.data a))
  else
    let v = get64u mem.Mem.data a in
    if big_endian () then swap64 v else v

let[@inline] data_store (mem : Mem.t) a v ~size =
  if size = 1 then
    Bytes.unsafe_set mem.Mem.data a (Char.unsafe_chr (Int64.to_int v land 0xFF))
  else set64u mem.Mem.data a (if big_endian () then swap64 v else v)

(* The load of instruction [j]. When a checked read faults, an idiom's
   [load_v] also commits [v] to the register at byte offset [ao], if
   [ao] >= 0 (the deferred [mov_imm]), so the fault leaves the
   reference's registers. A value returned here is let-bound by an
   inlined caller, so it stays unboxed. *)
let[@inline] load_v mem (cpu : Cpu.t) a ~size ~b ~j ~ao ~v ~held =
  if direct mem a size rd then data_load mem a ~size
  else
    try
      if size = 1 then Int64.of_int (Mem.read_u8 mem a) else Mem.read_u64 mem a
    with ex ->
      if ao >= 0 then set cpu ao v;
      faulted cpu b j ~held ex

let[@inline] load mem cpu a ~size ~b ~j =
  load_v mem cpu a ~size ~b ~j ~ao:(-1) ~v:0L ~held:0

(* a direct store; false when it must take [write_checked] *)
let[@inline] store_direct mem a v ~size =
  direct mem a size wr
  && begin
       data_store mem a v ~size;
       true
     end

(* The push of [v] by instruction [j]: the store runs before the sp
   update, so a fault leaves sp alone. Returns the code epoch before a
   checked write, for [settle], and -1 after a direct one. *)
let[@inline] push mem cpu b j v =
  let sp = Int64.sub (get cpu sp_o) 8L in
  let a = masked sp in
  let e =
    if store_direct mem a v ~size:8 then -1
    else write_checked mem cpu b j a v ~size:8
  in
  set cpu sp_o sp;
  e

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

(* ---- the stack window ----

   A block in which no instruction writes sp gets a second body, built
   from the same units, for when its stack slots' page is known direct.
   Its window is the bytes [sp+lo, sp+hi) that its loads and stores of
   stack slots ([sp+d], no index) touch; the tiered loop runs the second
   body when one test at entry finds the window in [0, addr_mask] (so no
   access clamps), within one page, and that page's direct byte holding
   every bit the window needs ([Interp.exec_compiled]). Nothing a block
   runs clears a direct bit or shrinks [Mem.data] (mem.ml, [direct]), so
   that test covers each of those accesses, which then compute [sp+d]
   and use the direct path with no page test of their own. *)

let[@inline] on_stack e = e.bo = sp_o && e.io < 0

(* the address of the stack slot [e] in a window body: the entry test
   proved [sp+d] lies in [0, addr_mask] *)
let[@inline] slot (cpu : Cpu.t) e = Int64.to_int (get cpu sp_o) + e.disp

(* registers compare as ints: [Reg.t] is abstract, and [=] on it would
   be a C call *)
let is_sp r = Reg.to_int r = sp_o lsr 3

(* [Some (lo, hi, need)]: the bytes [sp+lo, sp+hi) that a block's loads
   and stores of stack slots touch and the direct bits they need; [None]
   when the block writes sp, touches no stack slot, or spans more than a
   page of them *)
let stack_window (insns : (Insn.t * int) array) =
  let lo = ref max_int and hi = ref min_int and need = ref 0 in
  let sp_set = ref false in
  for i = 0 to Array.length insns - 1 do
    let insn = fst insns.(i) in
    if List.exists is_sp (Insn.written_regs insn) then sp_set := true;
    match insn with
    | Load { src = Sib { base; index = None; disp; _ }; size; _ } when is_sp base
      ->
        lo := Int.min !lo disp;
        hi := Int.max !hi (disp + size);
        need := !need lor rd
    | Store { dst = Sib { base; index = None; disp; _ }; size; _ }
      when is_sp base ->
        lo := Int.min !lo disp;
        hi := Int.max !hi (disp + size);
        need := !need lor wr
    | _ -> ()
  done;
  if !need = 0 || !sp_set || !hi - !lo > Mem.page_size then None
  else Some (!lo, !hi, !need)


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
   that can neither fault nor touch memory. [compile_body] runs one
   alone; a pure run chains several (see [pure_unit]). *)
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
   (condition, taken target) *)
type idiom = { a : Reg.t; v : int64 option; op : idiom_op }
and idiom_op = I_alu of Insn.alu_op | I_jcc of Insn.cond * int

(* An idiom's tail after its load of [x] into the register at [bo]:
   [alu rB,rA ; mov rA,rB], or [cmp rB,rA ; jcc], with rA at [ao] read
   from the register file unless [has_v] holds it as [v] *)
let[@inline] idiom_alu (cpu : Cpu.t) op x ~bo ~ao ~has_v ~v =
  let y = if has_v then v else get cpu ao in
  let r = alu op x y in
  set cpu bo r;
  set cpu ao r

let[@inline] idiom_jcc (cpu : Cpu.t) c x ~bo ~ao ~has_v ~v ~tgt ~end_pc =
  let y = if has_v then v else get cpu ao in
  set cpu bo x;
  set cpu ao y;
  let eq = Int64.equal x y and lt = Int64.compare x y < 0 in
  cpu.Cpu.flag_eq <- eq;
  cpu.Cpu.flag_lt <- lt;
  cpu.Cpu.pc <- (if holds c eq lt then tgt else end_pc)

(* One unit around the load or store of block [b]'s instruction [j],
   ending at [end_pc]. The unit starts with the pure run [cores], or, in
   an idiom, with the [mov_imm rA,v] that only the checked path commits
   before the access: each register is written once, at the end. In a
   window body ([win]) a stack slot's access takes the direct path with
   no page test. *)
let mem_unit mem ~b ~j ~cores ~(access : access) ~e ~end_pc
    ~(idiom : idiom option) ~win ~(k : body) : body =
  let ops = seq_cores cores in
  let run = match cores with [] -> false | _ :: _ -> true in
  let w = win && on_stack e in
  match (access, idiom) with
  | St (s, size), _ ->
      let so = off s in
      if w then fun cpu ->
        if run then ops cpu;
        data_store mem (slot cpu e) (get cpu so) ~size;
        k cpu
      else fun cpu ->
        if run then ops cpu;
        let a = addr cpu e and v = get cpu so in
        if store_direct mem a v ~size then k cpu
        else settle mem cpu b j (write_checked mem cpu b j a v ~size) k
  | Ld (r, size), None ->
      let ro = off r in
      if w then fun cpu ->
        if run then ops cpu;
        let x = data_load mem (slot cpu e) ~size in
        set cpu ro x;
        k cpu
      else fun cpu ->
        if run then ops cpu;
        let x = load mem cpu (addr cpu e) ~size ~b ~j in
        set cpu ro x;
        k cpu
  | Ld (r, size), Some { a; v; op } -> (
      let bo = off r and ao = off a in
      let has_v = Option.is_some v and v = Option.value v ~default:0L in
      let park = if has_v then ao else -1 in
      match op with
      | I_alu op ->
          if w then fun cpu ->
            let x = data_load mem (slot cpu e) ~size in
            idiom_alu cpu op x ~bo ~ao ~has_v ~v;
            k cpu
          else fun cpu ->
            let x =
              load_v mem cpu (addr cpu e) ~size ~b ~j ~ao:park ~v ~held:0
            in
            idiom_alu cpu op x ~bo ~ao ~has_v ~v;
            k cpu
      | I_jcc (c, tgt) ->
          if w then fun cpu ->
            let x = data_load mem (slot cpu e) ~size in
            idiom_jcc cpu c x ~bo ~ao ~has_v ~v ~tgt ~end_pc;
            k cpu
          else fun cpu ->
            let x =
              load_v mem cpu (addr cpu e) ~size ~b ~j ~ao:park ~v ~held:0
            in
            idiom_jcc cpu c x ~bo ~ao ~has_v ~v ~tgt ~end_pc;
            k cpu)

(* Translate block [b]'s instruction [j], spanning [pc, pc+len). Total:
   every opcode compiles (privileged ones to a stub that stops with the
   reference's fault, which charges before it classifies them). *)
let compile_body (mem : Mem.t) b j (insn : Insn.t) ~pc ~len ~win ~(k : body)
    : body =
  let end_pc = pc + len in
  (* a privileged stub and the syscall gate end their block, so nothing
     after them was charged: they only park pc where the reference has
     it *)
  let priv name =
    let s = Stop_fault (Privileged { addr = pc; insn = name }) in
    fun (cpu : Cpu.t) ->
      cpu.Cpu.pc <- pc;
      U_stop s
  in
  let guard lower bnd (ea : Insn.ea) =
    let bi = Reg.bnd_to_int bnd in
    match ea with
    | Ea_reg r ->
        let ro = off r in
        fun (cpu : Cpu.t) ->
          bound_check cpu bi lower (get cpu ro) ~b ~j;
          k cpu
    | Ea_mem m ->
        let e = resolve m ~end_pc in
        fun (cpu : Cpu.t) ->
          bound_check cpu bi lower (Int64.of_int (addr cpu e)) ~b ~j;
          k cpu
  in
  match insn with
  | Nop | Cfi_label _ -> k
  | Mov_imm (r, v) ->
      let ro = off r in
      fun cpu ->
        set cpu ro v;
        k cpu
  | Mov_reg (d, s) ->
      let dO = off d and so = off s in
      fun cpu ->
        set cpu dO (get cpu so);
        k cpu
  | Load { dst; src; size } ->
      mem_unit mem ~b ~j ~cores:[] ~access:(Ld (dst, size))
        ~e:(resolve src ~end_pc) ~end_pc ~idiom:None ~win ~k
  | Store { dst; src; size } ->
      mem_unit mem ~b ~j ~cores:[] ~access:(St (src, size))
        ~e:(resolve dst ~end_pc) ~end_pc ~idiom:None ~win ~k
  | Push r ->
      let ro = off r in
      fun cpu ->
        let e = push mem cpu b j (get cpu ro) in
        if e < 0 then k cpu else settle mem cpu b j e k
  | Pop r ->
      let ro = off r in
      fun cpu ->
        let sp = get cpu sp_o in
        let x = load mem cpu (masked sp) ~size:8 ~b ~j in
        set cpu ro x;
        (* [pop sp] keeps the loaded value, as in the interpreter *)
        if ro <> sp_o then set cpu sp_o (Int64.add sp 8L);
        k cpu
  | Lea (r, m) ->
      let ro = off r in
      let e = resolve m ~end_pc in
      fun cpu ->
        set cpu ro (Int64.of_int (addr cpu e));
        k cpu
  | Alu (Add, d, O_imm v) ->
      let dO = off d in
      fun cpu ->
        set cpu dO (Int64.add (get cpu dO) v);
        k cpu
  | Alu (Add, d, O_reg r) ->
      let dO = off d and ro = off r in
      fun cpu ->
        set cpu dO (Int64.add (get cpu dO) (get cpu ro));
        k cpu
  | Alu (Sub, d, O_imm v) ->
      let dO = off d in
      fun cpu ->
        set cpu dO (Int64.sub (get cpu dO) v);
        k cpu
  | Alu (((Divu | Remu) as op), d, o) ->
      let dO = off d and rem = op = Remu in
      (* [so] < 0: the divisor is the immediate *)
      let so = match o with O_reg r -> off r | O_imm _ -> -1 in
      let imm = match o with O_imm v -> v | O_reg _ -> 0L in
      fun cpu ->
        let y = if so < 0 then imm else get cpu so in
        if Int64.equal y 0L then div_fault cpu b j;
        let x = get cpu dO in
        set cpu dO
          (if rem then Int64.unsigned_rem x y else Int64.unsigned_div x y);
        k cpu
  | Alu _ | Cmp _ -> (
      match core_of insn with
      | Some core ->
          fun cpu ->
            core cpu;
            k cpu
      | None -> assert false)
  | Jmp rel ->
      let tgt = end_pc + rel in
      fun cpu ->
        cpu.Cpu.pc <- tgt;
        k cpu
  | Jcc (c, rel) ->
      let tgt = end_pc + rel in
      fun cpu ->
        cpu.Cpu.pc <-
          (if holds c cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc);
        k cpu
  (* a call ends its block, so its write needs no epoch check *)
  | Call rel ->
      let tgt = end_pc + rel in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        ignore (push mem cpu b j ret);
        cpu.Cpu.pc <- tgt;
        k cpu
  | Jmp_reg r ->
      let ro = off r in
      fun cpu ->
        cpu.Cpu.pc <- masked (get cpu ro);
        k cpu
  | Call_reg r ->
      let ro = off r in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        ignore (push mem cpu b j ret);
        cpu.Cpu.pc <- masked (get cpu ro);
        k cpu
  | Jmp_mem m ->
      let e = resolve m ~end_pc in
      fun cpu ->
        let target = load mem cpu (addr cpu e) ~size:8 ~b ~j in
        cpu.Cpu.pc <- masked target;
        k cpu
  | Call_mem m ->
      let e = resolve m ~end_pc in
      let ret = Int64.of_int end_pc in
      fun cpu ->
        let target =
          load_v mem cpu (addr cpu e) ~size:8 ~b ~j ~ao:(-1) ~v:0L ~held:1
        in
        ignore (push mem cpu b j ret);
        cpu.Cpu.pc <- masked target;
        k cpu
  | Ret ->
      fun cpu ->
        let sp = get cpu sp_o in
        let target = load mem cpu (masked sp) ~size:8 ~b ~j in
        set cpu sp_o (Int64.add sp 8L);
        cpu.Cpu.pc <- masked target;
        k cpu
  | Ret_imm n ->
      let adj = Int64.of_int n in
      fun cpu ->
        (* the pop may fault; sp commits only afterwards *)
        let sp = get cpu sp_o in
        let target = load mem cpu (masked sp) ~size:8 ~b ~j in
        set cpu sp_o (Int64.add (Int64.add sp 8L) adj);
        cpu.Cpu.pc <- masked target;
        k cpu
  | Bndcl (bnd, ea) -> guard true bnd ea
  | Bndcu (bnd, ea) -> guard false bnd ea
  | Syscall_gate ->
      fun cpu ->
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
      (* never accepted by the verifier: the epoch is compared across
         all four lanes *)
      let bo = off base and io = off index and so = off src in
      let s = Int64.of_int scale in
      fun cpu ->
        let e = mem.Mem.code_epoch in
        let x = get cpu bo and i = get cpu io in
        for lane = 0 to 3 do
          let a = Int64.add x (Int64.mul (Int64.add i (Int64.of_int lane)) s) in
          let a = masked a and v = get cpu so in
          if not (store_direct mem a v ~size:8) then
            ignore (write_checked mem cpu b j a v ~size:8)
        done;
        settle mem cpu b j e k

(* ---- superinstructions ---- *)

(* guard+memory superinstruction: a bndcl/bndcu over a Sib/Abs operand
   followed by a load/store/guard with the structurally identical
   operand computes the effective address once. Rip_rel is excluded —
   its address depends on each instruction's own end pc. *)

type second =
  | S_load of Reg.t * int
  | S_store of Reg.t * int
  | S_guard of bool * Reg.bnd (* lower?, register *)

(* The pair's guard half, instruction [j]: check; returns the shared
   effective address. Closed and [@inline], so each fused body below
   runs it without a call. *)
let[@inline] guard_half (cpu : Cpu.t) e ~bi1 ~lower1 ~b ~j =
  let a = addr cpu e in
  bound_check cpu bi1 lower1 (Int64.of_int a) ~b ~j;
  a

(* In a window body ([win]) the access to a stack slot takes the direct
   path at [sp+d], as every window access does; the window's entry test
   proved it is the guarded address. *)
let fuse_guard_mem (mem : Mem.t) ~b ~j ~lower1 ~b1 ~m ~pc2 ~(second : second)
    ~win ~(k : body) : body =
  let j2 = j + 1 in
  let bi1 = Reg.bnd_to_int b1 in
  let e = resolve m ~end_pc:pc2 in
  let w = win && on_stack e in
  match second with
  | S_load (dst, size) ->
      let dO = off dst in
      if w then fun cpu ->
        ignore (guard_half cpu e ~bi1 ~lower1 ~b ~j);
        let x = data_load mem (slot cpu e) ~size in
        set cpu dO x;
        k cpu
      else fun cpu ->
        let a = guard_half cpu e ~bi1 ~lower1 ~b ~j in
        let x = load mem cpu a ~size ~b ~j:j2 in
        set cpu dO x;
        k cpu
  | S_store (src, size) ->
      let so = off src in
      if w then fun cpu ->
        ignore (guard_half cpu e ~bi1 ~lower1 ~b ~j);
        data_store mem (slot cpu e) (get cpu so) ~size;
        k cpu
      else fun cpu ->
        let a = guard_half cpu e ~bi1 ~lower1 ~b ~j in
        let v = get cpu so in
        if store_direct mem a v ~size then k cpu
        else settle mem cpu b j2 (write_checked mem cpu b j2 a v ~size) k
  | S_guard (lower2, b2) ->
      let bi2 = Reg.bnd_to_int b2 in
      fun cpu ->
        let a = guard_half cpu e ~bi1 ~lower1 ~b ~j in
        bound_check cpu bi2 lower2 (Int64.of_int a) ~b ~j:j2;
        k cpu

(* ---- pure-register superinstructions ---- *)

(* A maximal run of cores compiles into one unit that executes the cores
   back to back — legal because a body only runs when the remaining fuel
   covers the whole block, and a pure run cannot fault or write, so
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
      Some
        (fun cpu ->
          cpu.Cpu.pc <-
            (if holds c cpu.Cpu.flag_eq cpu.Cpu.flag_lt then tgt else end_pc))
  | _ -> None

let pure_unit ~(cores : (Cpu.t -> unit) list) ~win:(_ : bool) ~(k : body) :
    body =
  let ops = seq_cores cores in
  fun cpu ->
    ops cpu;
    k cpu

(* ---- block compilation ---- *)

(* The instructions that write memory: within a block, the only way a
   page generation can move. *)
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

(* The end of a block whose last instruction set pc or stopped *)
let ret : body = fun _ -> U_fall

let compile t (b : Decode_cache.block) : compiled =
  let mem = t.mem in
  let n = Array.length b.insns in
  let insn i = fst b.insns.(i) and len i = snd b.insns.(i) in
  let pcs = Array.make (n + 1) b.entry in
  (* and what the block's instructions charge, which the tiered loop
     charges at once on entry *)
  let cycles = ref 0 and loads = ref 0 and stores = ref 0 and checks = ref 0 in
  for i = 0 to n - 1 do
    pcs.(i + 1) <- pcs.(i) + len i;
    let l, s, c = bumps (insn i) in
    cycles := !cycles + Cost.of_insn (insn i);
    loads := !loads + l;
    stores := !stores + s;
    checks := !checks + c
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
  (* the units, last first: (first instruction, the unit given the body
     it is for, plain or window, and its continuation) *)
  let units = ref [] in
  let emit i f = units := (i, f) :: !units in
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
    let last = if Option.is_none idiom then j else j + 2 in
    emit !i
      (mem_unit mem ~b ~j ~cores ~access
         ~e:(resolve m ~end_pc:pcs.(j + 1))
         ~end_pc:pcs.(last + 1) ~idiom);
    i := last + 1
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
      emit !i
        (fuse_guard_mem mem ~b ~j:!i ~lower1 ~b1 ~m ~pc2:pcs.(!i + 1) ~second);
      i := !i + 2
    end
    else
      match idiom_at !i with
      | Some (v, a, op) ->
          let j = if Option.is_none v then !i else !i + 1 in
          emit_mem j ~cores:[] ~idiom:(Some { a; v; op })
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
              (* one unit over the whole run *)
              emit !i (pure_unit ~cores:(cores @ Option.to_list tail));
              i := !i + kk
            end
            else begin
              emit !i
                (compile_body mem b !i (insn !i) ~pc:pcs.(!i) ~len:(len !i));
              incr i
            end
  done;
  (* a last instruction that falls through (the block hit its length
     cap or unfetchable code) leaves pc after it here *)
  let last =
    if Decode_cache.terminates (insn (n - 1)) then ret
    else
      let end_pc = pcs.(n) in
      fun (cpu : Cpu.t) ->
        cpu.Cpu.pc <- end_pc;
        U_fall
  in
  let units = !units in
  let window =
    (* a block that neither loads nor stores (a pure loop) skips the scan *)
    match if !loads + !stores = 0 then None else stack_window b.insns with
    | None -> None
    | Some (lo, hi, need) ->
        let fast = List.fold_left (fun k (_, f) -> f ~win:true ~k) last units in
        Some { lo; hi; need; fast }
  in
  let rec c =
    {
      entry = b.entry;
      src = b;
      insns = n;
      cycles = !cycles;
      loads = !loads;
      stores = !stores;
      bound_checks = !checks;
      body = List.fold_left (fun k (_, f) -> f ~win:false ~k) last units;
      window;
      unit_starts = Array.of_list (List.rev_map fst units);
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
