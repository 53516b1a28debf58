(* The fetch/decode/execute loop. Runs untrusted SIP code only; the LibOS
   itself is OCaml and interacts with the machine through [Cpu] and
   [Mem]. Execution stops on a syscall gate, a fault (→ AEX, captured by
   the LibOS) or quantum expiry (→ preemption).

   Two run loops:
   - [run_reference] fetches and decodes at pc on every instruction
     through [step] and [exec_decoded];
   - [run_tiered] runs every basic block as [Jit]-compiled closure
     chains, translating a block the first time it is entered, and
     falls back to [step] only where no block can be built. It must be
     observably identical to the reference: same cycle charges (both go
     through [Cost.of_insn]), same counters, same fault addresses, and
     the same mid-block stop when fuel runs out. *)

open Occlum_isa
module Obs = Occlum_obs.Obs
module Trace = Occlum_obs.Trace

type stop = Jit.stop =
  | Stop_syscall   (* reached the LibOS trampoline's syscall_gate *)
  | Stop_fault of Fault.t
  | Stop_quantum   (* fuel exhausted; SIP is preempted *)

let stop_to_string = function
  | Stop_syscall -> "syscall"
  | Stop_fault f -> "fault: " ^ Fault.to_string f
  | Stop_quantum -> "quantum"

let addr_mask = 0xFF_FFFF_FFFFL (* treat effective addresses as 40-bit *)

(* Register access through [Cpu]'s externals, which inline across
   modules: no call, no boxed [int64] (docs/jit.md, "Host cost"). *)
let[@inline] get (cpu : Cpu.t) r =
  Cpu.get64 cpu.Cpu.regs (Reg.to_int r lsl 3)

let[@inline] set (cpu : Cpu.t) r v =
  Cpu.set64 cpu.Cpu.regs (Reg.to_int r lsl 3) v

(* The stack window's entry test (docs/jit.md, "Stack window"): the
   bytes [sp+lo, sp+hi) lie in [0, addr_mask], so no access in them
   clamps, within one page whose [Mem.direct] byte has every bit in
   [need]. Nothing a block runs clears a direct bit or shrinks
   [Mem.data], so it covers each of the block's stack-slot accesses.
   Written out here so the test makes no cross-module call. *)
let sp_off = Reg.to_int Reg.sp lsl 3

let[@inline] window_open (mem : Mem.t) (cpu : Cpu.t) (w : Jit.window) =
  let sp = Cpu.get64 cpu.Cpu.regs sp_off in
  let lo = Int64.add sp (Int64.of_int w.Jit.lo)
  and last = Int64.add sp (Int64.of_int (w.Jit.hi - 1)) in
  Int64.equal (Int64.logand lo addr_mask) lo
  && Int64.equal (Int64.logand last addr_mask) last
  &&
  let p = Int64.to_int lo lsr Mem.page_shift in
  p = Int64.to_int last lsr Mem.page_shift
  && p < Bytes.length mem.Mem.direct
  && Char.code (Bytes.unsafe_get mem.Mem.direct p) land w.Jit.need = w.Jit.need

let effective_address mem cpu (m : Insn.mem) ~end_pc =
  let open Int64 in
  let v =
    match m with
    | Sib { base; index; scale; disp } ->
        let b = get cpu base in
        let i =
          match index with
          | None -> 0L
          | Some r -> mul (get cpu r) (of_int scale)
        in
        add (add b i) (of_int disp)
    | Rip_rel disp -> of_int (end_pc + disp)
    | Abs a -> a
  in
  ignore mem;
  (* out-of-space addresses page-fault when accessed; clamp the int
     conversion so wrap-around cannot alias back into valid memory *)
  if compare (logand v addr_mask) v <> 0 then Int64.to_int addr_mask
  else to_int v

let unsigned_lt a b = Int64.unsigned_compare a b < 0

let[@inline] read_sized mem addr size =
  if size = 1 then Int64.of_int (Mem.read_u8 mem addr) else Mem.read_u64 mem addr

let[@inline] write_sized mem addr size v =
  if size = 1 then Mem.write_u8 mem addr (Int64.to_int (Int64.logand v 0xFFL))
  else Mem.write_u64 mem addr v

let[@inline] operand_value cpu = function
  | Insn.O_reg r -> get cpu r
  | Insn.O_imm v -> v

let[@inline] alu_exec op a b ~pc =
  let open Int64 in
  match (op : Insn.alu_op) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Divu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else unsigned_div a b
  | Remu ->
      if b = 0L then raise (Fault.Fault (Div_by_zero { addr = pc }))
      else unsigned_rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right_logical a (to_int (logand b 63L))

let cond_holds cpu = function
  | Insn.Eq -> cpu.Cpu.flag_eq
  | Insn.Ne -> not cpu.Cpu.flag_eq
  | Insn.Lt -> cpu.Cpu.flag_lt
  | Insn.Le -> cpu.Cpu.flag_lt || cpu.Cpu.flag_eq
  | Insn.Gt -> not (cpu.Cpu.flag_lt || cpu.Cpu.flag_eq)
  | Insn.Ge -> not cpu.Cpu.flag_lt

let[@inline] bound_check cpu bnd value ~lower =
  cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + 1;
  let b = cpu.Cpu.bnds.(Reg.bnd_to_int bnd) in
  let fails =
    if lower then unsigned_lt value b.lower else unsigned_lt b.upper value
  in
  if fails then
    raise (Fault.Fault (Bound_fault { bnd = Reg.bnd_to_int bnd; value }))

let[@inline] ea_value mem cpu ea ~end_pc =
  match (ea : Insn.ea) with
  | Ea_reg r -> get cpu r
  | Ea_mem m -> Int64.of_int (effective_address mem cpu m ~end_pc)

(* The store happens first: if it faults, the AEX-captured state must
   still hold the pre-push stack pointer (a decremented sp with nothing
   written would corrupt the SIP's resume/kill diagnostics). *)
let[@inline] push_u64 mem cpu v =
  let sp = Int64.sub (get cpu Reg.sp) 8L in
  Mem.write_u64 mem (Int64.to_int (Int64.logand sp addr_mask)) v;
  set cpu Reg.sp sp

let[@inline] pop_u64 mem cpu =
  let sp = get cpu Reg.sp in
  let v = Mem.read_u64 mem (Int64.to_int (Int64.logand sp addr_mask)) in
  set cpu Reg.sp (Int64.add sp 8L);
  v

(* Execute one already-decoded instruction whose encoding spans
   [pc, pc+len) (the span is known executable). Returns [Some stop] when
   control leaves the interpreter. This is the reference semantics that
   every [Jit] body mirrors. *)
let exec_decoded mem cpu insn ~pc ~len : stop option =
  let end_pc = pc + len in
  match
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + Cost.of_insn insn;
    let goto target = cpu.Cpu.pc <- target in
    let next () = goto end_pc in
    match (insn : Insn.t) with
    | Nop ->
        next ();
        None
    | Cfi_label _ ->
        next ();
        None
    | Mov_imm (r, v) ->
        set cpu r v;
        next ();
        None
    | Mov_reg (d, s) ->
        set cpu d (get cpu s);
        next ();
        None
    | Load { dst; src; size } ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu src ~end_pc in
        set cpu dst (read_sized mem addr size);
        next ();
        None
    | Store { dst; src; size } ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        let addr = effective_address mem cpu dst ~end_pc in
        write_sized mem addr size (get cpu src);
        next ();
        None
    | Push r ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (get cpu r);
        next ();
        None
    | Pop r ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let v = pop_u64 mem cpu in
        set cpu r v;
        next ();
        None
    | Lea (r, m) ->
        set cpu r (Int64.of_int (effective_address mem cpu m ~end_pc));
        next ();
        None
    | Alu (op, d, o) ->
        set cpu d (alu_exec op (get cpu d) (operand_value cpu o) ~pc);
        next ();
        None
    | Cmp (a, o) ->
        let x = get cpu a and y = operand_value cpu o in
        cpu.Cpu.flag_eq <- Int64.equal x y;
        cpu.Cpu.flag_lt <- Int64.compare x y < 0;
        next ();
        None
    | Jmp rel ->
        goto (end_pc + rel);
        None
    | Jcc (c, rel) ->
        if cond_holds cpu c then goto (end_pc + rel) else next ();
        None
    | Call rel ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        goto (end_pc + rel);
        None
    | Jmp_reg r ->
        goto (Int64.to_int (Int64.logand (get cpu r) addr_mask));
        None
    | Call_reg r ->
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        goto (Int64.to_int (Int64.logand (get cpu r) addr_mask));
        None
    | Jmp_mem m ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu m ~end_pc in
        goto (Int64.to_int (Int64.logand (Mem.read_u64 mem addr) addr_mask));
        None
    | Call_mem m ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        let addr = effective_address mem cpu m ~end_pc in
        let target = Mem.read_u64 mem addr in
        cpu.Cpu.stores <- cpu.Cpu.stores + 1;
        push_u64 mem cpu (Int64.of_int end_pc);
        goto (Int64.to_int (Int64.logand target addr_mask));
        None
    | Ret ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        goto (Int64.to_int (Int64.logand (pop_u64 mem cpu) addr_mask));
        None
    | Ret_imm n ->
        cpu.Cpu.loads <- cpu.Cpu.loads + 1;
        (* the pop may fault; the sp adjustment commits only afterwards *)
        let target = pop_u64 mem cpu in
        set cpu Reg.sp (Int64.add (get cpu Reg.sp) (Int64.of_int n));
        goto (Int64.to_int (Int64.logand target addr_mask));
        None
    | Bndcl (b, ea) ->
        bound_check cpu b (ea_value mem cpu ea ~end_pc) ~lower:true;
        next ();
        None
    | Bndcu (b, ea) ->
        bound_check cpu b (ea_value mem cpu ea ~end_pc) ~lower:false;
        next ();
        None
    | Syscall_gate ->
        next ();
        Some Stop_syscall
    | Hlt -> Some (Stop_fault (Privileged { addr = pc; insn = "hlt" }))
    | Bndmk _ -> Some (Stop_fault (Privileged { addr = pc; insn = "bndmk" }))
    | Bndmov _ -> Some (Stop_fault (Privileged { addr = pc; insn = "bndmov" }))
    | Eexit -> Some (Stop_fault (Privileged { addr = pc; insn = "eexit" }))
    | Emodpe -> Some (Stop_fault (Privileged { addr = pc; insn = "emodpe" }))
    | Eaccept -> Some (Stop_fault (Privileged { addr = pc; insn = "eaccept" }))
    | Xrstor -> Some (Stop_fault (Privileged { addr = pc; insn = "xrstor" }))
    | Wrfsbase _ ->
        Some (Stop_fault (Privileged { addr = pc; insn = "wrfsbase" }))
    | Wrgsbase _ ->
        Some (Stop_fault (Privileged { addr = pc; insn = "wrgsbase" }))
    | Vscatter { base; index; scale; src } ->
        (* one instruction, multiple non-contiguous stores — the
           reason Stage 4 rejects it (Figure 4) *)
        cpu.Cpu.stores <- cpu.Cpu.stores + 4;
        let b = get cpu base and i = get cpu index in
        for lane = 0 to 3 do
          let a =
            Int64.add b
              (Int64.mul (Int64.add i (Int64.of_int lane)) (Int64.of_int scale))
          in
          Mem.write_u64 mem
            (Int64.to_int (Int64.logand a addr_mask))
            (get cpu src)
        done;
        next ();
        None
  with
  | exception Fault.Fault f -> Some (Stop_fault f)
  | r -> r

(* Execute exactly one instruction, fetching and decoding at pc. Returns
   [Some stop] when control leaves the interpreter. *)
let step mem cpu : stop option =
  let pc = cpu.Cpu.pc in
  match
    (* the fetch itself must be executable *)
    Mem.check_access mem pc 1 Exec;
    let raw = Mem.raw mem in
    Codec.decode raw ~pos:pc ~limit:(Bytes.length raw)
  with
  | exception Fault.Fault f -> Some (Stop_fault f)
  | Error e -> (
      (* Under EPC paging a decode error may really be an evicted code
         page: the frame was scrubbed on EWB, so the bytes are garbage
         until reloaded. Probe the longest possible encoding span and
         surface the miss instead of a bogus #UD. *)
      match Mem.probe_resident mem ~addr:pc ~len:16 with
      | exception Fault.Fault f -> Some (Stop_fault f)
      | () ->
          Some
            (Stop_fault
               (Decode_fault { addr = pc; reason = Codec.error_to_string e })))
  | Ok (insn, len) -> (
      (* the whole instruction must lie in executable pages *)
      match Mem.check_access mem pc len Exec with
      | exception Fault.Fault f -> Some (Stop_fault f)
      | () -> exec_decoded mem cpu insn ~pc ~len)

(* The reference loop: one [step] per instruction. Tests and fuzz
   properties compare the tiered loop against it. With [interrupt], the
   hook runs exactly once per instruction boundary, after the fuel check
   and before the fetch (an injected interrupt taken there). *)
let run_reference ?interrupt mem cpu ~fuel =
  let hooked, intr =
    match interrupt with Some i -> (true, i) | None -> (false, ignore)
  in
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else begin
      if hooked then intr ();
      match step mem cpu with
      | Some stop -> stop
      | None -> loop (fuel - 1)
    end
  in
  loop fuel

(* The tiered loop. Dispatch per block boundary: compiled code from the
   [Jit]'s code cache → on a miss or a stale hit, translate the block
   now → [step] fallback where no block can be built.

   It keeps the reference loop's observable behaviour (interp.mli
   states the contract):
   - Executable-span checks are elided for compiled instructions: block
     validity (unchanged page generations) implies the span still
     decodes and is still executable, exactly as at build time.
   - A block's body runs whole only when the remaining fuel covers the
     block; otherwise [replay] runs its decoded instructions from the
     entry up to the boundary where the fuel ends.
   - Within a block only a memory write can move a page generation, and
     every move also moves [Mem.code_epoch]. A fragile block's body (on
     writable+executable pages: all LibOS SIP code) compares the epoch
     across each write, [replay] at every boundary, and a moved epoch
     revalidates the block: one that wrote some other executable page
     runs on, and one that rewrote its own code parks at the boundary
     after the write and deopts to a fresh lookup with the fuel left.
   - A fault inside the body or a replay deopts: the body charged the
     whole block on entry, and the cold path that raised rewound
     the counters and parked pc exactly as [exec_decoded] would have at
     the faulting instruction, so the AEX capture is bit-identical.

   Observability: JIT events are emitted per block lookup when the [Jit]
   trace class is on; with tracing disabled the cost is one flag test.
   Event timestamps extend the LibOS's quantum-start clock by the cycles
   retired so far (the 3 cycles/ns conversion the LibOS clock uses), so
   they interleave correctly with the syscall/quantum events of the
   surrounding trace. *)
let run_tiered jit obs mem cpu ~fuel =
  let c0 = cpu.Cpu.cycles in
  let base_ns = obs.Obs.now () in
  (* [mk] is a closed constructor: nothing is allocated while [on] is off *)
  let trace on mk =
    if on then
      Obs.emit_at obs
        ~ts:(Int64.add base_ns (Int64.of_int ((cpu.Cpu.cycles - c0) / 3)))
        (mk cpu.Cpu.pc)
  in
  let deopt () =
    cpu.Cpu.jit_deopts <- cpu.Cpu.jit_deopts + 1;
    trace obs.Obs.t_jit (fun pc -> Trace.Jit_deopt { pc })
  in
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else dispatch (Jit.lookup jit cpu.Cpu.pc) fuel
  and dispatch r fuel =
    match r with
    | Jit.Hit c -> hit c fuel
    | Jit.Stale ->
        cpu.Cpu.jit_invalidations <- cpu.Cpu.jit_invalidations + 1;
        trace obs.Obs.t_jit (fun pc -> Trace.Jit_invalidate { pc });
        miss fuel
    | Jit.Miss -> miss fuel
  (* a JIT hit found in the table or through a link *)
  and hit c fuel =
    cpu.Cpu.jit_hits <- cpu.Cpu.jit_hits + 1;
    trace obs.Obs.t_jit (fun pc -> Trace.Jit_hit { pc });
    exec_compiled c fuel
  and miss fuel =
    match Jit.translate jit cpu.Cpu.pc with
    | Some c ->
        cpu.Cpu.jit_compiles <- cpu.Cpu.jit_compiles + 1;
        trace obs.Obs.t_jit (fun pc -> Trace.Jit_compile { pc });
        exec_compiled c fuel
    | None -> (
        (* nothing decodable/executable at pc: the reference step
           raises the fault with identical address and reason *)
        match step mem cpu with
        | Some stop -> stop
        | None -> loop (fuel - 1))
  (* a member of this recursive group rather than a local closure, so
     entering a block allocates nothing; [fuel] > 0. The block's counter
     totals are charged here, written out so that entering a block makes
     no cross-module call before its body. A block with a stack window
     runs its window body when the window's entry test passes. *)
  and exec_compiled (c : Jit.compiled) fuel =
    if fuel < c.Jit.insns then replay c 0 mem.Mem.code_epoch fuel
    else
      let i0 = cpu.Cpu.insns in
      cpu.Cpu.insns <- i0 + c.Jit.insns;
      cpu.Cpu.cycles <- cpu.Cpu.cycles + c.Jit.cycles;
      cpu.Cpu.loads <- cpu.Cpu.loads + c.Jit.loads;
      cpu.Cpu.stores <- cpu.Cpu.stores + c.Jit.stores;
      cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + c.Jit.bound_checks;
      match
        (match c.Jit.window with
        | Some w when window_open mem cpu w -> w.Jit.fast
        | _ -> c.Jit.body)
          cpu
      with
      | Jit.U_fall -> leave c (fuel - c.Jit.insns)
      | Jit.U_stop s -> s
      | Jit.U_stale ->
          (* self-modifying code: deopt; the lookup finds the block
             stale and translates the rewritten bytes. The stale exit
             rewound [insns] to the instructions the body retired. *)
          deopt ();
          loop (fuel - (cpu.Cpu.insns - i0))
      | exception Fault.Fault f ->
          deopt ();
          Stop_fault f
  (* A block that branches back to its own entry (the hot-loop shape)
     re-enters without the table lookup; validity is re-checked so a
     store from the block still invalidates it. The epoch compare is
     written out here so an unmoved epoch costs no cross-module call;
     [Jit.valid] compares the snapshot only when it moved. Any other exit follows the block's link when it is
     still what the lookup would find, else looks up and relinks. *)
  and leave (c : Jit.compiled) fuel =
    if fuel <= 0 then Stop_quantum
    else if
      cpu.Cpu.pc = c.Jit.entry
      && ((not c.Jit.writes)
         || c.Jit.valid_at = mem.Mem.code_epoch
         || Jit.valid jit c)
    then begin
      cpu.Cpu.jit_hits <- cpu.Cpu.jit_hits + 1;
      Jit.note_hit jit;
      trace obs.Obs.t_jit (fun pc -> Trace.Jit_hit { pc });
      exec_compiled c fuel
    end
    else if Jit.follow jit c cpu.Cpu.pc then hit c.Jit.link fuel
    else dispatch (Jit.lookup_from jit c cpu.Cpu.pc) fuel
  (* Run [c]'s decoded instructions from index [i] through the reference
     semantics, one fuel check per boundary. [e] is the code epoch [c]
     is known valid at; a boundary that finds the epoch moved revalidates
     [c] before going on, as the body does after a write. *)
  and replay (c : Jit.compiled) i e fuel =
    if fuel <= 0 then Stop_quantum
    else if i >= c.Jit.insns then leave c fuel
    else if mem.Mem.code_epoch <> e then
      if Jit.valid jit c then
        replay c i mem.Mem.code_epoch fuel
      else begin
        (* self-modifying code: deopt; the lookup finds the block stale
           and translates the rewritten bytes *)
        deopt ();
        loop fuel
      end
    else
      let insn, len = c.Jit.src.Decode_cache.insns.(i) in
      match exec_decoded mem cpu insn ~pc:cpu.Cpu.pc ~len with
      | None -> replay c (i + 1) e (fuel - 1)
      (* a privileged stub stops without leaving compiled code *)
      | Some (Stop_fault (Fault.Privileged _) as s) -> s
      | Some (Stop_fault _ as s) ->
          deopt ();
          s
      | Some s -> s
  in
  loop fuel

let run ?jit ?(obs = Obs.disabled) mem cpu ~fuel =
  match jit with
  | Some jit ->
      if Jit.mem jit != mem then
        invalid_arg "Interp.run: the Jit is bound to another Mem";
      run_tiered jit obs mem cpu ~fuel
  | None -> run_reference mem cpu ~fuel
