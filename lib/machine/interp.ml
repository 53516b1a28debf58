(* The fetch/decode/execute loop. Runs untrusted SIP code only; the LibOS
   itself is OCaml and interacts with the machine through [Cpu] and
   [Mem]. Execution stops on a syscall gate, a fault (→ AEX, captured by
   the LibOS) or quantum expiry (→ preemption).

   Two run loops share one executor ([exec_decoded]):
   - [run_step], the reference, fetches and decodes at pc on every
     instruction through [step];
   - [run_tiered] replays decoded basic blocks from the [Jit]'s decode
     cache, and hot ones as compiled closure chains, falling back to
     [step] whenever a block cannot be built. It must be observably
     identical to the reference: same cycle charges (both go through
     [Cost.of_insn]), same counters, same fault addresses, and the same
     mid-block stop when fuel runs out. *)

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
   control leaves the interpreter. Both the decoding [step] and the
   decoded-block replay call this, so the architectural effects and the
   cycle/counter accounting cannot diverge between them. *)
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
    Codec.decode (Mem.raw mem) ~pos:pc ~limit:(Mem.size mem)
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

let never () = false

(* The reference loop: one [step] per instruction. Tests and fuzz
   properties compare the tiered loop against it. With [hooked], the
   interrupt hook is consulted exactly once per instruction boundary,
   after the fuel check and before the fetch; firing preempts the SIP
   exactly as quantum expiry would (an injected timer interrupt -> AEX). *)
let run_step ~hooked ~intr mem cpu ~fuel =
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else if hooked && intr () then Stop_quantum
    else
      match step mem cpu with
      | Some stop -> stop
      | None -> loop (fuel - 1)
  in
  loop fuel

(* The tiered loop. Dispatch per block boundary: compiled code → the
   JIT's decode cache, promoting blocks that have replayed [Jit]'s
   threshold many times → build → [step] fallback.

   It keeps the reference loop's observable behaviour. Each instruction
   boundary is consulted in one order: fuel check, then fragile
   revalidation, then the hook (when [hooked]), then fetch or replay.
   So [Stop_quantum] and injected interrupts land on the same boundary
   as in [run_step], and the hook is consulted exactly once per executed
   boundary:
   - Executable-span checks are elided for cached instructions: block
     validity (unchanged page generations) implies the span still
     decodes and is still executable, exactly as at build time.
   - Fragile blocks (on writable+executable pages) are revalidated
     between instructions, so a self-modifying store takes effect on the
     very next fetch. A refetch is not a new boundary: the hook is
     consulted once the instruction is actually about to execute.
   - A compiled unit runs its check-free [fast] variant only when no hook
     is armed and the remaining fuel covers the whole unit; otherwise its
     [safe] variant checks fuel and the hook at every internal boundary,
     so superinstruction fusion never skips one.
   - A fault inside a compiled unit deopts to the interpreter's fault
     path: the closure charged and parked state exactly as
     [exec_decoded] would have at the faulting instruction, so the AEX
     capture is bit-identical.

   Observability: tier events are emitted per block lookup when the
   [Dcache]/[Jit] trace classes are on; with tracing disabled the cost
   is one flag test. Event timestamps extend the LibOS's quantum-start
   clock by the cycles retired so far (the 3 cycles/ns conversion the
   LibOS clock uses), so they interleave correctly with the
   syscall/quantum events of the surrounding trace. *)
let run_tiered jit obs ~hooked ~intr mem cpu ~fuel =
  let cache = Jit.decode_cache jit in
  let c0 = cpu.Cpu.cycles in
  let base_ns = obs.Obs.now () in
  (* [mk] is a closed constructor: nothing is allocated while [on] is off *)
  let trace on mk =
    if on then
      Obs.emit_at obs
        ~ts:(Int64.add base_ns (Int64.of_int ((cpu.Cpu.cycles - c0) / 3)))
        (mk cpu.Cpu.pc)
  in
  let rec loop fuel =
    if fuel <= 0 then Stop_quantum
    else
      match Jit.lookup jit mem cpu.Cpu.pc with
      | Jit.Hit c ->
          cpu.Cpu.jit_hits <- cpu.Cpu.jit_hits + 1;
          trace obs.Obs.t_jit (fun pc -> Trace.Jit_hit { pc });
          exec_compiled c 0 fuel
      | Jit.Stale ->
          cpu.Cpu.jit_invalidations <- cpu.Cpu.jit_invalidations + 1;
          trace obs.Obs.t_jit (fun pc -> Trace.Jit_invalidate { pc });
          decoded_tier fuel
      | Jit.Miss -> decoded_tier fuel
  and decoded_tier fuel =
    match Decode_cache.lookup cache mem cpu.Cpu.pc with
    | Decode_cache.Hit b ->
        cpu.Cpu.dcache_hits <- cpu.Cpu.dcache_hits + 1;
        trace obs.Obs.t_dcache (fun pc -> Trace.Dcache_hit { pc });
        enter b fuel
    | (Decode_cache.Stale | Decode_cache.Miss) as r -> (
        if r = Decode_cache.Stale then begin
          cpu.Cpu.dcache_invalidations <- cpu.Cpu.dcache_invalidations + 1;
          trace obs.Obs.t_dcache (fun pc -> Trace.Dcache_invalidate { pc })
        end;
        cpu.Cpu.dcache_misses <- cpu.Cpu.dcache_misses + 1;
        trace obs.Obs.t_dcache (fun pc -> Trace.Dcache_miss { pc });
        match Decode_cache.build cache mem cpu.Cpu.pc with
        | Some b -> enter b fuel
        | None -> (
            (* nothing decodable/executable at pc: the reference step
               raises the fault with identical address and reason *)
            if hooked && intr () then Stop_quantum
            else
              match step mem cpu with
              | Some stop -> stop
              | None -> loop (fuel - 1)))
  (* promote-and-enter: a block hot enough for the JIT (with threshold 0,
     every block at build) runs compiled from this entry on *)
  and enter b fuel =
    if Jit.hot_enough jit b then begin
      let c = Jit.promote jit b in
      cpu.Cpu.jit_compiles <- cpu.Cpu.jit_compiles + 1;
      trace obs.Obs.t_jit (fun pc -> Trace.Jit_compile { pc });
      exec_compiled c 0 fuel
    end
    else exec_block b 0 b.entry fuel
  (* The two replay loops belong to this recursive group rather than
     being local closures, so entering a block allocates nothing. *)
  and exec_block (b : Decode_cache.block) i pc fuel =
    if fuel <= 0 then Stop_quantum
    else if i >= Array.length b.insns then loop fuel
    else if b.fragile && i > 0 && not (Decode_cache.block_valid mem b) then
      (* a store inside this block rewrote its own code page: refetch *)
      loop fuel
    else if hooked && intr () then Stop_quantum
    else
      let insn, len = b.insns.(i) in
      match exec_decoded mem cpu insn ~pc ~len with
      | Some stop -> stop
      | None -> exec_block b (i + 1) (pc + len) (fuel - 1)
  and exec_compiled (c : Jit.compiled) u fuel =
    if fuel <= 0 then Stop_quantum
    else if u >= Array.length c.Jit.units_fast then
      (* a block that branches back to its own entry (the hot-loop
         shape) re-enters without the table lookup; validity is
         re-checked so a store from the block still invalidates it *)
      if
        cpu.Cpu.pc = c.Jit.entry
        && ((not c.Jit.writes) || Decode_cache.block_valid mem c.Jit.src)
      then begin
        cpu.Cpu.jit_hits <- cpu.Cpu.jit_hits + 1;
        Jit.note_hit jit;
        trace obs.Obs.t_jit (fun pc -> Trace.Jit_hit { pc });
        exec_compiled c 0 fuel
      end
      else loop fuel
    else if
      c.Jit.fragile && u > 0 && not (Decode_cache.block_valid mem c.Jit.src)
    then begin
      (* self-modifying code: deopt back to the decoded tier *)
      cpu.Cpu.jit_deopts <- cpu.Cpu.jit_deopts + 1;
      trace obs.Obs.t_jit (fun pc -> Trace.Jit_deopt { pc });
      loop fuel
    end
    else if hooked && intr () then Stop_quantum
    else
      let k = c.Jit.unit_insns.(u) in
      match
        if (not hooked) && fuel >= k then c.Jit.units_fast.(u) mem cpu
        else c.Jit.units_safe.(u) mem cpu fuel intr
      with
      | Jit.U_fall -> exec_compiled c (u + 1) (fuel - k)
      | Jit.U_stop s -> s
      | exception Fault.Fault f ->
          cpu.Cpu.jit_deopts <- cpu.Cpu.jit_deopts + 1;
          trace obs.Obs.t_jit (fun pc -> Trace.Jit_deopt { pc });
          Stop_fault f
  in
  loop fuel

let run ?jit ?(obs = Obs.disabled) ?interrupt mem cpu ~fuel =
  let hooked, intr =
    match interrupt with Some i -> (true, i) | None -> (false, never)
  in
  match jit with
  | Some jit -> run_tiered jit obs ~hooked ~intr mem cpu ~fuel
  | None -> run_step ~hooked ~intr mem cpu ~fuel
