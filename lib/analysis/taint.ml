(* Taint-based constant-time checking of verified OASM binaries.

   Sources are the secret data regions the toolchain records in the
   OELF ([Oelf.secret_ranges], from `secret global` declarations).
   Sinks are the three classic timing channels:

   - Secret_branch: a conditional branch whose flags are
     secret-dependent, or an indirect transfer through a tainted
     register (secret-dependent control flow);
   - Secret_addr: a memory operand whose base or index register is
     tainted (secret-dependent cache line), including vector-SIB;
   - Secret_latency: an instruction with value-dependent latency per
     {!Occlum_machine.Cost.variable_latency} (division) with a tainted
     operand.

   The analysis is a forward may-taint dataflow over the disassembled
   units on the shared worklist engine. Besides the register taint
   bitmask it tracks enough pointer structure to resolve loads:

   - dptr: registers holding a D-relative address with a known interval
     (seeded by the loader contract: {!Codegen_regs.data_base} = D.begin
     on entry), shifted by constant arithmetic — this is what maps a
     load back to the secret ranges;
   - sp_delta/slots: the stack pointer's offset from its entry value
     and the set of stack slots holding tainted spills (strong updates
     while sp_delta is known); if a tainted value is stored to stack at
     an unknown offset, the whole stack is poisoned (stack_ok = false);
   - mem_taint: weak updates for tainted stores to known D ranges;
   - escaped: a tainted value reached statically-unknown memory, after
     which every unresolvable load is treated as tainted.

   The documented compromise: a load from an address the analysis cannot
   resolve is treated as untainted unless [escaped] — otherwise every
   runtime-library pointer walk would poison the whole program. This is
   the usual engineering trade of binary taint tracking; the checker is
   therefore a bug-finder with a precise clean/flagged verdict on
   toolchain-shaped code, not a soundness proof.

   Control edges mirror Figure 3: direct jumps/branches statically,
   register-based indirect transfers to every cfi_label (returns and
   indirect calls can land exactly there), calls to their callee only —
   the state at the post-call cfi_label arrives via the callee's return
   (jmp_reg) edge, which is what actually executes. *)

open Occlum_isa
module U = Occlum_verifier.Unit_kind
module D = Occlum_verifier.Disasm
module Regs = Occlum_toolchain.Codegen_regs

type kind = Secret_branch | Secret_addr | Secret_latency

let kind_to_string = function
  | Secret_branch -> "secret-dependent branch"
  | Secret_addr -> "secret-dependent memory address"
  | Secret_latency -> "secret-dependent variable-latency instruction"

type finding = { addr : int; kind : kind; insn : string }

let finding_to_string f =
  Printf.sprintf "0x%x: %s [%s]" f.addr (kind_to_string f.kind) f.insn

(* --- the abstract state ------------------------------------------------- *)

let widen_width = 1 lsl 20 (* drop a value interval wider than this *)
let abs_limit = 1 lsl 21   (* ... or stretching past plausible D offsets *)
let max_slots = 64
let max_mem_ranges = 32

type st = {
  taint : int;                      (* bitmask over the 16 registers *)
  flags : bool;                     (* comparison flags tainted *)
  dptr : (int * (int * int)) list;  (* reg -> D-relative value interval *)
  sp_delta : int option;            (* sp minus its entry value *)
  slots : int list;                 (* tainted stack offsets, entry-relative *)
  stack_ok : bool;                  (* false: unknown tainted stack contents *)
  mem_taint : (int * int) list;     (* tainted D ranges (off, len) *)
  escaped : bool;
}

let bit r = 1 lsl Reg.to_int r
let tainted s r = s.taint land bit r <> 0
let set_taint s r v =
  { s with taint = (if v then s.taint lor bit r else s.taint land lnot (bit r)) }

let clamp_ival (lo, hi) =
  if hi - lo > widen_width || lo < -abs_limit || hi > abs_limit then None
  else Some (lo, hi)

let kill_dptr s r = { s with dptr = List.remove_assoc (Reg.to_int r) s.dptr }

let set_dptr s r ival =
  let s = kill_dptr s r in
  match clamp_ival ival with
  | None -> s
  | Some ival -> { s with dptr = (Reg.to_int r, ival) :: s.dptr }

let dptr_of s r = List.assoc_opt (Reg.to_int r) s.dptr

(* merge sorted (off, len) ranges, coalescing overlaps/adjacency *)
let merge_ranges rs =
  let rs = List.sort compare rs in
  let rec go = function
    | (o1, l1) :: (o2, l2) :: tl when o2 <= o1 + l1 ->
        go ((o1, max l1 (o2 + l2 - o1)) :: tl)
    | r :: tl -> r :: go tl
    | [] -> []
  in
  let merged = go rs in
  if List.length merged > max_mem_ranges then
    (* collapse to the hull: coarse but monotone *)
    match (merged, List.rev merged) with
    | (o1, _) :: _, (o2, l2) :: _ -> [ (o1, o2 + l2 - o1) ]
    | _ -> merged
  else merged

let overlaps ranges lo hi =
  List.exists (fun (o, l) -> lo < o + l && o <= hi) ranges

let normalize s =
  { s with
    dptr = List.sort compare s.dptr;
    slots = List.sort_uniq compare s.slots;
    mem_taint = merge_ranges s.mem_taint }

let equal (a : st) (b : st) = a = b

(* may-union at path merges *)
let join a b =
  let dptr =
    List.filter_map
      (fun (r, (lo, hi)) ->
        match List.assoc_opt r b.dptr with
        | Some (lo', hi') -> (
            match clamp_ival (min lo lo', max hi hi') with
            | Some ival -> Some (r, ival)
            | None -> None)
        | None -> None)
      a.dptr
  in
  let sp_delta =
    match (a.sp_delta, b.sp_delta) with
    | Some x, Some y when x = y -> Some x
    | _ -> None
  in
  let slots = List.sort_uniq compare (a.slots @ b.slots) in
  let stack_ok = a.stack_ok && b.stack_ok in
  let slots, stack_ok =
    if sp_delta = None || List.length slots > max_slots then
      ([], stack_ok && slots = [])
    else (slots, stack_ok)
  in
  normalize
    { taint = a.taint lor b.taint;
      flags = a.flags || b.flags;
      dptr;
      sp_delta;
      slots;
      stack_ok;
      mem_taint = a.mem_taint @ b.mem_taint;
      escaped = a.escaped || b.escaped }

let entry_state =
  { taint = 0;
    flags = false;
    (* the loader contract: the data-base register holds D.begin *)
    dptr = [ (Reg.to_int Regs.data_base, (0, 0)) ];
    sp_delta = Some 0;
    slots = [];
    stack_ok = true;
    mem_taint = [];
    escaped = false }

(* --- the transfer function ---------------------------------------------- *)

type ctx = {
  secret_ranges : (int * int) list;
  d_begin : int; (* D.begin relative to the code base, for rip-relative *)
}

(* What one memory operand resolves to under the current state. *)
type addr_info =
  | A_slot of int            (* stack slot at a known entry-relative offset *)
  | A_stack_unknown          (* sp-based, offset unknown *)
  | A_dregion of int * int   (* D-relative [lo, hi] of the first byte *)
  | A_unknown

let resolve ctx (s : st) (u : U.unit_at) (m : Insn.mem) =
  match m with
  | Sib { base; index = None; scale = _; disp } ->
      if Reg.to_int base = Reg.to_int Reg.sp then (
        match s.sp_delta with
        | Some d -> A_slot (d + disp)
        | None -> A_stack_unknown)
      else (
        match dptr_of s base with
        | Some (lo, hi) -> A_dregion (lo + disp, hi + disp)
        | None -> A_unknown)
  | Sib { index = Some _; _ } -> A_unknown
  | Rip_rel disp ->
      let off = u.addr + u.len + disp - ctx.d_begin in
      A_dregion (off, off)
  | Abs _ -> A_unknown

(* is the value read from this address possibly secret? *)
let loaded_taint ctx s info ~size ~addr_tainted =
  addr_tainted
  ||
  match info with
  | A_slot key -> List.mem key s.slots || not s.stack_ok
  | A_stack_unknown -> not s.stack_ok
  | A_dregion (lo, hi) ->
      let hi = hi + size - 1 in
      overlaps ctx.secret_ranges lo hi || overlaps s.mem_taint lo hi
  | A_unknown -> s.escaped

let store_effect s info ~size ~value_tainted =
  match info with
  | A_slot key ->
      if value_tainted then
        if List.length s.slots >= max_slots then
          { s with slots = []; stack_ok = false }
        else { s with slots = List.sort_uniq compare (key :: s.slots) }
      else { s with slots = List.filter (fun k -> k <> key) s.slots }
  | A_stack_unknown ->
      if value_tainted then { s with slots = []; stack_ok = false } else s
  | A_dregion (lo, hi) ->
      if value_tainted then
        { s with
          mem_taint = merge_ranges ((lo, hi - lo + size) :: s.mem_taint) }
      else s (* weak update: cannot untaint an imprecise range *)
  | A_unknown -> if value_tainted then { s with escaped = true } else s

let operand_tainted s (o : Insn.operand) =
  match o with O_reg r -> tainted s r | O_imm _ -> false

let mem_regs_tainted s (m : Insn.mem) =
  match m with
  | Sib { base; index; _ } ->
      tainted s base
      || (match index with Some r -> tainted s r | None -> false)
  | Rip_rel _ | Abs _ -> false

(* Moving sp up (freeing the frame or popping) kills the slots that fall
   below it: stack memory below sp is dead, and dropping the taint keeps
   a function's secret spills from leaking into the join at every
   cfi_label via its return edge. *)
let shift_sp s c =
  match s.sp_delta with
  | None -> s
  | Some d ->
      let d' = d + c in
      let slots =
        if c > 0 then List.filter (fun k -> k >= d') s.slots else s.slots
      in
      { s with sp_delta = Some d'; slots }

let kill_reg s r =
  let s = set_taint s r false in
  let s = kill_dptr s r in
  if Reg.to_int r = Reg.to_int Reg.sp then
    let ok = s.stack_ok && s.slots = [] in
    { s with sp_delta = None; slots = []; stack_ok = ok }
  else s

let transfer ctx (u : U.unit_at) (s : st) =
  match u.kind with
  | U.U_cfi_label _ ->
      (* Stack tracking is frame-local: a cfi_label joins states from
         many contexts (every call site for a function entry, every
         callee for a return site), so the entry-relative sp offsets of
         the incoming states are mutually meaningless. Re-anchor sp at
         the label and forget slot taint rather than letting a bogus
         join poison every stack access downstream. Register, D-region
         and escape taint still flow through; what is lost is taint
         carried in stack slots across an indirect transfer (secrets
         passed as stack arguments), a documented limitation. *)
      { s with sp_delta = Some 0; slots = [] }
  | U.U_mem_guard _ -> s (* bndcl/bndcu compute the EA, no dereference *)
  | U.U_cfi_guard _ -> kill_reg s Reg.scratch
  | U.U_insn i -> (
      match i with
      | Nop | Jmp _ | Jcc _ | Jmp_reg _ | Jmp_mem _ | Hlt | Bndcl _
      | Bndcu _ | Bndmk _ | Bndmov _ | Cfi_label _ | Eexit | Emodpe
      | Eaccept | Xrstor ->
          s
      | Call _ | Call_reg _ | Call_mem _ ->
          (* the return address is pushed: an untainted slot, so the
             callee's epilogue pop resolves to clean data *)
          let info =
            match s.sp_delta with
            | Some d -> A_slot (d - 8)
            | None -> A_stack_unknown
          in
          let s = store_effect s info ~size:8 ~value_tainted:false in
          shift_sp s (-8)
      | Cmp (r, o) -> { s with flags = tainted s r || operand_tainted s o }
      | Mov_imm (r, _) -> kill_reg s r
      | Mov_reg (d, src) ->
          if Reg.to_int d = Reg.to_int src then s
          else
            let s' = kill_reg s d in
            let s' = set_taint s' d (tainted s src) in
            (match dptr_of s src with
            | Some ival when Reg.to_int d <> Reg.to_int Reg.sp ->
                set_dptr s' d ival
            | _ -> s')
      | Load { dst; src; size } ->
          let info = resolve ctx s u src in
          let v =
            loaded_taint ctx s info ~size
              ~addr_tainted:(mem_regs_tainted s src)
          in
          let s = kill_reg s dst in
          set_taint s dst v
      | Store { dst; src; size } ->
          let info = resolve ctx s u dst in
          store_effect s info ~size ~value_tainted:(tainted s src)
      | Push r ->
          let info =
            match s.sp_delta with
            | Some d -> A_slot (d - 8)
            | None -> A_stack_unknown
          in
          let s = store_effect s info ~size:8 ~value_tainted:(tainted s r) in
          shift_sp s (-8)
      | Pop r ->
          let info =
            match s.sp_delta with
            | Some d -> A_slot d
            | None -> A_stack_unknown
          in
          let v = loaded_taint ctx s info ~size:8 ~addr_tainted:false in
          let s = shift_sp s 8 in
          let s = kill_reg s r in
          set_taint s r v
      | Ret | Ret_imm _ -> shift_sp s 8
      | Lea (r, m) ->
          let t = mem_regs_tainted s m in
          let ival =
            match m with
            | Sib { base; index = None; scale = _; disp }
              when Reg.to_int base <> Reg.to_int Reg.sp -> (
                match dptr_of s base with
                | Some (lo, hi) -> Some (lo + disp, hi + disp)
                | None -> None)
            | _ -> None
          in
          let s = kill_reg s r in
          let s = set_taint s r t in
          (match ival with Some ival -> set_dptr s r ival | None -> s)
      | Alu (op, r, o) ->
          let t = tainted s r || operand_tainted s o in
          let ival =
            match (op, o, dptr_of s r) with
            | Add, O_imm c, Some (lo, hi)
              when Int64.abs c < Int64.of_int abs_limit ->
                let c = Int64.to_int c in
                Some (lo + c, hi + c)
            | Sub, O_imm c, Some (lo, hi)
              when Int64.abs c < Int64.of_int abs_limit ->
                let c = Int64.to_int c in
                Some (lo - c, hi - c)
            | _ -> None
          in
          let sp_shift =
            if Reg.to_int r = Reg.to_int Reg.sp then
              match (op, o) with
              | Add, O_imm c -> Some (Int64.to_int c)
              | Sub, O_imm c -> Some (- Int64.to_int c)
              | _ -> None
            else None
          in
          if Reg.to_int r = Reg.to_int Reg.sp then (
            match sp_shift with
            | Some c -> { (shift_sp s c) with flags = t }
            | None -> { (kill_reg s r) with flags = t })
          else
            let s' = kill_dptr s r in
            let s' = set_taint s' r t in
            let s' = { s' with flags = t } in
            (match ival with Some ival -> set_dptr s' r ival | None -> s')
      | Vscatter _ ->
          (* stores through a vector of secret-influenced addresses: the
             addresses are unresolvable statically *)
          { s with escaped = true }
      | Syscall_gate ->
          (* LibOS boundary: the public result lands in the result reg *)
          kill_reg s Regs.result
      | Wrfsbase r | Wrgsbase r -> kill_reg s r)

(* --- the unit graph ------------------------------------------------------ *)

(* Figure-3 edges for taint flow. Calls edge to their callee only: the
   post-call cfi_label receives the callee's state via the return
   (jmp_reg) edge, which is the path that executes.

   Unlike the reachability CFG (Cfg.build), the indirect edges here use
   the toolchain ABI to split the cfi_labels: a call_reg can only land
   on a function entry (a symbol-table offset), and a jmp_reg is only
   emitted as the epilogue return, landing on a post-call label. The
   precision matters: routing every function's return state into every
   function's *entry* would smear one function's secret-laden registers
   over code that never touches secrets. Return-site joins are cleaned
   up naturally by the caller's register-restore sequence. *)
let taint_graph ~is_entry (d : D.t) =
  let n = Array.length d.sorted in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i (u : U.unit_at) -> Hashtbl.replace index_of u.addr i) d.sorted;
  let entry_idx, ret_idx =
    let es = ref [] and rs = ref [] in
    Array.iteri
      (fun i (u : U.unit_at) ->
        match u.kind with
        | U.U_cfi_label _ ->
            if is_entry u.addr then es := i :: !es else rs := i :: !rs
        | _ -> ())
      d.sorted;
    (List.rev !es, List.rev !rs)
  in
  let succs = Array.make (max n 1) [] in
  Array.iteri
    (fun i (u : U.unit_at) ->
      let next () =
        if i + 1 < n && d.sorted.(i + 1).addr = u.addr + u.len then [ i + 1 ]
        else []
      in
      let target rel =
        match Hashtbl.find_opt index_of (u.addr + u.len + rel) with
        | Some j -> [ j ]
        | None -> []
      in
      let out =
        match u.kind with
        | U.U_insn insn -> (
            match insn with
            | Jmp rel -> target rel
            | Jcc (_, rel) -> next () @ target rel
            | Call rel -> target rel
            | Call_reg _ -> entry_idx
            | Jmp_reg _ -> ret_idx
            | Jmp_mem _ | Call_mem _ | Ret | Ret_imm _ | Hlt | Eexit -> []
            | _ -> next ())
        | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> next ()
      in
      succs.(i) <- List.sort_uniq compare out)
    d.sorted;
  ({ Occlum_range.Dataflow.nodes = n; succs }, index_of)

module Engine = Occlum_range.Dataflow.Make (struct
  type t = st

  let equal = equal
  let join = join
end)

(* --- findings ------------------------------------------------------------ *)

let check a =
  let oelf = Occlum_verifier.Verify.binary a in
  if oelf.secret_ranges = [] then []
  else begin
    let d = Occlum_verifier.Verify.disasm a in
    let ctx =
      { secret_ranges = oelf.secret_ranges;
        d_begin = Occlum_oelf.Oelf.d_begin_rel oelf }
    in
    let entries = Hashtbl.create 16 in
    List.iter (fun (_, off) -> Hashtbl.replace entries off ()) oelf.symbols;
    Hashtbl.replace entries oelf.entry ();
    let graph, index_of = taint_graph ~is_entry:(Hashtbl.mem entries) d in
    let seeds =
      match Hashtbl.find_opt index_of oelf.entry with
      | Some i -> [ (i, entry_state) ]
      | None -> []
    in
    let in_state =
      Engine.fixpoint graph ~seeds ~transfer:(fun i s ->
          transfer ctx d.sorted.(i) s)
    in
    let findings = ref [] in
    let report (u : U.unit_at) kind =
      findings :=
        { addr = u.addr; kind; insn = U.to_string u.kind } :: !findings
    in
    Array.iteri
      (fun i (u : U.unit_at) ->
        match in_state.(i) with
        | None -> () (* unreachable in the taint CFG: cannot execute *)
        | Some s -> (
            match u.kind with
            | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> ()
            | U.U_insn insn ->
                (match insn with
                | Jcc _ -> if s.flags then report u Secret_branch
                | Jmp_reg r | Call_reg r ->
                    if tainted s r then report u Secret_branch
                | _ -> ());
                (match Insn.mem_access_of insn with
                | Ma_sib { base; index; _ } ->
                    if
                      tainted s base
                      || (match index with
                         | Some r -> tainted s r
                         | None -> false)
                    then report u Secret_addr
                | Ma_vector_sib -> (
                    match insn with
                    | Vscatter { base; index; _ } ->
                        if tainted s base || tainted s index then
                          report u Secret_addr
                    | _ -> ())
                | Ma_implicit _ ->
                    if tainted s Reg.sp then report u Secret_addr
                | Ma_rip_rel _ | Ma_direct_offset | Ma_none -> ());
                if
                  Occlum_machine.Cost.variable_latency insn
                  && (match insn with
                     | Alu (_, r, o) -> tainted s r || operand_tainted s o
                     | _ -> false)
                then report u Secret_latency))
      d.sorted;
    List.sort_uniq compare !findings
    |> List.sort (fun a b -> compare (a.addr, a.kind) (b.addr, b.kind))
  end
