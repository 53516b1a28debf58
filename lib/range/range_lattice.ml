(* The range-analysis abstract domain of §4.3/§5 Stage 4, shared by the
   toolchain's guard optimizer and the verifier so the two cannot drift
   apart: a fact proved by the optimizer is re-provable by the verifier
   because both run the exact same transfer — {!guard_effect} for a
   mem_guard and {!insn_effect} for an instruction. The two clients only
   differ in the graph they run it over (assembly items vs decoded
   units) and in how they map their pseudo-instructions onto it.

   Facts: "base register + d is inside D∪G for all d in [lo, hi]".
   Created by mem_guard pseudo-instructions (which prove the checked
   address is in D, so ±(G-1) around it is in D∪G), refreshed by
   verified accesses (a verified access that executes without faulting
   must have landed in D), shifted by constant add/sub, copied by
   register moves, and destroyed by any other write. Aliases (d, s, k)
   record d = s + k so a fact refreshed through a copy of a pointer also
   refreshes the original.

   All interval arithmetic is clamped to ±clamp_bound, which keeps the
   lattice finite (the meet-based fixpoints terminate) and is the
   stronger of the two historical variants: the optimizer used to drop
   shifted facts at ±shift_limit where the verifier clamped, so the
   optimizer's facts are now a subset of what the verifier re-derives —
   unifying on the clamped rule can only make the optimizer prove less,
   never make it delete a guard the verifier would demand. *)

open Occlum_isa

let slack = Occlum_oelf.Oelf.guard_size - 1 (* 4095 *)
let shift_limit = 1 lsl 20
let clamp_bound = 131071

type state = {
  facts : (int * (int * int)) list; (* reg -> interval [lo, hi] *)
  aliases : (int * int * int) list; (* (d, s, k): d = s + k *)
}

let top = { facts = []; aliases = [] }

let normalize s =
  { facts = List.sort_uniq compare s.facts;
    aliases = List.sort_uniq compare s.aliases }

let equal (a : state) (b : state) = a = b

let meet a b =
  let facts =
    List.filter_map
      (fun (r, (lo, hi)) ->
        match List.assoc_opt r b.facts with
        | Some (lo', hi') ->
            let lo = max lo lo' and hi = min hi hi' in
            if lo <= hi then Some (r, (lo, hi)) else None
        | None -> None)
      a.facts
  in
  let aliases = List.filter (fun al -> List.mem al b.aliases) a.aliases in
  normalize { facts; aliases }

let kill_reg s r =
  { facts = List.remove_assoc r s.facts;
    aliases = List.filter (fun (d, src, _) -> d <> r && src <> r) s.aliases }

(* r := r + c *)
let shift_reg s r c =
  if abs c > shift_limit then kill_reg s r
  else
    { facts =
        List.filter_map
          (fun (r', (lo, hi)) ->
            if r' = r then
              let lo = lo - c and hi = hi - c in
              if hi < -clamp_bound || lo > clamp_bound then None
              else Some (r', (max lo (-clamp_bound), min hi clamp_bound))
            else Some (r', (lo, hi)))
          s.facts;
      aliases =
        List.map
          (fun (d, src, k) ->
            if d = r then (d, src, k + c)
            else if src = r then (d, src, k - c)
            else (d, src, k))
          s.aliases }

(* d := s (+0) *)
let copy_reg s d src =
  if d = src then s
  else
    let s = kill_reg s d in
    let facts =
      match List.assoc_opt src s.facts with
      | Some intv -> (d, intv) :: s.facts
      | None -> s.facts
    in
    { facts; aliases = (d, src, 0) :: s.aliases }

(* Set the fact "base + anchor is in D" (from a guard or a verified
   access), propagating through aliases. The new interval is hulled with
   any overlapping existing one (both are true, and overlapping true
   intervals union to their hull), which keeps the transfer monotone for
   the fixpoint; clamping keeps the lattice finite. *)
let set_anchor s base anchor =
  let set facts r a =
    let fresh = (a - slack, a + slack) in
    let combined =
      match List.assoc_opt r facts with
      | Some (lo, hi) when lo <= snd fresh + 1 && fst fresh <= hi + 1 ->
          (min lo (fst fresh), max hi (snd fresh))
      | _ -> fresh
    in
    let lo = max (fst combined) (-clamp_bound)
    and hi = min (snd combined) clamp_bound in
    if lo <= hi then (r, (lo, hi)) :: List.remove_assoc r facts
    else List.remove_assoc r facts
  in
  let facts = set s.facts base anchor in
  let facts =
    List.fold_left
      (fun facts (d, src, k) ->
        if d = base then set facts src (anchor + k)
        else if src = base then set facts d (anchor - k)
        else facts)
      facts s.aliases
  in
  { s with facts }

let covers s base lo hi =
  match List.assoc_opt base s.facts with
  | Some (flo, fhi) -> flo <= lo && hi <= fhi
  | None -> false

(* A simple (index-free) SIB operand. *)
let simple_sib (m : Insn.mem) =
  match m with
  | Sib { base; index = None; scale = _; disp } -> Some (Reg.to_int base, disp)
  | Sib _ | Rip_rel _ | Abs _ -> None

let sp = Reg.to_int Reg.sp

(* A mem_guard on [m] is redundant under [s] when [s] already proves its
   whole 8-byte window. *)
let guard_redundant s m =
  match simple_sib m with
  | Some (base, disp) -> covers s base disp (disp + 7)
  | None -> false

let written_regs (i : Insn.t) =
  match i with
  | Mov_imm (r, _) | Mov_reg (r, _) | Lea (r, _) | Alu (_, r, _)
  | Wrfsbase r | Wrgsbase r ->
      [ Reg.to_int r ]
  | Load { dst; _ } -> [ Reg.to_int dst ]
  | Pop r -> [ Reg.to_int r; sp ]
  | Push _ | Ret | Ret_imm _ | Call _ | Call_reg _ | Call_mem _ -> [ sp ]
  | Cmp _ | Store _ | Jmp _ | Jcc _ | Jmp_reg _ | Jmp_mem _ | Nop
  | Syscall_gate | Hlt | Bndcl _ | Bndcu _ | Bndmk _ | Bndmov _
  | Cfi_label _ | Eexit | Emodpe | Eaccept | Xrstor | Vscatter _ ->
      []

(* Model one access: if provable, refresh the anchor; unprovable
   accesses leave the state unchanged (in the optimizer they are still
   guard-protected; in the verifier they are rejected separately). *)
let access s m ~size =
  match simple_sib m with
  | None -> s
  | Some (base, disp) ->
      if covers s base disp (disp + size - 1) then set_anchor s base disp else s

let push_effect s =
  (* store at [sp-8], then sp -= 8 *)
  let s = if covers s sp (-8) (-1) then set_anchor s sp (-8) else s in
  shift_reg s sp (-8)

let pop_effect s dst =
  let s = if covers s sp 0 7 then set_anchor s sp 0 else s in
  let s = shift_reg s sp 8 in
  match dst with Some r -> kill_reg s (Reg.to_int r) | None -> s

(* A mem_guard proves its checked address is in D. *)
let guard_effect m s =
  match simple_sib m with
  | Some (base, disp) -> set_anchor s base disp
  | None -> s

(* The one per-instruction transfer of both analyses. A syscall gate
   leaves the state alone: Stage 2 rejects a gate before Stage 4 runs,
   and only bare builds, which the optimizer never sees, emit one. *)
let insn_effect (i : Insn.t) s =
  match i with
  | Load { dst; src; size } ->
      let s = access s src ~size in
      kill_reg s (Reg.to_int dst)
  | Store { dst; size; _ } -> access s dst ~size
  | Push _ | Call _ | Call_reg _ | Call_mem _ -> push_effect s
  | Pop r -> pop_effect s (Some r)
  | Ret | Ret_imm _ -> pop_effect s None
  | Mov_reg (d, src) -> copy_reg s (Reg.to_int d) (Reg.to_int src)
  | Alu (Add, r, O_imm c) when Int64.abs c < Int64.of_int shift_limit ->
      shift_reg s (Reg.to_int r) (Int64.to_int c)
  | Alu (Sub, r, O_imm c) when Int64.abs c < Int64.of_int shift_limit ->
      shift_reg s (Reg.to_int r) (- Int64.to_int c)
  | Mov_imm (r, _) | Alu (_, r, _) | Lea (r, _) | Wrfsbase r | Wrgsbase r ->
      kill_reg s (Reg.to_int r)
  | Syscall_gate | Vscatter _ | Cmp _ | Nop | Jmp _ | Jcc _ | Jmp_reg _
  | Jmp_mem _ | Hlt | Bndcl _ | Bndcu _ | Bndmk _ | Bndmov _ | Cfi_label _
  | Eexit | Emodpe | Eaccept | Xrstor ->
      s
