(* The Occlum verifier (§5): an independent static checker that decides
   whether an ELF binary complies with MMDSFI's two security policies —
   memory accesses confined to [D.begin, D.end), control transfers
   confined to [C.begin, C.end) — without trusting the toolchain.

   Stage 1  complete disassembly        ({!Disasm}, Algorithm 1)
   Stage 2  instruction-set verification (no SGX/MPX-modifying/misc ops)
   Stage 3  control-transfer verification (Figure 3)
   Stage 4  memory-access verification   (Figure 4 + range analysis)

   [verify] runs them on its own copy of the binary and returns what
   they proved as an [accepted], the only thing [sign] takes; the LibOS
   loader (the verifier is not runtime TCB) checks the signature. *)

open Occlum_isa
module U = Unit_kind
module L = Occlum_range.Range_lattice

type rejection = {
  stage : int;
  addr : int;
  reason : string;
  insn : string option; (* decoded text of the offending unit *)
}

let stage_name = function
  | 1 -> "disassembly"
  | 2 -> "instruction set"
  | 3 -> "control transfer"
  | 4 -> "memory access"
  | _ -> "unknown"

let rejection_to_string r =
  let insn = match r.insn with None -> "" | Some i -> Printf.sprintf " [%s]" i in
  Printf.sprintf "stage %d (%s) @0x%x: %s%s" r.stage (stage_name r.stage)
    r.addr r.reason insn

exception Rejected of rejection list

let stage1 (oelf : Occlum_oelf.Oelf.t) =
  match Disasm.run oelf.code with
  | d -> d
  | exception Disasm.Reject { addr; reason } ->
      raise (Rejected [ { stage = 1; addr; reason; insn = None } ])

let stage2 (d : Disasm.t) =
  let bad = ref [] in
  Array.iter
    (fun (u : U.unit_at) ->
      (if u.addr < Occlum_oelf.Oelf.trampoline_reserved then
         bad :=
           { stage = 2; addr = u.addr; reason = "code in loader-reserved area";
             insn = Some (U.to_string u.kind) }
           :: !bad);
      match u.kind with
      | U.U_insn i -> (
          match Insn.danger_of i with
          | Some danger ->
              let what =
                match danger with
                | Sgx_instruction -> "SGX instruction"
                | Mpx_modification -> "MPX bound modification"
                | Misc_privileged -> "privileged instruction"
                | Libos_gate -> "syscall gate outside the loader trampoline"
              in
              bad :=
                { stage = 2; addr = u.addr; reason = what;
                  insn = Some (Insn.to_string i) }
                :: !bad
          | None -> ())
      | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> ())
    d.sorted;
  if !bad <> [] then raise (Rejected (List.rev !bad))

let stage3 (d : Disasm.t) =
  let bad = ref [] in
  let reject (u : U.unit_at) reason =
    bad :=
      { stage = 3; addr = u.addr; reason; insn = Some (U.to_string u.kind) }
      :: !bad
  in
  Array.iteri
    (fun idx (u : U.unit_at) ->
      match u.kind with
      | U.U_insn i -> (
          match Insn.control_transfer_of i with
          | Ct_direct { rel; _ } -> (
              let target = u.addr + u.len + rel in
              match Disasm.find d target with
              | None -> reject u "direct transfer into unmapped code"
              | Some t -> (
                  match t.kind with
                  | U.U_insn ti -> (
                      match Insn.control_transfer_of ti with
                      | Ct_register _ ->
                          reject u
                            "direct transfer targets a register-based \
                             indirect transfer (would skip its cfi_guard)"
                      | Ct_direct _ | Ct_memory | Ct_return | Ct_none -> ())
                  | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> ()))
          | Ct_register r -> (
              (* must be immediately preceded by a cfi_guard on the same
                 register (Figure 3, row 2) *)
              let prev =
                if idx = 0 then None
                else
                  let p = d.sorted.(idx - 1) in
                  if p.addr + p.len = u.addr then Some p else None
              in
              match prev with
              | Some { kind = U.U_cfi_guard r'; _ } when r' = r -> ()
              | _ ->
                  reject u
                    (Printf.sprintf
                       "indirect transfer through %s not guarded by a \
                        cfi_guard" (Reg.name r)))
          | Ct_memory ->
              reject u "memory-based indirect transfer (Figure 3: reject)"
          | Ct_return ->
              reject u "return-based indirect transfer (Figure 3: reject)"
          | Ct_none -> ())
      | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> ())
    d.sorted;
  if !bad <> [] then raise (Rejected (List.rev !bad))

(* --- Stage 4 ------------------------------------------------------------ *)

type accepted = {
  bin : Occlum_oelf.Oelf.t; (* the verifier's own copy of what it verified *)
  d : Disasm.t;
  graph : Range.graph;
  states : L.state option array; (* Stage 4's in-states over [graph] *)
}

(* Every failing Figure-4 obligation against the range fixpoint, in unit
   order: (unit index, the register whose fact is missing, if any, and
   the reason). The reason is formatted only when forced. [removed]
   marks guards to treat as deleted: they neither set facts nor satisfy
   the adjacency of the unit after them, and the fixpoint is re-run
   with them skipped, which is how elision asks whether a removal set
   still verifies. *)
let stage4_failures ?removed { bin = oelf; d; graph; states } =
  let in_state =
    match removed with
    | None -> states
    | Some skip -> Range.analyze ~skip graph d
  in
  let is_removed j = match removed with Some r -> r.(j) | None -> false in
  let bad = ref [] in
  let reject i reg reason = bad := (i, reg, reason) :: !bad in
  let d_begin = Occlum_oelf.Oelf.d_begin_rel oelf in
  let d_end = d_begin + oelf.data_region_size in
  let guarded_by i (operand : Insn.mem) =
    (* adjacency: the immediately preceding unit is a mem_guard with an
       identical operand *)
    i > 0
    && (not (is_removed (i - 1)))
    &&
    let p = d.sorted.(i - 1) and u = d.sorted.(i) in
    p.addr + p.len = u.addr
    && match p.kind with U.U_mem_guard m -> m = operand | _ -> false
  in
  let sp_mem disp : Insn.mem =
    Sib { base = Reg.sp; index = None; scale = 1; disp }
  in
  Array.iteri
    (fun i (u : U.unit_at) ->
      match in_state.(i) with
      | None ->
          (* in R but never reached by the CFG seeds: contradicts the
             reachability argument of Stage 1; reject conservatively *)
          reject i None
            (lazy "disassembled unit unreachable in the verified CFG")
      | Some s -> (
          let check_sp_access ~push_like operand_disp =
            let lo, hi = if push_like then (-8, -1) else (0, 7) in
            if
              L.covers s L.sp lo hi
              || guarded_by i (sp_mem operand_disp)
            then ()
            else
              reject i (Some L.sp)
                (if push_like then lazy "implicit stack store not provably in D"
                 else lazy "implicit stack load not provably in D")
          in
          match u.kind with
          | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> ()
          | U.U_insn insn -> (
              (match insn with
              | Call _ | Call_reg _ -> check_sp_access ~push_like:true (-8)
              | _ -> ());
              match Insn.mem_access_of insn with
              | Ma_none -> ()
              | Ma_implicit { push } ->
                  check_sp_access ~push_like:push (if push then -8 else 0)
              | Ma_sib { base; index; scale; disp; size; is_store = _ } -> (
                  let operand : Insn.mem =
                    Sib { base; index; scale; disp }
                  in
                  if guarded_by i operand then ()
                  else
                    match index with
                    | None ->
                        if
                          L.covers s (Reg.to_int base) disp
                            (disp + size - 1)
                        then ()
                        else
                          reject i (Some (Reg.to_int base))
                            (lazy
                              (Printf.sprintf
                                 "memory access %s not provably within D"
                                 (Insn.mem_to_string operand)))
                    | Some _ ->
                        reject i (Some (Reg.to_int base))
                          (lazy "indexed access without an adjacent mem_guard"))
              | Ma_rip_rel { disp; size; is_store = _ } ->
                  let t = u.addr + u.len + disp in
                  if t >= d_begin && t + size <= d_end then ()
                  else
                    reject i None
                      (lazy
                        (Printf.sprintf
                           "rip-relative access to 0x%x outside D [0x%x,0x%x)"
                           t d_begin d_end))
              | Ma_direct_offset ->
                  reject i None (lazy "direct memory offset (Figure 4: reject)")
              | Ma_vector_sib ->
                  reject i None (lazy "vector SIB (Figure 4: reject)"))))
    d.sorted;
  List.rev !bad

let stage4 a =
  match stage4_failures a with
  | [] -> ()
  | fails ->
      raise
        (Rejected
           (List.map
              (fun (i, _, reason) ->
                let u = a.d.sorted.(i) in
                { stage = 4; addr = u.addr; reason = Lazy.force reason;
                  insn = Some (U.to_string u.kind) })
              fails))

(* --- top level ----------------------------------------------------------- *)

let copy (oelf : Occlum_oelf.Oelf.t) =
  { oelf with code = Bytes.copy oelf.code; data = Bytes.copy oelf.data }

let verify (oelf : Occlum_oelf.Oelf.t) =
  (* every stage reads the copy, so a caller that mutates its binary
     afterwards cannot change what [sign] signs *)
  let bin = copy oelf in
  try
    let d = stage1 bin in
    (* the entry point must itself be a cfi_label: the LibOS starts
       execution only at labels *)
    (match Disasm.find d bin.entry with
    | Some { kind = U.U_cfi_label _; _ } -> ()
    | _ ->
        raise
          (Rejected
             [ { stage = 1; addr = bin.entry;
                 reason = "entry point is not a cfi_label"; insn = None } ]));
    stage2 d;
    stage3 d;
    let graph = Range.unit_graph bin d in
    let a = { bin; d; graph; states = Range.analyze graph d } in
    stage4 a;
    Ok a
  with Rejected rs -> Error rs

let binary a = copy a.bin
let disasm a = a.d
let unit_graph a = a.graph
let in_states a = a.states

(* --- signing ------------------------------------------------------------- *)

(* stands in for a provisioning secret shared by verifier and enclave *)
let key =
  Occlum_util.Hmac.key (Occlum_util.Sha256.digest "occlum-sim-verifier-signing-key")

let sign a =
  let oelf = copy a.bin in
  let payload = Occlum_oelf.Oelf.signing_payload oelf in
  { oelf with signature = Some (Occlum_util.Hmac.mac key [ payload ]) }

let signature_ok (oelf : Occlum_oelf.Oelf.t) =
  match oelf.signature with
  | None -> false
  | Some tag ->
      Occlum_util.Hmac.verify key ~tag [ Occlum_oelf.Oelf.signing_payload oelf ]

let verify_and_sign oelf = Result.map sign (verify oelf)
