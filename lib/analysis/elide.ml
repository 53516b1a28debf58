(* Verified guard elision: a trust-free MPX-check optimizer.

   The pass reads the verifier's own Stage-4 range fixpoint from the
   [Verify.accepted] it is given to classify every mem_guard of the
   verified binary:

   - {b required}: some path needs the guard (its fact, or its Stage-4
     adjacency for an indexed access or an unproven stack access);
   - {b redundant}: the access window is in bounds on every path without
     it (facts flowing from an earlier equal guard, verified accesses,
     loop-carried guards, or wider windows).

   Redundant guards are then dropped from the binary: units between
   pinned addresses (cfi_labels, symbol offsets, the entry, and every
   call's end — return addresses pushed at runtime must stay valid)
   slide up, direct-transfer offsets and rip-relative displacements are
   re-encoded (all operand encodings are fixed-length, so unit sizes
   never change), freed bytes become nop padding placed after a
   walk-end where possible (unreachable) or behind a short jmp
   otherwise, and the result is re-verified from scratch.

   Trust argument: nothing here is trusted. The elided binary goes back
   through the unmodified 4-stage verifier, and only the [accepted] that
   returns can be signed ({!Occlum_verifier.Verify.sign}); a
   rejection is a bug in this pass, surfaced as [Output_rejected],
   never a security event. Soundness of the classification itself is
   additionally validated before rewriting, by the verifier's own
   obligation check: {!Occlum_verifier.Verify.stage4_failures} with the
   candidates as [removed] re-runs the fixpoint with them skipped and
   re-checks every Figure-4 obligation without their adjacency;
   candidates that any failing obligation still needs are reinstated,
   and the check repeats until nothing fails. *)

open Occlum_isa
module U = Occlum_verifier.Unit_kind
module D = Occlum_verifier.Disasm
module L = Occlum_range.Range_lattice
module V = Occlum_verifier.Verify

type classification = Required | Redundant

type guard = {
  index : int;  (* index into the disassembly's sorted units *)
  addr : int;
  text : string;  (* decoded unit text *)
  cls : classification;
  why : string;
}

type report = {
  total : int;          (* all mem_guards *)
  elided : int;         (* the guards classified redundant *)
  bailed : bool;        (* irreducible CFG: conservative global bail *)
  rounds : int;         (* validation fixpoint rounds *)
  guards : guard list;  (* every mem_guard, ascending address *)
}

type error =
  | Output_rejected of V.rejection list  (* a pass bug, by construction *)
  | Rewrite_error of string

let error_to_string = function
  | Output_rejected rs ->
      Printf.sprintf
        "PASS BUG: elided binary rejected by the verifier (%d reason(s)): %s"
        (List.length rs)
        (match rs with r :: _ -> V.rejection_to_string r | [] -> "")
  | Rewrite_error m -> "rewrite failed: " ^ m

(* --- validation against the verifier's own Stage 4 --------------------- *)

(* Shrink the removal set until every obligation holds: reinstate the
   guard directly before a failing unit when it was removed, otherwise
   every removed guard on the failing base, otherwise everything.
   Terminates because each round with failures reinstates at least one
   guard (an empty removal set is the original verified binary, which
   has no failures) and the set only shrinks. *)
let validate a cand =
  let d = V.disasm a in
  let removed = Array.copy cand in
  let rounds = ref 0 in
  let fixed = ref false in
  while not !fixed do
    incr rounds;
    match V.stage4_failures ~removed a with
    | [] -> fixed := true
    | fails ->
        List.iter
          (fun (i, base, _) ->
            if i > 0 && removed.(i - 1) then removed.(i - 1) <- false
            else begin
              let hit = ref false in
              Array.iteri
                (fun j r ->
                  if r then
                    match d.D.sorted.(j).U.kind with
                    | U.U_mem_guard m -> (
                        match L.simple_sib m with
                        | Some (b, _) when Some b = base ->
                            removed.(j) <- false;
                            hit := true
                        | _ -> ())
                    | _ -> ())
                removed;
              if not !hit then
                Array.iteri (fun j r -> if r then removed.(j) <- false) removed
            end)
          fails
  done;
  (removed, !rounds)

(* --- classification ------------------------------------------------------ *)

(* Internal: classify every guard and return the validated removal set
   alongside the report. A candidate is a guard whose window Stage 4's
   in-state already covers ({!Occlum_range.Range_lattice.guard_redundant},
   the optimizer's own test), that feeds no indexed access and that the
   entry reaches; validation then reinstates any a residual obligation
   still needs. *)
let analyze_internal a =
  let d = V.disasm a in
  let n = Array.length d.sorted in
  let cfg = Cfg.build ~entry:(V.binary a).entry d in
  let bailed = Cfg.irreducible cfg in
  let cand = Array.make n false in
  let why = Hashtbl.create 16 in
  let removed, rounds =
    if bailed then (cand, 0)
    else begin
      let in_state = V.in_states a in
      let reach = Cfg.reachable cfg in
      Array.iteri
        (fun i (u : U.unit_at) ->
          match u.kind with
          | U.U_mem_guard m -> (
              let note s = Hashtbl.replace why i s in
              match (L.simple_sib m, in_state.(i)) with
              | None, _ -> note "indexed or rip-relative guard operand"
              | Some _, Some s when L.guard_redundant s m ->
                  (* a guard feeding an adjacent indexed access is
                     structurally required by Stage 4 *)
                  let feeds_indexed =
                    i + 1 < n
                    && d.sorted.(i + 1).addr = u.addr + u.len
                    && (match d.sorted.(i + 1).kind with
                       | U.U_insn insn -> (
                           match Insn.mem_access_of insn with
                           | Ma_sib { index = Some _; _ } -> true
                           | _ -> false)
                       | _ -> false)
                  in
                  if feeds_indexed then
                    note "adjacent indexed access requires the guard"
                  else if not reach.(cfg.Cfg.block_of_unit.(i)) then
                    note "block unreachable from the entry: kept conservatively"
                  else cand.(i) <- true
              | Some _, Some _ ->
                  note "guarded window not covered by the range fixpoint"
              | Some _, None -> note "unit unreachable in the fixpoint")
          | _ -> ())
        d.sorted;
      validate a cand
    end
  in
  let why_required i =
    if bailed then "irreducible control flow: elision conservatively bailed"
    else
      match Hashtbl.find_opt why i with
      | Some s -> s
      | None ->
          if cand.(i) then "reinstated: a residual obligation needs this guard"
          else "required"
  in
  let guards =
    Array.to_list d.sorted
    |> List.mapi (fun i u -> (i, u))
    |> List.filter_map (fun (i, (u : U.unit_at)) ->
           match u.kind with
           | U.U_mem_guard _ ->
               let cls, why =
                 if removed.(i) then
                   ( Redundant,
                     "the range fixpoint covers the guarded window on every \
                      path" )
                 else (Required, why_required i)
               in
               Some
                 { index = i; addr = u.addr; text = U.to_string u.kind; cls;
                   why }
           | _ -> None)
  in
  let elided = Array.fold_left (fun k r -> if r then k + 1 else k) 0 removed in
  ( { total = List.length guards; elided; bailed; rounds; guards }, removed )

let analyze a = fst (analyze_internal a)

(* --- the rewriter -------------------------------------------------------- *)

exception Rewrite of string

let rewrite_fail fmt = Printf.ksprintf (fun m -> raise (Rewrite m)) fmt

let nop_byte =
  let s = Codec.encode Insn.Nop in
  assert (String.length s = 1);
  s.[0]

(* Re-encode an instruction, demanding the canonical length of the unit
   it replaces (all operand encodings are fixed-length per shape, so a
   mismatch means the original encoding was non-canonical — abort). *)
let encode_exact insn len =
  let s = Codec.encode insn in
  if String.length s <> len then
    rewrite_fail "re-encoding %s changed the length (%d -> %d)"
      (Insn.to_string insn) len (String.length s);
  s

let patch_rip delta (insn : Insn.t) =
  let pm = function
    | Insn.Rip_rel d -> Insn.Rip_rel (d + delta)
    | m -> m
  in
  match insn with
  | Load { dst; src; size } -> Insn.Load { dst; src = pm src; size }
  | Store { dst; src; size } -> Store { dst = pm dst; src; size }
  | Lea (r, m) -> Lea (r, pm m)
  | Bndcl (b, Ea_mem m) -> Bndcl (b, Ea_mem (pm m))
  | Bndcu (b, Ea_mem m) -> Bndcu (b, Ea_mem (pm m))
  | Jmp_mem m -> Jmp_mem (pm m)
  | Call_mem m -> Call_mem (pm m)
  | i -> i

let has_rip_rel (insn : Insn.t) =
  let rr = function Insn.Rip_rel _ -> true | _ -> false in
  match insn with
  | Load { src; _ } -> rr src
  | Store { dst; _ } -> rr dst
  | Lea (_, m) | Jmp_mem m | Call_mem m -> rr m
  | Bndcl (_, Ea_mem m) | Bndcu (_, Ea_mem m) -> rr m
  | _ -> false

let rewrite (oelf : Occlum_oelf.Oelf.t) (d : D.t) removed =
  let n = Array.length d.sorted in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i (u : U.unit_at) -> Hashtbl.replace index_of u.addr i)
    d.sorted;
  (* pins: addresses that must not move *)
  let pin_before = Array.make n false and pin_after = Array.make n false in
  let sym_addrs = List.map snd oelf.symbols in
  Array.iteri
    (fun i (u : U.unit_at) ->
      (match u.kind with
      | U.U_cfi_label _ -> pin_before.(i) <- true
      | _ -> ());
      if u.addr = oelf.entry || List.mem u.addr sym_addrs then
        pin_before.(i) <- true;
      match u.kind with
      | U.U_insn (Call _ | Call_reg _) -> pin_after.(i) <- true
      | _ -> ())
    d.sorted;
  Array.iteri
    (fun i r ->
      if r && (pin_before.(i) || pin_after.(i)) then
        rewrite_fail "removal set contains a pinned unit at 0x%x"
          d.sorted.(i).U.addr)
    removed;
  (* layout: per segment between pins, kept units slide up; the freed
     bytes gather at one safe padding point *)
  let new_addr = Array.make n 0 in
  let pad_points = ref [] in (* (pad_start, jump_target option) *)
  let is_kept_walk_end i =
    (not removed.(i)) && D.is_walk_end d.sorted.(i).U.kind
  in
  let flush a b =
    if b >= a then begin
      let seg_removed = ref 0 in
      for i = a to b do
        if removed.(i) then seg_removed := !seg_removed + d.sorted.(i).U.len
      done;
      if !seg_removed = 0 then
        for i = a to b do
          new_addr.(i) <- d.sorted.(i).U.addr
        done
      else begin
        let total = !seg_removed in
        (* padding point: after the last kept walk-end (unreachable), or
           before the glue chain ending the segment's call, or at the
           segment end *)
        let pad_after = ref (-1) (* original unit index; -1 = none yet *)
        and reachable_pad = ref true in
        for i = a to b do
          if is_kept_walk_end i then begin
            pad_after := i;
            reachable_pad := false
          end
        done;
        if !pad_after < 0 then
          if pin_after.(b) then begin
            (* walk back over the kept guard chain glued to the call *)
            let j = ref b in
            while
              !j > a
              && (removed.(!j - 1)
                 ||
                 match d.sorted.(!j - 1).U.kind with
                 | U.U_mem_guard _ | U.U_cfi_guard _ -> true
                 | _ -> false)
            do
              decr j
            done;
            pad_after := !j - 1 (* may be a-1: pad at segment start *)
          end
          else pad_after := b;
        (* assign addresses *)
        let rb = ref 0 in
        for i = a to b do
          if removed.(i) then rb := !rb + d.sorted.(i).U.len
          else
            new_addr.(i) <-
              d.sorted.(i).U.addr - !rb
              + (if i > !pad_after then total else 0)
        done;
        (* where the padding physically starts, and whether execution
           can fall into it (then a jmp hops over) *)
        let pad_start =
          let last_kept = ref (-1) in
          for i = a to min !pad_after b do
            if not removed.(i) then last_kept := i
          done;
          if !last_kept < 0 then d.sorted.(a).U.addr
          else new_addr.(!last_kept) + d.sorted.(!last_kept).U.len
        in
        let target =
          if not !reachable_pad then None
          else begin
            (* first kept unit after the padding, or the next pin *)
            let first_kept = ref (-1) in
            (try
               for i = !pad_after + 1 to b do
                 if not removed.(i) then begin
                   first_kept := i;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !first_kept >= 0 then Some new_addr.(!first_kept)
            else
              let last = d.sorted.(b) in
              Some (last.U.addr + last.U.len)
          end
        in
        pad_points := (pad_start, target) :: !pad_points
      end
    end
  in
  let a = ref 0 in
  for i = 0 to n - 1 do
    if pin_before.(i) && i > !a then begin
      flush !a (i - 1);
      a := i
    end;
    if pin_after.(i) then begin
      flush !a i;
      a := i + 1
    end
  done;
  if !a <= n - 1 then flush !a (n - 1);
  (* pinned units must not have moved *)
  Array.iteri
    (fun i (u : U.unit_at) ->
      if (pin_before.(i) || pin_after.(i)) && new_addr.(i) <> u.addr then
        rewrite_fail "pinned unit at 0x%x moved to 0x%x" u.addr new_addr.(i))
    d.sorted;
  (* remap a direct-transfer target: the unit at [addr], sliding forward
     over removed guards (their fall-through successor is adjacent) *)
  let remap addr =
    match Hashtbl.find_opt index_of addr with
    | None -> rewrite_fail "direct transfer target 0x%x is not a unit" addr
    | Some j ->
        let rec skip j =
          if j < n && removed.(j) then skip (j + 1)
          else if j >= n then
            rewrite_fail "direct transfer target ran past the last unit"
          else j
        in
        new_addr.(skip j)
  in
  (* emit *)
  let code = Bytes.copy oelf.code in
  (* nop-fill every dirty segment's byte range, then write units *)
  let dirty_ranges = ref [] in
  let a = ref 0 in
  let flush_range lo hi =
    let seg_dirty = ref false in
    for i = lo to hi do
      if removed.(i) then seg_dirty := true
    done;
    if !seg_dirty then begin
      let first = d.sorted.(lo) and last = d.sorted.(hi) in
      dirty_ranges := (first.U.addr, last.U.addr + last.U.len) :: !dirty_ranges
    end
  in
  for i = 0 to n - 1 do
    if pin_before.(i) && i > !a then begin
      flush_range !a (i - 1);
      a := i
    end;
    if pin_after.(i) then begin
      flush_range !a i;
      a := i + 1
    end
  done;
  if !a <= n - 1 then flush_range !a (n - 1);
  List.iter
    (fun (lo, hi) -> Bytes.fill code lo (hi - lo) nop_byte)
    !dirty_ranges;
  Array.iteri
    (fun i (u : U.unit_at) ->
      if not removed.(i) then begin
        let na = new_addr.(i) in
        let bytes =
          match u.kind with
          | U.U_insn insn -> (
              match Insn.control_transfer_of insn with
              | Ct_direct { rel; _ } ->
                  let target = u.addr + u.len + rel in
                  let rel' = remap target - (na + u.len) in
                  let insn' =
                    match insn with
                    | Jmp _ -> Insn.Jmp rel'
                    | Jcc (c, _) -> Jcc (c, rel')
                    | Call _ -> Call rel'
                    | _ -> assert false
                  in
                  Some (encode_exact insn' u.len)
              | _ ->
                  if has_rip_rel insn && na <> u.addr then
                    Some (encode_exact (patch_rip (u.addr - na) insn) u.len)
                  else None)
          | U.U_mem_guard (Rip_rel dp) when na <> u.addr ->
              let m = Insn.Rip_rel (dp + (u.addr - na)) in
              let cl = Codec.encode (Insn.Bndcl (Reg.bnd0, Ea_mem m)) in
              let cu = Codec.encode (Insn.Bndcu (Reg.bnd0, Ea_mem m)) in
              let s = cl ^ cu in
              if String.length s <> u.len then
                rewrite_fail "rip-relative guard at 0x%x re-encoded badly"
                  u.addr;
              Some s
          | _ -> None
        in
        match bytes with
        | Some s -> Bytes.blit_string s 0 code na (String.length s)
        | None -> Bytes.blit oelf.code u.addr code na u.len
      end)
    d.sorted;
  (* reachable padding points get a jmp over the nops *)
  List.iter
    (fun (pad_start, target) ->
      match target with
      | None -> ()
      | Some t ->
          let jlen = Codec.length (Insn.Jmp 0) in
          let rel = t - pad_start - jlen in
          if rel >= 0 then
            Bytes.blit_string
              (encode_exact (Insn.Jmp rel) jlen)
              0 code pad_start jlen
          (* rel < 0 means the hole is smaller than a jmp: the nops
             themselves execute; harmless *))
    !pad_points;
  { oelf with code; signature = None }

(* --- driver -------------------------------------------------------------- *)

let run a =
  let report, removed = analyze_internal a in
  if report.elided = 0 then Ok (a, report)
  else
    match rewrite (V.binary a) (V.disasm a) removed with
    | exception Rewrite m -> Error (Rewrite_error m)
    | oelf' -> (
        match V.verify oelf' with
        | Error rs -> Error (Output_rejected rs)
        | Ok a' -> Ok (a', report))
