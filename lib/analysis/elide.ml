(* Verified guard elision: a trust-free MPX-check optimizer.

   The pass runs the verifier's own Stage-4 range fixpoint
   ({!Occlum_verifier.Range.analyze}) to classify every mem_guard of an
   already-verified binary:

   - {b required}: some path needs the guard (its fact, or its Stage-4
     adjacency for an indexed access or an unproven stack access);
   - {b dominated-redundant}: an equal guard on the same (base, disp)
     dominates it with no interleaving clobber of the base;
   - {b range-proven}: the access window is in bounds on every path even
     without a dominating twin (facts flowing from verified accesses,
     loop-carried guards, or wider windows).

   Redundant guards are then dropped from the binary: units between
   pinned addresses (cfi_labels, symbol offsets, the entry, and every
   call's end — return addresses pushed at runtime must stay valid)
   slide up, direct-transfer offsets and rip-relative displacements are
   re-encoded (all operand encodings are fixed-length, so unit sizes
   never change), freed bytes become nop padding placed after a
   walk-end where possible (unreachable) or behind a short jmp
   otherwise, and the result is re-verified and re-signed.

   Trust argument: nothing here is trusted. The elided binary goes back
   through the unmodified 4-stage verifier before it is signed; a
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
module R = Occlum_verifier.Range
module L = Occlum_range.Range_lattice
module V = Occlum_verifier.Verify

type classification = Required | Dominated_redundant | Range_proven

let classification_to_string = function
  | Required -> "required"
  | Dominated_redundant -> "dominated-redundant"
  | Range_proven -> "range-proven"

type guard = {
  index : int;  (* index into the disassembly's sorted units *)
  addr : int;
  text : string;  (* decoded unit text *)
  cls : classification;
  why : string;
}

type report = {
  total : int;          (* all mem_guards *)
  elided : int;         (* dominated + range_proven *)
  dominated : int;
  range_proven : int;
  bailed : bool;        (* irreducible CFG: conservative global bail *)
  rounds : int;         (* validation fixpoint rounds *)
  guards : guard list;  (* every mem_guard, ascending address *)
}

type error =
  | Input_rejected of V.rejection list
  | Output_rejected of V.rejection list  (* a pass bug, by construction *)
  | Rewrite_error of string

let error_to_string = function
  | Input_rejected rs ->
      Printf.sprintf "input rejected by the verifier (%d reason(s)): %s"
        (List.length rs)
        (match rs with r :: _ -> V.rejection_to_string r | [] -> "")
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
let validate oelf d cand =
  let removed = Array.copy cand in
  let rounds = ref 0 in
  let fixed = ref false in
  while not !fixed do
    incr rounds;
    match V.stage4_failures ~removed oelf d with
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

(* --- dominated vs range-proven (reporting) ------------------------------- *)

(* A must-analysis of available guard keys (base, disp): which exact
   guards are live on every path, killed by any write to the base.
   Distinguishes "a dominating twin proves you" from "the range facts
   alone prove you". *)
module Avail = Occlum_range.Dataflow.Make (struct
  type t = (int * int) list (* sorted (base, disp) *)

  let equal = ( = )

  let join a b =
    let rec go a b =
      match (a, b) with
      | [], _ | _, [] -> []
      | x :: a', y :: b' ->
          if x = y then x :: go a' b'
          else if x < y then go a' b
          else go a b'
    in
    go a b
end)

let avail_guards oelf (d : D.t) =
  let graph, seeds, is_top_edge = R.unit_graph oelf d in
  Avail.fixpoint graph
    ~seeds:(List.map (fun i -> (i, [])) seeds)
    ~edge:(fun ~src ~dst v -> if is_top_edge ~src ~dst then [] else v)
    ~transfer:(fun i s ->
      let u = d.sorted.(i) in
      match u.kind with
      | U.U_cfi_label _ -> []
      | U.U_mem_guard m -> (
          match L.simple_sib m with
          | Some key -> List.sort_uniq compare (key :: s)
          | None -> s)
      | U.U_cfi_guard _ ->
          let scratch = Reg.to_int Reg.scratch in
          List.filter (fun (b, _) -> b <> scratch) s
      | U.U_insn insn -> (
          match L.written_regs insn with
          | [] -> s
          | w -> List.filter (fun (b, _) -> not (List.mem b w)) s))

(* --- classification ------------------------------------------------------ *)

(* Internal: classify every guard and return the validated removal set
   alongside the report. *)
let analyze_internal oelf (d : D.t) =
  let n = Array.length d.sorted in
  let cfg = Cfg.build ~entry:oelf.Occlum_oelf.Oelf.entry d in
  let bailed = Cfg.irreducible cfg in
  let mk_report removed rounds why_required =
    let doms = Cfg.dominators cfg in
    let avail = if bailed then [||] else avail_guards oelf d in
    let guard_sites =
      (* (base, disp) -> unit indices of guards with that exact key *)
      let tbl = Hashtbl.create 32 in
      Array.iteri
        (fun i (u : U.unit_at) ->
          match u.kind with
          | U.U_mem_guard m -> (
              match L.simple_sib m with
              | Some key ->
                  Hashtbl.replace tbl key
                    (i :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
              | None -> ())
          | _ -> ())
        d.sorted;
      tbl
    in
    let guards = ref [] in
    let total = ref 0 and dom = ref 0 and rp = ref 0 in
    Array.iteri
      (fun i (u : U.unit_at) ->
        match u.kind with
        | U.U_mem_guard m ->
            incr total;
            let text = U.to_string u.kind in
            let g =
              if not removed.(i) then
                { index = i; addr = u.addr; text; cls = Required;
                  why = why_required i }
              else
                let key = Option.get (L.simple_sib m) in
                let bi = cfg.Cfg.block_of_unit.(i) in
                let dominated =
                  List.mem key
                    (match avail.(i) with Some a -> a | None -> [])
                  && List.exists
                       (fun j ->
                         j <> i
                         &&
                         let bj = cfg.Cfg.block_of_unit.(j) in
                         if bj = bi then j < i
                         else Cfg.dominates doms bj bi)
                       (Option.value
                          (Hashtbl.find_opt guard_sites key)
                          ~default:[])
                in
                if dominated then begin
                  incr dom;
                  { index = i; addr = u.addr; text;
                    cls = Dominated_redundant;
                    why =
                      Printf.sprintf
                        "an equal guard on (r%d%+d) dominates with no \
                         interleaving clobber"
                        (fst key) (snd key) }
                end
                else begin
                  incr rp;
                  { index = i; addr = u.addr; text; cls = Range_proven;
                    why = "the range fixpoint covers the guarded window on \
                           every path" }
                end
            in
            guards := g :: !guards
        | _ -> ())
      d.sorted;
    ( { total = !total; elided = !dom + !rp; dominated = !dom;
        range_proven = !rp; bailed; rounds; guards = List.rev !guards },
      removed )
  in
  if bailed then
    mk_report (Array.make n false) 0 (fun _ ->
        "irreducible control flow: elision conservatively bailed")
  else begin
    let in_state = R.analyze oelf d in
    let reach = Cfg.reachable cfg in
    let cand = Array.make n false in
    let why = Hashtbl.create 16 in
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
    let removed, rounds = validate oelf d cand in
    let why_required i =
      match Hashtbl.find_opt why i with
      | Some s -> s
      | None ->
          if cand.(i) then "reinstated: a residual obligation needs this guard"
          else "required"
    in
    mk_report removed rounds why_required
  end

let analyze oelf d = fst (analyze_internal oelf d)

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

let run ?(sign = true) (oelf : Occlum_oelf.Oelf.t) =
  match V.verify oelf with
  | Error rs -> Error (Input_rejected rs)
  | Ok d -> (
      let report, removed = analyze_internal oelf d in
      let finish out =
        Ok ((if sign then Occlum_verifier.Signer.sign out else out), report)
      in
      if report.elided = 0 then finish oelf
      else
        match rewrite oelf d removed with
        | exception Rewrite m -> Error (Rewrite_error m)
        | oelf' -> (
            match V.verify oelf' with
            | Error rs -> Error (Output_rejected rs)
            | Ok _ -> finish oelf'))
