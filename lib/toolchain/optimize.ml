(* The range-analysis guard optimizer of §4.3.

   The abstract domain (facts + aliases, created by mem_guards and
   refreshed by verified accesses) and its per-instruction transfer live
   in {!Occlum_range.Range_lattice}, shared with the verifier's Stage-4
   analysis so the two cannot drift apart: every fact the optimizer
   relies on to delete a guard is a fact the verifier re-derives over
   the final bytes with the same transfer. This module only maps the
   assembler's items onto it and runs it over the item graph.

   Two rewrites, exactly the ones the paper names:
   1. redundant check elimination — delete a mem_guard whose operand is
      already covered by the incoming facts;
   2. loop check hoisting — copy a guard from a loop body's straight-line
      prefix to the preheader (codegen rotates loops, so the preheader
      runs only when the body will), after which pass 1 usually deletes
      the in-loop original.

   The optimizer is untrusted: the verifier independently re-derives all
   of this over the final bytes, so a bug here can break performance or
   verifiability, never safety. *)

open Occlum_isa
include Occlum_range.Range_lattice

(* Which registers does an item write? Used by hoist trace-back. *)
let item_writes (item : Asm.item) =
  match item with
  | Ins i -> List.map Reg.to_int (Insn.written_regs i)
  | Lea_code (r, _) -> [ Reg.to_int r ]
  | Cfi_guard _ -> [ Reg.to_int Reg.scratch ]
  | Call_l _ -> [ sp ]
  | Label _ | Jmp_l _ | Jcc_l _ | Mem_guard _ | Cfi_label_here -> []

(* --- dataflow over the item array -------------------------------------- *)

type flow = {
  next : bool;          (* falls through to the next item *)
  next_top : bool;      (* ... but with state reset (returns from a call) *)
  targets : string list; (* direct label successors *)
}

let flow_of (item : Asm.item) =
  match item with
  | Jmp_l l -> { next = false; next_top = false; targets = [ l ] }
  | Jcc_l (_, l) -> { next = true; next_top = false; targets = [ l ] }
  | Call_l _ -> { next = true; next_top = true; targets = [] }
  | Ins (Jmp _ | Jmp_reg _ | Jmp_mem _ | Ret | Ret_imm _ | Hlt) ->
      { next = false; next_top = false; targets = [] }
  | Ins (Call _ | Call_reg _ | Call_mem _) ->
      { next = true; next_top = true; targets = [] }
  | _ -> { next = true; next_top = false; targets = [] }

(* Stage 4's transfer, with the assembler's pseudo-instructions mapped
   onto the instructions they become. *)
let transfer (item : Asm.item) s =
  match item with
  | Label _ | Jmp_l _ | Jcc_l _ -> s
  | Cfi_label_here -> top
  | Mem_guard m -> guard_effect m s
  | Cfi_guard _ -> kill_reg s (Reg.to_int Reg.scratch)
  | Call_l _ -> insn_effect (Call 0) s
  | Lea_code (r, _) -> insn_effect (Lea (r, Rip_rel 0)) s
  | Ins i -> insn_effect i s

let is_entry_label l =
  String.length l > 2 && (String.sub l 0 2 = "f_" || l = "_start")

module Engine = Occlum_range.Dataflow.Make (struct
  type t = state

  let equal = equal
  let join = meet
end)

let analyze (items : Asm.item array) =
  let n = Array.length items in
  let label_idx = Hashtbl.create 64 in
  Array.iteri
    (fun i item ->
      match item with Asm.Label l -> Hashtbl.replace label_idx l i | _ -> ())
    items;
  let succs = Array.make n [] in
  let top_edges = Hashtbl.create 16 in
  Array.iteri
    (fun i item ->
      let { next; next_top; targets } = flow_of item in
      let out = ref [] in
      if next && i + 1 < n then begin
        if next_top then Hashtbl.replace top_edges (i, i + 1) ();
        out := [ i + 1 ]
      end;
      List.iter
        (fun l ->
          match Hashtbl.find_opt label_idx l with
          | Some j -> out := j :: !out
          | None -> ())
        targets;
      succs.(i) <- List.sort_uniq compare !out)
    items;
  let seeds = ref [] in
  Array.iteri
    (fun i item ->
      match item with
      | Asm.Cfi_label_here -> seeds := (i, top) :: !seeds
      | Asm.Label l when is_entry_label l -> seeds := (i, top) :: !seeds
      | _ -> if i = 0 then seeds := (i, top) :: !seeds)
    items;
  Engine.fixpoint
    { Occlum_range.Dataflow.nodes = n; succs }
    ~seeds:!seeds
    ~edge:(fun ~src ~dst v ->
      if Hashtbl.mem top_edges (src, dst) then top else v)
    ~transfer:(fun i s -> transfer items.(i) s)

(* --- pass 2: loop check hoisting ---------------------------------------- *)

(* Trace an operand (base, disp) backwards through the straight-line
   prefix to express it in terms of registers live at the loop head. *)
let trace_back prefix_items base disp =
  let rec go items base disp =
    match items with
    | [] -> Some (base, disp)
    | item :: rest -> (
        match item with
        | Asm.Ins (Mov_reg (d, src)) when Reg.to_int d = base ->
            go rest (Reg.to_int src) disp
        | Asm.Ins (Alu (Add, r, O_imm c))
          when Reg.to_int r = base && Int64.abs c < Int64.of_int shift_limit ->
            go rest base (disp + Int64.to_int c)
        | Asm.Ins (Alu (Sub, r, O_imm c))
          when Reg.to_int r = base && Int64.abs c < Int64.of_int shift_limit ->
            go rest base (disp - Int64.to_int c)
        | _ -> if List.mem base (item_writes item) then None else go rest base disp)
  in
  (* prefix_items are in program order; walk backwards *)
  go (List.rev prefix_items) base disp

let is_block_end (item : Asm.item) =
  match item with
  | Label _ | Jmp_l _ | Jcc_l _ | Call_l _ | Cfi_label_here | Cfi_guard _ -> true
  | Ins (Jmp _ | Jcc _ | Call _ | Jmp_reg _ | Call_reg _ | Jmp_mem _
        | Call_mem _ | Ret | Ret_imm _ | Syscall_gate | Hlt) ->
      true
  | Ins _ | Mem_guard _ | Lea_code _ -> false

(* Find loops (a backward branch to a label) and compute the guards to
   insert before each loop-head label. *)
let hoist_candidates (items : Asm.item array) =
  let n = Array.length items in
  let label_idx = Hashtbl.create 64 in
  Array.iteri
    (fun i item ->
      match item with Asm.Label l -> Hashtbl.replace label_idx l i | _ -> ())
    items;
  let to_insert = Hashtbl.create 8 in (* head index -> guard list *)
  for j = 0 to n - 1 do
    let backedge_label =
      match items.(j) with
      | Asm.Jmp_l l | Asm.Jcc_l (_, l) -> (
          match Hashtbl.find_opt label_idx l with
          | Some h when h < j -> Some h
          | _ -> None)
      | _ -> None
    in
    match backedge_label with
    | None -> ()
    | Some h ->
        (* straight-line prefix of the loop body *)
        let rec scan i prefix =
          if i >= n || is_block_end items.(i) then ()
          else begin
            (match items.(i) with
            | Asm.Mem_guard m -> (
                match simple_sib m with
                | Some (base, disp) -> (
                    match trace_back (List.rev prefix) base disp with
                    | Some (root, disp0) ->
                        let g =
                          Asm.Mem_guard
                            (Sib
                               { base = Reg.of_int root; index = None;
                                 scale = 1; disp = disp0 })
                        in
                        let old =
                          Option.value (Hashtbl.find_opt to_insert h) ~default:[]
                        in
                        if not (List.mem g old) then
                          Hashtbl.replace to_insert h (g :: old)
                    | None -> ())
                | None -> ())
            | _ -> ());
            scan (i + 1) (items.(i) :: prefix)
          end
        in
        scan (h + 1) []
  done;
  to_insert

let insert_hoists items =
  let arr = Array.of_list items in
  let to_insert = hoist_candidates arr in
  if Hashtbl.length to_insert = 0 then items
  else
    List.concat
      (List.mapi
         (fun i item ->
           match Hashtbl.find_opt to_insert i with
           | Some guards -> List.rev_append guards [ item ]
           | None -> [ item ])
         items)

(* --- pass 3: redundant check elimination -------------------------------- *)

let delete_redundant items =
  let arr = Array.of_list items in
  let states = analyze arr in
  List.filteri
    (fun i item ->
      match item with
      | Asm.Mem_guard m -> (
          match states.(i) with
          | Some s -> not (guard_redundant s m)
          | None -> true)
      | _ -> true)
    items

let run items =
  let items = insert_hoists items in
  delete_redundant items

(* Exposed for tests and stats. *)
let count_guards items =
  List.length (List.filter (function Asm.Mem_guard _ -> true | _ -> false) items)
