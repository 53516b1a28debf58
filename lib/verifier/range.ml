(* Stage 4: cfi_label-aware range analysis over the disassembled units
   (§4.3, §5 Stage 4), independent from — and stronger than — the
   toolchain's optimizer, which this analysis must be able to re-prove.

   The abstract domain and its per-instruction transfer live in
   {!Occlum_range.Range_lattice}, shared with the optimizer so the two
   cannot drift apart. This module adds the verifier's view of it: the
   mapping of a decoded unit onto that transfer and the successor
   relation over {!Unit_kind.unit_at} values. Only
   {!Verify} runs them; its clients in [lib/analysis] (elision, the
   guard audit) read the graph and the states from [Verify.accepted].

   cfi_labels reset the state to top because any indirect transfer may
   land on them. Calls reset the state of their return site (the callee
   may clobber anything) — expressed as the [Next_top] successor. *)

open Occlum_isa
open Occlum_range.Range_lattice
module U = Unit_kind

type graph =
  Occlum_range.Dataflow.graph * int list * (src:int -> dst:int -> bool)

type succ = Next | Next_top | Target of int

let succs_of (u : U.unit_at) =
  match u.kind with
  | U.U_insn i -> (
      match i with
      | Jmp rel -> [ Target (u.addr + u.len + rel) ]
      | Jcc (_, rel) -> [ Next; Target (u.addr + u.len + rel) ]
      | Call _ | Call_reg _ | Call_mem _ -> [ Next_top ]
      | Jmp_reg _ | Jmp_mem _ | Ret | Ret_imm _ | Hlt | Eexit -> []
      | _ -> [ Next ])
  | U.U_mem_guard _ | U.U_cfi_guard _ | U.U_cfi_label _ -> [ Next ]

let transfer (u : U.unit_at) s =
  match u.kind with
  | U.U_cfi_label _ -> top
  | U.U_mem_guard m -> guard_effect m s
  | U.U_cfi_guard _ -> kill_reg s (Reg.to_int Reg.scratch)
  | U.U_insn i -> insn_effect i s

(* The unit graph Stage 4 and elision iterate over:
   nodes are indices into [d.sorted]. The seeds are every cfi_label
   (indirect transfers may land there) and the program entry. [Next_top]
   edges are returned separately so the dataflow edge hook can deliver
   top along them. *)
let unit_graph (oelf : Occlum_oelf.Oelf.t) (d : Disasm.t) =
  let n = Array.length d.sorted in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i (u : U.unit_at) -> Hashtbl.replace index_of u.addr i) d.sorted;
  let succs = Array.make n [] in
  let top_edges = Hashtbl.create 16 in
  let seeds = ref [] in
  Array.iteri
    (fun i (u : U.unit_at) ->
      (match u.kind with U.U_cfi_label _ -> seeds := i :: !seeds | _ -> ());
      let next () =
        if i + 1 < n && d.sorted.(i + 1).addr = u.addr + u.len then [ i + 1 ]
        else []
      in
      let out =
        List.concat_map
          (function
            | Next -> next ()
            | Next_top ->
                let js = next () in
                List.iter (fun j -> Hashtbl.replace top_edges (i, j) ()) js;
                js
            | Target a -> (
                match Hashtbl.find_opt index_of a with
                | Some j -> [ j ]
                | None -> []))
          (succs_of u)
      in
      succs.(i) <- List.sort_uniq compare out)
    d.sorted;
  (match Hashtbl.find_opt index_of oelf.entry with
  | Some i -> seeds := i :: !seeds
  | None -> ());
  let graph = { Occlum_range.Dataflow.nodes = n; succs } in
  (graph, !seeds, fun ~src ~dst -> Hashtbl.mem top_edges (src, dst))

module Engine = Occlum_range.Dataflow.Make (struct
  type t = state

  let equal = equal
  let join = meet
end)

(* The whole-binary Stage-4 fixpoint over [unit_graph]: the in-state of
   every disassembled unit, with top at every seed. A unit with [skip.(i)] passes its state
   through unchanged: elision asks what the facts are once those guards
   are gone (removal changes no edge, a guard has one fall-through
   successor). [None] = unreachable from any seed. *)
let analyze ?skip (graph, seeds, is_top_edge) (d : Disasm.t) =
  Engine.fixpoint graph
    ~seeds:(List.map (fun i -> (i, top)) seeds)
    ~edge:(fun ~src ~dst v -> if is_top_edge ~src ~dst then top else v)
    ~transfer:
      (match skip with
      | None -> fun i s -> transfer d.sorted.(i) s
      | Some skip -> fun i s -> if skip.(i) then s else transfer d.sorted.(i) s)
