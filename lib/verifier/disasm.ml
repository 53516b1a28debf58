(* Stage 1: complete disassembly (Algorithm 1).

   Roots are every byte-level occurrence of the cfi_label magic — the
   LibOS only starts or redirects execution at cfi_labels, and (per the
   control-transfer policy verified later) indirect transfers can only
   target cfi_labels, so walking from every root and following every
   direct transfer covers every reachable instruction. Any decode
   failure, out-of-range walk, or overlap between differently-aligned
   instructions aborts — so a binary that passes has a single, complete,
   unambiguous disassembly. *)

open Occlum_isa

type error = { addr : int; reason : string }

exception Reject of error

let reject addr fmt =
  Printf.ksprintf (fun reason -> raise (Reject { addr; reason })) fmt

(* Decode one unit at [pos], greedily merging guard sequences. *)
let decode_unit code pos =
  let limit = Bytes.length code in
  let dec p =
    match Codec.decode code ~pos:p ~limit with
    | Ok (i, len) -> Some (i, len)
    | Error _ -> None
  in
  match dec pos with
  | None -> None
  | Some (i1, l1) -> (
      match i1 with
      | Cfi_label id -> Some (Unit_kind.U_cfi_label id, l1)
      | Bndcl (b1, Ea_mem m1) when Reg.bnd_to_int b1 = 0 -> (
          match dec (pos + l1) with
          | Some (Bndcu (b2, Ea_mem m2), l2)
            when Reg.bnd_to_int b2 = 0 && m1 = m2 ->
              Some (Unit_kind.U_mem_guard m1, l1 + l2)
          | _ -> Some (Unit_kind.U_insn i1, l1))
      | Load { dst; src = Sib { base; index = None; scale = 1; disp = 0 }; size = 8 }
        when dst = Reg.scratch -> (
          match dec (pos + l1) with
          | Some (Bndcl (b1, Ea_reg r1), l2)
            when Reg.bnd_to_int b1 = 1 && r1 = Reg.scratch -> (
              match dec (pos + l1 + l2) with
              | Some (Bndcu (b2, Ea_reg r2), l3)
                when Reg.bnd_to_int b2 = 1 && r2 = Reg.scratch ->
                  Some (Unit_kind.U_cfi_guard base, l1 + l2 + l3)
              | _ -> Some (Unit_kind.U_insn i1, l1))
          | _ -> Some (Unit_kind.U_insn i1, l1))
      | _ -> Some (Unit_kind.U_insn i1, l1))

let is_walk_end (u : Unit_kind.t) =
  match u with
  | U_insn (Jmp _ | Jmp_reg _ | Jmp_mem _ | Ret | Ret_imm _ | Hlt | Eexit) -> true
  | U_insn _ | U_mem_guard _ | U_cfi_guard _ | U_cfi_label _ -> false

(* The result: all reachable units, address-indexed and address-sorted. *)
type t = {
  units : (int, Unit_kind.unit_at) Hashtbl.t;
  sorted : Unit_kind.unit_at array;
  labels : int list; (* addresses of cfi_labels, ascending *)
}

let run (code : Bytes.t) =
  let len = Bytes.length code in
  let units : (int, Unit_kind.unit_at) Hashtbl.t = Hashtbl.create 1024 in
  let owner = Array.make len (-1) in
  (* line 2: byte-by-byte scan for cfi_label roots *)
  let roots = Occlum_util.Bytes_util.find_all ~needle:Codec.cfi_magic code in
  let work = Queue.create () in
  List.iter (fun a -> Queue.push a work) roots;
  while not (Queue.is_empty work) do
    let start = Queue.pop work in
    let rec walk addr =
      if addr < 0 || addr >= len then
        reject addr "walk left the code segment"
      else
        match Hashtbl.find_opt units addr with
        | Some _ -> () (* already disassembled from here: consistent *)
        | None -> (
            match decode_unit code addr with
            | None -> reject addr "invalid instruction"
            | Some (kind, ulen) ->
                if addr + ulen > len then reject addr "instruction past end of code";
                for b = addr to addr + ulen - 1 do
                  if owner.(b) <> -1 && owner.(b) <> addr then
                    reject addr "overlaps instruction at 0x%x" owner.(b)
                done;
                for b = addr to addr + ulen - 1 do
                  owner.(b) <- addr
                done;
                Hashtbl.replace units addr { Unit_kind.addr; len = ulen; kind };
                (match kind with
                | U_insn i -> (
                    match Insn.control_transfer_of i with
                    | Ct_direct { rel; _ } -> Queue.push (addr + ulen + rel) work
                    | Ct_register _ | Ct_memory | Ct_return | Ct_none -> ())
                | U_mem_guard _ | U_cfi_guard _ | U_cfi_label _ -> ());
                if not (is_walk_end kind) then walk (addr + ulen))
    in
    walk start
  done;
  (* a unit that exists at an address another unit owns mid-byte would
     have been rejected above; build the sorted view *)
  let sorted =
    Hashtbl.fold (fun _ u acc -> u :: acc) units []
    |> List.sort (fun a b -> compare a.Unit_kind.addr b.Unit_kind.addr)
    |> Array.of_list
  in
  let labels =
    Array.to_list sorted
    |> List.filter_map (fun (u : Unit_kind.unit_at) ->
           match u.kind with U_cfi_label _ -> Some u.addr | _ -> None)
  in
  { units; sorted; labels }

let find t addr = Hashtbl.find_opt t.units addr

let listing t =
  Array.to_list t.sorted
  |> List.map (fun (u : Unit_kind.unit_at) ->
         Printf.sprintf "%6x: %s" u.addr (Unit_kind.to_string u.kind))
  |> String.concat "\n"
