(* Basic-block formation for the JIT.

   A block starts at an entry pc, extends over straight-line
   instructions, and is terminated by the first control transfer,
   syscall gate or privileged opcode (all of which either change pc
   non-sequentially or stop the interpreter). [Jit] translates each
   block the first time it runs; the block keeps what the translation
   was made from.

   Soundness: a block is a pure function of the code bytes it spans, so
   its translation may run only while those bytes are unchanged. [Mem]
   keeps a per-page generation counter that is bumped by
   [Mem.map]/[Mem.unmap] and by every write — privileged or not —
   landing in an executable page. A block snapshots the generations of
   the pages it spans when built; [block_valid] compares the snapshot.
   Under the LibOS, SIP code pages are RWX (SGX1 cannot change page
   permissions after EINIT, and the loader writes binaries at runtime),
   so a store into code is legal in the machine and only the verifier's
   MMDSFI checks keep verified SIPs from making one; the
   unprivileged-write hook makes such a store bump the generation all
   the same. Blocks that span a writable-and-executable page are marked
   [fragile]: their compiled body checks [Mem.code_epoch] after each
   memory write that takes the checked path (only a write can move a
   generation inside a block, and a direct store never does) and the
   interpreter re-checks the snapshot when it moved, keeping even
   self-modifying code exactly faithful to the reference semantics. *)

open Occlum_isa

type block = {
  entry : int; (* pc of the first instruction *)
  insns : (Insn.t * int) array; (* decoded instruction, encoded length *)
  pages : int array; (* pages spanned by [entry, entry + byte_len) *)
  gens : int array;  (* generation snapshot of [pages] at build time *)
  fragile : bool;    (* some spanned page is both writable and executable *)
}

let max_block_insns = 64

(* A block must end at (and include) any instruction after which pc does
   not simply advance to the next instruction — or which stops the
   interpreter outright. *)
let terminates (i : Insn.t) =
  match Insn.control_transfer_of i with
  | Ct_direct _ | Ct_register _ | Ct_memory | Ct_return -> true
  | Ct_none -> Insn.danger_of i <> None (* gate + privileged opcodes *)

let block_valid mem (b : block) =
  let ok = ref true in
  for k = 0 to Array.length b.pages - 1 do
    if Mem.page_gen mem b.pages.(k) <> b.gens.(k) then ok := false
  done;
  !ok

(* Build the block starting at [pc]. Returns [None] when even the first
   instruction cannot be fetched or decoded — the caller then falls back
   to the reference single-step so the fault is raised with exactly the
   reference semantics. *)
let build mem pc =
  let acc = ref [] in
  let cur = ref pc in
  let n = ref 0 in
  let stop = ref false in
  while not !stop && !n < max_block_insns do
    (match
       Mem.check_access mem !cur 1 Fault.Exec;
       let raw = Mem.raw mem in
       Codec.decode raw ~pos:!cur ~limit:(Bytes.length raw)
     with
    | exception Fault.Fault _ -> stop := true
    | Error _ -> stop := true
    | Ok (insn, len) -> (
        match Mem.check_access mem !cur len Fault.Exec with
        | exception Fault.Fault _ -> stop := true
        | () ->
            acc := (insn, len) :: !acc;
            incr n;
            cur := !cur + len;
            if terminates insn then stop := true))
  done;
  match !acc with
  | [] -> None
  | l ->
      let insns = Array.of_list (List.rev l) in
      let first_page = pc / Mem.page_size in
      let last_page = (!cur - 1) / Mem.page_size in
      let pages =
        Array.init (last_page - first_page + 1) (fun k -> first_page + k)
      in
      let gens = Array.map (fun p -> Mem.page_gen mem p) pages in
      let fragile =
        Array.exists
          (fun p ->
            match Mem.perm_at mem (p * Mem.page_size) with
            | Some { Mem.w = true; x = true; _ } -> true
            | _ -> false)
          pages
      in
      Some { entry = pc; insns; pages; gens; fragile }
