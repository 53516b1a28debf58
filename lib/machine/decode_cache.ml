(* Decoded basic-block cache for the interpreter hot path.

   Every simulated instruction used to pay a full variable-length
   [Codec.decode] on each execution, so hot loops re-decoded the same
   bytes millions of times. This module caches *decoded* instructions in
   basic blocks keyed by their entry pc: a block starts at the entry,
   extends over straight-line instructions, and is terminated by the
   first control transfer, syscall gate or privileged opcode (all of
   which either change pc non-sequentially or stop the interpreter).

   Soundness: a block is a pure function of the code bytes it spans, so
   it may be replayed only while those bytes are unchanged. [Mem] keeps a
   per-page generation counter that is bumped by [Mem.map]/[Mem.unmap]
   and by every write — privileged or not — landing in an executable
   page. A block snapshots the generations of the pages it spans when
   built; a lookup whose snapshot no longer matches is an invalidation
   and the block is dropped. Under the LibOS, SIP code pages are RWX
   (SGX1 cannot change page permissions after EINIT, and the loader
   writes binaries at runtime), so a store into code is legal in the
   machine and only the verifier's MMDSFI checks keep verified SIPs from
   making one; the unprivileged-write hook makes such a store bump the
   generation all the same. Blocks that span a writable-and-executable
   page are additionally marked [fragile] so the interpreter revalidates
   them after each memory-writing instruction (the only thing inside a
   block that can move a generation), keeping even self-modifying code
   exactly faithful to the uncached semantics. *)

open Occlum_isa

type block = {
  entry : int; (* pc of the first instruction *)
  insns : (Insn.t * int) array; (* decoded instruction, encoded length *)
  pages : int array; (* pages spanned by [entry, entry + byte_len) *)
  gens : int array;  (* generation snapshot of [pages] at build time *)
  fragile : bool;    (* some spanned page is both writable and executable *)
  mutable hot : int; (* replay count since build — the JIT's promotion cue *)
}

type t = {
  tbl : (int, block) Hashtbl.t;
  max_block_insns : int;
  max_blocks : int;
  (* lifetime statistics (also mirrored per-Cpu by the interpreter) *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let create ?(max_block_insns = 64) ?(max_blocks = 16384) () =
  {
    tbl = Hashtbl.create 1024;
    max_block_insns;
    max_blocks;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let clear t = Hashtbl.reset t.tbl

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

(* Build (and intern) a block starting at [pc]. Returns [None] when even
   the first instruction cannot be fetched or decoded — the caller then
   falls back to the uncached single-step so the fault is raised with
   exactly the uncached semantics. *)
let build t mem pc =
  let acc = ref [] in
  let cur = ref pc in
  let n = ref 0 in
  let stop = ref false in
  while not !stop && !n < t.max_block_insns do
    (match
       Mem.check_access mem !cur 1 Fault.Exec;
       Codec.decode (Mem.raw mem) ~pos:!cur ~limit:(Mem.size mem)
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
      if Hashtbl.length t.tbl >= t.max_blocks then clear t;
      let b = { entry = pc; insns; pages; gens; fragile; hot = 0 } in
      Hashtbl.replace t.tbl pc b;
      Some b

type lookup = Hit of block | Stale | Miss

(* Pure lookup: reports staleness (and drops the stale block) but does
   not rebuild; the interpreter decides how to account and recover. *)
let lookup t mem pc =
  match Hashtbl.find_opt t.tbl pc with
  | None ->
      t.misses <- t.misses + 1;
      Miss
  | Some b ->
      if block_valid mem b then begin
        t.hits <- t.hits + 1;
        b.hot <- b.hot + 1;
        Hit b
      end
      else begin
        Hashtbl.remove t.tbl pc;
        t.invalidations <- t.invalidations + 1;
        t.misses <- t.misses + 1;
        Stale
      end

let stats t = (t.hits, t.misses, t.invalidations)
