(** Basic-block formation for the JIT.

    A block starts at an entry pc and extends over straight-line code
    until the first control transfer, syscall gate or privileged opcode
    (at most 64 instructions). It snapshots the {!Mem.page_gen}
    generations of the pages it spans (bumped on map/unmap and on any
    write into an executable page), so a translation made from it can
    be checked against memory with {!block_valid}. Blocks that span a
    writable-and-executable page (all LibOS SIP code) are [fragile]: a
    compiled body checks {!Mem.code_epoch} after each memory write that
    takes the checked path, and the interpreter re-checks the snapshot
    when it moved, so self-modifying code behaves exactly as it does
    under the reference loop. *)

type block = {
  entry : int;  (** pc of the first instruction *)
  insns : (Occlum_isa.Insn.t * int) array;
      (** decoded instruction, encoded length *)
  pages : int array;  (** pages spanned by the block's bytes *)
  gens : int array;  (** generation snapshot of [pages] at build time *)
  fragile : bool;  (** some spanned page is both writable and executable *)
}

val terminates : Occlum_isa.Insn.t -> bool
(** The instruction ends its block: a control transfer, the syscall
    gate or a privileged opcode. *)

val block_valid : Mem.t -> block -> bool
(** The block's generation snapshot still matches memory. *)

val build : Mem.t -> int -> block option
(** Decode and return the block starting at pc. [None] when even the
    first instruction cannot be fetched or decoded — the caller then
    single-steps so the fault is raised with exactly the reference
    semantics. *)
