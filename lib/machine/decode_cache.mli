(** Decoded basic-block cache for the interpreter hot path.

    Blocks are keyed by entry pc, extend over straight-line code until
    the first control transfer, syscall gate or privileged opcode, and
    are invalidated through {!Mem.page_gen} generation counters (bumped
    on map/unmap and on any write into an executable page). Blocks that
    span a writable-and-executable page (all LibOS SIP code) are
    [fragile]: the interpreter revalidates them after each
    memory-writing instruction so self-modifying code behaves exactly as
    it does uncached. *)

type block = {
  entry : int;  (** pc of the first instruction *)
  insns : (Occlum_isa.Insn.t * int) array;
      (** decoded instruction, encoded length *)
  pages : int array;  (** pages spanned by the block's bytes *)
  gens : int array;  (** generation snapshot of [pages] at build time *)
  fragile : bool;  (** some spanned page is both writable and executable *)
  mutable hot : int;
      (** replay count since build — the JIT's promotion cue *)
}

type t

val create : ?max_block_insns:int -> ?max_blocks:int -> unit -> t
(** Defaults: blocks of at most 64 instructions, 16384 cached blocks
    (the table is flushed wholesale when full). *)

val clear : t -> unit

val block_valid : Mem.t -> block -> bool
(** The block's generation snapshot still matches memory. *)

val build : t -> Mem.t -> int -> block option
(** Decode, intern and return the block starting at pc. [None] when even
    the first instruction cannot be fetched or decoded — the caller then
    single-steps uncached so the fault is raised with exactly the
    uncached semantics. *)

type lookup = Hit of block | Stale | Miss

val lookup : t -> Mem.t -> int -> lookup
(** Find a valid block at pc. A stale block is dropped (counted as an
    invalidation and a miss) but not rebuilt. *)

val stats : t -> int * int * int
(** Lifetime [(hits, misses, invalidations)]. *)
