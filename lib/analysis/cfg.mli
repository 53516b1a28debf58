(** Precise CFG recovery over the verifier's complete disassembly:
    basic blocks, successor edges for all four Figure-3 transfer
    categories, dominators, and natural-loop detection.

    Register-based indirect transfers edge to every cfi_label block (the
    cfi_guard proves exactly "lands on some label"); memory-based
    indirect transfers and returns have no static successors (the
    verifier rejects them); calls keep a fall-through edge because a
    verified callee eventually returns to the pushed site. *)

type block = {
  id : int;
  first : int;     (** index of the first unit in [disasm.sorted] *)
  last : int;      (** index of the last unit *)
  addr : int;      (** address of the first unit *)
  end_addr : int;  (** one past the last unit *)
}

type t = {
  disasm : Occlum_verifier.Disasm.t;
  blocks : block array;
  succs : int list array;
  preds : int list array;
  block_of_unit : int array;  (** unit index -> block id *)
  entry : int option;         (** block id of the program entry *)
  label_blocks : int list;    (** blocks that start at a cfi_label *)
}

val build : entry:int -> Occlum_verifier.Disasm.t -> t
(** Partition the disassembly into basic blocks and compute the edges. *)

val reachable : t -> bool array
(** Per-block reachability from the entry along the recovered edges.
    Stricter than Stage-4 reachability (whose seeds include every
    cfi_label): a labelled function nobody transfers to is
    entry-unreachable here. *)

val dominators : t -> int list option array
(** Self-inclusive, sorted dominator sets per block id; [None] =
    unreachable from the entry. Runs on the shared dataflow engine with
    the intersection lattice. *)

val natural_loops : t -> (int * int list) list
(** [(head, body)] per natural loop (back edges sharing a head are
    merged), sorted by head block id; bodies sorted and head-inclusive. *)

val irreducible : t -> bool
(** [true] iff the {e direct-edge} subgraph (register-indirect fan-out
    excluded: those edges land on cfi_labels, which reset the range
    state to top and so carry no loop-structure obligations) contains a
    retreating edge that is not a back edge — a cycle entered past its
    header. Rooted at the entry and every cfi_label block, mirroring
    the fixpoint's seeds. Clients that rely on natural-loop structure
    (e.g. guard elision) conservatively bail on such CFGs. *)
