(** Stage 4's view of the range domain ({!Occlum_range.Range_lattice}):
    the unit graph of a disassembly and the whole-binary fixpoint over
    it, which Stage 4 and its clients in [lib/analysis] (elision, the
    guard audit) all run unchanged. *)

val unit_graph :
  Occlum_oelf.Oelf.t ->
  Disasm.t ->
  Occlum_range.Dataflow.graph * int list * (src:int -> dst:int -> bool)
(** [unit_graph oelf d] is the graph over the indices of [d.sorted], its
    seeds (every cfi_label, where an indirect transfer may land, and the
    program entry), and whether an edge is a call's fall-through, along
    which the state is top. *)

val analyze :
  ?skip:bool array ->
  Occlum_oelf.Oelf.t ->
  Disasm.t ->
  Occlum_range.Range_lattice.state option array
(** [analyze ?skip oelf d] is the in-state of every unit of [d.sorted],
    with top at every seed; [None] for a unit no seed reaches. A unit
    with [skip.(i)] passes its state through unchanged, as a removed
    guard would. *)
