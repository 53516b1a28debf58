(** Stage 4's view of the range domain ({!Occlum_range.Range_lattice}):
    the unit graph of a disassembly and the whole-binary fixpoint over
    it. Only {!Verify} runs them; the analysis clients read both from
    {!Verify.accepted}. *)

type graph =
  Occlum_range.Dataflow.graph * int list * (src:int -> dst:int -> bool)
(** A unit graph over the indices of a disassembly's sorted units, its
    seeds (every cfi_label, where an indirect transfer may land, and
    the program entry), and whether an edge is a call's fall-through,
    along which the state is top. *)

val unit_graph : Occlum_oelf.Oelf.t -> Disasm.t -> graph

val analyze :
  ?skip:bool array ->
  graph ->
  Disasm.t ->
  Occlum_range.Range_lattice.state option array
(** [analyze ?skip g d] is the in-state of every unit of [d.sorted],
    with top at every seed; [None] for a unit no seed reaches. A unit
    with [skip.(i)] passes its state through unchanged, as a removed
    guard would. *)
