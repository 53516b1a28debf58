(** A generic worklist dataflow engine over integer-indexed graphs,
    shared by the verifier's Stage-4 range analysis and the
    {!Occlum_analysis} clients (dominators, taint, guard audit).

    Nodes start "unreached" ([None], the implicit top of the lifted
    lattice) and acquire a state only via seeds or incoming edges.
    [join] is the client's path-merge operator — intersection for
    must-analyses, union for may-analyses — and must be associative,
    commutative and idempotent with finite join chains. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Combine two states at a path merge point. *)
end

type graph = { nodes : int; succs : int list array }

module Make (L : LATTICE) : sig
  val fixpoint :
    ?direction:[ `Forward | `Backward ] ->
    ?edge:(src:int -> dst:int -> L.t -> L.t) ->
    graph ->
    seeds:(int * L.t) list ->
    transfer:(int -> L.t -> L.t) ->
    L.t option array
  (** Iterate [transfer] to a fixpoint and return the in-state of every
      node ([None] = never reached from a seed). [`Backward] inverts the
      edges first, so seeds are exit nodes. The [edge] hook rewrites the
      value flowing along one particular edge (e.g. call fall-through
      edges delivering top). *)
end
