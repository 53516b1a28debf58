(** Stage 1: complete disassembly (Algorithm 1). Roots are every
    byte-level occurrence of the cfi_label magic; the walk follows
    sequential execution and every direct transfer, merging the MMDSFI
    pseudo-instruction sequences of Figure 2b into single units, and
    aborts on any decode failure or overlap between differently-aligned
    instructions. A binary that passes has one complete, unambiguous
    disassembly. *)

type error = { addr : int; reason : string }

exception Reject of error

type t = {
  units : (int, Unit_kind.unit_at) Hashtbl.t;
  sorted : Unit_kind.unit_at array;  (** address-ascending *)
  labels : int list;  (** cfi_label addresses, ascending *)
}

val run : Bytes.t -> t
(** Disassemble a code image completely. @raise Reject per Algorithm 1. *)

val find : t -> int -> Unit_kind.unit_at option
(** The unit starting exactly at an address. *)

val is_walk_end : Unit_kind.t -> bool
(** Units the Stage-1 walk does not fall through (jmp, indirect jmp,
    ret, hlt, eexit). Guards are never walk-ends. *)

val listing : t -> string
(** A human-readable disassembly. *)
