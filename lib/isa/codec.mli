(** Variable-length binary encoding of OASM instructions.

    Two properties the system depends on:

    - {b cfi_label nonexistence} (§4.2 property 3): the byte [0xF4] opens
      a cfi_label and appears in no other instruction's encoding —
      immediate/displacement payloads are escaped. A byte-by-byte scan
      for {!cfi_magic} therefore finds exactly the cfi_labels of any
      toolchain-produced binary.
    - {b variable length}: a jump into the middle of an instruction
      decodes differently or fails, the hazard Stage-1 complete
      disassembly defends against. *)

val cfi_magic : string
(** The 4-byte prefix of every cfi_label encoding. *)

type error = Truncated | Bad_opcode of int | Bad_operand of string

val error_to_string : error -> string

val encode : Insn.t -> string
(** @raise Invalid_argument on out-of-range operands (scale, sizes,
    cfi_label ids outside [0, 65536)). *)

val encode_into : Buffer.t -> Insn.t -> unit

val length : Insn.t -> int
(** [length i = String.length (encode i)]. *)

val decode :
  Bytes.t -> pos:int -> limit:int -> (Insn.t * int, error) result
(** [decode data ~pos ~limit] decodes one instruction at [pos], returning
    it with its encoded length. Total: never raises. *)

val encode_program : Insn.t list -> Bytes.t * int list
(** Encode a sequence, also returning each instruction's offset. *)
