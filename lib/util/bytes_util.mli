(** Byte-level helpers for the encoder, binary format, verifier and
    MACs. *)

val hex_of_string : string -> string
val round_up : int -> int -> int

val find_all : needle:string -> Bytes.t -> int list
(** All (possibly overlapping) occurrence offsets of [needle], ascending.
    The verifier's [cfi_label] root scan and the loader's label
    patching. *)

val contains : needle:string -> Bytes.t -> bool
val take_prefix : int -> string -> string

val equal_ct : string -> string -> bool
(** [equal_ct a b] is [a = b], in time that depends only on the
    lengths: the MAC checks of {!Hmac} and {!Seal}. *)
