(** OELF: the executable format produced by the Occlum toolchain,
    checked and signed by the verifier, and loaded by the LibOS.

    Layout contract with the loader (§4.1/§6): the code image is placed
    at the base of the domain's C region with its first
    {!trampoline_reserved} bytes loader-owned; the data image lands at
    D.begin, one unmapped {!guard_size} page after the page-rounded code
    region; inside D sit the trampoline-pointer slot, the argv area,
    globals, heap, and the stack at the top. *)

val magic : string

val trampoline_reserved : int
(** 64: the loader-owned head of the code image. *)

val guard_size : int
(** 4096. *)

type t = {
  code : Bytes.t;
  data : Bytes.t;           (** initialized data image *)
  data_region_size : int;   (** full D size: image + heap + stack *)
  heap_start : int;         (** D-relative start of the heap zone *)
  stack_size : int;
  entry : int;              (** code offset of [_start] *)
  symbols : (string * int) list;  (** function name -> code offset *)
  secret_ranges : (int * int) list;
      (** D-relative (offset, length) of data declared secret by the
          toolchain — the constant-time checker's taint sources; covered
          by the signature so the annotation cannot be stripped *)
  signature : string option;      (** verifier HMAC over {!signing_payload} *)
}

val heap_zone : t -> int * int
(** D-relative [(lo, hi)] of the zone shared by brk and mmap. *)

val code_region_size : t -> int
(** The page-rounded size the loader maps for C. *)

val d_begin_rel : t -> int
(** D.begin relative to the code base: [code_region_size + guard_size].
    The verifier uses this to statically check rip-relative accesses. *)

val signing_payload : t -> string
(** Everything the signature covers (all fields except the signature). *)

val size : t -> int
val find_symbol : t -> string -> int option

val to_string : t -> string
(** Serialize (the on-disk format written by occlum_cc). *)

exception Malformed of string

val of_string : string -> t
(** @raise Malformed on any structural error, including trailing bytes. *)
