(** General-purpose and MPX bound registers of the simulated ISA.

    Conventions (mirroring the paper's use of x86-64): {!sp} is the stack
    pointer used by push/pop/call; {!scratch} is reserved by the MMDSFI
    toolchain for cfi_guard sequences and never holds user values;
    [bnd0] holds the data-region bounds and [bnd1] the degenerate
    [cfi_label, cfi_label] range of Figure 2b. *)

type t
(** A general-purpose register, r0..r13 plus [sp] and [scr]. *)

val count : int
(** 16. *)

val of_int : int -> t
(** [of_int i] is register [i]. @raise Invalid_argument unless 0 <= i < 16. *)

external to_int : t -> int = "%identity"
(** An external, so it inlines across modules even under [-opaque]. *)

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t

val sp : t
(** The stack pointer (r14). *)

val scratch : t
(** The MMDSFI scratch register (r15), written only by cfi_guard. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

type bnd
(** An MPX bound register, bnd0..bnd3. *)

val bnd_count : int
val bnd_of_int : int -> bnd
external bnd_to_int : bnd -> int = "%identity"

val bnd0 : bnd
(** Initialized by the LibOS to the SIP's data-region range. *)

val bnd1 : bnd
(** Initialized to [\[cfi_label, cfi_label\]] — the equality test used by
    cfi_guard. *)

val bnd2 : bnd
val bnd3 : bnd
val bnd_name : bnd -> string
