(** The Occlum ELF loader (§6). Beyond a classic loader it: (1) admits
    only verifier-signed binaries; (2) rewrites every cfi_label's id to
    the SIP's domain id; (3) injects the syscall trampoline — the only
    way out of the MMDSFI sandbox — and hands its address to [_start];
    (4) computes the MPX bound-register values for the domain. *)

exception Load_error of string

val main_gate_off : int
val sigreturn_gate_off : int
val thread_exit_gate_off : int

type image = {
  slot : Domain_mgr.slot;
  oelf : Occlum_oelf.Oelf.t;
  entry_pc : int;
  init_sp : int;
  bnd0 : Occlum_machine.Cpu.bound;  (** the domain's data-region range *)
  bnd1 : Occlum_machine.Cpu.bound;  (** [label_value, label_value] *)
  main_gate : int;        (** pc of the syscall gate instruction *)
  sigreturn_gate : int;
  thread_exit_gate : int;
  label_value : int64;    (** this domain's 8-byte cfi_label encoding *)
}

val cfi_label_value : int -> int64

val patch_labels : Bytes.t -> int -> unit
(** Rewrite the id field of every cfi_label in a code image. *)

type checked
(** A binary admitted for loading: parsed, signature-checked and with its
    cfi_label offsets found. Only {!admit} makes one, so nothing reaches
    {!load} unchecked. A [checked] holds no slot state and can be loaded
    any number of times. *)

val admit : require_signature:bool -> string -> checked
(** Parse a binary, check the verifier's signature over it (skipped when
    [require_signature] is false, as in Linux mode) and find its labels.
    @raise Occlum_oelf.Oelf.Malformed on a binary that does not parse.
    @raise Load_error on a missing or bad signature. *)

val checked_oelf : checked -> Occlum_oelf.Oelf.t

val load :
  ?dynamic:Occlum_sgx.Enclave.t ->
  Occlum_machine.Mem.t ->
  Domain_mgr.slot ->
  checked ->
  args:string list ->
  image
(** Zero the pages a previous occupant dirtied (SGX1), or EAUG exactly
    the pages the binary needs ([dynamic] = the SGX2 enclave), place
    code (with trampoline) and data (with argv), and describe the
    initial machine state. @raise Load_error on an oversized binary. *)

val init_cpu : image -> Occlum_machine.Cpu.t -> unit
(** Set pc/sp/base registers/bounds for the SIP's first thread. *)
