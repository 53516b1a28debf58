(** The Occlum ELF loader (§6), and the one place the SIP image format is
    written down. Beyond a classic loader it: (1) admits only
    verifier-signed binaries; (2) rewrites every cfi_label's id to the
    SIP's domain id; (3) injects the syscall trampoline — the only way
    out of the MMDSFI sandbox — and hands its address to [_start];
    (4) computes the MPX bound-register values for the domain. The LibOS
    places images with {!load}, bare runs included (they are Linux-mode
    processes); the fuzz environment and occlum_trace take the same
    bytes and CPU state from {!build}. *)

exception Load_error of string

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

type checked
(** A binary admitted for loading: signature-checked and with its
    cfi_label offsets found. Only {!admit} makes one, so nothing reaches
    {!build} or {!load} unchecked. A [checked] holds no slot state and can be loaded
    any number of times. *)

val admit : require_signature:bool -> Occlum_oelf.Oelf.t -> checked
(** Check the verifier's signature over a binary (skipped when
    [require_signature] is false, as in Linux mode and for the fuzz
    environment and occlum_trace) and find its labels.
    @raise Load_error on a missing or bad signature. *)

val checked_oelf : checked -> Occlum_oelf.Oelf.t

val fitted_slot : id:int -> base:int -> Occlum_oelf.Oelf.t -> Domain_mgr.slot
(** A standalone domain [id] at [base] sized to one binary: C is its
    page-rounded code, D its page-rounded data region, with the usual
    guard page between them. *)

type built = {
  img : image;
  code : Bytes.t;
      (** for C's base: the code with every label patched and the
          reserved head replaced by the gates *)
  data : Bytes.t;  (** for D's base: the data image with argc/argv *)
}

val build :
  ?data_len:int -> Domain_mgr.slot -> checked -> args:string list -> built
(** The image for the slot, built without touching memory: what {!load}
    writes, and the initial machine state. [bnd0] covers the first
    [data_len] bytes of D (default: all of it).
    @raise Load_error on a binary too large for the slot. *)

val load :
  ?dynamic:Occlum_sgx.Enclave.t ->
  Occlum_machine.Mem.t ->
  Domain_mgr.slot ->
  checked ->
  args:string list ->
  image
(** Zero the pages a previous occupant dirtied (SGX1), or EAUG exactly
    the pages the binary needs ([dynamic] = the SGX2 enclave), and write
    {!build}'s code and data into the slot.
    @raise Load_error on an oversized binary. *)

val entry_ok : labelled:bool -> Occlum_machine.Mem.t -> image -> int -> bool
(** [entry_ok ~labelled mem img addr]: the labelled-entry rule for a
    transfer the LibOS makes into the SIP's code (a gate's return, a
    signal handler, a thread entry) — [addr + 8] lies in the domain's
    code and, when [labelled], [addr] opens with its cfi_label. Bare
    builds carry no labels. Allocates nothing. *)

val return_target_ok :
  Occlum_machine.Mem.t -> image -> Occlum_machine.Cpu.t -> bool
(** The check the LibOS makes before the main gate returns to the SIP
    (paper §6): the return address at the SIP's stack pointer lies in
    its data region and names one of this domain's cfi_labels. The gate
    itself pops and jumps unguarded, so a failed check must kill the
    SIP; the LibOS and the fuzz harness both do. Allocates nothing. *)

val init_cpu : image -> Occlum_machine.Cpu.t -> unit
(** Set pc/sp/base registers/bounds for the SIP's first thread. *)
