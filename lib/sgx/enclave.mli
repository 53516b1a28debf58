(** Enclave lifecycle, modelled on SGX1:
    ECREATE ({!create}) → EADD+EEXTEND ({!add_pages}, real SHA-256 per
    page — the cost behind Figure 6a) → EINIT ({!init}); after EINIT,
    SGX1 forbids adding/removing/re-permissioning pages
    ({!Sgx1_restriction}). Also models the AEX/SSA save-restore of the
    MPX bound registers (§2.3) and teardown. *)

exception Sgx1_restriction of string

type version =
  | Sgx1  (** all pages preallocated before EINIT (the paper's target) *)
  | Sgx2  (** EDMM: pages committed and released dynamically *)

type t

val create :
  ?version:version -> ?obs:Occlum_obs.Obs.t -> epc:Epc.t -> size:int -> unit -> t
(** Reserve the address range; SGX1 also commits all EPC pages now.
    Lifecycle, AEX and page events and counters go to [obs] (default
    {!Occlum_obs.Obs.disabled}), starting with this enclave's
    [Enclave_create] event.
    @raise Epc.Out_of_epc if the platform pool is exhausted. *)

val version : t -> version

val id : t -> int
val mem : t -> Occlum_machine.Mem.t
val initialized : t -> bool

val add_pages :
  t -> addr:int -> data:Bytes.t -> perm:Occlum_machine.Mem.perm -> unit
(** EADD + EEXTEND: map, copy, and measure (hash) the content.
    @raise Sgx1_restriction after {!init}. *)

val add_zero_pages :
  t -> addr:int -> len:int -> perm:Occlum_machine.Mem.perm -> unit
(** Zero pages are measured by metadata only (cheap), like heap/stack. *)

val init : t -> unit
(** EINIT: finalize the measurement and freeze the memory map. *)

val measurement : t -> string
(** The 32-byte MRENCLAVE equivalent. Only valid after {!init}. *)

val remap : t -> addr:int -> len:int -> perm:Occlum_machine.Mem.perm -> unit
(** Page-table mutation; always an {!Sgx1_restriction} after init.
    Exists so tests can assert the LibOS never needs it. *)

val eaug : t -> addr:int -> len:int -> perm:Occlum_machine.Mem.perm -> unit
(** SGX2 only: dynamically commit zeroed pages to an initialized enclave
    (EAUG+EACCEPT). @raise Sgx1_restriction on an SGX1 enclave. *)

val eremove_pages : t -> addr:int -> len:int -> unit
(** SGX2 only: return dynamic pages to the EPC. *)

val destroy : t -> unit
(** Release the EPC pages (the whole resident set plus sealed backing
    pages on a demand-paged pool). Idempotent: a second destroy is a
    no-op. *)

val aex : ?reason:string -> t -> Occlum_machine.Cpu.t -> unit
(** Asynchronous enclave exit: spill the CPU state (including bound
    registers) into the SSA. [reason] only annotates the trace event. *)

val resume : t -> Occlum_machine.Cpu.t -> unit
(** Restore the SSA state saved by {!aex}. *)
