(** MMDSFI domain slots inside the enclave (§6). SGX1 cannot change
    enclave pages after EINIT, so a fixed number of Figure-2a layouts —
    [C (rwx) | guard | D (rw) | guard] — is preallocated when the
    enclave is built. *)

type slot = {
  id : int;               (** the domain id patched into cfi_labels *)
  base : int;             (** absolute address of the code region *)
  code_size : int;
  data_size : int;
  mutable in_use : bool;
  mutable mapped : (int * int) list;  (** SGX2: dynamically committed ranges *)
}

val c_base : slot -> int
val d_base : slot -> int

type config = {
  max_domains : int;
  domain_code_size : int;
  domain_data_size : int;
}

val default_config : config
val slot_stride : config -> int
val domains_base : int
val enclave_size : config -> int

type t = { cfg : config; slots : slot array }

val build :
  config -> Occlum_sgx.Enclave.t -> data_perm:Occlum_machine.Mem.perm -> t
(** Carve the slots out of a building (pre-EINIT) enclave. On SGX1 every
    page is mapped now, D with [data_perm]; on SGX2 only the address
    space is reserved and the loader commits pages per binary. *)

val acquire : t -> slot option
val release : slot -> unit
val in_use_count : t -> int
