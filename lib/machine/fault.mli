(** Hardware faults raised by the simulated CPU. Inside an enclave these
    cause an AEX; the LibOS captures them and kills or signals the SIP. *)

type access = Read | Write | Exec

type t =
  | Page_fault of { addr : int; access : access }
      (** unmapped page (e.g. an MMDSFI guard region) or permission denial *)
  | Bound_fault of { bnd : int; value : int64 }
      (** MPX [#BR]: a mem_guard or cfi_guard check failed *)
  | Decode_fault of { addr : int; reason : string }
      (** execution reached bytes that are not a valid instruction *)
  | Div_by_zero of { addr : int }
  | Privileged of { addr : int; insn : string }
      (** an SGX/MPX-modifying/misc instruction executed by user code *)
  | Epc_miss of { addr : int; access : access }
      (** mapped page whose EPC frame has been evicted; [addr] is the
          base address of the faulting page (not the access start) *)

val to_string : t -> string

exception Fault of t
