(** The Occlum verifier (§5): an independent static checker for MMDSFI's
    two security policies — memory accesses confined to the data region,
    control transfers confined to the code region — with no trust in the
    toolchain.

    Stage 1: complete disassembly ({!Disasm}, Algorithm 1).
    Stage 2: instruction-set verification (no SGX/MPX-modifying/misc ops).
    Stage 3: control-transfer verification (Figure 3).
    Stage 4: memory-access verification (Figure 4 + range analysis). *)

type rejection = {
  stage : int;
  addr : int;
  reason : string;
  insn : string option;  (** decoded text of the offending unit *)
}

val rejection_to_string : rejection -> string
(** e.g. ["stage 3 (control transfer) @0x40: ... [ret]"]. *)

val verify : Occlum_oelf.Oelf.t -> (Disasm.t, rejection list) result
(** Run all four stages; on success returns the complete disassembly. *)

val verify_and_sign :
  Occlum_oelf.Oelf.t -> (Occlum_oelf.Oelf.t, rejection list) result
(** {!verify}, then {!Signer.sign}: the artifact the LibOS loader
    accepts. *)
