(** Taint-based constant-time checker over verified binaries.

    Sources are the secret data regions declared with [secret global]
    in the toolchain and carried through the OELF as
    {!Occlum_oelf.Oelf.secret_ranges}. The checker runs a forward
    may-taint dataflow on the shared worklist engine and reports every
    program point where a secret can influence timing: a conditional or
    indirect branch, a memory operand address (cache channel), or a
    variable-latency instruction per {!Occlum_machine.Cost}.

    The analysis is a bug-finder, not a soundness proof: loads from
    addresses it cannot resolve statically are treated as public unless
    a tainted value has previously escaped to unknown memory (see the
    implementation notes in [taint.ml]). On toolchain-generated code
    the address resolution (data-region intervals, tracked stack slots)
    is precise enough that clean programs verify clean. *)

type kind =
  | Secret_branch   (** secret-dependent conditional or indirect branch *)
  | Secret_addr     (** secret-dependent memory operand address *)
  | Secret_latency  (** variable-latency instruction on secret data *)

val kind_to_string : kind -> string

type finding = {
  addr : int;    (** code offset of the offending unit *)
  kind : kind;
  insn : string; (** decoded unit text *)
}

val finding_to_string : finding -> string

val check : Occlum_verifier.Verify.accepted -> finding list
(** All findings, sorted by address then kind, deduplicated. Returns
    [[]] immediately when the binary declares no secret ranges. *)
