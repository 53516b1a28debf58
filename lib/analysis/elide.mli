(** Verified guard elision: a trust-free MPX-check optimizer.

    Reads the verifier's own Stage-4 range fixpoint from a
    {!Occlum_verifier.Verify.accepted} to classify every [mem_guard] of
    the verified binary as {e required} or {e redundant}, then rewrites
    the binary to drop the redundant ones — sliding units between
    pinned addresses, re-encoding direct and rip-relative offsets,
    nop/jmp padding the freed bytes — and feeds the result back through
    the {b unmodified} 4-stage verifier.
    Only the [accepted] that re-verification returns can be signed. A
    rejection of the output is a bug in this pass ([Output_rejected]),
    never a security event: the pass is outside the trusted computing
    base. *)

type classification = Required | Redundant

type guard = {
  index : int;  (** index into the disassembly's sorted units *)
  addr : int;
  text : string;  (** decoded unit text *)
  cls : classification;
  why : string;
}

type report = {
  total : int;          (** all mem_guards *)
  elided : int;         (** the guards classified redundant *)
  bailed : bool;        (** irreducible CFG: conservative global bail *)
  rounds : int;         (** validation fixpoint rounds *)
  guards : guard list;  (** every mem_guard, ascending address *)
}

type error =
  | Output_rejected of Occlum_verifier.Verify.rejection list
      (** the elided binary failed re-verification — a pass bug *)
  | Rewrite_error of string

val error_to_string : error -> string

val analyze : Occlum_verifier.Verify.accepted -> report
(** Classification only — no rewrite. *)

val run :
  Occlum_verifier.Verify.accepted ->
  (Occlum_verifier.Verify.accepted * report, error) result
(** Classify, rewrite and re-verify: the result is the verifier's
    acceptance of the elided binary. When nothing can be elided the
    input comes back unchanged. *)
