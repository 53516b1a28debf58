(** The shared diagnostics vocabulary of the static-analysis clients:
    [finding] records with stable OL rule ids, rendered identically by
    `occlum_lint`, `occlum_verify --guard-audit` and the CI SARIF
    artifact.

    Rule table:
    - OL001 unreachable-block — basic block unreachable from the entry
    - OL002 dead-flag-update — cmp flags overwritten before any branch
    - OL003 redundant-guard — mem_guard the range fixpoint proves away
    - OL004/5/6 — the constant-time taint findings of {!Taint} *)

type severity = Error | Warning | Note

type finding = {
  rule : string;     (** stable id, e.g. "OL003" *)
  addr : int;        (** code offset of the offending unit *)
  insn : string;     (** decoded unit text *)
  message : string;
  severity : severity;
}

val rules : (string * string * string) list
(** [(id, name, short description)], the stable rule registry. *)

val compare_findings : finding -> finding -> int
val finding_to_string : finding -> string

val of_taint : Taint.finding -> finding
(** Map a constant-time finding onto OL004/OL005/OL006. *)

val unreachable_blocks : Cfg.t -> finding list
(** OL001: one finding per block the recovered CFG cannot reach from
    the entry (the verifier still accepts such blocks — its seeds
    include every cfi_label). *)

val dead_flag_updates : Cfg.t -> finding list
(** OL002: a cmp overwritten by a later cmp in the same block with no
    conditional branch in between. *)

val to_text : finding list -> string
val finding_json : finding -> string
val to_json : finding list -> string
val to_sarif : uri:string -> finding list -> string
(** SARIF 2.1.0 document; [uri] names the analyzed artifact. *)
