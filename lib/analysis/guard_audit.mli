(** Residual-guard audit: read the verifier's range fixpoint from an
    accepted binary and count the mem_guards whose in-state already
    proves the access in bounds — i.e. guards a smarter optimizer could
    delete without changing the verifier. Uses the optimizer's exact
    redundancy criterion on the verifier's own fixpoint. *)

type func_report = {
  name : string;       (** owning function per the symbol table *)
  guards : int;
  redundant : int;
}

type report = {
  guards_total : int;
  redundant_total : int;
  funcs : func_report list;  (** sorted by name; only funcs with guards *)
  findings : Lint.finding list;
      (** one OL003 per redundant guard, address-sorted, with the exact
          code offset and decoded unit text *)
}

val audit : Occlum_verifier.Verify.accepted -> report

val record : Occlum_obs.Metrics.registry -> report -> unit
(** Export the totals as [guard_audit.guards_total] /
    [guard_audit.redundant_total] counters. *)

val to_json : report -> string
val to_text : report -> string
