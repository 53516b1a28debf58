(** The range-analysis guard optimizer of §4.3: redundant check
    elimination and loop check hoisting over the assembly items, using a
    fact/alias dataflow ("base+d lies in D or a guard region for all d in
    [lo, hi]"). Untrusted: the verifier independently re-derives safety
    over the final bytes, so a bug here can cost performance or
    verifiability, never safety. *)

val run : Asm.item list -> Asm.item list
(** Hoist loop guards into preheaders, then delete redundant guards. *)

val count_guards : Asm.item list -> int

val delete_redundant : Asm.item list -> Asm.item list
(** The elimination pass alone. *)
