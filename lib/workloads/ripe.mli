(** RIPE-style security benchmark (§9.3): buffer-overflow attacks carried
    out by real machine-level stores inside verified programs, across two
    techniques and four payload targets. Expected outcomes mirror the
    paper: Occlum prevents all code-injection and ROP attacks;
    return-to-libc succeeds without crossing SIP isolation; the
    unprotected baseline falls to everything. *)

type technique =
  | Ret_overwrite  (** smash the saved return address *)
  | Funcptr        (** corrupt a function pointer, then call it *)

type target =
  | Shellcode_labeled    (** injected code prefixed with a forged cfi_label *)
  | Shellcode_unlabeled
  | Rop_gadget           (** a non-label instruction boundary in real code *)
  | Return_to_libc       (** a legitimate runtime function entry *)

type attack = { technique : technique; target : target; name : string }

val corpus : attack list
(** All 8 technique x target combinations. *)

val shellcode : labeled:bool -> domain_id:int -> string
(** exit(1337) as raw OASM bytes, optionally label-prefixed. *)

val attack_program : attack -> Occlum_toolchain.Ast.program
(** The vulnerable program (it passes the verifier: the threat model is
    a compromised-but-verified SIP). *)

type outcome = Attack_succeeded | Prevented of string

val outcome_to_string : outcome -> string

val run_on_occlum : attack -> outcome
val run_on_baseline : attack -> outcome
(** The same attack on an unprotected native process (RWX data, real
    ret, no SFI). *)
