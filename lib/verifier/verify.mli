(** The Occlum verifier (§5): an independent static checker for MMDSFI's
    two security policies — memory accesses confined to the data region,
    control transfers confined to the code region — with no trust in the
    toolchain.

    Stage 1: complete disassembly ({!Disasm}, Algorithm 1).
    Stage 2: instruction-set verification (no SGX/MPX-modifying/misc ops).
    Stage 3: control-transfer verification (Figure 3).
    Stage 4: memory-access verification (Figure 4 + range analysis).
    Signing takes the [accepted] that only {!verify} returns. *)

type rejection = {
  stage : int;
  addr : int;
  reason : string;
  insn : string option;  (** decoded text of the offending unit *)
}

val rejection_to_string : rejection -> string
(** e.g. ["stage 3 (control transfer) @0x40: ... [ret]"]. *)

type accepted
(** What {!verify} proved about one binary: its own copy of the bytes it
    verified, their disassembly, the unit graph and the Stage-4
    in-states. Only {!verify} makes one, and only one can be signed. *)

val verify : Occlum_oelf.Oelf.t -> (accepted, rejection list) result
(** Copy the binary's [code] and [data] once, then run all four stages
    on the copy: mutating the argument afterwards changes nothing. *)

val binary : accepted -> Occlum_oelf.Oelf.t
(** A fresh copy of the verified binary. *)

val disasm : accepted -> Disasm.t
val unit_graph : accepted -> Range.graph

val in_states : accepted -> Occlum_range.Range_lattice.state option array
(** Stage 4's fixpoint over {!unit_graph}. *)

val stage4_failures :
  ?removed:bool array -> accepted -> (int * int option * string Lazy.t) list
(** Stage 4's obligation check (Figure 4 against the range fixpoint),
    without raising: every failing obligation in unit order, as (index
    into the disassembly's sorted units, the register whose fact is
    missing if there is one, the reason). With [removed], the marked
    mem_guards count as deleted: they set no facts and satisfy no
    adjacency, and the fixpoint is re-run with them skipped. *)

val sign : accepted -> Occlum_oelf.Oelf.t
(** The verified binary with the verifier's MAC over
    {!Occlum_oelf.Oelf.signing_payload}, the one way to mint one. *)

val signature_ok : Occlum_oelf.Oelf.t -> bool
(** Whether {!sign} made the binary's signature for these bytes. *)

val verify_and_sign :
  Occlum_oelf.Oelf.t -> (Occlum_oelf.Oelf.t, rejection list) result
(** {!verify}, then {!sign}. *)
