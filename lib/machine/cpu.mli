(** Architectural state of one simulated hardware thread: 16 GPRs, four
    MPX bound registers, comparison flags, the program counter, and the
    cycle/instruction counters the benchmarks read. *)

type bound = { lower : int64; upper : int64 }  (** inclusive range *)

type t = {
  regs : Bytes.t;
      (** the 16 GPRs, unboxed: register [i] is the native-endian [int64]
          at byte [8 * i]; read and write it with {!get64}/{!set64} or
          {!get}/{!set} *)
  bnds : bound array;
  mutable pc : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool;  (** signed [a < b] of the last [cmp] *)
  mutable cycles : int;
  mutable insns : int;
  mutable loads : int;
  mutable stores : int;
  mutable bound_checks : int;
  (* decoded-block cache observability; not architectural state, so not
     part of {!save}/{!restore} snapshots *)
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable dcache_invalidations : int;
  (* block-JIT tier observability; not architectural state either *)
  mutable jit_compiles : int;
  mutable jit_hits : int;
  mutable jit_invalidations : int;
  mutable jit_deopts : int;
}

val create : unit -> t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
(** Unchecked register-file access at a byte offset ([8 * Reg.to_int r]).
    These are externals so the execution tiers' hot paths inline them
    across modules: no call, no box, no write barrier. The offset must
    be [8 * i] for a register [i]. *)

val get : t -> Occlum_isa.Reg.t -> int64
val set : t -> Occlum_isa.Reg.t -> int64 -> unit
val get_bnd : t -> Occlum_isa.Reg.bnd -> bound
val set_bnd : t -> Occlum_isa.Reg.bnd -> bound -> unit

type snapshot
(** Saved CPU state: what SGX spills to the SSA on an AEX — including the
    MPX bound registers (§2.3) — and what the LibOS uses to context
    switch between SIPs. *)

val save : t -> snapshot
val restore : t -> snapshot -> unit
