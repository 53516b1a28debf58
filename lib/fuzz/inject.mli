(** Deterministic fault-injection plans, threaded into the production
    seams: interrupt hooks in {!Occlum_machine.Interp.run} (forced AEX),
    the {!Occlum_sgx.Epc} allocation hook (EPC exhaustion at the k-th
    allocation), the {!Occlum_libos.Sefs}/{!Occlum_libos.Net} I/O
    hooks (transient errors, short transfers), and the
    {!Occlum_libos.Host_transport} fault hook (a hostile host dropping,
    duplicating, reordering or corrupting cross-enclave frames). A plan
    also counts what it injected, and can export the counters as
    metrics. *)

type t = {
  mutable aex : int;  (** interrupts fired (forced AEX points) *)
  mutable epc : int;  (** EPC allocation failures injected *)
  mutable io : int;   (** I/O faults injected *)
  mutable chan : int;  (** cross-enclave transport faults injected *)
}

val make : unit -> t

val interrupt_every : t -> period:int -> unit -> bool
(** A fresh interrupt schedule firing at every [period]-th instruction
    boundary ([period = 1] is the interrupt storm: an AEX at {e every}
    boundary). Schedules are pure counters, so two instances with the
    same period fire at identical boundaries — the contract the
    tiered-vs-reference equivalence property depends on. A differential
    twin counts into a throwaway plan, so a plan counts each boundary
    once. *)

val arm_epc : t -> at:int -> unit
(** Make the [at]-th EPC allocation (1-based, platform-wide) raise
    {!Occlum_sgx.Epc.Out_of_epc}; one-shot. Disarm with {!disarm}. *)

val arm_sefs :
  t -> ?times:int -> at:int -> fault:Occlum_libos.Sefs.io_fault -> unit -> unit
(** Inject [fault] into the [at]-th SEFS read/write and the [times - 1]
    consults after it (default one-shot). [times >= Sefs.max_io_attempts]
    models a persistent fault that defeats the retry wrapper. *)

val arm_net :
  t -> ?times:int -> at:int -> fault:Occlum_libos.Sefs.io_fault -> unit -> unit
(** Inject [fault] into the [at]-th network send/recv, for [times]
    consecutive consults (default one-shot). *)

val arm_channel :
  t ->
  ?times:int ->
  at:int ->
  fault:Occlum_libos.Host_transport.fault ->
  unit ->
  unit
(** Make the [at]-th cross-enclave frame send (1-based, counted over the
    {!Occlum_libos.Host_transport} hook) suffer [fault], and the
    [times - 1] sends after it (default one-shot). The counter is a pure
    function of the send sequence, so identical runs fault identical
    frames — the contract behind the channel determinism property. *)

val disarm : unit -> unit
(** Clear every armed hook (EPC, SEFS, net, host transport). Always call
    when a scenario ends; hooks are global seams. *)

val export : t -> Occlum_obs.Metrics.registry -> unit
(** Add the plan's totals to the [fuzz.inject.aex] / [fuzz.inject.epc] /
    [fuzz.inject.io] / [fuzz.inject.chan] counters. *)
