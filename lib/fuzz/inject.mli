(** Deterministic fault-injection plans, threaded into the production
    seams: interrupt hooks in {!Occlum_machine.Interp.run_reference}
    (forced AEX), and the fault schedule of each untrusted host side,
    armed per instance: an {!Occlum_sgx.Epc} pool (EPC exhaustion at
    the k-th allocation), a {!Occlum_libos.Sefs} host store and a
    {!Occlum_libos.Net} network (transient errors, short transfers),
    and a {!Occlum_libos.Host_transport} (a hostile host dropping,
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
    twinned runs of the guard-elision property depend on. A
    differential twin counts into a throwaway plan, so a plan counts
    each boundary once. *)

(** {1 Per-instance host faults}

    Each [arm_*] installs a countdown schedule on one instance's
    untrusted host side, runs [body], and removes the schedule on every
    exit, exceptions included; other instances in the process are
    untouched. The schedule counts only that instance's consults
    (1-based): it fires on the [at]-th and the [times - 1] after it
    (default one-shot). Scopes on one instance do not nest. *)

val arm_epc : t -> Occlum_sgx.Epc.t -> at:int -> (unit -> 'a) -> 'a
(** Make the [at]-th allocation from this pool raise
    {!Occlum_sgx.Epc.Out_of_epc}; one-shot. *)

val arm_sefs :
  t ->
  Occlum_libos.Sefs.Host_store.t ->
  ?times:int ->
  at:int ->
  fault:Occlum_libos.Sefs.io_fault ->
  (unit -> 'a) ->
  'a
(** Inject [fault] into the SEFS reads/writes of every volume mounted
    over this store. [times >= Sefs.max_io_attempts] models a
    persistent fault that defeats the retry loop. *)

val arm_net :
  t ->
  Occlum_libos.Net.t ->
  ?times:int ->
  at:int ->
  fault:Occlum_libos.Sefs.io_fault ->
  (unit -> 'a) ->
  'a
(** Inject [fault] into this network's sends and recvs. *)

val arm_channel :
  t ->
  Occlum_libos.Host_transport.t ->
  ?times:int ->
  at:int ->
  fault:Occlum_libos.Host_transport.fault ->
  (unit -> 'a) ->
  'a
(** Make frame sends over this transport suffer [fault]. The counter is
    a pure function of the send sequence, so identical runs fault
    identical frames — the contract behind the channel determinism
    property. *)

val export : t -> Occlum_obs.Metrics.registry -> unit
(** Add the plan's totals to the [fuzz.inject.aex] / [fuzz.inject.epc] /
    [fuzz.inject.io] / [fuzz.inject.chan] counters. *)
