(** Bare-metal runner: executes an OELF image on the simulated machine
    with no enclave, verifier or LibOS — the "native Linux process" model,
    and the harness for the Figure-7 CPU benchmarks. *)

type result = {
  exit_code : int64;
  stdout : string;
  cycles : int;
  insns : int;
  loads : int;
  stores : int;
  bound_checks : int;
  jit_compiles : int;
  jit_hits : int;
  jit_deopts : int;
  wall_s : float;  (** host seconds spent inside [Interp.run] *)
}

exception Runtime_fault of Occlum_machine.Fault.t

val code_base : int

val run :
  ?fuel:int ->
  ?args:string list ->
  ?nx:bool ->
  ?jit:bool ->
  ?obs:Occlum_obs.Obs.t ->
  Occlum_oelf.Oelf.t ->
  result
(** Load and run to exit. [nx:false] maps the data region RWX — the
    classic unprotected process the RIPE baseline assumes. The run uses
    {!Occlum_machine.Interp.run}'s tiered loop (every block compiled by
    the block JIT at its first execution); [jit:false] runs the
    reference loop instead — the differential tests compare the two.
    [obs] routes JIT events to an observability instance; the run is
    bit-identical with or without it.
    @raise Runtime_fault on any machine fault. *)
