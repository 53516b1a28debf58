(* Bare-metal runner: executes an OELF image directly on the simulated
   machine with no enclave, no verifier and no LibOS — the "process on
   native Linux" model of the evaluation, and the harness for the
   SPECint-style CPU benchmarks of Fig. 7 (where only the instrumentation
   differs between runs).

   The image — code with the trampoline, data with argv, initial
   registers and bounds — is the LibOS loader's, for domain 0; only bnd0
   is widened to the whole address space. Syscalls arrive as inline
   [Syscall_gate] stops (bare-built binaries) or via the trampoline,
   which this runner also honours so that fully instrumented binaries
   can be measured on the same harness. *)

open Occlum_machine
open Occlum_isa
module R = Occlum_toolchain.Codegen_regs
module Loader = Occlum_libos.Loader

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
  wall_s : float; (* host seconds spent inside Interp.run *)
}

exception Runtime_fault of Fault.t

let guard = Occlum_oelf.Oelf.guard_size

(* Address-space plan: code at [code_base, +code), one guard page, data
   region, one guard page. *)
let code_base = 0x10000

let run ?(fuel = 200_000_000) ?(args = []) ?(nx = true) ?(jit = true)
    ?(obs = Occlum_obs.Obs.disabled)
    (oelf : Occlum_oelf.Oelf.t) =
  (* the loader's image for domain 0 (bare code checks no label id) *)
  let slot = Loader.fitted_slot ~id:0 ~base:code_base oelf in
  let data_base = Occlum_libos.Domain_mgr.d_base slot in
  let top = data_base + oelf.data_region_size + guard in
  let mem = Mem.create ~size:(Occlum_util.Bytes_util.round_up top 4096) in
  Mem.map mem ~addr:code_base ~len:slot.code_size ~perm:Mem.perm_rwx;
  (* nx=false models the classic RWX-data process RIPE assumes *)
  Mem.map mem ~addr:data_base ~len:oelf.data_region_size
    ~perm:(if nx then Mem.perm_rw else Mem.perm_rwx);
  let img =
    Loader.load mem slot (Loader.admit ~require_signature:false oelf) ~args
  in
  let cpu = Cpu.create () in
  Loader.init_cpu img cpu;
  (* bounds wide open: the bare runner models an unprotected process *)
  Cpu.set_bnd cpu Reg.bnd0 { lower = 0L; upper = Int64.of_int (Mem.size mem - 1) };
  let out = Buffer.create 256 in
  let brk = ref oelf.heap_start in
  let finished = ref None in
  let remaining () = fuel - cpu.Cpu.insns in
  let jit = if jit then Some (Jit.create mem) else None in
  let wall = ref 0. in
  while !finished = None && remaining () > 0 do
    let t0 = Unix.gettimeofday () in
    let stop = Interp.run ?jit ~obs mem cpu ~fuel:(remaining ()) in
    wall := !wall +. (Unix.gettimeofday () -. t0);
    match stop with
    | Stop_quantum -> ()
    | Stop_fault f -> raise (Runtime_fault f)
    | Stop_syscall ->
        let nr = Int64.to_int (Cpu.get cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr)) in
        let arg i =
          Cpu.get cpu (Reg.of_int (Occlum_abi.Abi.Regs.sys_arg0 + i))
        in
        let ret v = Cpu.set cpu R.result v in
        if nr = Occlum_abi.Abi.Sys.exit then finished := Some (arg 0)
        else if nr = Occlum_abi.Abi.Sys.write then begin
          let fd = Int64.to_int (arg 0) in
          let ptr = Int64.to_int (arg 1) and len = Int64.to_int (arg 2) in
          if fd <> 1 && fd <> 2 then ret (Int64.of_int Occlum_abi.Abi.Errno.ebadf)
          else if ptr < data_base || len < 0
                  || ptr + len > data_base + oelf.data_region_size then
            ret (Int64.of_int Occlum_abi.Abi.Errno.efault)
          else begin
            Buffer.add_bytes out (Mem.read_bytes_priv mem ~addr:ptr ~len);
            ret (Int64.of_int len)
          end
        end
        else if nr = Occlum_abi.Abi.Sys.brk then begin
          let req = Int64.to_int (arg 0) in
          let lo, hi = Occlum_oelf.Oelf.heap_zone oelf in
          if req = 0 then ret (Int64.of_int (data_base + !brk))
          else if req - data_base >= lo && req - data_base <= hi then begin
            brk := req - data_base;
            ret (Int64.of_int (data_base + !brk))
          end
          else ret (Int64.of_int Occlum_abi.Abi.Errno.enomem)
        end
        else ret (Int64.of_int Occlum_abi.Abi.Errno.enosys)
  done;
  let exit_code = match !finished with Some v -> v | None -> -1L in
  {
    exit_code;
    stdout = Buffer.contents out;
    cycles = cpu.Cpu.cycles;
    insns = cpu.Cpu.insns;
    loads = cpu.Cpu.loads;
    stores = cpu.Cpu.stores;
    bound_checks = cpu.Cpu.bound_checks;
    jit_compiles = cpu.Cpu.jit_compiles;
    jit_hits = cpu.Cpu.jit_hits;
    jit_deopts = cpu.Cpu.jit_deopts;
    wall_s = !wall;
  }
