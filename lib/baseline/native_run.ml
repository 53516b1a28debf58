(* Bare-metal runner: executes an OELF image directly on the simulated
   machine with no enclave, no verifier and no LibOS — the "process on
   native Linux" model of the evaluation, and the harness for the
   SPECint-style CPU benchmarks of Fig. 7 (where only the instrumentation
   differs between runs).

   Syscalls arrive as inline [Syscall_gate] stops (bare-built binaries)
   or via the trampoline slot, which this runner also honours so that
   fully instrumented binaries can be measured on the same harness. *)

open Occlum_machine
open Occlum_isa
module R = Occlum_toolchain.Codegen_regs

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
  let code_size = Occlum_util.Bytes_util.round_up (Bytes.length oelf.code) 4096 in
  let data_base = code_base + code_size + guard in
  let top = data_base + oelf.data_region_size + guard in
  let mem = Mem.create ~size:(Occlum_util.Bytes_util.round_up top 4096) in
  Mem.map mem ~addr:code_base ~len:code_size ~perm:Mem.perm_rwx;
  (* nx=false models the classic RWX-data process RIPE assumes *)
  Mem.map mem ~addr:data_base ~len:oelf.data_region_size
    ~perm:(if nx then Mem.perm_rw else Mem.perm_rwx);
  Mem.write_bytes_priv mem ~addr:code_base oelf.code;
  Mem.write_bytes_priv mem ~addr:data_base oelf.data;
  (* the trampoline: a cfi_label (any id; bare code does not check) and a
     gate, then return to the caller *)
  let tramp_addr = code_base in
  let tramp =
    List.map Codec.encode
      [
        Insn.Cfi_label 0l;
        Insn.Syscall_gate;
        Insn.Pop R.ret_scratch;
        Insn.Jmp_reg R.ret_scratch;
      ]
    |> String.concat ""
  in
  Mem.write_bytes_priv mem ~addr:tramp_addr (Bytes.of_string tramp);
  (* argc/argv into the data region's argument area *)
  let arg_page = Mem.read_bytes_priv mem ~addr:data_base ~len:guard in
  Occlum_toolchain.Layout.write_args arg_page ~data_base args;
  Mem.write_bytes_priv mem ~addr:data_base arg_page;
  let cpu = Cpu.create () in
  cpu.Cpu.pc <- code_base + oelf.entry;
  Cpu.set cpu Reg.sp (Int64.of_int (data_base + oelf.data_region_size - 16));
  Cpu.set cpu R.code_base (Int64.of_int code_base);
  Cpu.set cpu R.data_base (Int64.of_int data_base);
  Cpu.set cpu R.ret_scratch (Int64.of_int tramp_addr);
  (* bounds wide open: the bare runner models an unprotected process *)
  Cpu.set_bnd cpu Reg.bnd0 { lower = 0L; upper = Int64.of_int (Mem.size mem - 1) };
  let label_value =
    let b = Bytes.of_string (Codec.encode (Insn.Cfi_label 0l)) in
    Bytes.get_int64_le b 0
  in
  Cpu.set_bnd cpu Reg.bnd1 { lower = label_value; upper = label_value };
  let out = Buffer.create 256 in
  let brk = ref oelf.heap_start in
  let finished = ref None in
  let remaining () = fuel - cpu.Cpu.insns in
  let jit = if jit then Some (Jit.create ()) else None in
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
