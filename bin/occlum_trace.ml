(* occlum_trace: two tracers in one binary.

   Single-step mode (a positional BINARY.oelf): place the LibOS loader's
   image of the binary in a bare domain and print a per-instruction
   trace — disassembly, registers of interest, bound checks and faults.
   The debugging companion to occlum_run.

     occlum_trace app.oelf --limit 200 --arg 42

   LibOS mode (--chrome-out, no positional argument): boot a full LibOS,
   run the fish pipeline workload with the structured tracer attached,
   and export the events as Chrome trace_event JSON (loadable in
   chrome://tracing or https://ui.perfetto.dev) plus a text report.

     occlum_trace --events=syscall,sched,lifecycle --chrome-out=boot.json *)

open Cmdliner
open Occlum_isa
open Occlum_machine
module R = Occlum_toolchain.Codegen_regs
module Loader = Occlum_libos.Loader

let guard = Occlum_oelf.Oelf.guard_size
let code_base = 0x10000

(* --- LibOS mode --------------------------------------------------------- *)

let libos_trace ~events ~chrome_out ~capacity ~system ~repeats ~lines =
  let module H = Occlum_workloads.Harness in
  let classes =
    match Occlum_obs.Obs.classes_of_string events with
    | Ok c -> c
    | Error m ->
        prerr_endline ("occlum_trace: " ^ m);
        exit 2
  in
  let system =
    match String.lowercase_ascii system with
    | "occlum" | "sip" -> H.Occlum
    | "graphene" | "eip" -> H.Graphene
    | "linux" -> H.Linux
    | s ->
        prerr_endline ("occlum_trace: unknown system " ^ s);
        exit 2
  in
  let obs = Occlum_obs.Obs.create ~capacity ~events:classes () in
  let os = H.boot ~obs system in
  H.install os system Occlum_workloads.Fish.binaries;
  let res =
    H.timed_run os "/bin/fish"
      ~args:[ string_of_int repeats; string_of_int lines ]
  in
  let oc = open_out chrome_out in
  output_string oc (Occlum_obs.Trace.to_chrome_json obs.Occlum_obs.Obs.trace);
  close_out oc;
  Printf.printf "%s boot + fish(%d,%d): %s, vclock %Ld ns, %d syscalls\n"
    (H.system_name system) repeats lines
    (match res.H.status with
    | Occlum_libos.Os.All_exited -> "all exited"
    | Occlum_libos.Os.Deadlock _ -> "deadlock"
    | Occlum_libos.Os.Quota_exhausted -> "quota exhausted")
    res.H.vclock_ns res.H.syscalls;
  print_newline ();
  print_string (Occlum_obs.Obs.report obs);
  Printf.printf "\nchrome trace written to %s (open in chrome://tracing)\n"
    chrome_out

(* --- single-step mode --------------------------------------------------- *)

let step_trace input limit args watch_regs =
  let oelf =
    let ic = open_in_bin input in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Occlum_oelf.Oelf.of_string s
  in
  let slot = Loader.fitted_slot ~id:1 ~base:code_base oelf in
  let d_base = Occlum_libos.Domain_mgr.d_base slot in
  let d_size = slot.data_size in
  let mem =
    Mem.create ~size:(Occlum_util.Bytes_util.round_up (d_base + d_size + guard) 4096)
  in
  Mem.map mem ~addr:code_base ~len:slot.code_size ~perm:Mem.perm_rwx;
  Mem.map mem ~addr:d_base ~len:d_size ~perm:Mem.perm_rw;
  let img =
    Loader.load mem slot (Loader.admit ~require_signature:false oelf) ~args
  in
  let cpu = Cpu.create () in
  Loader.init_cpu img cpu;
  (* a reverse symbol map for nice location labels *)
  let sym_at =
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare a b) oelf.symbols
    in
    fun off ->
      let rec go acc = function
        | (n, o) :: tl when o <= off -> go (Some (n, o)) tl
        | _ -> acc
      in
      match go None sorted with
      | Some (n, o) when off - o < 4096 -> Printf.sprintf "%s+0x%x" n (off - o)
      | _ -> Printf.sprintf "0x%x" off
  in
  let watched =
    List.filter_map
      (fun name ->
        let names =
          List.init Reg.count (fun k -> (Reg.name (Reg.of_int k), Reg.of_int k))
        in
        List.assoc_opt name names)
      watch_regs
  in
  Printf.printf "entry %s, sp=0x%Lx, D=[0x%x,0x%x)\n" (sym_at oelf.entry)
    (Cpu.get cpu Reg.sp) d_base (d_base + d_size);
  let stop = ref None in
  let steps = ref 0 in
  (* single-step through the tiered loop (fuel 1 executes exactly one
     instruction) so the trace also reports JIT behaviour *)
  let jit = Jit.create mem in
  while !stop = None && !steps < limit do
    incr steps;
    let pc = cpu.Cpu.pc in
    let text =
      match Codec.decode (Mem.raw mem) ~pos:pc ~limit:(Mem.size mem) with
      | Ok (insn, _) -> Insn.to_string insn
      | Error e -> "<" ^ Codec.error_to_string e ^ ">"
    in
    let regs =
      String.concat " "
        (List.map
           (fun r -> Printf.sprintf "%s=0x%Lx" (Reg.name r) (Cpu.get cpu r))
           watched)
    in
    Printf.printf "%6d  %-22s %-40s %s\n" !steps (sym_at (pc - code_base)) text regs;
    match Interp.run ~jit mem cpu ~fuel:1 with
    | Interp.Stop_quantum -> ()
    | Interp.Stop_syscall ->
        let nr = Int64.to_int (Cpu.get cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr)) in
        Printf.printf "        syscall nr=%d args=(%Ld, %Ld, %Ld)\n" nr
          (Cpu.get cpu (Reg.of_int 2)) (Cpu.get cpu (Reg.of_int 3))
          (Cpu.get cpu (Reg.of_int 4));
        if nr = Occlum_abi.Abi.Sys.exit then
          stop := Some (Printf.sprintf "exit(%Ld)" (Cpu.get cpu (Reg.of_int 2)))
        else Cpu.set cpu R.result 0L
    | Interp.Stop_fault f -> stop := Some ("fault: " ^ Fault.to_string f)
  done;
  Printf.printf "--- %s after %d instructions (%d cycles, %d bound checks)\n"
    (match !stop with Some s -> s | None -> "trace limit reached")
    !steps cpu.Cpu.cycles cpu.Cpu.bound_checks;
  Printf.printf
    "--- jit: %d compiles, %d hits, %d invalidations, %d deopts\n"
    cpu.Cpu.jit_compiles cpu.Cpu.jit_hits cpu.Cpu.jit_invalidations
    cpu.Cpu.jit_deopts

let trace input limit args watch_regs events chrome_out capacity system repeats
    lines =
  match (chrome_out, input) with
  | Some chrome_out, _ ->
      libos_trace ~events ~chrome_out ~capacity ~system ~repeats ~lines
  | None, Some input -> step_trace input limit args watch_regs
  | None, None ->
      prerr_endline
        "occlum_trace: need BINARY.oelf (single-step mode) or --chrome-out \
         (LibOS mode)";
      exit 2

let cmd =
  Cmd.v
    (Cmd.info "occlum_trace"
       ~doc:
         "Single-step a binary with a full trace, or trace a LibOS boot to \
          Chrome trace_event JSON")
    Term.(
      const trace
      $ Arg.(value & pos 0 (some file) None & info [] ~docv:"BINARY.oelf")
      $ Arg.(value & opt int 100 & info [ "n"; "limit" ] ~doc:"Max instructions.")
      $ Arg.(value & opt_all string [] & info [ "a"; "arg" ])
      $ Arg.(value & opt_all string [ "r0"; "r1"; "sp" ] & info [ "w"; "watch" ]
               ~doc:"Registers to print each step (repeatable).")
      $ Arg.(value & opt string "all"
             & info [ "events" ]
                 ~doc:
                   "Event classes to record (comma-separated: quantum, \
                    syscall, sched, lifecycle, aex, page, jit, sefs, net, \
                    cluster; or all).")
      $ Arg.(value & opt (some string) None
             & info [ "chrome-out" ] ~docv:"FILE"
                 ~doc:
                   "LibOS mode: boot a LibOS, run the fish workload traced, \
                    write Chrome trace_event JSON here.")
      $ Arg.(value & opt int 65536
             & info [ "ring" ] ~doc:"Trace ring capacity (events).")
      $ Arg.(value & opt string "occlum"
             & info [ "system" ] ~doc:"occlum, graphene or linux.")
      $ Arg.(value & opt int 2 & info [ "repeats" ] ~doc:"Fish rounds.")
      $ Arg.(value & opt int 40 & info [ "lines" ] ~doc:"Fish lines per round."))

let () = exit (Cmd.eval cmd)
