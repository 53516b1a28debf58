(* Block formation and the tiered loop over it: every block the tiered
   loop enters is built ([Decode_cache.build]) and compiled at once, so
   even code that runs a single time runs compiled. It must be
   observationally identical to the reference fetch/decode/execute loop
   — same registers, flags, counters and cycle charges, same fault
   addresses, and the same quantum-expiry boundaries — and faults must
   be atomic: an instruction that faults leaves every register (SP
   included) and the pc untouched. *)

open Occlum_machine
open Occlum_isa

let setup = Test_machine.setup
let data = 8 * 4096

let enc_len insns =
  List.fold_left (fun a i -> a + String.length (Codec.encode i)) 0 insns

(* Everything observable about a stopped machine, as one string so a
   single alcotest check reports any divergence. *)
let state_str stop cpu =
  Printf.sprintf "stop=%s pc=%d eq=%b lt=%b cycles=%d insns=%d loads=%d stores=%d bnd=%d regs=%s"
    (Interp.stop_to_string stop)
    cpu.Cpu.pc cpu.Cpu.flag_eq cpu.Cpu.flag_lt cpu.Cpu.cycles cpu.Cpu.insns
    cpu.Cpu.loads cpu.Cpu.stores cpu.Cpu.bound_checks
    (String.concat ","
       (List.init Occlum_isa.Reg.count (fun i ->
            Int64.to_string (Cpu.get cpu (Occlum_isa.Reg.of_int i)))))

(* Run the same program through the reference and the tiered loop and
   insist the observable outcome is identical; returns the tiered run. *)
let run_both ?(fuel = 1000) ?(code_perm = Mem.perm_rwx) ?(prep = fun _ _ -> ())
    label insns =
  let go tiered =
    let mem, cpu = setup ~code_perm insns in
    prep mem cpu;
    let jit = if tiered then Some (Jit.create mem) else None in
    let stop = Interp.run ?jit mem cpu ~fuel in
    (stop, cpu)
  in
  let su, cu = go false in
  let sc, cc = go true in
  Alcotest.(check string) (label ^ ": tiered = reference") (state_str su cu)
    (state_str sc cc);
  (sc, cc)

(* A counted loop ending in a syscall gate; the branch displacement is
   relative to the end of the jcc whose own length depends on the
   displacement, so iterate to the fixed point. *)
let loop_prog iters =
  let body =
    [
      Insn.Alu (Add, Reg.r2, O_imm 3L);
      Insn.Alu (Sub, Reg.r1, O_imm 1L);
      Insn.Cmp (Reg.r1, O_imm 0L);
    ]
  in
  let body_len = enc_len body in
  let rec fix d =
    let len = String.length (Codec.encode (Insn.Jcc (Ne, d))) in
    if -(body_len + len) = d then Insn.Jcc (Ne, d) else fix (-(body_len + len))
  in
  (Insn.Mov_imm (Reg.r1, Int64.of_int iters)
   :: Insn.Mov_imm (Reg.r2, 0L) :: body)
  @ [ fix (-body_len); Insn.Syscall_gate ]

(* --- fault-state atomicity ---------------------------------------------- *)

let expect_write_fault label stop ~addr =
  match stop with
  | Interp.Stop_fault (Fault.Page_fault { addr = a; access = Fault.Write })
    when a = addr ->
      ()
  | s ->
      Alcotest.fail
        (Printf.sprintf "%s: expected write fault at %d, got %s" label addr
           (Interp.stop_to_string s))

let test_push_fault_atomic () =
  List.iter
    (fun tiered ->
      let label = if tiered then "tiered" else "reference" in
      let mem, cpu = setup [ Insn.Push Reg.r1 ] in
      (* sp at the bottom of the data region: the push's store lands in
         the unmapped page below *)
      Cpu.set cpu Reg.sp (Int64.of_int data);
      let jit = if tiered then Some (Jit.create mem) else None in
      let stop = Interp.run ?jit mem cpu ~fuel:10 in
      expect_write_fault label stop ~addr:(data - 8);
      Alcotest.(check int64) (label ^ ": sp unchanged") (Int64.of_int data)
        (Cpu.get cpu Reg.sp);
      Alcotest.(check int) (label ^ ": pc at faulting push") 4096 cpu.Cpu.pc)
    [ false; true ]

let test_call_fault_atomic () =
  List.iter
    (fun tiered ->
      let label = if tiered then "tiered" else "reference" in
      let mem, cpu = setup [ Insn.Call 16 ] in
      Cpu.set cpu Reg.sp (Int64.of_int data);
      let jit = if tiered then Some (Jit.create mem) else None in
      let stop = Interp.run ?jit mem cpu ~fuel:10 in
      expect_write_fault label stop ~addr:(data - 8);
      Alcotest.(check int64) (label ^ ": sp unchanged") (Int64.of_int data)
        (Cpu.get cpu Reg.sp);
      Alcotest.(check int) (label ^ ": pc not redirected") 4096 cpu.Cpu.pc)
    [ false; true ]

let test_ret_fault_atomic () =
  List.iter
    (fun (name, insn) ->
      List.iter
        (fun tiered ->
          let label =
            Printf.sprintf "%s %s" name
              (if tiered then "tiered" else "reference")
          in
          let mem, cpu = setup [ insn ] in
          (* sp in the guard page above the data region: the return
             address load faults *)
          let guard = 12 * 4096 in
          Cpu.set cpu Reg.sp (Int64.of_int guard);
          let jit = if tiered then Some (Jit.create mem) else None in
          (match Interp.run ?jit mem cpu ~fuel:10 with
          | Interp.Stop_fault
              (Fault.Page_fault { addr; access = Fault.Read })
            when addr = guard ->
              ()
          | s ->
              Alcotest.fail
                (label ^ ": expected read fault, got " ^ Interp.stop_to_string s));
          Alcotest.(check int64) (label ^ ": sp unchanged")
            (Int64.of_int guard) (Cpu.get cpu Reg.sp);
          Alcotest.(check int) (label ^ ": pc unchanged") 4096 cpu.Cpu.pc)
        [ false; true ])
    [ ("ret", Insn.Ret); ("ret_imm", Insn.Ret_imm 16) ]

(* --- counter fixes ------------------------------------------------------- *)

let test_ret_counts_load () =
  (* push a return address pointing at the gate after the ret, so the
     ret's stack read must show up in [loads] *)
  let rec fix target =
    let pre =
      [ Insn.Mov_imm (Reg.r1, Int64.of_int target); Insn.Push Reg.r1; Insn.Ret ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let prog = fix 4200 @ [ Insn.Syscall_gate ] in
  let sc, cc = run_both "ret load" prog in
  (match sc with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("expected gate, got " ^ Interp.stop_to_string s));
  Alcotest.(check int) "ret counted as a load" 1 cc.Cpu.loads;
  Alcotest.(check int) "push counted as a store" 1 cc.Cpu.stores

let test_jmp_mem_counts_load () =
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r2, Int64.of_int target);
        Insn.Mov_imm (Reg.r3, Int64.of_int data);
        Insn.Store
          { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
            src = Reg.r2; size = 8 };
        Insn.Jmp_mem (Sib { base = Reg.r3; index = None; scale = 1; disp = 0 });
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let prog = fix 4200 @ [ Insn.Syscall_gate ] in
  let sc, cc = run_both "jmp_mem load" prog in
  (match sc with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("expected gate, got " ^ Interp.stop_to_string s));
  Alcotest.(check int) "jmp_mem target read counted" 1 cc.Cpu.loads

let test_vscatter_counts_stores () =
  let prog =
    [
      Insn.Mov_imm (Reg.r3, Int64.of_int (data + 64));
      Insn.Mov_imm (Reg.r4, 0L);
      Insn.Mov_imm (Reg.r5, 7L);
      Insn.Vscatter { base = Reg.r3; index = Reg.r4; scale = 8; src = Reg.r5 };
      Insn.Syscall_gate;
    ]
  in
  let _, cc = run_both "vscatter" prog in
  Alcotest.(check int) "vscatter counted as 4 stores" 4 cc.Cpu.stores

(* --- differential: identical observable behaviour ------------------------ *)

let test_differential_programs () =
  ignore (run_both "hot loop" (loop_prog 500));
  ignore
    (run_both "memory mix"
       [
         Insn.Mov_imm (Reg.r1, Int64.of_int data);
         Insn.Mov_imm (Reg.r2, 0x1234L);
         Insn.Store
           { dst = Sib { base = Reg.r1; index = None; scale = 1; disp = 8 };
             src = Reg.r2; size = 8 };
         Insn.Load
           { dst = Reg.r3;
             src = Sib { base = Reg.r1; index = None; scale = 1; disp = 8 };
             size = 8 };
         Insn.Push Reg.r3;
         Insn.Pop Reg.r4;
         Insn.Lea (Reg.r5, Sib { base = Reg.r1; index = Some Reg.r2; scale = 1; disp = -4 });
         Insn.Syscall_gate;
       ]);
  (* a faulting load: the fault address and pre-fault state must agree *)
  ignore
    (run_both "faulting load"
       [
         Insn.Mov_imm (Reg.r1, Int64.of_int (13 * 4096));
         Insn.Load
           { dst = Reg.r2;
             src = Sib { base = Reg.r1; index = None; scale = 1; disp = 0 };
             size = 8 };
       ]);
  (* non-fragile (r-x) code takes the non-revalidating fast path *)
  ignore (run_both "hot loop r-x" ~code_perm:Mem.perm_rx (loop_prog 500))

let test_differential_quantum () =
  (* Stop_quantum must land on the same instruction boundary for every
     fuel value, including mid-block expiry *)
  for fuel = 1 to 25 do
    ignore (run_both ~fuel (Printf.sprintf "fuel=%d" fuel) (loop_prog 500))
  done

(* --- invalidation --------------------------------------------------------- *)

let test_priv_write_invalidates () =
  let mem, cpu = setup [ Insn.Mov_imm (Reg.r1, 1L); Insn.Syscall_gate ] in
  let jit = Jit.create mem in
  (match Interp.run ~jit mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("first run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "first immediate" 1L (Cpu.get cpu Reg.r1);
  (* the loader path: privileged rewrite of the code page (slot reuse) *)
  let patched, _ =
    Codec.encode_program [ Insn.Mov_imm (Reg.r1, 2L); Insn.Syscall_gate ]
  in
  Mem.write_bytes_priv mem ~addr:4096 patched;
  cpu.Cpu.pc <- 4096;
  (match Interp.run ~jit mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("second run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "patched immediate observed" 2L (Cpu.get cpu Reg.r1);
  let _, _, invalidations = Jit.stats jit in
  Alcotest.(check bool) "stale block dropped" true (invalidations >= 1)

let test_self_modifying_differential () =
  (* a store into the block's own page, ahead of the pc: the overwritten
     instruction (a nop turned into a syscall gate) must take effect at
     its fetch in both loops *)
  let gate = Codec.encode Insn.Syscall_gate in
  Alcotest.(check int) "gate is a 1-byte opcode" 1 (String.length gate);
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r3, Int64.of_int target);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Char.code gate.[0]));
        Insn.Store
          { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
            src = Reg.r4; size = 1 };
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let prog =
    fix 4200 @ [ Insn.Nop; Insn.Mov_imm (Reg.r1, 99L); Insn.Syscall_gate ]
  in
  let sc, cc = run_both "self-modifying" prog in
  (match sc with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("expected injected gate, got " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "stopped before mov r1" 0L (Cpu.get cc Reg.r1)

(* --- end to end ----------------------------------------------------------- *)

let test_spec_differential () =
  List.iter
    (fun (name, prog) ->
      let oelf =
        Occlum_toolchain.Compile.compile_exn
          ~config:Occlum_toolchain.Codegen.sfi prog
      in
      let u = Test_jit.run_bare ~jit:false oelf in
      let c = Test_jit.run_bare oelf in
      Alcotest.check Test_jit.bare_summary (name ^ ": identical run")
        (Test_jit.bare_row u) (Test_jit.bare_row c);
      Alcotest.(check bool) (name ^ ": JIT engaged") true
        (c.cpu.jit_compiles > 0 && c.cpu.jit_hits > 0))
    (Occlum_workloads.Spec.all ~scale:1)

(* A verified SPEC kernel booted through [Os.spawn_initial]: the
   reference loop ([jit] off) and the tiered loop (on) give the same
   clock and console, and the code-cache stats are absent under the
   reference loop and engaged under the tiered one. *)
let test_libos_cache () =
  let module Os = Occlum_libos.Os in
  let _, prog = List.hd (Occlum_workloads.Spec.all ~scale:1) in
  let oelf =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn
           ~config:Occlum_toolchain.Codegen.sfi prog)
    with
    | Ok signed -> signed
    | Error _ -> Alcotest.fail "SPEC kernel failed verification"
  in
  let run jit =
    let config = { Os.default_config with jit } in
    let os = Os.boot ~config () in
    ignore (Os.spawn_initial os oelf ~args:[]);
    (match Os.run ~max_steps:500_000 os with
    | Os.All_exited -> ()
    | _ -> Alcotest.fail "SPEC kernel did not exit under the LibOS");
    (os, Printf.sprintf "clock=%Ld out=%S" (Os.clock os) (Os.console_output os))
  in
  let os_r, sr = run false in
  let os_t, st = run true in
  Alcotest.(check string) "LibOS run identical" sr st;
  Alcotest.(check bool) "stats absent under the reference loop" true
    (Os.decode_cache_stats os_r = None);
  match Os.decode_cache_stats os_t with
  | Some (hits, builds, _) ->
      Alcotest.(check bool) "JIT compiled and replayed under the LibOS" true
        (builds > 0 && hits > 0)
  | None -> Alcotest.fail "stats missing under the tiered loop"

let suite =
  [
    Alcotest.test_case "push fault is atomic" `Quick test_push_fault_atomic;
    Alcotest.test_case "call fault is atomic" `Quick test_call_fault_atomic;
    Alcotest.test_case "ret/ret_imm fault is atomic" `Quick test_ret_fault_atomic;
    Alcotest.test_case "ret counts its stack load" `Quick test_ret_counts_load;
    Alcotest.test_case "jmp_mem counts its target load" `Quick
      test_jmp_mem_counts_load;
    Alcotest.test_case "vscatter counts its stores" `Quick
      test_vscatter_counts_stores;
    Alcotest.test_case "differential: programs" `Quick test_differential_programs;
    Alcotest.test_case "differential: quantum boundaries" `Quick
      test_differential_quantum;
    Alcotest.test_case "privileged write invalidates" `Quick
      test_priv_write_invalidates;
    Alcotest.test_case "self-modifying code stays faithful" `Quick
      test_self_modifying_differential;
    Alcotest.test_case "differential: SPEC kernels end-to-end" `Quick
      test_spec_differential;
    Alcotest.test_case "LibOS: cache on/off identical + stats" `Quick
      test_libos_cache;
  ]
