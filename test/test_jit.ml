(* Block-JIT tests: the tiered loop must be observationally identical
   to the reference loop — same registers, flags, counters, fault
   payloads and stop boundaries — and its extras must hold: per-page
   invalidation after writes to JIT'd pages, mid-block fault deopt with
   bit-identical CPU state, one interrupt consultation per
   original-instruction boundary even inside fused superinstructions,
   faithful execution of the statically elided, re-verified binary, and
   LibOS determinism (reference vs tiered, one core vs four). *)

open Occlum_machine
open Occlum_isa
module Native_run = Occlum_baseline.Native_run
module Elide = Occlum_analysis.Elide
module Os = Occlum_libos.Os
module Harness = Occlum_workloads.Harness
module Compile = Occlum_toolchain.Compile
module Codegen = Occlum_toolchain.Codegen
module Parser = Occlum_toolchain.Parser

let setup = Test_machine.setup

let enc_len insns =
  List.fold_left (fun a i -> a + String.length (Codec.encode i)) 0 insns

(* Everything observable about a stopped machine (jit counters excluded:
   the whole point is that the two loops agree on the architectural
   part). *)
let state_str stop cpu =
  Printf.sprintf
    "stop=%s pc=%d eq=%b lt=%b cycles=%d insns=%d loads=%d stores=%d bnd=%d regs=%s"
    (Interp.stop_to_string stop)
    cpu.Cpu.pc cpu.Cpu.flag_eq cpu.Cpu.flag_lt cpu.Cpu.cycles cpu.Cpu.insns
    cpu.Cpu.loads cpu.Cpu.stores cpu.Cpu.bound_checks
    (String.concat ","
       (List.init Occlum_isa.Reg.count (fun i ->
            Int64.to_string (Cpu.get cpu (Occlum_isa.Reg.of_int i)))))

(* A counted loop ending in a syscall gate (fixed-point displacement as
   in the decode-cache tests) — hot enough to promote. *)
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

(* --- reference vs tiered over the SPEC kernels ------------------------------ *)

let native_summary (r : Native_run.result) =
  Printf.sprintf "exit=%Ld cycles=%d insns=%d loads=%d stores=%d bnd=%d out=%S"
    r.exit_code r.cycles r.insns r.loads r.stores r.bound_checks r.stdout

(* threshold 2, so most blocks run compiled (the decode-cache tests run
   the same kernels at the default threshold) *)
let test_spec_differential () =
  let engaged = ref false in
  List.iter
    (fun (name, prog) ->
      let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
      let u = Native_run.run ~decode_cache:false oelf in
      let j = Native_run.run ~jit_threshold:2 oelf in
      Alcotest.(check string)
        (name ^ ": tiered = reference")
        (native_summary u) (native_summary j);
      if j.jit_compiles > 0 && j.jit_hits > 0 then engaged := true)
    (Occlum_workloads.Spec.all ~scale:1);
  Alcotest.(check bool) "JIT compiled and replayed on some kernel" true
    !engaged

(* --- guard elision on guard_heavy ------------------------------------------ *)

let guard_heavy_src () =
  let path =
    List.find Sys.file_exists
      [
        "../examples/guard_heavy.ol";
        "examples/guard_heavy.ol";
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../examples/guard_heavy.ol";
      ]
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Elision has one path: run the binary [Elide.run] rewrote and the
   unmodified verifier re-accepted. The JIT itself omits nothing, so on
   either binary it must agree with the reference loop (threshold 0 =
   every block compiled from first entry). *)
let test_guard_heavy_elide_parity () =
  let naive =
    Compile.compile_exn ~config:Codegen.sfi_naive
      (Parser.parse (guard_heavy_src ()))
  in
  let base = Native_run.run ~decode_cache:false naive in
  let jit_naive = Native_run.run ~jit_threshold:0 naive in
  Alcotest.(check string) "naive build: jit = reference"
    (native_summary base) (native_summary jit_naive);
  let elided =
    match Elide.run naive with
    | Ok (o, _) -> o
    | Error e -> Alcotest.fail (Elide.error_to_string e)
  in
  let eu = Native_run.run ~decode_cache:false elided in
  let ej = Native_run.run ~jit_threshold:0 elided in
  Alcotest.(check string) "elided build: jit = reference" (native_summary eu)
    (native_summary ej);
  Alcotest.(check string) "expected output" "sum 231\n" ej.stdout;
  Alcotest.(check bool) "fewer checks than the naive build" true
    (ej.bound_checks < base.bound_checks)

(* --- per-page invalidation -------------------------------------------------- *)

let test_smc_user_store_invalidates () =
  (* a store rewrites a nop ahead of the pc into a syscall gate, inside
     the block's own page: the JIT must observe the new byte at its
     fetch, exactly like the reference loop *)
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
  let mem, cpu = setup prog in
  let su = Interp.run mem cpu ~fuel:200 in
  let mem_j, cpu_j = setup prog in
  let j = Jit.create ~threshold:0 () in
  let sj = Interp.run ~jit:j mem_j cpu_j ~fuel:200 in
  Alcotest.(check string) "self-modifying: jit = reference" (state_str su cpu)
    (state_str sj cpu_j);
  Alcotest.(check int64) "stopped before mov r1" 0L (Cpu.get cpu_j Reg.r1);
  Alcotest.(check bool) "block was compiled" true (cpu_j.Cpu.jit_compiles > 0);
  let _, _, inv = Jit.stats j in
  Alcotest.(check bool) "write to the JIT'd page invalidated or deopted" true
    (inv + cpu_j.Cpu.jit_deopts >= 1)

let test_priv_write_invalidates () =
  (* the loader path: privileged rewrite of a compiled page (domain-slot
     reuse) must drop the compiled block *)
  let mem, cpu = setup [ Insn.Mov_imm (Reg.r1, 1L); Insn.Syscall_gate ] in
  let j = Jit.create ~threshold:0 () in
  (match Interp.run ~jit:j mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("first run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "first immediate" 1L (Cpu.get cpu Reg.r1);
  Alcotest.(check bool) "compiled on first entry" true
    (cpu.Cpu.jit_compiles > 0);
  let patched, _ =
    Codec.encode_program [ Insn.Mov_imm (Reg.r1, 2L); Insn.Syscall_gate ]
  in
  Mem.write_bytes_priv mem ~addr:4096 patched;
  cpu.Cpu.pc <- 4096;
  (match Interp.run ~jit:j mem cpu ~fuel:100 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail ("second run: " ^ Interp.stop_to_string s));
  Alcotest.(check int64) "patched immediate observed" 2L (Cpu.get cpu Reg.r1);
  let _, _, inv = Jit.stats j in
  Alcotest.(check bool) "stale compiled block dropped" true (inv >= 1)

(* --- mid-block fault deopt -------------------------------------------------- *)

let test_midblock_fault_identity () =
  (* r-x code compiles to fused multi-instruction units; a store that
     faults mid-unit must deopt with the CPU bit-identical to the
     reference loop at the fault (partial charges included) *)
  let prog =
    [
      Insn.Mov_imm (Reg.r1, Int64.of_int (13 * 4096));
      Insn.Alu (Add, Reg.r2, O_imm 7L);
      Insn.Store
        { dst = Sib { base = Reg.r1; index = None; scale = 1; disp = 0 };
          src = Reg.r2; size = 8 };
      Insn.Syscall_gate;
    ]
  in
  let mem, cpu = setup ~code_perm:Mem.perm_rx prog in
  let su = Interp.run mem cpu ~fuel:100 in
  (match su with
  | Interp.Stop_fault (Fault.Page_fault { addr; access = Fault.Write })
    when addr = 13 * 4096 ->
      ()
  | s -> Alcotest.fail ("expected write fault, got " ^ Interp.stop_to_string s));
  let mem_j, cpu_j = setup ~code_perm:Mem.perm_rx prog in
  let j = Jit.create ~threshold:0 () in
  let sj = Interp.run ~jit:j mem_j cpu_j ~fuel:100 in
  Alcotest.(check string) "mid-block fault: jit = reference"
    (state_str su cpu) (state_str sj cpu_j);
  Alcotest.(check bool) "fault deopted out of compiled code" true
    (cpu_j.Cpu.jit_deopts >= 1)

(* --- interrupt consultation parity ----------------------------------------- *)

(* [?interrupt] is specified to be consulted exactly once per executed
   instruction boundary. The fused superinstructions and the tiered
   loop's block replay are where that can silently break, so: (a) the
   tiered loop's total consult count must match the reference loop's,
   and (b) an interrupt armed at EVERY boundary index in turn must stop
   the run bit-identically, and both runs must resume to the same
   completion. *)
let test_interrupt_every_boundary () =
  let prog = loop_prog 20 in
  let run_tier tiered fire_at =
    let mem, cpu = setup ~code_perm:Mem.perm_rx prog in
    let j = if tiered then Some (Jit.create ~threshold:0 ()) else None in
    let n = ref 0 in
    let hook () =
      let k = !n in
      incr n;
      match fire_at with Some i -> k = i | None -> false
    in
    let s1 = Interp.run ?jit:j ~interrupt:hook mem cpu ~fuel:100_000 in
    let mid = state_str s1 cpu in
    let s2 =
      if s1 = Interp.Stop_syscall then s1
      else Interp.run ?jit:j ~interrupt:hook mem cpu ~fuel:100_000
    in
    (mid, state_str s2 cpu, !n)
  in
  (* the tiered run against the reference run; returns the reference's
     consult count *)
  let agree label fire_at =
    let mu, fu, nu = run_tier false fire_at in
    let m, f, n = run_tier true fire_at in
    Alcotest.(check string) (label ^ ": identical stop") mu m;
    Alcotest.(check string) (label ^ ": identical completion") fu f;
    Alcotest.(check int) (label ^ ": one consult per boundary") nu n;
    nu
  in
  let nu = agree "unfired" None in
  for i = 0 to nu - 1 do
    ignore (agree (Printf.sprintf "interrupt at boundary %d" i) (Some i))
  done

(* --- the page check agrees with Mem --------------------------------------- *)

(* A compiled load or store either takes the page-check fast path or the
   checked [Mem] accessor; which one must never show. Every page state
   the check distinguishes, both sizes, in-page, edge, straddling,
   negative and out-of-range addresses, plain and guard-fused bodies:
   the JIT tier must match the reference [step] in the loaded value,
   memory, fault (kind and address), page generations and accessed bit. *)
let test_page_check_agrees () =
  let tgt = 8 in
  let base = tgt * 4096 in
  let size_mem = 16 * 4096 in
  let states =
    [
      ("unmapped", None, `Plain);
      ("r--", Some Mem.perm_ro, `Plain);
      ("rw-", Some Mem.perm_rw, `Plain);
      ("r-x", Some Mem.perm_rx, `Plain);
      ("rwx", Some Mem.perm_rwx, `Plain);
      ("paged resident", Some Mem.perm_rw, `Paged true);
      ("paged non-resident", Some Mem.perm_rw, `Paged false);
    ]
  in
  let setup perm paging prog =
    let mem = Mem.create ~size:size_mem in
    (match paging with
    | `Paged _ ->
        Mem.enable_paging mem ~pager:(fun p -> Mem.set_resident mem p true)
    | `Plain -> ());
    Mem.map mem ~addr:4096 ~len:4096 ~perm:Mem.perm_rx;
    let code, _ = Codec.encode_program prog in
    Mem.write_bytes_priv mem ~addr:4096 code;
    (match perm with
    | Some perm ->
        Mem.map mem ~addr:base ~len:4096 ~perm;
        Mem.write_bytes_priv mem ~addr:base
          (Bytes.init 4096 (fun k -> Char.chr ((k * 7) land 0xFF)))
    | None -> ());
    (match paging with
    | `Paged resident -> Mem.set_resident mem tgt resident
    | `Plain -> ());
    Mem.set_accessed mem tgt false;
    let cpu = Cpu.create () in
    cpu.Cpu.pc <- 4096;
    (mem, cpu)
  in
  let observe stop mem cpu =
    Printf.sprintf "%s gen=%d,%d accessed=%b page=%d" (state_str stop cpu)
      (Mem.page_gen mem tgt) (Mem.page_gen mem (tgt + 1))
      (Mem.page_accessed mem tgt)
      (Hashtbl.hash (Bytes.sub (Mem.raw mem) base 4096))
  in
  let m = Insn.Sib { base = Reg.r2; index = None; scale = 1; disp = 0 } in
  let ops size =
    [
      ("load", false, Insn.Load { dst = Reg.r1; src = m; size });
      ("store", true, Insn.Store { dst = m; src = Reg.r3; size });
    ]
  in
  let compiled = ref 0 in
  List.iter
    (fun (sname, perm, paging) ->
      List.iter
        (fun size ->
          let addrs =
            [
              ("in-page", base + 16);
              ("page end", base + 4096 - size);
              ("straddling", base + 4096 - 4);
              ("negative", -8);
              ("past the end", size_mem);
              ("far", 1 lsl 36);
            ]
          in
          List.iter
            (fun (aname, addr) ->
              List.iter
                (fun (oname, is_store, op) ->
                  List.iter
                    (fun (fname, prog) ->
                      let run jit =
                        let mem, cpu = setup perm paging prog in
                        Cpu.set cpu Reg.r2 (Int64.of_int addr);
                        Cpu.set cpu Reg.r3 0x1122334455667788L;
                        let gen0 = Mem.page_gen mem tgt in
                        let stop =
                          match jit with
                          | None -> Interp.run mem cpu ~fuel:10
                          | Some j ->
                              Interp.run ~jit:j mem cpu ~fuel:10
                        in
                        (observe stop mem cpu, stop, gen0, mem)
                      in
                      let label =
                        Printf.sprintf "%s, size %d, %s, %s%s" sname size aname
                          oname fname
                      in
                      let ref_obs, _, _, _ = run None in
                      let j = Jit.create ~threshold:0 () in
                      let jit_obs, stop, gen0, mem = run (Some j) in
                      let c, _, _ = Jit.stats j in
                      compiled := !compiled + c;
                      Alcotest.(check string) label ref_obs jit_obs;
                      if
                        is_store && sname = "rwx" && aname = "in-page"
                        && stop = Interp.Stop_syscall
                      then
                        Alcotest.(check bool)
                          (label ^ ": store into rwx bumps the generation")
                          true
                          (Mem.page_gen mem tgt > gen0))
                    [
                      ("", [ op; Insn.Syscall_gate ]);
                      ( " (guard-fused)",
                        [
                          Insn.Bndcl (Reg.bnd0, Insn.Ea_mem m);
                          op;
                          Insn.Syscall_gate;
                        ] );
                    ])
                (ops size))
            addrs)
        [ 1; 8 ])
    states;
  Alcotest.(check bool) "every case ran compiled" true (!compiled > 0)

(* --- the compiled hot path allocates nothing ------------------------------ *)

(* A compiled self-loop in the MMDSFI shape of real SIP code: guarded
   loads and stores, add, shifts and cmp/jcc. Its per-instruction cost
   must not include the minor heap: [Gc.minor_words] is exact for a given
   build, and every body keeps register values unboxed. *)
let test_hot_path_allocation_free () =
  let at disp = Insn.Sib { base = Reg.r4; index = None; scale = 1; disp } in
  let guarded m =
    [ Insn.Bndcl (Reg.bnd0, Ea_mem m); Insn.Bndcu (Reg.bnd0, Ea_mem m) ]
  in
  let body =
    guarded (at 0)
    @ [
        Insn.Load { dst = Reg.r5; src = at 0; size = 8 };
        Insn.Alu (Add, Reg.r5, O_reg Reg.r1);
        Insn.Alu (Shl, Reg.r5, O_imm 1L);
      ]
    @ guarded (at 8)
    @ [
        Insn.Store { dst = at 8; src = Reg.r5; size = 8 };
        Insn.Load { dst = Reg.r6; src = at 9; size = 1 };
        Insn.Alu (Shr, Reg.r5, O_reg Reg.r6);
        Insn.Alu (Xor, Reg.r2, O_reg Reg.r5);
        Insn.Alu (Sub, Reg.r1, O_imm 1L);
        Insn.Cmp (Reg.r1, O_imm 0L);
      ]
  in
  let body_len = enc_len body in
  let rec fix d =
    let len = String.length (Codec.encode (Insn.Jcc (Ne, d))) in
    if -(body_len + len) = d then Insn.Jcc (Ne, d) else fix (-(body_len + len))
  in
  let iters = 20_000 in
  let prog =
    (Insn.Mov_imm (Reg.r1, Int64.of_int iters)
     :: Insn.Mov_imm (Reg.r4, Int64.of_int (Test_machine.data + 64))
     :: body)
    @ [ fix (-body_len); Insn.Syscall_gate ]
  in
  let mem, cpu = setup ~code_perm:Mem.perm_rx prog in
  Cpu.set_bnd cpu Reg.bnd0
    {
      Cpu.lower = Int64.of_int Test_machine.data;
      upper = Int64.of_int (Test_machine.data + 4095);
    };
  let jit = Jit.create ~threshold:0 () in
  let w0 = Gc.minor_words () in
  let stop = Interp.run ~jit mem cpu ~fuel:max_int in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) "loop ran to the gate" "syscall"
    (Interp.stop_to_string stop);
  (* the first two iterations run in the entry block and the compile *)
  Alcotest.(check bool) "loop ran compiled" true (cpu.Cpu.jit_hits >= iters - 2);
  let per_insn = words /. float cpu.Cpu.insns in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per instruction < 0.1" per_insn)
    true (per_insn < 0.1)

(* --- LibOS: reference vs tiered, one core vs four -------------------------- *)

(* The one LibOS differential between the two loops: [decode_cache]
   selects the reference loop (off) or the tiered loop (on). *)
let test_libos_jit_on_off_identical () =
  let run decode_cache =
    let config = { Os.default_config with decode_cache } in
    let os = Os.boot ~config () in
    Os.install_binary os "/bin/compute"
      (Harness.build_for Harness.Occlum Harness.compute_prog);
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "20000" ]);
    (match Os.run ~max_steps:5_000_000 os with
    | Os.All_exited -> ()
    | _ -> Alcotest.fail "compute SIP did not exit");
    ( os,
      Printf.sprintf "digest=%s clock=%Ld out=%S" (Os.state_digest os)
        (Os.clock os) (Os.console_output os) )
  in
  let os_t, st = run true in
  let os_r, sr = run false in
  Alcotest.(check string) "digest, clock and console identical" sr st;
  Alcotest.(check bool) "stats absent under the reference loop" true
    (Os.decode_cache_stats os_r = None && Os.jit_stats os_r = None);
  (match Os.decode_cache_stats os_t with
  | Some (hits, _, _) ->
      Alcotest.(check bool) "decode cache engaged under the LibOS" true
        (hits > 0)
  | None -> Alcotest.fail "decode-cache stats missing under the tiered loop");
  match Os.jit_stats os_t with
  | Some (c, h, _) ->
      Alcotest.(check bool) "compiled and replayed under the LibOS" true
        (c > 0 && h > 0)
  | None -> Alcotest.fail "jit stats missing under the tiered loop"

let test_multicore_digest_with_jit () =
  (* default config: decode cache + JIT on, per-core code caches *)
  let digest cores =
    let r =
      Harness.run_compute_scaling ~sips:6 ~iters:12_000 ~cores Harness.Occlum
    in
    Alcotest.(check bool)
      (Printf.sprintf "cores=%d completes" cores)
      true
      (r.Harness.sc_status = Os.All_exited);
    r.Harness.sc_digest
  in
  Alcotest.(check string) "cores=4 == cores=1 with the JIT on" (digest 1)
    (digest 4)

let suite =
  [
    Alcotest.test_case "differential: SPEC kernels, 2 tiers" `Quick
      test_spec_differential;
    Alcotest.test_case "guard_heavy: elision parity" `Quick
      test_guard_heavy_elide_parity;
    Alcotest.test_case "self-modifying store invalidates" `Quick
      test_smc_user_store_invalidates;
    Alcotest.test_case "privileged write invalidates" `Quick
      test_priv_write_invalidates;
    Alcotest.test_case "mid-block fault deopts bit-identically" `Quick
      test_midblock_fault_identity;
    Alcotest.test_case "interrupt at every boundary" `Quick
      test_interrupt_every_boundary;
    Alcotest.test_case "page check agrees with Mem" `Quick
      test_page_check_agrees;
    Alcotest.test_case "compiled hot path allocation-free" `Quick
      test_hot_path_allocation_free;
    Alcotest.test_case "LibOS: jit on/off identical + stats" `Quick
      test_libos_jit_on_off_identical;
    Alcotest.test_case "multi-core digest with jit" `Quick
      test_multicore_digest_with_jit;
  ]
