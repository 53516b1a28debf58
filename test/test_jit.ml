(* Block-JIT tests: the tiered loop must be observationally identical
   to the reference loop — same registers, flags, counters, fault
   payloads and stop boundaries — and its extras must hold: per-page
   invalidation after writes to JIT'd pages, a code-epoch check after
   every memory write of an RWX block, block links that hit exactly when the
   table would, mid-block fault deopt with bit-identical CPU state, a
   stop on every instruction boundary the fuel ends at, even inside
   fused superinstructions, faithful execution of the statically elided,
   re-verified binary, and LibOS determinism (reference vs tiered, one
   core vs four). *)

open Occlum_machine
open Occlum_isa
module Elide = Occlum_analysis.Elide
module Os = Occlum_libos.Os
module Harness = Occlum_workloads.Harness
module Compile = Occlum_toolchain.Compile
module Codegen = Occlum_toolchain.Codegen
module Parser = Occlum_toolchain.Parser
module Obs = Occlum_obs.Obs
module Trace = Occlum_obs.Trace

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

(* [prelude], then [body] closed into a loop by a [jne] back to its
   start (fixed-point displacement as in test_decode_cache), then a
   syscall gate *)
let looped prelude body =
  let body_len = enc_len body in
  let rec fix d =
    let len = String.length (Codec.encode (Insn.Jcc (Ne, d))) in
    if -(body_len + len) = d then Insn.Jcc (Ne, d) else fix (-(body_len + len))
  in
  prelude @ body @ [ fix (-body_len); Insn.Syscall_gate ]

(* A counted loop: its body block is compiled once and replayed. *)
let loop_prog iters =
  looped
    [ Insn.Mov_imm (Reg.r1, Int64.of_int iters); Insn.Mov_imm (Reg.r2, 0L) ]
    [
      Insn.Alu (Add, Reg.r2, O_imm 3L);
      Insn.Alu (Sub, Reg.r1, O_imm 1L);
      Insn.Cmp (Reg.r1, O_imm 0L);
    ]

(* A counted loop whose block writes: a guard+store pair, a push/pop
   pair and a pure run, so on RWX code the body checks the code epoch
   mid-block. bnd0 must cover the data page. *)
let store_loop_prog iters =
  let m = Insn.Sib { base = Reg.r4; index = None; scale = 1; disp = 0 } in
  looped
    [
      Insn.Mov_imm (Reg.r1, Int64.of_int iters);
      Insn.Mov_imm (Reg.r2, 1L);
      Insn.Mov_imm (Reg.r4, Int64.of_int (Test_machine.data + 64));
    ]
    [
      Insn.Bndcu (Reg.bnd0, Ea_mem m);
      Insn.Store { dst = m; src = Reg.r2; size = 8 };
      Insn.Load { dst = Reg.r5; src = m; size = 8 };
      Insn.Push Reg.r5;
      Insn.Pop Reg.r6;
      Insn.Alu (Add, Reg.r2, O_reg Reg.r6);
      Insn.Alu (Sub, Reg.r1, O_imm 1L);
      Insn.Cmp (Reg.r1, O_imm 0L);
    ]

(* --- reference vs tiered over the SPEC kernels ------------------------------ *)

(* The one summary of a bare run that the tests compare: its exit code,
   every architectural counter and its output. *)
let bare_row (r : Harness.bare_result) =
  ( r.exit_code, r.cpu.cycles, r.cpu.insns, r.cpu.loads, r.cpu.stores,
    r.cpu.bound_checks, r.stdout )

let bare_summary =
  Alcotest.testable
    (fun ppf (e, c, i, l, s, b, o) ->
      Format.fprintf ppf
        "exit=%d cycles=%d insns=%d loads=%d stores=%d bnd=%d out=%S" e c i l
        s b o)
    ( = )

let run_bare ?(jit = true) oelf =
  Harness.run_bare ~config:{ Os.default_config with jit } oelf

(* every block runs compiled; the JIT must also replay some block from
   the code cache *)
let test_spec_differential () =
  let engaged = ref false in
  List.iter
    (fun (name, prog) ->
      let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
      let u = run_bare ~jit:false oelf in
      let j = run_bare oelf in
      Alcotest.check bare_summary
        (name ^ ": tiered = reference")
        (bare_row u) (bare_row j);
      if j.cpu.jit_compiles > 0 && j.cpu.jit_hits > 0 then engaged := true)
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
   either binary it must agree with the reference loop. *)
let test_guard_heavy_elide_parity () =
  let naive =
    Compile.compile_exn ~config:Codegen.sfi_naive
      (Parser.parse (guard_heavy_src ()))
  in
  let base = run_bare ~jit:false naive in
  let jit_naive = run_bare naive in
  Alcotest.check bare_summary "naive build: jit = reference" (bare_row base)
    (bare_row jit_naive);
  let elided =
    match Occlum_verifier.Verify.verify naive with
    | Error _ -> Alcotest.fail "naive build rejected"
    | Ok a -> (
        match Elide.run a with
        | Ok (elided, _) -> Occlum_verifier.Verify.binary elided
        | Error e -> Alcotest.fail (Elide.error_to_string e))
  in
  let eu = run_bare ~jit:false elided in
  let ej = run_bare elided in
  Alcotest.check bare_summary "elided build: jit = reference" (bare_row eu)
    (bare_row ej);
  Alcotest.(check string) "expected output" "sum 231\n" ej.stdout;
  Alcotest.(check bool) "fewer checks than the naive build" true
    (ej.cpu.bound_checks < base.cpu.bound_checks)

(* --- one tier: every block compiled at its first execution ------------------ *)

(* Loop-free code entered once: each of its four blocks is built and
   compiled on entry (a [jit_compile] event at its entry pc and nothing
   else), and the instructions retired are exactly the compiled blocks'
   instructions, so none ran outside compiled code. *)
let test_loop_free_runs_compiled () =
  let blocks =
    [
      [ Insn.Mov_imm (Reg.r1, 1L); Insn.Jmp 0 ];
      [ Insn.Mov_imm (Reg.r2, 2L); Insn.Alu (Add, Reg.r1, O_reg Reg.r2);
        Insn.Jmp 0 ];
      [ Insn.Cmp (Reg.r1, O_imm 3L); Insn.Jcc (Eq, 0) ];
      [ Insn.Syscall_gate ];
    ]
  in
  let prog = List.concat blocks in
  let entries =
    List.rev
      (snd
         (List.fold_left
            (fun (pc, acc) b -> (pc + enc_len b, pc :: acc))
            (4096, []) blocks))
  in
  let mem, cpu = setup prog in
  let su = Interp.run mem cpu ~fuel:100 in
  let mem_j, cpu_j = setup prog in
  let j = Jit.create mem_j in
  let obs = Obs.create ~events:[ Obs.Jit ] () in
  let sj = Interp.run ~jit:j ~obs mem_j cpu_j ~fuel:100 in
  Alcotest.(check string) "loop-free: jit = reference" (state_str su cpu)
    (state_str sj cpu_j);
  Alcotest.(check (list int)) "compiles, hits, invalidations, deopts"
    [ List.length blocks; 0; 0; 0 ]
    [ cpu_j.Cpu.jit_compiles; cpu_j.Cpu.jit_hits; cpu_j.Cpu.jit_invalidations;
      cpu_j.Cpu.jit_deopts ];
  Alcotest.(check (list string)) "one jit_compile per block entry, nothing else"
    (List.map (Printf.sprintf "jit_compile@%d") entries)
    (List.map
       (fun (e : Trace.event) ->
         match e.kind with
         | Trace.Jit_compile { pc } -> Printf.sprintf "jit_compile@%d" pc
         | k -> Trace.kind_name k)
       (Trace.events obs.Obs.trace));
  let compiled_insns =
    List.fold_left
      (fun acc pc ->
        match Jit.lookup j pc with
        | Jit.Hit c -> acc + c.Jit.insns
        | _ -> Alcotest.fail (Printf.sprintf "no compiled block at %d" pc))
      0 entries
  in
  Alcotest.(check int) "every retired instruction ran compiled" compiled_insns
    cpu_j.Cpu.insns

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
  let j = Jit.create mem_j in
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
  let j = Jit.create mem in
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

(* --- fragile blocks: the epoch is checked after each write ------------- *)

(* The block at the start of [mem]'s code page, and its translation
   against [mem]: a body runs on the memory it was compiled for. *)
let compiled_block mem =
  match Decode_cache.build mem 4096 with
  | Some b -> (b, Jit.compile (Jit.create mem) b)
  | None -> Alcotest.fail "block failed to build"

(* run a compiled block whole, as the tiered loop enters it: charge the
   block's totals, then run its body *)
let enter (c : Jit.compiled) (cpu : Cpu.t) =
  cpu.Cpu.insns <- cpu.Cpu.insns + c.Jit.insns;
  cpu.Cpu.cycles <- cpu.Cpu.cycles + c.Jit.cycles;
  cpu.Cpu.loads <- cpu.Cpu.loads + c.Jit.loads;
  cpu.Cpu.stores <- cpu.Cpu.stores + c.Jit.stores;
  cpu.Cpu.bound_checks <- cpu.Cpu.bound_checks + c.Jit.bound_checks;
  c.Jit.body cpu

(* An RWX block gets the fused units (guard+store pairs, pure runs,
   the same layout as on r-x code), and every write ends its unit: the
   body compares the code epoch at each unit boundary after a write;
   a write that ends the block is covered by the block exit's
   revalidation. Run whole, the body retires every instruction of the
   block, exactly as the reference loop does. *)
let test_rwx_units_end_at_writes () =
  let prog = store_loop_prog 3 in
  let b, c = compiled_block (fst (setup prog)) in
  Alcotest.(check bool) "block on an RWX page is fragile" true
    b.Decode_cache.fragile;
  let n = Array.length b.insns in
  let starts = Array.to_list c.Jit.unit_starts in
  let units = List.length starts in
  Alcotest.(check int) "the compiled block counts every instruction" n
    c.Jit.insns;
  Alcotest.(check bool) "units start at 0 and ascend within the block" true
    (List.hd starts = 0
    && List.sort_uniq compare starts = starts
    && List.for_all (fun j -> j < n) starts);
  Alcotest.(check bool)
    (Printf.sprintf "%d units < %d instructions" units n)
    true (units < n);
  for j = 0 to n - 2 do
    if Jit.insn_writes (fst b.insns.(j)) then
      Alcotest.(check bool)
        (Printf.sprintf "write %d ends its unit" j)
        true
        (List.mem (j + 1) starts)
  done;
  Alcotest.(check bool) "some write, so the body checks the epoch" true
    (List.exists
       (fun j -> j > 0 && Jit.insn_writes (fst b.insns.(j - 1)))
       starts);
  let _, c_rx = compiled_block (fst (setup ~code_perm:Mem.perm_rx prog)) in
  Alcotest.(check (list int)) "the same fusion on r-x code" starts
    (Array.to_list c_rx.Jit.unit_starts);
  let run body =
    let mem, cpu = setup prog in
    Cpu.set_bnd cpu Reg.bnd0
      { Cpu.lower = 0L; upper = Int64.of_int (Test_machine.data + 4095) };
    body mem cpu;
    state_str Interp.Stop_quantum cpu
  in
  let whole = ref Jit.U_stale in
  Alcotest.(check string) "the body covers the block: body = reference"
    (run (fun mem cpu -> ignore (Interp.run mem cpu ~fuel:n)))
    (run (fun mem cpu -> whole := enter (snd (compiled_block mem)) cpu));
  Alcotest.(check bool) "the body ran to the block's end" true
    (!whole = Jit.U_fall)

(* A fused bndcu+store pair on RWX code rewrites the next instruction of
   its own block (a nop becomes a syscall gate): the tiered loop must
   deopt right after the pair and fetch the new byte, as the reference
   loop does. *)
let test_smc_fused_store () =
  let gate = Codec.encode Insn.Syscall_gate in
  let m = Insn.Sib { base = Reg.r3; index = None; scale = 1; disp = 0 } in
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r3, Int64.of_int target);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Char.code gate.[0]));
        Insn.Bndcu (Reg.bnd0, Ea_mem m);
        Insn.Store { dst = m; src = Reg.r4; size = 1 };
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let pre = fix 4200 in
  let prog =
    pre @ [ Insn.Nop; Insn.Mov_imm (Reg.r1, 99L); Insn.Syscall_gate ]
  in
  let run tiered =
    let mem, cpu = setup prog in
    Cpu.set_bnd cpu Reg.bnd0 { Cpu.lower = 0L; upper = 8191L };
    let jit = if tiered then Some (Jit.create mem) else None in
    let stop = Interp.run ?jit mem cpu ~fuel:200 in
    (state_str stop cpu, cpu, mem)
  in
  let su, _, mem = run false in
  let sj, cpu_j, _ = run true in
  Alcotest.(check string) "fused SMC store: jit = reference" su sj;
  Alcotest.(check int64) "stopped before mov r1" 0L (Cpu.get cpu_j Reg.r1);
  (* the pair really is one unit, and a unit boundary follows its store:
     the one where the body checks the epoch *)
  let _, c = compiled_block (fst (setup prog)) in
  let starts = Array.to_list c.Jit.unit_starts and p = List.length pre - 2 in
  Alcotest.(check bool) "bndcu+store compiled as one unit" true
    (List.mem p starts
    && (not (List.mem (p + 1) starts))
    && List.mem (p + 2) starts);
  Alcotest.(check bool) "compiled, then deopted mid-block" true
    (cpu_j.Cpu.jit_compiles > 0 && cpu_j.Cpu.jit_deopts >= 1);
  Alcotest.(check bool) "the reference saw the gate byte" true
    (Bytes.get (Mem.raw mem) (4096 + enc_len pre) = gate.[0])

(* The self-modifying kernel of the bench's [jit/smc-deopts]: a store
   loop walks down a data page and, in its last [code_stores]
   iterations, on into the padding of its own RWX code page just below.
   Each of those stores runs in compiled code and moves the block's page
   generation, so each deopts once: the deopt re-enters through the code
   cache, which finds the block stale and translates it again. *)
let test_smc_kernel_deopts () =
  let r1 = Reg.r1 and r3 = Reg.r3 and r4 = Reg.r4 in
  let code_at = 8192 and data_at = 12288 in
  let run ~code_stores tiered =
    let prog =
      looped
        [
          Insn.Mov_imm (r1, Int64.of_int (512 + code_stores));
          Insn.Mov_imm (r4, Int64.of_int (data_at + 4096 - 8));
        ]
        [
          Insn.Store
            { dst = Sib { base = r4; index = None; scale = 1; disp = 0 };
              src = r3; size = 8 };
          Insn.Alu (Sub, r4, O_imm 8L);
          Insn.Alu (Sub, r1, O_imm 1L);
          Insn.Cmp (r1, O_imm 0L);
        ]
    in
    let mem = Mem.create ~size:(16 * 4096) in
    Mem.map mem ~addr:code_at ~len:4096 ~perm:Mem.perm_rwx;
    Mem.map mem ~addr:data_at ~len:4096 ~perm:Mem.perm_rw;
    Mem.write_bytes_priv mem ~addr:code_at (fst (Codec.encode_program prog));
    let cpu = Cpu.create () in
    cpu.Cpu.pc <- code_at;
    let jit = if tiered then Some (Jit.create mem) else None in
    let stop = Interp.run ?jit mem cpu ~fuel:100_000 in
    (state_str stop cpu, cpu)
  in
  List.iter
    (fun code_stores ->
      let label = Printf.sprintf "%d code-page stores" code_stores in
      let su, _ = run ~code_stores false in
      let sj, cpu = run ~code_stores true in
      Alcotest.(check string) (label ^ ": jit = reference") su sj;
      Alcotest.(check int) (label ^ ": one deopt per store") code_stores
        cpu.Cpu.jit_deopts)
    [ 0; 1; 2; 3 ]

(* --- direct block links ------------------------------------------------ *)

(* Block A (page 1) jumps to block B (page 2). Once A's exit has found B
   through the table, A links to B and later exits follow the link —
   counted as the same hits. A privileged rewrite of B's page must still
   be observed, and counted as one invalidation, and a wholesale flush
   must unlink everything it drops. *)
let test_block_links () =
  let b_at = 8192 in
  let a_prog = [ Insn.Mov_imm (Reg.r2, 5L); Insn.Jmp 0 ] in
  let a_len = enc_len a_prog in
  let a_prog =
    [ Insn.Mov_imm (Reg.r2, 5L); Insn.Jmp (b_at - (4096 + a_len)) ]
  in
  Alcotest.(check int) "jmp encoding length is stable" a_len (enc_len a_prog);
  let b_prog v = [ Insn.Mov_imm (Reg.r1, v); Insn.Syscall_gate ] in
  let mem = Mem.create ~size:(64 * 4096) in
  Mem.map mem ~addr:4096 ~len:8192 ~perm:Mem.perm_rwx;
  let write at prog =
    Mem.write_bytes_priv mem ~addr:at (fst (Codec.encode_program prog))
  in
  write 4096 a_prog;
  write b_at (b_prog 1L);
  let cpu = Cpu.create () in
  let j = Jit.create mem in
  let run () =
    cpu.Cpu.pc <- 4096;
    match Interp.run ~jit:j mem cpu ~fuel:100 with
    | Interp.Stop_syscall -> Cpu.get cpu Reg.r1
    | s -> Alcotest.fail ("run: " ^ Interp.stop_to_string s)
  in
  (* 1st run compiles A and B; the 2nd finds B through the table and
     links A to it; the 3rd follows the link *)
  for _ = 1 to 3 do
    Alcotest.(check int64) "B's immediate" 1L (run ())
  done;
  let compiles, hits, inv = Jit.stats j in
  Alcotest.(check (list int))
    "two compiles, A and B hit twice each, no invalidation"
    [ 2; 4; 0 ] [ compiles; hits; inv ];
  Alcotest.(check int) "cpu hit count agrees" hits cpu.Cpu.jit_hits;
  let a =
    match Jit.lookup j 4096 with
    | Jit.Hit c -> c
    | _ -> Alcotest.fail "A not in the code cache"
  in
  Alcotest.(check int) "A links to B" b_at a.Jit.link.Jit.entry;
  Alcotest.(check bool) "following the link is a hit" true
    (Jit.follow j a b_at);
  (* privileged rewrite of B's page: the link must not hide it *)
  write b_at (b_prog 2L);
  Alcotest.(check bool) "a stale link is not followed" false
    (Jit.follow j a b_at);
  Alcotest.(check int64) "patched immediate observed" 2L (run ());
  let _, _, inv = Jit.stats j in
  Alcotest.(check int) "stale B counted once" 1 inv;
  Alcotest.(check int) "cpu invalidation count agrees" 1
    cpu.Cpu.jit_invalidations;
  (* a flush unlinks: a small cache over three blocks must flush *)
  let j = Jit.create ~max_blocks:2 mem in
  let run_at pc =
    cpu.Cpu.pc <- pc;
    ignore (Interp.run ~jit:j mem cpu ~fuel:100)
  in
  run_at 4096;
  run_at 4096;
  let a =
    match Jit.lookup j 4096 with
    | Jit.Hit c -> c
    | _ -> Alcotest.fail "A not in the small code cache"
  in
  Alcotest.(check bool) "A linked before the flush" true
    (a.Jit.link.Jit.entry = b_at && Jit.follow j a b_at);
  (* the gate alone, entered mid-block, is a third block: the flush *)
  run_at (b_at + enc_len [ Insn.Mov_imm (Reg.r1, 2L) ]);
  Alcotest.(check bool) "no link survives the flush" false
    (Jit.follow j a b_at || a.Jit.live)

(* --- epoch-validated entries ---------------------------------------------- *)

(* A compiled block skips its snapshot compare while the code epoch has
   not moved since the block was last found valid. That is only a
   shortcut: over random map, unmap, checked and privileged writes, fill
   and install, [Jit.valid] gives [Decode_cache.block_valid]'s answer
   for every block the code cache compiled (in particular it never calls
   a stale block valid), asked after a random number of ops. Code pages
   1-3 hold nop runs ended by a gate, so blocks cross page boundaries;
   each round also looks up and retranslates a random entry. *)
let prop_epoch_valid_matches_snapshot =
  let pages = 8 and ps = Mem.page_size in
  let code =
    let run = List.init 40 (fun _ -> Insn.Nop) @ [ Insn.Syscall_gate ] in
    let run = String.concat "" (List.map Codec.encode run) in
    Bytes.of_string
      (String.sub (String.concat "" (List.init 400 (fun _ -> run))) 0 (3 * ps))
  in
  QCheck.Test.make ~name:"epoch-validated check = generation snapshot"
    ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      let int n = Random.State.int st n in
      let mem = Mem.create ~size:(pages * ps) in
      Mem.map mem ~addr:ps ~len:(3 * ps)
        ~perm:(if int 2 = 0 then Mem.perm_rx else Mem.perm_rwx);
      Mem.write_bytes_priv mem ~addr:ps code;
      let j = Jit.create mem in
      let blocks = ref [] in
      let enter () =
        let pc = ps + int (3 * ps) in
        match Jit.lookup j pc with
        | Jit.Hit _ -> ()
        | Jit.Miss | Jit.Stale -> (
            match Jit.translate j pc with
            | Some c -> blocks := c :: !blocks
            | None -> ())
      in
      for _ = 1 to 8 do
        enter ()
      done;
      let ops = Test_machine.random_mem_ops st mem ~pages in
      let rec go k =
        k = 0
        ||
        let name, op = ops.(int (Array.length ops)) in
        op ();
        if int 3 = 0 then enter ();
        let wrong =
          if int 2 = 0 then
            List.find_opt
              (fun c -> Jit.valid j c <> Decode_cache.block_valid mem c.Jit.src)
              !blocks
          else None
        in
        match wrong with
        | Some c ->
            QCheck.Test.fail_reportf
              "after %s: block at %d: epoch check %b, snapshot %b" name
              c.Jit.entry (Jit.valid j c)
              (Decode_cache.block_valid mem c.Jit.src)
        | None -> go (k - 1)
      in
      go 40)

(* A code cache serves the memory it was created over: running it
   against another raises before any instruction retires. *)
let test_jit_bound_to_its_mem () =
  let prog = [ Insn.Mov_imm (Reg.r1, 1L); Insn.Syscall_gate ] in
  let mem, cpu = setup prog in
  let other, _ = setup prog in
  let j = Jit.create other in
  Alcotest.check_raises "another Mem"
    (Invalid_argument "Interp.run: the Jit is bound to another Mem")
    (fun () -> ignore (Interp.run ~jit:j mem cpu ~fuel:10));
  Alcotest.(check (pair int int)) "nothing retired, nothing compiled" (0, 0)
    (cpu.Cpu.insns, cpu.Cpu.jit_compiles);
  Alcotest.(check string) "its own Mem runs" "syscall"
    (Interp.stop_to_string
       (Interp.run ~jit:(Jit.create mem) mem cpu ~fuel:10))

(* --- mid-block fault deopt -------------------------------------------------- *)

(* Both code mappings: r-x (W^X) and RWX (the LibOS loader's mapping,
   where every block is fragile). *)
let code_perms = [ ("r-x", Mem.perm_rx); ("rwx", Mem.perm_rwx) ]

let test_midblock_fault_identity () =
  (* code compiles to fused multi-instruction units; a store that faults
     mid-unit must deopt with the CPU bit-identical to the reference
     loop at the fault (partial charges included) *)
  let prog =
    [
      Insn.Mov_imm (Reg.r1, Int64.of_int (13 * 4096));
      Insn.Alu (Add, Reg.r2, O_imm 7L);
      Insn.Lea
        (Reg.r3, Sib { base = Reg.r1; index = None; scale = 1; disp = 8 });
      Insn.Store
        { dst = Sib { base = Reg.r1; index = None; scale = 1; disp = 0 };
          src = Reg.r2; size = 8 };
      Insn.Syscall_gate;
    ]
  in
  List.iter
    (fun (pname, code_perm) ->
      let mem, cpu = setup ~code_perm prog in
      let su = Interp.run mem cpu ~fuel:100 in
      (match su with
      | Interp.Stop_fault (Fault.Page_fault { addr; access = Fault.Write })
        when addr = 13 * 4096 ->
          ()
      | s ->
          Alcotest.fail
            ("expected write fault, got " ^ Interp.stop_to_string s));
      let mem_j, cpu_j = setup ~code_perm prog in
      let j = Jit.create mem_j in
      let sj = Interp.run ~jit:j mem_j cpu_j ~fuel:100 in
      Alcotest.(check string)
        (pname ^ ": mid-block fault: jit = reference")
        (state_str su cpu) (state_str sj cpu_j);
      Alcotest.(check bool)
        (pname ^ ": fault deopted out of compiled code")
        true
        (cpu_j.Cpu.jit_deopts >= 1))
    code_perms

(* --- fuel at every boundary ------------------------------------------------ *)

(* Fuel is the only way to preempt the tiered loop, and a quantum can
   end inside a block, even inside a fused superinstruction: the loop
   then replays the block's decoded instructions from its entry up to
   the boundary where the fuel ends. So for
   EVERY boundary index i, a tiered run with fuel i must stop
   bit-identically to a reference run with fuel i, and both runs must
   resume to the same completion. *)

let fuel_every_boundary ?(prep = ignore) name code_perm prog =
  let run_tier tiered fuel =
    let mem, cpu = setup ~code_perm prog in
    prep mem;
    Cpu.set_bnd cpu Reg.bnd0
      { Cpu.lower = 0L; upper = Int64.of_int (Test_machine.data + 4095) };
    let jit = if tiered then Some (Jit.create mem) else None in
    let s1 = Interp.run ?jit mem cpu ~fuel in
    let mid = state_str s1 cpu in
    let s2 =
      if s1 = Interp.Stop_quantum then Interp.run ?jit mem cpu ~fuel:100_000
      else s1
    in
    (mid, state_str s2 cpu, cpu.Cpu.insns)
  in
  let agree fuel =
    let label = Printf.sprintf "%s: fuel %d" name fuel in
    let mu, fu, n = run_tier false fuel in
    let m, f, _ = run_tier true fuel in
    Alcotest.(check string) (label ^ ": identical stop") mu m;
    Alcotest.(check string) (label ^ ": identical completion") fu f;
    n
  in
  (* the whole run's length: every boundary, and the stop after the last *)
  let n = agree 100_000 in
  for i = 0 to n do
    ignore (agree i)
  done

let test_fuel_every_boundary () =
  List.iter
    (fun (pname, code_perm) ->
      fuel_every_boundary (pname ^ ", register loop") code_perm (loop_prog 20);
      fuel_every_boundary (pname ^ ", store loop") code_perm
        (store_loop_prog 8))
    code_perms

(* A long RWX block that stores into a second executable page moves the
   code epoch on every store, but never its own pages' generations: the
   body (or a replay) revalidates, finds the block valid and runs on,
   with no deopt and no invalidation, at any fuel. *)
let test_store_to_other_code_page () =
  let other = 2 * 4096 in
  let prep mem = Mem.map mem ~addr:other ~len:4096 ~perm:Mem.perm_rwx in
  let at disp = Insn.Sib { base = Reg.r4; index = None; scale = 1; disp } in
  let prog =
    looped
      [
        Insn.Mov_imm (Reg.r1, 6L);
        Insn.Mov_imm (Reg.r2, 1L);
        Insn.Mov_imm (Reg.r4, Int64.of_int (other + 64));
      ]
      [
        Insn.Store { dst = at 0; src = Reg.r2; size = 8 };
        Insn.Alu (Add, Reg.r2, O_imm 5L);
        Insn.Alu (Shl, Reg.r2, O_imm 1L);
        Insn.Load { dst = Reg.r5; src = at 0; size = 8 };
        Insn.Store { dst = at 8; src = Reg.r5; size = 1 };
        Insn.Alu (Xor, Reg.r2, O_reg Reg.r5);
        Insn.Push Reg.r2;
        Insn.Pop Reg.r6;
        Insn.Alu (Add, Reg.r4, O_imm 16L);
        Insn.Alu (Sub, Reg.r1, O_imm 1L);
        Insn.Cmp (Reg.r1, O_imm 0L);
      ]
  in
  let run tiered =
    let mem, cpu = setup prog in
    prep mem;
    let jit = if tiered then Some (Jit.create mem) else None in
    let e0 = mem.Mem.code_epoch in
    let stop = Interp.run ?jit mem cpu ~fuel:10_000 in
    ( state_str stop cpu ^ Printf.sprintf " page=%d"
        (Hashtbl.hash (Mem.read_bytes_priv mem ~addr:other ~len:4096)),
      cpu,
      mem.Mem.code_epoch - e0 )
  in
  let su, _, _ = run false in
  let sj, cpu, moved = run true in
  Alcotest.(check string) "jit = reference" su sj;
  Alcotest.(check bool) "the stores moved the code epoch" true (moved > 0);
  Alcotest.(check (list int)) "compiled and replayed, no deopt or invalidation"
    [ 0; 0 ] [ cpu.Cpu.jit_deopts; cpu.Cpu.jit_invalidations ];
  Alcotest.(check bool) "the block was re-entered from the code cache" true
    (cpu.Cpu.jit_hits > 0);
  let mem, cpu = setup prog in
  prep mem;
  let _, c = compiled_block mem in
  let e0 = mem.Mem.code_epoch in
  let whole = enter c cpu in
  Alcotest.(check bool) "the body runs on past its stores to the block's end"
    true
    (whole = Jit.U_fall && mem.Mem.code_epoch > e0);
  fuel_every_boundary ~prep "store to another code page" Mem.perm_rwx prog

(* The fuel ends inside a block, after a store that rewrote a later
   instruction of the same block: the loop replays the block's decoded
   instructions, sees the epoch move at the boundary after the store,
   finds the block stale and deopts — exactly once — before the quantum
   ends on the reference's boundary. Resumed, it runs the rewritten
   code. *)
let test_quantum_ends_after_smc_store () =
  let gate = Codec.encode Insn.Syscall_gate in
  let rec fix target =
    let pre =
      [
        Insn.Mov_imm (Reg.r3, Int64.of_int target);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Char.code gate.[0]));
        Insn.Store
          { dst = Sib { base = Reg.r3; index = None; scale = 1; disp = 0 };
            src = Reg.r4; size = 1 };
        Insn.Nop;
      ]
    in
    if 4096 + enc_len pre = target then pre else fix (4096 + enc_len pre)
  in
  let pre = fix 4200 in
  let prog =
    pre @ [ Insn.Nop; Insn.Mov_imm (Reg.r1, 99L); Insn.Syscall_gate ]
  in
  let n = List.length prog and fuel = List.length pre in
  Alcotest.(check bool) "the quantum ends inside the block" true (fuel < n);
  let run tiered =
    let mem, cpu = setup prog in
    let jit = if tiered then Some (Jit.create mem) else None in
    let s1 = Interp.run ?jit mem cpu ~fuel in
    let mid = state_str s1 cpu in
    let s2 = Interp.run ?jit mem cpu ~fuel:100 in
    (mid, state_str s2 cpu, cpu)
  in
  let mu, fu, _ = run false in
  let mj, fj, cpu = run true in
  Alcotest.(check string) "quantum end: jit = reference" mu mj;
  Alcotest.(check string) "resumed: jit = reference" fu fj;
  Alcotest.(check int64) "stopped at the rewritten gate" 0L (Cpu.get cpu Reg.r1);
  Alcotest.(check int) "one deopt" 1 cpu.Cpu.jit_deopts

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
      (Hashtbl.hash
         (let raw = Mem.raw mem in
          (* the store past its extent reads as zeros *)
          Bytes.init 4096 (fun k ->
              if base + k < Bytes.length raw then Bytes.get raw (base + k)
              else '\x00')))
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
                      let run tiered =
                        let mem, cpu = setup perm paging prog in
                        Cpu.set cpu Reg.r2 (Int64.of_int addr);
                        Cpu.set cpu Reg.r3 0x1122334455667788L;
                        let gen0 = Mem.page_gen mem tgt in
                        let j = Jit.create mem in
                        let stop =
                          if tiered then Interp.run ~jit:j mem cpu ~fuel:10
                          else Interp.run mem cpu ~fuel:10
                        in
                        let c, _, _ = Jit.stats j in
                        (observe stop mem cpu, stop, gen0, mem, c)
                      in
                      let label =
                        Printf.sprintf "%s, size %d, %s, %s%s" sname size aname
                          oname fname
                      in
                      let ref_obs, _, _, _, _ = run false in
                      let jit_obs, stop, gen0, mem, c = run true in
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

(* --- the stack window ------------------------------------------------------ *)

(* A block that writes no sp gets a window body whose stack-slot
   accesses skip the page test, chosen by one test at entry. Which body
   runs must never show. Each case runs one block of stack-slot loads and
   stores in every unit shape (a lone load, a run and its store, a
   guard-fused load, the binop idiom) through the reference loop and the
   tiered loop and compares registers, flags, counters, the fault, and
   each stack page's bytes, generation, dirty mark and accessed bit. The
   slots are [sp+d0 .. sp+d0+31]; the stack page is page 8, page 9 is
   left unmapped and page 10 is stored, so both lie inside [Mem.data]. *)
let win_page = 8

let win_prog d0 =
  let at d = Insn.Sib { base = Reg.sp; index = None; scale = 1; disp = d0 + d } in
  [
    Insn.Load { dst = Reg.r1; src = at 0; size = 8 };
    Insn.Alu (Add, Reg.r1, O_imm 1L);
    Insn.Store { dst = at 8; src = Reg.r1; size = 8 };
    Insn.Bndcl (Reg.bnd0, Ea_mem (at 16));
    Insn.Load { dst = Reg.r3; src = at 16; size = 8 };
    Insn.Mov_imm (Reg.r4, 5L);
    Insn.Load { dst = Reg.r5; src = at 16; size = 8 };
    Insn.Alu (Add, Reg.r5, O_reg Reg.r4);
    Insn.Mov_reg (Reg.r4, Reg.r5);
    Insn.Load { dst = Reg.r2; src = at 24; size = 1 };
    Insn.Store { dst = at 31; src = Reg.r2; size = 1 };
    Insn.Syscall_gate;
  ]

(* [prep mem] sets the stack page up; [between mem] runs between the
   block's first and second quantum *)
let win_case ?(code_perm = Mem.perm_rx) ?(d0 = 0) ?(between = ignore) ~sp
    name prep =
  let ps = Mem.page_size in
  let run tiered =
    let mem = Mem.create ~size:(16 * ps) in
    Mem.map mem ~addr:ps ~len:ps ~perm:code_perm;
    let code, _ = Codec.encode_program (win_prog d0) in
    Mem.write_bytes_priv mem ~addr:ps code;
    Mem.map mem ~addr:(10 * ps) ~len:ps ~perm:Mem.perm_rw;
    Mem.write_bytes_priv mem ~addr:(10 * ps) (Bytes.make 8 'z');
    prep mem;
    let cpu = Cpu.create () in
    let jit = Jit.create mem in
    let quantum () =
      cpu.Cpu.pc <- ps;
      Cpu.set cpu Reg.sp sp;
      let stop =
        if tiered then Interp.run ~jit mem cpu ~fuel:100
        else Interp.run mem cpu ~fuel:100
      in
      let page p =
        let raw = Mem.raw mem in
        Printf.sprintf "[%d gen=%d dirty=%b accessed=%b bytes=%d]" p
          (Mem.page_gen mem p) (Mem.page_dirty mem p) (Mem.page_accessed mem p)
          (Hashtbl.hash
             (Bytes.init ps (fun k ->
                  let a = (p * ps) + k in
                  if a < Bytes.length raw then Bytes.get raw a else '\x00')))
      in
      state_str stop cpu ^ page win_page ^ page (win_page + 1)
    in
    let first = quantum () in
    between mem;
    let second = quantum () in
    (first, second, jit)
  in
  let r1, r2, _ = run false and t1, t2, jit = run true in
  Alcotest.(check string) (name ^ ": first quantum") r1 t1;
  Alcotest.(check string) (name ^ ": second quantum") r2 t2;
  let compiles, _, _ = Jit.stats jit in
  Alcotest.(check bool) (name ^ ": ran compiled") true (compiles > 0)

let win_base = win_page * 4096

(* a stack page mapped [perm] holding a pattern, so dirty *)
let win_stack ?(page = win_page) perm mem =
  Mem.map mem ~addr:(page * 4096) ~len:4096 ~perm;
  Mem.write_bytes_priv mem ~addr:(page * 4096)
    (Bytes.init 4096 (fun k -> Char.chr ((k * 13) land 0xFF)))

let test_window_layout () =
  let mem = Mem.create ~size:(16 * 4096) in
  Mem.map mem ~addr:4096 ~len:4096 ~perm:Mem.perm_rx;
  let compiled prog =
    let code, _ = Codec.encode_program prog in
    Mem.write_bytes_priv mem ~addr:4096 code;
    match Decode_cache.build mem 4096 with
    | Some b -> Jit.compile (Jit.create mem) b
    | None -> Alcotest.fail "block failed to build"
  in
  let window prog =
    Option.map
      (fun (w : Jit.window) -> (w.Jit.lo, w.Jit.hi, w.Jit.need))
      (compiled prog).Jit.window
  in
  let wt = Alcotest.(option (triple int int int)) in
  Alcotest.check wt "window [sp+40, sp+72), read and write"
    (Some (40, 72, Mem.direct_read lor Mem.direct_write))
    (window (win_prog 40));
  Alcotest.check wt "loads need only the read bit"
    (Some (0, 8, Mem.direct_read))
    (window [ List.hd (win_prog 0); Insn.Syscall_gate ]);
  List.iter
    (fun (name, insn) ->
      Alcotest.check wt (name ^ ": no window") None (window (insn :: win_prog 0)))
    [
      ("pop", Insn.Pop Reg.r9);
      ("push", Insn.Push Reg.r9);
      ("add sp", Insn.Alu (Add, Reg.sp, O_imm 8L));
      ("load into sp", Insn.Load { dst = Reg.sp; src = Abs 0L; size = 8 });
      ( "a slot a page away",
        Insn.Store
          { dst = Sib { base = Reg.sp; index = None; scale = 1; disp = 4096 };
            src = Reg.r1; size = 1 } );
    ]

let test_window_agrees () =
  let rw = win_stack Mem.perm_rw in
  let in_page = Int64.of_int (win_base + 64) in
  win_case ~sp:in_page "dirty rw- page" rw;
  win_case ~code_perm:Mem.perm_rwx ~sp:in_page "dirty rw- page, rwx code" rw;
  win_case ~sp:(Int64.of_int (win_base + 4096 - 32)) "window ends at the page end" rw;
  win_case ~sp:(Int64.of_int (win_base + 4096 - 16))
    "straddling into an unmapped page" rw;
  win_case ~sp:(Int64.of_int (win_base + 4096 - 16))
    "straddling into a dirty rw- page" (fun mem ->
      rw mem;
      win_stack ~page:(win_page + 1) Mem.perm_rw mem);
  win_case ~sp:(Int64.of_int (win_base + 4096 - 16))
    "straddling into an r-- page" (fun mem ->
      rw mem;
      win_stack ~page:(win_page + 1) Mem.perm_ro mem);
  win_case ~sp:(Int64.sub 0x100_0000_0000L 16L) "window past addr_mask" rw;
  win_case ~sp:(Int64.sub 0x100_0000_0000L 8L) "window across addr_mask" rw;
  win_case ~sp:(Int64.add Int64.min_int in_page)
    "negative sp aliasing the stack page" rw;
  win_case ~sp:(Int64.add 0x100_0000_0000L in_page)
    "sp one address space up" rw;
  win_case ~d0:(2 * 4096) ~sp:(Int64.of_int (win_base + 64 - (2 * 4096)))
    "negative sp, window inside the page" rw;
  win_case ~sp:(-64L) "negative sp, window below 0" rw;
  win_case ~d0:(4096 + 64) ~sp:0L "r-x code page as the stack" rw;
  win_case ~sp:in_page "clean rw- page: the first store is checked" (fun mem ->
      Mem.map mem ~addr:win_base ~len:4096 ~perm:Mem.perm_rw);
  win_case ~sp:in_page "r-- page under a store" (win_stack Mem.perm_ro);
  win_case ~sp:in_page "rwx page" (win_stack Mem.perm_rwx);
  win_case ~sp:in_page "unmapped page" ignore;
  win_case ~sp:in_page "unmapped between quanta" rw ~between:(fun mem ->
      Mem.unmap mem ~addr:win_base ~len:4096);
  win_case ~sp:in_page "reprotected r-- between quanta" rw ~between:(fun mem ->
      Mem.map mem ~addr:win_base ~len:4096 ~perm:Mem.perm_ro);
  win_case ~sp:in_page "reinstalled clean between quanta" rw ~between:(fun mem ->
      Mem.install mem ~addr:win_base ~len:4096 Bytes.empty);
  win_case ~sp:in_page "paging on" (fun mem ->
      rw mem;
      Mem.enable_paging mem ~pager:(fun p -> Mem.set_resident mem p true));
  win_case ~sp:in_page "paging on between quanta" rw ~between:(fun mem ->
      Mem.enable_paging mem ~pager:(fun p -> Mem.set_resident mem p true))

(* --- the compiled hot path allocates nothing ------------------------------ *)

(* A compiled self-loop in the MMDSFI shape of real SIP code: guarded
   loads and stores, add, shifts and cmp/jcc, on r-x code and on RWX
   code (the loader's mapping, where the body checks the code epoch
   after its store). Its per-instruction cost must not include the minor heap:
   [Gc.minor_words] is exact for a given build, and every body keeps
   register values unboxed. *)
let test_hot_path_allocation_free () =
  let at disp = Insn.Sib { base = Reg.r4; index = None; scale = 1; disp } in
  let guarded m =
    [ Insn.Bndcl (Reg.bnd0, Ea_mem m); Insn.Bndcu (Reg.bnd0, Ea_mem m) ]
  in
  let iters = 20_000 in
  let prog =
    looped
      [
        Insn.Mov_imm (Reg.r1, Int64.of_int iters);
        Insn.Mov_imm (Reg.r4, Int64.of_int (Test_machine.data + 64));
      ]
      (guarded (at 0)
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
        ])
  in
  List.iter
    (fun (pname, code_perm) ->
      let mem, cpu = setup ~code_perm prog in
      Cpu.set_bnd cpu Reg.bnd0
        {
          Cpu.lower = Int64.of_int Test_machine.data;
          upper = Int64.of_int (Test_machine.data + 4095);
        };
      let jit = Jit.create mem in
      let w0 = Gc.minor_words () in
      let stop = Interp.run ~jit mem cpu ~fuel:max_int in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check string)
        (pname ^ ": loop ran to the gate")
        "syscall"
        (Interp.stop_to_string stop);
      (* the first two iterations run in the entry block and the compile *)
      Alcotest.(check bool)
        (pname ^ ": loop ran compiled")
        true
        (cpu.Cpu.jit_hits >= iters - 2);
      let per_insn = words /. float cpu.Cpu.insns in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per instruction < 0.1" pname
           per_insn)
        true (per_insn < 0.1))
    code_perms

(* --- LibOS: reference vs tiered, one core vs four -------------------------- *)

(* The one LibOS differential between the two loops: [jit] selects the
   reference loop (off) or the tiered loop (on). *)
let test_libos_jit_on_off_identical () =
  let run jit =
    let config = { Os.default_config with jit } in
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
  match (Os.jit_stats os_t, Os.decode_cache_stats os_t) with
  | Some (c, h, i), Some code_cache ->
      Alcotest.(check bool) "compiled and replayed under the LibOS" true
        (c > 0 && h > 0);
      Alcotest.(check (triple int int int))
        "code-cache stats are the JIT's (hits, builds, invalidations)"
        (h, c, i) code_cache
  | _ -> Alcotest.fail "JIT stats missing under the tiered loop"

let test_multicore_digest_with_jit () =
  (* default config: JIT on, one code cache shared by every core *)
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

(* --- codegen idioms as single units ------------------------------------ *)

module Exec = Occlum_fuzzing.Exec

(* The hot block of a binop loop from the real toolchain: the rotated
   loop's body, which its bottom test re-enters through a backward jcc.
   Each [mov_imm rA ; load rB ; op rB,rA ; mov rA,rB] the code generator
   emits for a binop is one unit, and so is the [load ; op ; mov] of a
   binop whose other operand is already in rA, a pure run with the store
   after it, and the loop test [mov_imm ; load ; cmp ; jcc]. *)
let test_idiom_units () =
  let src =
    {|fn main() {
  let x = 7;
  let i = 0;
  while (i < 12) {
    x = x ^ (x << 13);
    x = x * 31 + 17;
    i = i + 1;
  }
  return x;
}|}
  in
  let prog = Parser.parse src in
  let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  let env = Exec.make ~code_perm:Mem.perm_rx oelf in
  let mem = env.Exec.mem in
  (* walk main block by block to its first backward jcc: the loop head *)
  let rec head pc =
    match Decode_cache.build mem pc with
    | None -> Alcotest.fail "main has no backward jcc"
    | Some b -> (
        let end_pc = Array.fold_left (fun a (_, l) -> a + l) pc b.insns in
        match fst b.insns.(Array.length b.insns - 1) with
        | Insn.Jcc (_, rel) when rel < 0 -> end_pc + rel
        | _ -> head end_pc)
  in
  let main =
    env.Exec.code_base + List.assoc "f_main" oelf.Occlum_oelf.Oelf.symbols
  in
  let b = Option.get (Decode_cache.build mem (head main)) in
  let c = Jit.compile (Jit.create mem) b in
  Alcotest.(check int) "the loop body's 24 instructions" 24
    (Array.length b.insns);
  (* x ^ (x << 13): idiom of 4, then of 3, then the store; x * 31: 4;
     + 17: a pure run and the store; i + 1: 4, then the store; the
     test: 4 *)
  Alcotest.(check (list int)) "one unit per idiom"
    [ 0; 4; 7; 8; 12; 15; 19; 20 ]
    (Array.to_list c.Jit.unit_starts);
  let summary jit = bare_row (run_bare ~jit oelf) in
  Alcotest.check bare_summary "tiered = reference" (summary false)
    (summary true)

(* Codegen idioms against the reference loop, through the lockstep
   engine. Each case is a loop whose block holds one idiom-shaped run:
   an optional pure prefix, an optional [mov_imm rA,v], [load rB,[m]]
   of 1 or 8 bytes, then [alu rB,rA ; mov rA,rB] (every op an idiom
   takes) followed by a pure run and a store, or the block-ending
   [cmp rB,rA ; jcc] (every condition). [m] reads the data region, the
   stack, rA, rB, an index register or an unmapped page, so some loads
   fault inside the unit, on the first entry or once rA or rB holds a
   computed value; on a paged pool the data and stack pages are evicted
   at every preemption, so loads miss the EPC and retry. Code is r-x or
   RWX, and quanta of every length up to two blocks end the fuel at
   every boundary. The engine compares pc, flags, registers, bounds and
   every counter at each stop, and the fault. *)
let prop_idioms_match_reference =
  let module R = Occlum_toolchain.Codegen_regs in
  let module Asm = Occlum_toolchain.Asm in
  let module Fgen = Occlum_fuzzing.Gen in
  let module Epc = Occlum_sgx.Epc in
  let ops = [| Insn.Add; Sub; Mul; And; Or; Xor; Shl; Shr |] in
  let conds = [| Insn.Eq; Ne; Lt; Le; Gt; Ge |] in
  let g_off = Occlum_toolchain.Layout.global_offset Fgen.layout "g" in
  let ra = Reg.r1 and rb = Reg.r2 and rd = Reg.r4 and ri = Reg.r5 in
  QCheck.Test.make ~name:"codegen idioms = reference (lockstep)" ~count:80
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let st = Random.State.make [| seed; 39 |] in
      let int n = Random.State.int st n in
      let pick a = a.(int (Array.length a)) in
      let i64 () = Random.State.int64 st Int64.max_int in
      let imm () =
        if int 2 = 0 then Int64.of_int (int 70) else Int64.sub (i64 ()) (i64 ())
      in
      let ins i = Asm.Ins i in
      let disp = pick [| 0; 8; 13 |] in
      let sib base index = Insn.Sib { base; index; scale = 8; disp } in
      let m, setup =
        match int 6 with
        | 0 -> (sib rd None, [])
        | 1 -> (sib Reg.sp None, [])
        | 2 -> (sib ra None, [ ins (Mov_reg (ra, rd)) ])
        | 3 -> (sib rb None, [ ins (Mov_reg (rb, rd)) ])
        | 4 -> (sib rd (Some ri), [])
        | _ -> (sib rd None, [ ins (Mov_imm (rd, 0xFF_0000_0000L)) ])
      in
      let size = if int 2 = 0 then 1 else 8 in
      let pre =
        List.init (int 3) (fun _ ->
            ins
              (if int 2 = 0 then Mov_reg (Reg.r3, pick [| ra; rb; Reg.r6 |])
               else Alu (pick ops, Reg.r6, O_reg Reg.r3)))
      in
      let mov_v = if int 3 = 0 then [] else [ ins (Mov_imm (ra, imm ())) ] in
      let load = ins (Load { dst = rb; src = m; size }) in
      let tail =
        if int 3 = 0 then
          [ ins (Cmp (rb, O_reg ra)); Asm.Jcc_l (pick conds, "loop") ]
        else
          [
            ins (Alu (pick ops, rb, O_reg ra));
            ins (Mov_reg (ra, rb));
            ins (Mov_reg (Reg.r3, rb));
            ins (Alu (Add, Reg.r3, O_imm 1L));
            ins
              (Store
                 { dst = sib rd None; src = Reg.r3; size = pick [| 1; 8 |] });
            ins (Alu (Sub, Reg.r8, O_imm 1L));
            ins (Cmp (Reg.r8, O_imm 0L));
            Asm.Jcc_l (Ne, "loop");
          ]
      in
      let seed_slot base disp =
        ins
          (Store
             {
               dst = Sib { base; index = None; scale = 1; disp };
               src = Reg.r3;
               size = 8;
             })
      in
      let items =
        [
          Asm.Label "_start";
          Asm.Cfi_label_here;
          ins (Mov_reg (rd, R.data_base));
          ins (Alu (Add, rd, O_imm (Int64.of_int g_off)));
          ins (Alu (Sub, Reg.sp, O_imm 64L));
        ]
        @ List.concat_map
            (fun d ->
              [
                ins (Mov_imm (Reg.r3, i64 ()));
                seed_slot rd d;
                seed_slot Reg.sp d;
              ])
            [ 0; 8; 16; 24 ]
        @ [
            ins (Mov_imm (ri, 1L));
            ins (Mov_imm (ra, imm ()));
            ins (Mov_imm (rb, imm ()));
            ins (Mov_imm (Reg.r8, Int64.of_int (2 + int 5)));
          ]
        @ setup
        @ [ Asm.Label "loop" ] @ pre @ mov_v @ (load :: tail)
        @ [ Asm.Label "spin"; Asm.Jmp_l "spin" ]
      in
      let oelf = Fgen.link items in
      let code_perm = if int 2 = 0 then Mem.perm_rx else Mem.perm_rwx in
      let paged = int 3 = 0 in
      let block = List.length pre + List.length mov_v + 1 + List.length tail in
      let check every =
        let pool =
          if paged then begin
            let p = Epc.create ~size:(512 * Epc.page_size) () in
            Epc.enable_paging p;
            Some p
          end
          else None
        in
        let env () = Exec.make ?epc:pool ~code_perm oelf in
        let a = env () and b = env () in
        (* the pages of g and of the stack slots *)
        let perturb =
          Option.map
            (fun pool () (env : Exec.env) ->
              let d = env.Exec.d_base + g_off in
              let sp = Int64.to_int (Cpu.get env.Exec.cpu Reg.sp) in
              List.iter
                (fun a ->
                  ignore
                    (Epc.evict_page pool
                       ~cid:(Occlum_sgx.Enclave.id env.Exec.enclave)
                       ~page:(a / Mem.page_size)))
                [ d; sp ])
            pool
        in
        let machine env tier =
          {
            Exec.env;
            tier;
            quantum = Some { Exec.every; expired = ignore };
            pager =
              Option.map
                (fun pool ->
                  {
                    Exec.reload = Exec.eldu pool;
                    aex = None;
                    retry_spends_fuel = true;
                  })
                pool;
          }
        in
        match
          Exec.lockstep ~differ:Identical ~fuel:400 ?perturb
            [
              machine a (Exec.Tiered (Jit.create a.Exec.mem));
              machine b (Exec.Reference None);
            ]
        with
        | Ok _ -> ()
        | Error d ->
            QCheck.Test.fail_reportf "quantum %d, %s%s: %s\n%s" every
              (if code_perm = Mem.perm_rx then "r-x" else "rwx")
              (if paged then ", paged" else "")
              d
              (String.concat "\n" (List.map Asm.item_to_string items))
      in
      for every = 1 to 2 * (block + 1) do
        check every
      done;
      true)

(* A fault at every unit position, through the lockstep engine. A
   compiled block charges its counters at entry; each place it can stop
   mid-block rebuilds the reference's counters and pc. One block holds
   every unit shape — a guard pair, a guard+load and a guard+store pair,
   a binop idiom, a pure run and its store, push, pop and divu — and
   ends in a loop-test idiom, a [call_mem] or a privileged [hlt] (which,
   like every privileged opcode, ends its block). Each unit is made to
   fault in turn, with every unit after it still charged by the block:
   a bound fault on either half of a pair, an unmapped access (in the
   bounds, in the guard gap past the data region) or, on a paged pool,
   an [Epc_miss] on the unit's own evicted page (there every access
   takes the checked path, so the ones before the fault also re-advance),
   and a division by zero. Code is r-x or RWX. The engine compares pc,
   flags, registers, bounds, all five counters and memory at the fault
   with the reference loop. *)
(* which unit faults: the bndcl or a bndcu of the guard pair starting
   at an instruction index, the access to a data page, the division *)
type fault_at =
  | Benign
  | Bound_low of int
  | Bound_high of int
  | Access of int
  | Div

let test_fault_at_every_unit () =
  let module Asm = Occlum_toolchain.Asm in
  let module Fgen = Occlum_fuzzing.Gen in
  let module Epc = Occlum_sgx.Epc in
  let ps = Mem.page_size in
  let ins i = Asm.Ins i in
  let at r disp = Insn.Sib { base = r; index = None; scale = 1; disp } in
  let bnd = Reg.bnd2 in
  let body =
    [
      ins (Bndcl (bnd, Ea_mem (at Reg.r1 0)));
      ins (Bndcu (bnd, Ea_mem (at Reg.r1 0)));
      ins (Bndcu (bnd, Ea_mem (at Reg.r2 8)));
      ins (Load { dst = Reg.r13; src = at Reg.r2 8; size = 8 });
      ins (Bndcu (bnd, Ea_mem (at Reg.r3 0)));
      ins (Store { dst = at Reg.r3 0; src = Reg.r0; size = 8 });
      ins (Mov_imm (Reg.r5, 9L));
      ins (Load { dst = Reg.r6; src = at Reg.r4 0; size = 8 });
      ins (Alu (Add, Reg.r6, O_reg Reg.r5));
      ins (Mov_reg (Reg.r5, Reg.r6));
      ins (Mov_reg (Reg.r8, Reg.r6));
      ins (Alu (Add, Reg.r8, O_imm 1L));
      ins (Store { dst = at Reg.r7 0; src = Reg.r8; size = 1 });
      ins (Push Reg.r8);
      ins (Mov_reg (Reg.sp, Reg.r9));
      ins (Pop Reg.r10);
      ins (Alu (Divu, Reg.r0, O_reg Reg.scratch));
    ]
  in
  (* the units' first instructions: the guard pair, guard+load,
     guard+store, the binop idiom, the pure run and its store, push, the
     mov before pop, pop, divu *)
  let starts = [ 0; 2; 4; 6; 10; 13; 14; 15; 16 ] in
  let terminals =
    [
      ( "loop-test idiom",
        [
          ins (Mov_imm (Reg.r5, 3L));
          ins (Load { dst = Reg.r6; src = at Reg.r12 0; size = 8 });
          ins (Cmp (Reg.r6, O_reg Reg.r5));
          Asm.Jcc_l (Ne, "end");
        ] );
      ("call_mem", [ ins (Call_mem (at Reg.r12 0)) ]);
      ("hlt", [ ins Hlt ]);
    ]
  in
  (* each base register of an access, with the data page it uses *)
  let bases =
    [ (Reg.r2, 1); (Reg.r3, 2); (Reg.r4, 3); (Reg.r7, 4); (Reg.sp, 5);
      (Reg.r9, 6); (Reg.r12, 7) ]
  in
  let run (tname, term) fault code_perm paged =
    (* the initial registers over [Exec.make]'s layout: data at [d],
       [d_size] bytes, then an unmapped guard gap up to [victim] *)
    let regs (d, d_size, victim) =
      let gap = d + d_size + 64 and above = victim + 64 in
      let base (r, page) =
        ( r,
          match fault with
          | Access p when p = page && not paged -> gap
          | Bound_high 2 when r = Reg.r2 -> above
          | Bound_high 4 when r = Reg.r3 -> above
          | _ -> d + (page * ps) + 512 )
      in
      ( Reg.r1,
        match fault with
        | Bound_low 0 -> d - 8
        | Bound_high 0 -> above
        | _ -> d + 64 )
      :: (Reg.scratch, if fault = Div then 0 else 7)
      :: (Reg.r0, 5) :: List.map base bases
    in
    let prog geom =
      Fgen.link
        ([ Asm.Label "_start"; Asm.Cfi_label_here ]
        @ List.map (fun (r, v) -> ins (Mov_imm (r, Int64.of_int v))) (regs geom)
        @ [ Asm.Jmp_l "block"; Asm.Label "block" ]
        @ body @ term
        @ [ Asm.Label "end"; ins Hlt ])
    in
    let geom (e : Exec.env) =
      (e.Exec.d_base, e.Exec.d_size, e.Exec.victim_base)
    in
    (* encodings are fixed-size, so the register values do not move the
       layout *)
    let g = geom (Exec.make ~code_perm (prog (0, 0, 0))) in
    let d, d_size, victim = g in
    Alcotest.(check bool) "eight data pages" true (d_size >= 8 * ps);
    let oelf = prog g in
    let env () =
      let pool =
        if paged then begin
          let p = Epc.create ~size:(512 * Epc.page_size) () in
          Epc.enable_paging p;
          Some p
        end
        else None
      in
      let e = Exec.make ?epc:pool ~code_perm oelf in
      Alcotest.(check bool) "same layout" true (geom e = g);
      Cpu.set_bnd e.Exec.cpu bnd
        { Cpu.lower = Int64.of_int d; upper = Int64.of_int (victim - 1) };
      (match (pool, fault) with
      | Some pool, Access page ->
          ignore
            (Epc.evict_page pool
               ~cid:(Occlum_sgx.Enclave.id e.Exec.enclave)
               ~page:((d / ps) + page))
      | _ -> ());
      e
    in
    let a = env () and b = env () in
    let label =
      Printf.sprintf "%s, %s%s, %s" tname
        (if code_perm = Mem.perm_rx then "r-x" else "rwx")
        (if paged then ", paged" else "")
        (match fault with
        | Benign -> "no fault"
        | Bound_low i -> Printf.sprintf "bndcl at %d" i
        | Bound_high i -> Printf.sprintf "bndcu of the pair at %d" i
        | Access p -> Printf.sprintf "access to data page %d" p
        | Div -> "divu by zero")
    in
    (* the block after the prologue compiles to the units above *)
    let block_at pc =
      match Decode_cache.build a.Exec.mem pc with
      | Some blk -> blk
      | None -> Alcotest.fail (label ^ ": no block")
    in
    let pro = block_at a.Exec.cpu.Cpu.pc in
    let blk =
      block_at
        (Array.fold_left (fun pc (_, len) -> pc + len) pro.entry pro.insns)
    in
    let c = Jit.compile (Jit.create a.Exec.mem) blk in
    Alcotest.(check (list int))
      (label ^ ": unit layout") starts
      (List.filter
         (fun i -> i < List.length body)
         (Array.to_list c.Jit.unit_starts));
    let j = Jit.create a.Exec.mem in
    match
      Exec.lockstep ~differ:Identical ~fuel:400
        [ { (Exec.machine a) with tier = Exec.Tiered j }; Exec.machine b ]
    with
    | Error diff -> Alcotest.fail (label ^ ": " ^ diff)
    | Ok (Exec.S_fault f) ->
        let expected =
          match (fault, f) with
          | Benign, _ -> true
          | (Bound_low _ | Bound_high _), Fault.Bound_fault _ -> true
          | Access _, Fault.Epc_miss _ -> paged
          | Access _, Fault.Page_fault _ -> not paged
          | Div, Fault.Div_by_zero _ -> true
          | _ -> false
        in
        if not expected then
          Alcotest.fail (label ^ ": unexpected " ^ Fault.to_string f);
        let compiles, _, _ = Jit.stats j in
        Alcotest.(check bool) (label ^ ": the block ran compiled") true
          (compiles >= 2)
    | Ok _ -> Alcotest.fail (label ^ ": stopped without a fault")
  in
  let faults =
    [ Benign; Bound_low 0; Bound_high 0; Bound_high 2; Bound_high 4; Div ]
    @ List.map (fun (_, page) -> Access page) bases
  in
  List.iter
    (fun ((tname, _) as term) ->
      List.iter
        (fun (_, code_perm) ->
          List.iter
            (fun paged ->
              List.iter
                (fun fault ->
                  (* hlt reads no data page *)
                  if not (tname = "hlt" && fault = Access 7) then
                    run term fault code_perm paged)
                faults)
            [ false; true ])
        code_perms)
    terminals

(* A store inside a fragile block that first grows the store, through
   the lockstep engine. [Exec.make]'s environment is rebuilt in a larger
   enclave with [spare] writable pages from twice its size on, never
   touched; an extent at least doubles as it grows, so [Mem.data] ends
   below them. The block, in an RWX code
   page, stores to one spare page per iteration and loads the word
   back: its first store takes the checked path, which replaces
   [Mem.data], and the loads after it read the new buffer directly.
   Tiered and reference machines must agree at every stop, and then on
   the bytes of every spare page. *)
let test_store_grows_mid_block () =
  let module Asm = Occlum_toolchain.Asm in
  let module Fgen = Occlum_fuzzing.Gen in
  let module Enclave = Occlum_sgx.Enclave in
  let ps = Mem.page_size and spare = 24 in
  let ins i = Asm.Ins i in
  let m = Insn.Sib { base = Reg.r4; index = None; scale = 1; disp = 8 } in
  let items base =
    [
      Asm.Label "_start";
      Asm.Cfi_label_here;
      ins (Mov_imm (Reg.r4, Int64.of_int base));
      ins (Mov_imm (Reg.r8, Int64.of_int spare));
      ins (Mov_imm (Reg.r3, 0x0102_0304_0506_0708L));
      Asm.Label "loop";
      ins (Store { dst = m; src = Reg.r3; size = 8 });
      ins (Load { dst = Reg.r2; src = m; size = 8 });
      ins (Alu (Add, Reg.r3, O_reg Reg.r2));
      ins (Alu (Add, Reg.r4, O_imm (Int64.of_int ps)));
      ins (Alu (Sub, Reg.r8, O_imm 1L));
      ins (Cmp (Reg.r8, O_imm 0L));
      Asm.Jcc_l (Ne, "loop");
      Asm.Label "spin";
      Asm.Jmp_l "spin";
    ]
  in
  (* encodings are fixed-size, so the base does not move the layout *)
  let top = Mem.size (Exec.make (Fgen.link (items 0))).Exec.mem in
  let base = 2 * top in
  let oelf = Fgen.link (items base) in
  let env () =
    let e = Exec.make ~code_perm:Mem.perm_rwx oelf in
    Alcotest.(check int) "same layout" top (Mem.size e.Exec.mem);
    let enclave =
      Enclave.create ~epc:(Occlum_sgx.Epc.create ()) ~size:(base + (spare * ps)) ()
    in
    let copy addr len perm =
      Enclave.add_pages enclave ~addr
        ~data:(Mem.read_bytes_priv e.Exec.mem ~addr ~len)
        ~perm
    in
    copy e.Exec.code_base e.Exec.code_region Mem.perm_rwx;
    copy e.Exec.d_base e.Exec.d_size Mem.perm_rw;
    copy e.Exec.victim_base e.Exec.victim_size Mem.perm_rw;
    Enclave.add_zero_pages enclave ~addr:base ~len:(spare * ps) ~perm:Mem.perm_rw;
    Enclave.init enclave;
    let cpu = Cpu.create () in
    Cpu.restore cpu (Cpu.save e.Exec.cpu);
    { e with Exec.enclave; mem = Enclave.mem enclave; cpu }
  in
  let a = env () and b = env () in
  let stored_a = Bytes.length (Mem.raw a.Exec.mem) in
  Alcotest.(check bool) "spare pages not stored" true (stored_a <= base);
  let j = Jit.create a.Exec.mem in
  (match
     Exec.lockstep ~differ:Identical ~fuel:400
       [ { (Exec.machine a) with tier = Exec.Tiered j }; Exec.machine b ]
   with
  | Ok Exec.S_fuel -> ()
  | Ok _ -> Alcotest.fail "stopped before its fuel ran out"
  | Error d -> Alcotest.fail d);
  Alcotest.(check bool) "a compiled store grew the store" true
    (Bytes.length (Mem.raw a.Exec.mem) > base);
  let compiles, _, _ = Jit.stats j in
  Alcotest.(check bool) "the block ran compiled" true (compiles > 0);
  let spare_bytes (e : Exec.env) =
    Mem.read_bytes_priv e.Exec.mem ~addr:base ~len:(spare * ps)
  in
  Alcotest.(check bool) "spare pages agree" true
    (Bytes.equal (spare_bytes a) (spare_bytes b));
  Alcotest.(check bool) "every spare page written" true
    (List.for_all
       (fun k -> Mem.page_dirty a.Exec.mem ((base / ps) + k))
       (List.init spare Fun.id))

let suite =
  [
    Alcotest.test_case "differential: SPEC kernels, 2 tiers" `Quick
      test_spec_differential;
    Alcotest.test_case "guard_heavy: elision parity" `Quick
      test_guard_heavy_elide_parity;
    Alcotest.test_case "loop-free code runs compiled" `Quick
      test_loop_free_runs_compiled;
    Alcotest.test_case "self-modifying store invalidates" `Quick
      test_smc_user_store_invalidates;
    Alcotest.test_case "privileged write invalidates" `Quick
      test_priv_write_invalidates;
    Alcotest.test_case "RWX units end at their writes" `Quick
      test_rwx_units_end_at_writes;
    Alcotest.test_case "fused SMC store on RWX code" `Quick
      test_smc_fused_store;
    Alcotest.test_case "SMC kernel: one deopt per code-page store" `Quick
      test_smc_kernel_deopts;
    Alcotest.test_case "store to another code page: no deopt" `Quick
      test_store_to_other_code_page;
    Alcotest.test_case "quantum ends after a self-rewriting store" `Quick
      test_quantum_ends_after_smc_store;
    Alcotest.test_case "block links: hits, rewrites, flushes" `Quick
      test_block_links;
    QCheck_alcotest.to_alcotest prop_epoch_valid_matches_snapshot;
    Alcotest.test_case "a Jit runs only on its own Mem" `Quick
      test_jit_bound_to_its_mem;
    Alcotest.test_case "mid-block fault deopts bit-identically" `Quick
      test_midblock_fault_identity;
    Alcotest.test_case "fuel at every boundary" `Quick
      test_fuel_every_boundary;
    Alcotest.test_case "page check agrees with Mem" `Quick
      test_page_check_agrees;
    Alcotest.test_case "compiled hot path allocation-free" `Quick
      test_hot_path_allocation_free;
    Alcotest.test_case "LibOS: jit on/off identical + stats" `Quick
      test_libos_jit_on_off_identical;
    Alcotest.test_case "multi-core digest with jit" `Quick
      test_multicore_digest_with_jit;
    Alcotest.test_case "codegen idioms compile to one unit each" `Quick
      test_idiom_units;
    QCheck_alcotest.to_alcotest prop_idioms_match_reference;
    Alcotest.test_case "a compiled store grows the store mid-block" `Quick
      test_store_grows_mid_block;
    Alcotest.test_case "a fault at every unit position" `Quick
      test_fault_at_every_unit;
    Alcotest.test_case "stack window: layout" `Quick test_window_layout;
    Alcotest.test_case "stack window agrees with Mem" `Quick test_window_agrees;
  ]
