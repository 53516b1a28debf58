(* Machine tests: paged memory permissions, guard-page faults, MPX bound
   semantics, the interpreter's arithmetic/control behaviour, and
   execution stops (syscall gate, faults, quantum). *)

open Occlum_machine
open Occlum_isa

let setup ?(code_perm = Mem.perm_rwx) insns =
  let mem = Mem.create ~size:(64 * 4096) in
  (* code at page 1, data at page 8, guard (unmapped) at page 12 *)
  Mem.map mem ~addr:4096 ~len:4096 ~perm:code_perm;
  Mem.map mem ~addr:(8 * 4096) ~len:(4 * 4096) ~perm:Mem.perm_rw;
  let code, _ = Codec.encode_program insns in
  Mem.write_bytes_priv mem ~addr:4096 code;
  let cpu = Cpu.create () in
  cpu.Cpu.pc <- 4096;
  Cpu.set cpu Reg.sp (Int64.of_int ((12 * 4096) - 16));
  (mem, cpu)

let run ?(fuel = 1000) insns =
  let mem, cpu = setup insns in
  let stop = Interp.run mem cpu ~fuel in
  (stop, cpu, mem)

let expect_fault name insns pred =
  match run insns with
  | Interp.Stop_fault f, _, _ when pred f -> ()
  | stop, _, _ ->
      Alcotest.fail
        (Printf.sprintf "%s: expected fault, got %s" name (Interp.stop_to_string stop))

let data = 8 * 4096

let test_mem_permissions () =
  let mem = Mem.create ~size:8192 in
  Mem.map mem ~addr:0 ~len:4096 ~perm:Mem.perm_ro;
  Alcotest.(check bool) "mapped" true (Mem.perm_at mem 0 <> None);
  Alcotest.(check bool) "unmapped" true (Mem.perm_at mem 4096 = None);
  ignore (Mem.read_u8 mem 10);
  Alcotest.check_raises "write to ro"
    (Fault.Fault (Fault.Page_fault { addr = 10; access = Fault.Write }))
    (fun () -> Mem.write_u8 mem 10 1);
  Alcotest.check_raises "read unmapped"
    (Fault.Fault (Fault.Page_fault { addr = 4096; access = Fault.Read }))
    (fun () -> ignore (Mem.read_u8 mem 4096));
  (* span crossing into an unmapped page faults *)
  Alcotest.check_raises "straddling read"
    (Fault.Fault (Fault.Page_fault { addr = 4092; access = Fault.Read }))
    (fun () -> ignore (Mem.read_u64 mem 4092));
  Mem.unmap mem ~addr:0 ~len:4096;
  Alcotest.(check bool) "unmapped after unmap" true (Mem.perm_at mem 0 = None)

let test_alu () =
  let prog v =
    [ Insn.Mov_imm (Reg.r1, 100L); Insn.Alu (v, Reg.r1, O_imm 7L); Insn.Syscall_gate ]
  in
  let results =
    List.map
      (fun op ->
        let _, cpu, _ = run (prog op) in
        Cpu.get cpu Reg.r1)
      [ Insn.Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr ]
  in
  Alcotest.(check (list int64)) "alu results"
    [ 107L; 93L; 700L; 14L; 2L; 4L; 103L; 99L; 12800L; 0L ]
    results

let test_div_by_zero () =
  expect_fault "div0"
    [ Insn.Mov_imm (Reg.r1, 5L); Insn.Alu (Divu, Reg.r1, O_imm 0L) ]
    (function Fault.Div_by_zero _ -> true | _ -> false)

let test_flags_and_branches () =
  (* r1 = (3 < 5) ? 10 : 20 using jlt *)
  let insns =
    [
      Insn.Mov_imm (Reg.r1, 3L);
      Insn.Cmp (Reg.r1, O_imm 5L);
      Insn.Jcc (Lt, Codec.length (Insn.Mov_imm (Reg.r2, 20L)));
      Insn.Mov_imm (Reg.r2, 20L);
      Insn.Mov_imm (Reg.r3, 1L);
      Insn.Syscall_gate;
    ]
  in
  (* the taken branch skips "mov r2, 20" *)
  let _, cpu, _ = run insns in
  Alcotest.(check int64) "skipped" 0L (Cpu.get cpu Reg.r2);
  Alcotest.(check int64) "landed" 1L (Cpu.get cpu Reg.r3)

let test_signed_compare () =
  let insns =
    [
      Insn.Mov_imm (Reg.r1, -1L);
      Insn.Cmp (Reg.r1, O_imm 1L);
      Insn.Jcc (Lt, Codec.length (Insn.Mov_imm (Reg.r2, 9L)));
      Insn.Mov_imm (Reg.r2, 9L);
      Insn.Syscall_gate;
    ]
  in
  let _, cpu, _ = run insns in
  Alcotest.(check int64) "-1 < 1 signed" 0L (Cpu.get cpu Reg.r2)

let test_load_store () =
  let m : Insn.mem = Sib { base = Reg.r5; index = Some Reg.r6; scale = 8; disp = 16 } in
  let insns =
    [
      Insn.Mov_imm (Reg.r5, Int64.of_int data);
      Insn.Mov_imm (Reg.r6, 3L);
      Insn.Mov_imm (Reg.r1, 0xDEADL);
      Insn.Store { dst = m; src = Reg.r1; size = 8 };
      Insn.Load { dst = Reg.r2; src = m; size = 8 };
      Insn.Load { dst = Reg.r3; src = m; size = 1 };
      Insn.Syscall_gate;
    ]
  in
  let _, cpu, mem = run insns in
  Alcotest.(check int64) "load" 0xDEADL (Cpu.get cpu Reg.r2);
  Alcotest.(check int64) "byte load" 0xADL (Cpu.get cpu Reg.r3);
  Alcotest.(check int64) "in memory" 0xDEADL (Mem.read_u64_priv mem (data + 16 + 24))

let test_push_pop_call_ret () =
  let insns =
    [
      Insn.Mov_imm (Reg.r1, 7L);
      Insn.Push Reg.r1;
      Insn.Pop Reg.r2;
      (* call skips one mov; the callee is "ret" *)
      Insn.Call (Codec.length (Insn.Mov_imm (Reg.r3, 1L)));
      Insn.Mov_imm (Reg.r3, 1L);
      Insn.Syscall_gate;
    ]
  in
  (* place callee: after the gate we need a ret at the call target.
     Easier: call jumps +len(mov) over "mov r3" to the gate; but then ret
     never runs. Use explicit layout instead. *)
  ignore insns;
  let mov = Insn.Mov_imm (Reg.r4, 42L) in
  let gate = Insn.Syscall_gate in
  (* layout: call X; gate; X: mov; ret  -- call target = after gate *)
  let call = Insn.Call (Codec.length gate) in
  let prog = [ call; gate; mov; Insn.Ret ] in
  let mem, cpu = setup prog in
  let stop = Interp.run mem cpu ~fuel:100 in
  Alcotest.(check string) "returned to gate" "syscall" (Interp.stop_to_string stop);
  Alcotest.(check int64) "callee ran" 42L (Cpu.get cpu Reg.r4);
  (* push/pop roundtrip *)
  let _, cpu2, _ =
    run [ Insn.Mov_imm (Reg.r1, 7L); Insn.Push Reg.r1; Insn.Pop Reg.r2; gate ]
  in
  Alcotest.(check int64) "pop" 7L (Cpu.get cpu2 Reg.r2)

let test_mpx_bounds () =
  let mem, cpu = setup [ Insn.Bndcl (Reg.bnd0, Ea_reg Reg.r1); Insn.Syscall_gate ] in
  Cpu.set_bnd cpu Reg.bnd0 { lower = 100L; upper = 200L };
  Cpu.set cpu Reg.r1 150L;
  (match Interp.run mem cpu ~fuel:10 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail (Interp.stop_to_string s));
  (* below lower bound *)
  let mem, cpu = setup [ Insn.Bndcl (Reg.bnd0, Ea_reg Reg.r1); Insn.Syscall_gate ] in
  Cpu.set_bnd cpu Reg.bnd0 { lower = 100L; upper = 200L };
  Cpu.set cpu Reg.r1 99L;
  (match Interp.run mem cpu ~fuel:10 with
  | Interp.Stop_fault (Fault.Bound_fault { bnd = 0; value = 99L }) -> ()
  | s -> Alcotest.fail (Interp.stop_to_string s));
  (* above upper bound via bndcu on a memory operand's address *)
  let m : Insn.mem = Sib { base = Reg.r1; index = None; scale = 1; disp = 8 } in
  let mem, cpu = setup [ Insn.Bndcu (Reg.bnd0, Ea_mem m); Insn.Syscall_gate ] in
  Cpu.set_bnd cpu Reg.bnd0 { lower = 0L; upper = 200L };
  Cpu.set cpu Reg.r1 193L;
  (match Interp.run mem cpu ~fuel:10 with
  | Interp.Stop_fault (Fault.Bound_fault { bnd = 0; value = 201L }) -> ()
  | s -> Alcotest.fail (Interp.stop_to_string s))

let test_guard_page_fault () =
  (* store into the unmapped page right after the data region *)
  expect_fault "guard"
    [
      Insn.Mov_imm (Reg.r1, Int64.of_int (12 * 4096));
      Insn.Store
        { dst = Sib { base = Reg.r1; index = None; scale = 1; disp = 0 };
          src = Reg.r1; size = 8 };
    ]
    (function
      | Fault.Page_fault { access = Fault.Write; _ } -> true
      | _ -> false)

let test_nx () =
  (* jumping into non-executable data faults on fetch *)
  expect_fault "nx"
    [ Insn.Mov_imm (Reg.r1, Int64.of_int data); Insn.Jmp_reg Reg.r1 ]
    (function
      | Fault.Page_fault { access = Fault.Exec; _ } -> true
      | _ -> false)

let test_privileged () =
  List.iter
    (fun (name, insn) ->
      expect_fault name [ insn ]
        (function Fault.Privileged _ -> true | _ -> false))
    [
      ("hlt", Insn.Hlt);
      ("eexit", Insn.Eexit);
      ("emodpe", Insn.Emodpe);
      ("eaccept", Insn.Eaccept);
      ("xrstor", Insn.Xrstor);
      ("wrfsbase", Insn.Wrfsbase Reg.r0);
      ("bndmk", Insn.Bndmk (Reg.bnd0, Rip_rel 0));
      ("bndmov", Insn.Bndmov (Reg.bnd0, Reg.bnd1));
    ]

let test_decode_fault () =
  let mem = Mem.create ~size:8192 in
  Mem.map mem ~addr:4096 ~len:4096 ~perm:Mem.perm_rwx;
  Mem.write_bytes_priv mem ~addr:4096 (Bytes.of_string "\xFF\xFF");
  let cpu = Cpu.create () in
  cpu.Cpu.pc <- 4096;
  match Interp.run mem cpu ~fuel:10 with
  | Interp.Stop_fault (Fault.Decode_fault _) -> ()
  | s -> Alcotest.fail (Interp.stop_to_string s)

let test_quantum () =
  (* an infinite loop runs out of fuel *)
  let jmp_len = Codec.length (Insn.Jmp 0) in
  match run ~fuel:50 [ Insn.Jmp (-jmp_len) ] with
  | Interp.Stop_quantum, cpu, _ ->
      Alcotest.(check int) "insns executed" 50 cpu.Cpu.insns
  | s, _, _ -> Alcotest.fail (Interp.stop_to_string s)

let test_rip_relative () =
  (* rip-relative store to a known absolute address *)
  let store = Insn.Store { dst = Rip_rel 100; src = Reg.r1; size = 8 } in
  let mov = Insn.Mov_imm (Reg.r1, 55L) in
  let insns = [ mov; store; Insn.Syscall_gate ] in
  let target = 4096 + Codec.length mov + Codec.length store + 100 in
  (* target is still in the code page (rwx) so the write succeeds *)
  let mem, cpu = setup insns in
  (match Interp.run mem cpu ~fuel:10 with
  | Interp.Stop_syscall -> ()
  | s -> Alcotest.fail (Interp.stop_to_string s));
  Alcotest.(check int64) "rip store landed" 55L (Mem.read_u64_priv mem target)

let test_cpu_snapshot () =
  let cpu = Cpu.create () in
  Cpu.set cpu Reg.r3 99L;
  Cpu.set_bnd cpu Reg.bnd2 { lower = 5L; upper = 6L };
  cpu.Cpu.pc <- 1234;
  cpu.Cpu.flag_eq <- true;
  let snap = Cpu.save cpu in
  Cpu.set cpu Reg.r3 0L;
  Cpu.set_bnd cpu Reg.bnd2 { lower = 0L; upper = 0L };
  cpu.Cpu.pc <- 0;
  cpu.Cpu.flag_eq <- false;
  Cpu.restore cpu snap;
  Alcotest.(check int64) "reg restored" 99L (Cpu.get cpu Reg.r3);
  Alcotest.(check bool) "bnd restored" true
    (Cpu.get_bnd cpu Reg.bnd2 = { Cpu.lower = 5L; upper = 6L });
  Alcotest.(check int) "pc restored" 1234 cpu.Cpu.pc;
  Alcotest.(check bool) "flags restored" true cpu.Cpu.flag_eq

let test_cfi_label_is_nop () =
  let _, cpu, _ =
    run [ Insn.Cfi_label 7l; Insn.Mov_imm (Reg.r1, 5L); Insn.Syscall_gate ]
  in
  Alcotest.(check int64) "fell through the label" 5L (Cpu.get cpu Reg.r1)

(* The privileged span walk under paging: every page starts evicted and
   the pager logs each page-in. A consumer that takes part of its second
   chunk stops the walk there, so the third page is never paged in. *)
let test_span_priv_stops_early () =
  let mem = Mem.create ~size:(8 * 4096) in
  Mem.map mem ~addr:0 ~len:(8 * 4096) ~perm:Mem.perm_rw;
  let paged_in = ref [] in
  Mem.enable_paging mem ~pager:(fun p ->
      paged_in := p :: !paged_in;
      Mem.set_resident mem p true);
  for p = 0 to 7 do Mem.set_resident mem p false done;
  let addr = 4096 + 100 in
  let chunks = ref [] in
  let moved =
    Mem.span_priv mem ~addr ~len:(3 * 4096) ~write:false (fun _ a k ->
        chunks := (a, k) :: !chunks;
        if a = addr then k else 50)
  in
  Alcotest.(check int) "first chunk plus the partial one" (4096 - 100 + 50) moved;
  Alcotest.(check (list (pair int int))) "chunks are page-bounded"
    [ (addr, 4096 - 100); (2 * 4096, 4096) ] (List.rev !chunks);
  Alcotest.(check (list int)) "only the pages walked were paged in" [ 1; 2 ]
    (List.rev !paged_in);
  Alcotest.(check bool) "page 3 still evicted" false (Mem.page_resident mem 3);
  (* a whole span walk moves every byte, one page at a time *)
  Mem.write_bytes_priv mem ~addr (Bytes.make (3 * 4096) 'z');
  Alcotest.(check string) "round trip" (String.make (3 * 4096) 'z')
    (Bytes.to_string (Mem.read_bytes_priv mem ~addr ~len:(3 * 4096)));
  match Mem.span_priv mem ~addr:0 ~len:8 ~write:false (fun _ _ k -> k + 1) with
  | _ -> Alcotest.fail "overrunning consumer accepted"
  | exception Invalid_argument _ -> ()

(* A write through the span walk bumps the generation of an executable
   page it reaches, so decode caches see the new code; data pages and
   reads stay generation-silent. *)
let test_span_priv_bumps_code_gen () =
  let mem = Mem.create ~size:(4 * 4096) in
  Mem.map mem ~addr:0 ~len:4096 ~perm:Mem.perm_rwx;
  Mem.map mem ~addr:4096 ~len:4096 ~perm:Mem.perm_rw;
  let g0 = Mem.page_gen mem 0 and g1 = Mem.page_gen mem 1 in
  let take _ _ k = k in
  ignore (Mem.span_priv mem ~addr:4000 ~len:200 ~write:false take);
  Alcotest.(check int) "read leaves code gen" g0 (Mem.page_gen mem 0);
  ignore (Mem.span_priv mem ~addr:4000 ~len:200 ~write:true take);
  Alcotest.(check int) "write bumps code gen" (g0 + 1) (Mem.page_gen mem 0);
  Alcotest.(check int) "data page gen silent" g1 (Mem.page_gen mem 1);
  ignore (Mem.span_priv mem ~addr:100 ~len:10 ~write:true (fun _ _ _ -> 0));
  Alcotest.(check int) "nothing written, no bump" (g0 + 1) (Mem.page_gen mem 0)

let suite =
  [
    Alcotest.test_case "memory permissions" `Quick test_mem_permissions;
    Alcotest.test_case "alu semantics" `Quick test_alu;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "flags and branches" `Quick test_flags_and_branches;
    Alcotest.test_case "signed compare" `Quick test_signed_compare;
    Alcotest.test_case "load/store with SIB" `Quick test_load_store;
    Alcotest.test_case "push/pop/call/ret" `Quick test_push_pop_call_ret;
    Alcotest.test_case "mpx bound checks" `Quick test_mpx_bounds;
    Alcotest.test_case "guard page faults" `Quick test_guard_page_fault;
    Alcotest.test_case "nx data" `Quick test_nx;
    Alcotest.test_case "privileged instructions" `Quick test_privileged;
    Alcotest.test_case "decode fault" `Quick test_decode_fault;
    Alcotest.test_case "quantum expiry" `Quick test_quantum;
    Alcotest.test_case "rip-relative addressing" `Quick test_rip_relative;
    Alcotest.test_case "cpu snapshot (ssa)" `Quick test_cpu_snapshot;
    Alcotest.test_case "cfi_label is a nop" `Quick test_cfi_label_is_nop;
    Alcotest.test_case "span walk stops early" `Quick test_span_priv_stops_early;
    Alcotest.test_case "span write bumps code gen" `Quick
      test_span_priv_bumps_code_gen;
  ]
