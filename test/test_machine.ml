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
   page it reaches, so compiled blocks see the new code; data pages and
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

(* The dirty-page invariant behind the loader's install and the JIT's
   direct stores: [direct_write] is set exactly on writable, non-code,
   dirty pages; a checked or privileged write marks its pages dirty; an
   [install] of no bytes scrubs: it zeroes exactly the dirty pages
   (bumping code generations) and leaves them clean, with
   [direct_write] withdrawn. *)
let test_dirty_pages () =
  let ps = Mem.page_size in
  let mem = Mem.create ~size:(8 * ps) in
  Mem.map mem ~addr:0 ~len:(4 * ps) ~perm:Mem.perm_rw;
  Mem.map mem ~addr:(4 * ps) ~len:(2 * ps) ~perm:Mem.perm_rwx;
  Mem.map mem ~addr:(6 * ps) ~len:ps ~perm:Mem.perm_rx;
  let wr p = Char.code (Bytes.get mem.Mem.direct p) land Mem.direct_write <> 0 in
  let rd p = Char.code (Bytes.get mem.Mem.direct p) land Mem.direct_read <> 0 in
  let state p = (Mem.page_dirty mem p, wr p) in
  let check_state what p want =
    Alcotest.(check (pair bool bool)) (Printf.sprintf "%s (page %d)" what p)
      want (state p)
  in
  for p = 0 to 7 do check_state "fresh: clean, no direct write" p (false, false) done;
  Alcotest.(check bool) "fresh page past the extent is not direct-readable"
    false (rd 0);
  ignore (Mem.read_u8 mem 0);
  Alcotest.(check bool) "fresh rw page is direct-readable once stored" true (rd 0);
  Mem.write_u8 mem (ps + 5) 0xAB;
  check_state "checked write" 1 (true, true);
  Mem.write_bytes_priv mem ~addr:((3 * ps) - 2) (Bytes.of_string "wxyz");
  check_state "privileged write, first page" 2 (true, true);
  check_state "privileged write, second page" 3 (true, true);
  Mem.write_u64_priv mem (4 * ps) 7L;
  Mem.write_u64 mem ((5 * ps) + 8) 9L;
  check_state "privileged write to a code page: dirty, never direct" 4 (true, false);
  check_state "checked write to a code page: dirty, never direct" 5 (true, false);
  Mem.write_u64_priv mem (6 * ps) 1L;
  check_state "read-only code page: dirty, never direct" 6 (true, false);
  check_state "untouched page" 0 (false, false);
  (* remapping keeps the mark: the bytes are still there *)
  Mem.map mem ~addr:(3 * ps) ~len:ps ~perm:Mem.perm_rw;
  check_state "remapped dirty page" 3 (true, true);
  let gens = Array.init 8 (Mem.page_gen mem) in
  Mem.install mem ~addr:0 ~len:(8 * ps) Bytes.empty;
  for p = 0 to 7 do check_state "scrubbed" p (false, false) done;
  Alcotest.(check bool) "scrubbed range reads zero" true
    (Bytes.for_all (fun c -> c = '\x00') (Mem.read_bytes_priv mem ~addr:0 ~len:(8 * ps)));
  Alcotest.(check (list int)) "code generations bumped only where dirty"
    [ 0; 0; 0; 0; 1; 1; 1; 0 ]
    (List.init 8 (fun p -> Mem.page_gen mem p - gens.(p)));
  (* a direct store is the only write that does not mark: it needs
     [direct_write], so the page is dirty already *)
  Mem.write_u8 mem 10 1;
  check_state "rewritten after scrub" 0 (true, true);
  Alcotest.check_raises "unaligned scrub" (Invalid_argument "Mem.install: unaligned")
    (fun () -> Mem.install mem ~addr:1 ~len:ps Bytes.empty);
  (* under paging a dirty evicted page is paged in before it is zeroed;
     a clean one is left alone *)
  let pmem = Mem.create ~size:(4 * ps) in
  let paged_in = ref [] in
  Mem.map pmem ~addr:0 ~len:(4 * ps) ~perm:Mem.perm_rw;
  Mem.enable_paging pmem ~pager:(fun p ->
      paged_in := p :: !paged_in;
      Mem.set_resident pmem p true);
  Mem.write_u64_priv pmem ps 3L;
  Mem.set_resident pmem 1 false;
  Mem.set_resident pmem 2 false;
  paged_in := [];
  Mem.install pmem ~addr:0 ~len:(4 * ps) Bytes.empty;
  Alcotest.(check (list int)) "only the dirty evicted page paged in" [ 1 ]
    !paged_in;
  Alcotest.(check bool) "paged: no direct write" false
    (Char.code (Bytes.get pmem.Mem.direct 1) land Mem.direct_write <> 0)

(* [Mem.install] against the model it replaces: zero every dirty page of
   the range, then write the image. From random prior contents and
   dirty states, with paging off and under a pool smaller than the
   range, both must leave the same bytes, the same residency and the
   same EWB/ELDU counts. On the install side, a page's generation moves
   only if its bytes changed (or the pager itself rewrote the frame), an
   executable page whose bytes changed has a new generation, every
   clean page holds zeros, a page whose target is zero ends clean
   unless the pager wrote its frame afterwards (EWB and ELDU mark the
   pages they write), and the direct bits match the page check's
   definition. *)
let prop_install_matches_scrub_then_write =
  let ps = Mem.page_size in
  let pages = 12 and first = 1 and range = 10 in
  let model mem ~addr ~len bytes =
    for p = addr / ps to ((addr + len) / ps) - 1 do
      if Mem.page_dirty mem p then Mem.fill_priv mem ~addr:(p * ps) ~len:ps '\x00'
    done;
    Mem.write_bytes_priv mem ~addr bytes
  in
  let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)) in
  let target_of st =
    let n =
      match Random.State.int st 3 with
      | 0 -> Random.State.int st (range + 1) * ps
      | _ -> Random.State.int st ((range * ps) + 1)
    in
    let b = Bytes.make n '\x00' in
    for p = 0 to ((n + ps - 1) / ps) - 1 do
      let lo = p * ps and k = min ps (n - (p * ps)) in
      match Random.State.int st 3 with
      | 0 -> ()
      | 1 -> Bytes.blit (random_bytes st k) 0 b lo k
      | _ -> Bytes.set b (lo + Random.State.int st k) '\x01'
    done;
    b
  in
  (* one address space in a state drawn from [seed]; the same seed
     builds the same state, pool and all *)
  let prepare seed ~frames target =
    let st = Random.State.make [| seed |] in
    let mem = Mem.create ~size:(pages * ps) in
    let epc =
      Option.map
        (fun frames ->
          let epc = Occlum_sgx.Epc.create ~size:(frames * ps) () in
          Occlum_sgx.Epc.enable_paging epc;
          Occlum_sgx.Epc.register_client epc ~cid:1 ~mem;
          epc)
        frames
    in
    for p = 0 to pages - 1 do
      let perm = if Random.State.bool st then Mem.perm_rwx else Mem.perm_rw in
      Mem.map mem ~addr:(p * ps) ~len:ps ~perm
    done;
    if Random.State.bool st then
      Mem.install mem ~addr:(first * ps) ~len:(range * ps)
        (if Random.State.bool st then target else target_of st);
    for p = 0 to pages - 1 do
      let a = p * ps in
      let off = Random.State.int st ps in
      let k = 1 + Random.State.int st (ps - off) in
      match Random.State.int st 5 with
      | 0 | 1 -> ()
      | 2 -> Mem.write_bytes_priv mem ~addr:(a + off) (random_bytes st k)
      | 3 -> Mem.fill_priv mem ~addr:(a + off) ~len:k '\x00'
      | _ ->
          let page = Bytes.make ps '\x00' in
          let t = a - (first * ps) in
          if t >= 0 && t < Bytes.length target then
            Bytes.blit target t page 0 (min ps (Bytes.length target - t));
          Mem.write_bytes_priv mem ~addr:a page
    done;
    (match epc with
    | Some epc ->
        for p = 0 to pages - 1 do
          if Random.State.int st 3 = 0 then
            ignore (Occlum_sgx.Epc.evict_page epc ~cid:1 ~page:p)
        done
    | None -> ());
    (mem, epc)
  in
  let residency mem = List.init pages (Mem.page_resident mem) in
  let counts = function
    | None -> (0, 0)
    | Some epc -> (
        match Occlum_sgx.Epc.paging_stats epc with
        | Some s -> (s.Occlum_sgx.Epc.ewb, s.Occlum_sgx.Epc.eldu)
        | None -> (0, 0))
  in
  let contents mem = Mem.read_bytes_priv mem ~addr:0 ~len:(pages * ps) in
  let page_of b p = Bytes.sub b (p * ps) ps in
  QCheck.Test.make ~name:"install matches scrub-then-write" ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let st = Random.State.make [| seed; 1 |] in
      let target = target_of st in
      let frames =
        match Random.State.int st 3 with 0 -> None | 1 -> Some 6 | _ -> Some 64
      in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let ref_mem, ref_epc = prepare seed ~frames target in
      let mem, epc = prepare seed ~frames target in
      let before_mem, _ = prepare seed ~frames target in
      let before = contents before_mem in
      let resident_before = residency mem in
      let gens_before = Array.init pages (Mem.page_gen mem) in
      let touched = Array.make pages false in
      Option.iter
        (fun epc ->
          Occlum_sgx.Epc.set_event_hook epc
            (Some (fun ~cid:_ ~page _ -> touched.(page) <- true)))
        epc;
      model ref_mem ~addr:(first * ps) ~len:(range * ps) target;
      Mem.install mem ~addr:(first * ps) ~len:(range * ps) target;
      let resident_after = residency mem in
      List.iteri
        (fun p r -> if (not (List.nth resident_before p)) && r then touched.(p) <- true)
        resident_after;
      if residency ref_mem <> resident_after then fail "residency differs"
      else if counts ref_epc <> counts epc then
        let (rw, rl), (w, l) = (counts ref_epc, counts epc) in
        fail "ewb/eldu %d/%d, model %d/%d" w l rw rl
      else begin
        let dirty = Array.init pages (Mem.page_dirty mem) in
        let direct = Array.init pages (fun p -> Char.code (Bytes.get mem.Mem.direct p)) in
        let extent = Bytes.length (Mem.raw mem) in
        let gens = Array.init pages (Mem.page_gen mem) in
        let after = contents mem in
        let want = Bytes.copy before in
        Bytes.fill want (first * ps) (range * ps) '\x00';
        Bytes.blit target 0 want (first * ps) (Bytes.length target);
        let zero b = Bytes.for_all (fun c -> c = '\x00') b in
        let problem =
          List.find_map
            (fun p ->
              let exec = (Option.get (Mem.perm_at mem (p * ps))).Mem.x in
              let changed = not (Bytes.equal (page_of before p) (page_of after p)) in
              let moved = gens.(p) <> gens_before.(p) in
              let in_range = p >= first && p < first + range in
              let want_direct =
                if epc <> None || (p + 1) * ps > extent then 0
                else Mem.direct_read lor if (not exec) && dirty.(p) then Mem.direct_write else 0
              in
              (if not (Bytes.equal (page_of after p) (page_of want p)) then Some "bytes"
              else if moved && not (changed || touched.(p)) then Some "generation moved"
              else if exec && changed && not moved then Some "generation stale"
              else if (not dirty.(p)) && not (zero (page_of after p)) then
                Some "clean page not zero"
              else if in_range && zero (page_of want p) && dirty.(p) && not touched.(p)
              then
                Some "zero target left dirty"
              else if direct.(p) <> want_direct then Some "direct bits"
              else None)
              |> Option.map (Printf.sprintf "page %d: %s" p))
            (List.init pages Fun.id)
        in
        match problem with
        | Some m -> fail "%s" m
        | None ->
            Bytes.equal (contents ref_mem) after
            || fail "model bytes differ"
      end)

(* Random ops over [mem], a fresh [pages]-page memory, drawing from
   [st]: map, unmap, checked and privileged writes, fill and install —
   every way a page generation can move. Each is (name, thunk). *)
let random_mem_ops st mem ~pages =
  let ps = Mem.page_size in
  let perms = [| Mem.perm_ro; Mem.perm_rw; Mem.perm_rx; Mem.perm_rwx |] in
  let int n = Random.State.int st n in
  let addr () = int ((pages * ps) - 8) in
  let span () =
    let first = int pages in
    (first * ps, (1 + int (pages - first)) * ps)
  in
  [|
    ( "map",
      fun () ->
        let a, len = span () in
        Mem.map mem ~addr:a ~len ~perm:perms.(int 4) );
    ( "unmap",
      fun () ->
        let a, len = span () in
        Mem.unmap mem ~addr:a ~len );
    ( "write_u8",
      fun () -> try Mem.write_u8 mem (addr ()) (int 256) with Fault.Fault _ -> () );
    ( "write_u64",
      fun () ->
        try Mem.write_u64 mem (addr ()) (Random.State.int64 st Int64.max_int)
        with Fault.Fault _ -> () );
    ( "write_u64_priv",
      fun () -> Mem.write_u64_priv mem (addr ()) 0x0102030405060708L );
    ( "write_bytes_priv",
      fun () ->
        let a = addr () in
        Mem.write_bytes_priv mem ~addr:a
          (Bytes.make (int (min 6000 ((pages * ps) - a))) 'x') );
    ( "fill_priv",
      fun () ->
        let a = addr () in
        Mem.fill_priv mem ~addr:a ~len:(int ((pages * ps) - a)) '\x00' );
    ( "install",
      fun () ->
        let a, len = span () in
        Mem.install mem ~addr:a ~len
          (Bytes.init (int (len + 1)) (fun _ ->
               if int 3 = 0 then 'y' else '\x00')) );
  |]

(* Mem.code_epoch is what a compiled block checks instead of its pages'
   generations, so it must move on every op that moves any of them:
   over random sequences of map, unmap, checked and privileged writes
   and install, the epoch moves exactly when some page generation does. *)
let prop_code_epoch_tracks_gens =
  let pages = 8 in
  QCheck.Test.make ~name:"code epoch moves with every page generation"
    ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let st = Random.State.make [| seed; 2 |] in
      let mem = Mem.create ~size:(pages * Mem.page_size) in
      let ops = random_mem_ops st mem ~pages in
      let rec go k =
        k = 0
        ||
        let gens = Array.init pages (Mem.page_gen mem) in
        let e = mem.Mem.code_epoch in
        let name, op = ops.(Random.State.int st (Array.length ops)) in
        op ();
        let gen_moved = Array.init pages (Mem.page_gen mem) <> gens in
        let epoch_moved = mem.Mem.code_epoch <> e in
        if gen_moved <> epoch_moved then
          QCheck.Test.fail_reportf "%s: generation moved %b, epoch moved %b"
            name gen_moved epoch_moved
        else go (k - 1)
      in
      go 40)

(* A range test written as [addr + len > size] wraps for a huge [len]:
   [fill_priv ~len:max_int] then zeroed and dirtied every page from
   [addr] on before the stdlib refused the fill. Every entry point must
   refuse such a span up front, with no page changed. *)
let test_range_does_not_wrap () =
  let ps = Mem.page_size in
  let mem = Mem.create ~size:(4 * ps) in
  Mem.map mem ~addr:0 ~len:(4 * ps) ~perm:Mem.perm_rwx;
  Mem.write_u8 mem 5 1;
  let state () =
    ( List.init 4 (fun p -> (Mem.page_dirty mem p, Mem.page_gen mem p)),
      mem.Mem.code_epoch,
      Bytes.length (Mem.raw mem) )
  in
  let before = state () in
  let range_error addr len =
    Invalid_argument
      (Printf.sprintf "Mem: range [0x%x, +%d) outside address space" addr len)
  in
  Alcotest.check_raises "fill_priv" (range_error ps max_int) (fun () ->
      Mem.fill_priv mem ~addr:ps ~len:max_int 'z');
  Alcotest.check_raises "read_bytes_priv" (range_error ps max_int) (fun () ->
      ignore (Mem.read_bytes_priv mem ~addr:ps ~len:max_int));
  Alcotest.check_raises "install" (range_error 0 (max_int - 4095)) (fun () ->
      Mem.install mem ~addr:0 ~len:(max_int - 4095) Bytes.empty);
  Alcotest.check_raises "check_access"
    (Fault.Fault (Page_fault { addr = ps; access = Write }))
    (fun () -> Mem.check_access mem ps max_int Write);
  Alcotest.(check bool) "no page changed" true (state () = before)

(* Lazy storage against eager storage. Three address spaces take the
   same random ops: [lz] fresh, [eager] stored whole at creation by a
   privileged read of its last byte, which has no other effect, and a
   shadow [Bytes] zeroed up front and written by every op that returns.
   The ops are map, unmap, checked and privileged reads and writes, an
   instruction fetch's check, install, fill (some with a wrapping
   length), enabling paging and evicting a page. After each op both
   address spaces returned or raised alike; the bytes of each, the lazy
   one read as zeros past its extent, equal the shadow; dirty marks,
   generations, residency, accessed bits and the code epoch agree;
   every page at or past the extent is clean; and the lazy direct bits
   are the eager ones below the extent and clear from it on. *)
let prop_lazy_mem_matches_eager =
  let ps = Mem.page_size and pages = 16 in
  let size = pages * ps in
  let perms = [| Mem.perm_ro; Mem.perm_rw; Mem.perm_rx; Mem.perm_rwx |] in
  QCheck.Test.make ~name:"lazy storage = eagerly zeroed storage" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let st = Random.State.make [| seed; 41 |] in
      let int n = Random.State.int st n in
      let lz = Mem.create ~size and eager = Mem.create ~size in
      ignore (Mem.read_bytes_priv eager ~addr:(size - 1) ~len:1);
      let shadow = Bytes.make size '\x00' in
      let addr () = if int 8 = 0 then int (size + 32) - 16 else int size in
      let span () =
        let first = int pages in
        (first * ps, int (pages - first + 1) * ps)
      in
      let page_bytes len =
        Bytes.init (int (len + 1)) (fun _ ->
            if int 3 = 0 then Char.chr (1 + int 255) else '\x00')
      in
      let u64 () = Random.State.int64 st Int64.max_int in
      (* (name, the op, its effect on the shadow when it returns) *)
      let draw () =
        match int 16 with
        | 0 ->
            let a, len = span () and perm = perms.(int 4) in
            ("map", (fun m -> Mem.map m ~addr:a ~len ~perm; ""), ignore)
        | 1 ->
            let a, len = span () in
            ("unmap", (fun m -> Mem.unmap m ~addr:a ~len; ""), ignore)
        | 2 ->
            let a = addr () in
            ("read_u8", (fun m -> string_of_int (Mem.read_u8 m a)), ignore)
        | 3 ->
            let a = addr () in
            ("read_u64", (fun m -> Int64.to_string (Mem.read_u64 m a)), ignore)
        | 4 ->
            let a = addr () and v = int 256 in
            ( "write_u8",
              (fun m -> Mem.write_u8 m a v; ""),
              fun () -> Bytes.set shadow a (Char.chr v) )
        | 5 ->
            let a = addr () and v = u64 () in
            ( "write_u64",
              (fun m -> Mem.write_u64 m a v; ""),
              fun () -> Bytes.set_int64_le shadow a v )
        | 6 ->
            let a = addr () in
            ( "read_u64_priv",
              (fun m -> Int64.to_string (Mem.read_u64_priv m a)),
              ignore )
        | 7 ->
            let a = addr () and v = u64 () in
            ( "write_u64_priv",
              (fun m -> Mem.write_u64_priv m a v; ""),
              fun () -> Bytes.set_int64_le shadow a v )
        | 8 ->
            let a = addr () and len = int (3 * ps) in
            ( "read_bytes_priv",
              (fun m -> Bytes.to_string (Mem.read_bytes_priv m ~addr:a ~len)),
              ignore )
        | 9 ->
            let a = addr () in
            let b = page_bytes (min (3 * ps) (max 0 (size - a))) in
            ( "write_bytes_priv",
              (fun m -> Mem.write_bytes_priv m ~addr:a b; ""),
              fun () -> Bytes.blit b 0 shadow a (Bytes.length b) )
        | 10 ->
            let a = addr () and c = if int 2 = 0 then '\x00' else 'f' in
            let len = if int 6 = 0 then max_int else int (max 1 (size - a)) in
            ( "fill_priv",
              (fun m -> Mem.fill_priv m ~addr:a ~len c; ""),
              fun () -> Bytes.fill shadow a len c )
        | 11 ->
            let a, len = span () in
            let b = page_bytes len in
            ( "install",
              (fun m -> Mem.install m ~addr:a ~len b; ""),
              fun () ->
                Bytes.fill shadow a len '\x00';
                Bytes.blit b 0 shadow a (Bytes.length b) )
        | 12 | 13 ->
            let a = if int 2 = 0 then ((1 + int pages) * ps) - 1 - int 16 else addr () in
            (* a decode bounded by the extent must see 16 bytes *)
            ( "fetch check",
              (fun m ->
                Mem.check_access m a 1 Exec;
                string_of_bool (min size (a + 16) <= Bytes.length (Mem.raw m))),
              ignore )
        | _ ->
            let p = int pages in
            if Mem.paging_enabled lz then
              ("evict", (fun m -> Mem.set_resident m p false; ""), ignore)
            else
              ( "enable_paging",
                (fun m ->
                  Mem.enable_paging m ~pager:(fun p -> Mem.set_resident m p true);
                  ""),
                ignore )
      in
      let outcome f m =
        match f m with
        | s -> Ok s
        | exception Fault.Fault f -> Error (Fault.to_string f)
        | exception Invalid_argument s -> Error s
      in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let rec go k =
        k = 0
        ||
        let name, op, effect = draw () in
        let r = outcome op lz in
        if r <> outcome op eager then fail "%s: outcomes differ" name
        else begin
          if Result.is_ok r then effect ();
          let raw = Mem.raw lz in
          let ext = Bytes.length raw in
          let direct m p = Char.code (Bytes.get m.Mem.direct p) in
          let agree f = List.for_all (fun p -> f lz p = f eager p) (List.init pages Fun.id) in
          if ext mod ps <> 0 || ext > size then fail "%s: extent %d" name ext
          else if not (Bytes.equal raw (Bytes.sub shadow 0 ext)) then
            fail "%s: stored bytes differ" name
          else if
            not (Bytes.for_all (fun c -> c = '\x00') (Bytes.sub shadow ext (size - ext)))
          then fail "%s: bytes past the extent are not zeros" name
          else if not (Bytes.equal (Mem.raw eager) shadow) then
            fail "%s: eager bytes differ" name
          else if not (agree Mem.page_dirty) then fail "%s: dirty marks differ" name
          else if not (agree Mem.page_gen) then fail "%s: generations differ" name
          else if not (agree Mem.page_resident && agree Mem.page_accessed) then
            fail "%s: residency differs" name
          else if lz.Mem.code_epoch <> eager.Mem.code_epoch then
            fail "%s: code epochs differ" name
          else
            match
              List.find_opt
                (fun p ->
                  let past = p * ps >= ext in
                  (past && Mem.page_dirty lz p)
                  || direct lz p <> if past then 0 else direct eager p)
                (List.init pages Fun.id)
            with
            | Some p -> fail "%s: page %d (extent %d): dirty or direct bits" name p ext
            | None -> go (k - 1)
        end
      in
      go 40)

(* An instruction whose tail lies in pages not stored yet decodes as it
   would over stored zeros: the fetch check stores 16 bytes past the pc
   before the decode, which the store bounds. [mov_imm r1, 0] is its
   opcode and register, then ten zero bytes, here on the next page;
   both the reference step and the tiered loop must execute it. *)
let test_fetch_past_extent () =
  let ps = Mem.page_size in
  let enc = Codec.encode (Insn.Mov_imm (Reg.r1, 0L)) in
  let head = 2 in
  Alcotest.(check bool) "a zero tail" true
    (String.for_all (fun c -> c = '\x00') (String.sub enc head (String.length enc - head)));
  List.iter
    (fun jit ->
      let mem = Mem.create ~size:(8 * ps) in
      Mem.map mem ~addr:0 ~len:(2 * ps) ~perm:Mem.perm_rx;
      Mem.write_bytes_priv mem ~addr:(ps - head) (Bytes.of_string (String.sub enc 0 head));
      Alcotest.(check int) "one page stored" ps (Bytes.length (Mem.raw mem));
      let cpu = Cpu.create () in
      cpu.Cpu.pc <- ps - head;
      Cpu.set cpu Reg.r1 7L;
      let stop =
        if jit then Some (Interp.run ~jit:(Jit.create mem) mem cpu ~fuel:1)
        else Interp.step mem cpu
      in
      (match stop with
      | None | Some Interp.Stop_quantum -> ()
      | Some s -> Alcotest.fail (Interp.stop_to_string s));
      Alcotest.(check int) "pc past it" (ps - head + String.length enc) cpu.Cpu.pc;
      Alcotest.(check int64) "r1 loaded" 0L (Cpu.get cpu Reg.r1))
    [ false; true ]

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
    Alcotest.test_case "dirty pages and scrub" `Quick test_dirty_pages;
    QCheck_alcotest.to_alcotest prop_install_matches_scrub_then_write;
    QCheck_alcotest.to_alcotest prop_code_epoch_tracks_gens;
    Alcotest.test_case "range check does not wrap" `Quick test_range_does_not_wrap;
    QCheck_alcotest.to_alcotest prop_lazy_mem_matches_eager;
    Alcotest.test_case "fetch past the extent" `Quick test_fetch_past_extent;
  ]
