(* Tests for the lib/analysis subsystem: CFG recovery (blocks, edges,
   dominators, natural loops) on hand-built OASM covering all four
   Figure-3 transfer categories, the constant-time taint checker on a
   leaky kernel and its constant-time rewrite, and the residual-guard
   audit on naive vs optimized instrumentation. *)

open Occlum_isa
open Occlum_toolchain
module Cfg = Occlum_analysis.Cfg
module Taint = Occlum_analysis.Taint

let empty_layout = Layout.of_program { globals = []; funcs = []; secrets = [] }
let link_raw items = Linker.link empty_layout items

module V = Occlum_verifier.Verify

let accepted_exn oelf =
  match V.verify oelf with
  | Ok a -> a
  | Error rs ->
      Alcotest.fail
        ("unexpected rejection: "
        ^ V.rejection_to_string (List.hd rs))

let disasm_exn oelf = V.disasm (accepted_exn oelf)

(* --- CFG ----------------------------------------------------------------- *)

(* One program exercising all four Figure-3 transfer categories: a
   direct conditional + loop, a direct call, a register-based return
   (jmp_reg, emitted by the callee), and cfi_labels as the indirect
   landing pads. Memory-based transfers are verifier-rejected, so their
   CFG behavior (no successors) is covered by construction. *)
let cfg_items =
  [
    Asm.Label "_start";
    Asm.Cfi_label_here;
    Asm.Ins (Mov_imm (Reg.r0, 0L));
    Asm.Label "loop";
    Asm.Ins (Cmp (Reg.r0, O_imm 3L));
    Asm.Jcc_l (Ge, "done");
    Asm.Ins (Alu (Add, Reg.r0, O_imm 1L));
    Asm.Mem_guard (Sib { base = Reg.sp; index = None; scale = 1; disp = -8 });
    Asm.Call_l "callee";
    Asm.Cfi_label_here;
    Asm.Jmp_l "loop";
    Asm.Label "done";
    Asm.Label "spin";
    Asm.Jmp_l "spin";
    Asm.Label "callee";
    Asm.Cfi_label_here;
    Asm.Mem_guard (Sib { base = Reg.sp; index = None; scale = 1; disp = 0 });
    Asm.Ins (Pop Codegen_regs.ret_scratch);
    Asm.Cfi_guard Codegen_regs.ret_scratch;
    Asm.Ins (Jmp_reg Codegen_regs.ret_scratch);
  ]

let build_cfg () =
  let oelf = link_raw cfg_items in
  let d = disasm_exn oelf in
  (oelf, Cfg.build ~entry:oelf.entry d)

let test_cfg_blocks_and_edges () =
  let _, cfg = build_cfg () in
  let nb = Array.length cfg.Cfg.blocks in
  Alcotest.(check bool) "several blocks" true (nb >= 5);
  (match cfg.Cfg.entry with
  | None -> Alcotest.fail "entry block not found"
  | Some e ->
      Alcotest.(check int) "entry is block of unit 0" e
        cfg.Cfg.block_of_unit.(0));
  Alcotest.(check bool) "has cfi_label blocks" true
    (List.length cfg.Cfg.label_blocks >= 3);
  (* every edge is symmetric with preds, and in range *)
  Array.iteri
    (fun b ss ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "succ in range" true (s >= 0 && s < nb);
          Alcotest.(check bool) "pred link" true (List.mem b cfg.Cfg.preds.(s)))
        ss)
    cfg.Cfg.succs;
  (* the register-based return edges exactly to the cfi_label blocks *)
  let d = cfg.Cfg.disasm in
  Array.iter
    (fun blk ->
      match d.Occlum_verifier.Disasm.sorted.(blk.Cfg.last).kind with
      | Occlum_verifier.Unit_kind.U_insn (Jmp_reg _) ->
          Alcotest.(check (list int)) "jmp_reg -> label blocks"
            (List.sort compare cfg.Cfg.label_blocks)
            (List.sort compare cfg.Cfg.succs.(blk.Cfg.id))
      | _ -> ())
    cfg.Cfg.blocks;
  (* the conditional branch block has exactly two successors *)
  let jcc_block =
    Array.to_list cfg.Cfg.blocks
    |> List.find (fun blk ->
           match d.Occlum_verifier.Disasm.sorted.(blk.Cfg.last).kind with
           | Occlum_verifier.Unit_kind.U_insn (Jcc _) -> true
           | _ -> false)
  in
  Alcotest.(check int) "jcc has 2 successors" 2
    (List.length cfg.Cfg.succs.(jcc_block.Cfg.id))

let test_cfg_dominators_and_loops () =
  let _, cfg = build_cfg () in
  let doms = Cfg.dominators cfg in
  let entry = Option.get cfg.Cfg.entry in
  Array.iteri
    (fun b s ->
      match s with
      | None -> ()
      | Some l ->
          Alcotest.(check bool) "entry dominates all reachable" true
            (List.mem entry l);
          Alcotest.(check bool) "self-dominance" true (List.mem b l))
    doms;
  let loops = Cfg.natural_loops cfg in
  Alcotest.(check bool) "found the counting loop" true (List.length loops >= 1);
  List.iter
    (fun (head, body) ->
      Alcotest.(check bool) "head in body" true (List.mem head body);
      (* the loop head dominates every block in its body *)
      List.iter
        (fun b ->
          Alcotest.(check bool) "head dominates body" true
            (match doms.(b) with None -> false | Some l -> List.mem head l))
        body)
    loops

let test_cfg_straightline_no_loops () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        Asm.Ins (Mov_imm (Reg.r0, 7L));
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let d = disasm_exn oelf in
  let cfg = Cfg.build ~entry:oelf.entry d in
  (* the only back edge is spin->spin *)
  let loops = Cfg.natural_loops cfg in
  Alcotest.(check int) "only the spin self-loop" 1 (List.length loops);
  let head, body = List.hd loops in
  Alcotest.(check (list int)) "self-loop body" [ head ] body

(* --- constant-time checker ----------------------------------------------- *)

let leaky_src =
  {|
secret global key[8];
global tbl[256];
global out[8];

fn main() regs(s, x) {
  s = load64(key);
  if (s & 1) {
    x = 1;
  } else {
    x = 2;
  }
  x = x + load64(tbl + (s & 31) * 8);
  x = x + s % 3;
  store64(out, x);
  return 0;
}
|}

let safe_src =
  {|
secret global key[8];
global tbl[256];
global out[8];

fn main() regs(s, m, acc) {
  s = load64(key);
  m = 0 - (s & 1);
  acc = (1 & m) | (2 & ~m);
  let k = 0;
  while (k < 32) {
    let d = k ^ (s & 31);
    let hit = ((d | (0 - d)) >> 63) - 1;
    acc = acc + (load64(tbl + k * 8) & hit);
    k = k + 1;
  }
  store64(out, acc);
  return 0;
}
|}

let compile_src ?(config = Codegen.sfi) src =
  Compile.compile_exn ~config (Parser.parse src)

let ct_findings ?config src =
  let oelf = compile_src ?config src in
  Taint.check (accepted_exn oelf)

let func_extent (oelf : Occlum_oelf.Oelf.t) name =
  let off =
    match Occlum_oelf.Oelf.find_symbol oelf name with
    | Some o -> o
    | None -> Alcotest.fail (name ^ " not in symbol table")
  in
  let next =
    List.fold_left
      (fun acc (_, o) -> if o > off && o < acc then o else acc)
      max_int oelf.symbols
  in
  (off, next)

let test_ct_leaky_flagged () =
  let oelf = compile_src leaky_src in
  let fs = Taint.check (accepted_exn oelf) in
  Alcotest.(check int) "exactly three findings" 3 (List.length fs);
  (* address order mirrors source order: branch, table lookup, modulo *)
  Alcotest.(check (list string)) "kinds in order"
    [ "Secret_branch"; "Secret_addr"; "Secret_latency" ]
    (List.map
       (fun (f : Taint.finding) ->
         match f.kind with
         | Taint.Secret_branch -> "Secret_branch"
         | Taint.Secret_addr -> "Secret_addr"
         | Taint.Secret_latency -> "Secret_latency")
       fs);
  let lo, hi = func_extent oelf "f_main" in
  List.iter
    (fun (f : Taint.finding) ->
      Alcotest.(check bool)
        (Printf.sprintf "finding 0x%x inside f_main [0x%x,0x%x)" f.addr lo hi)
        true
        (f.addr >= lo && f.addr < hi))
    fs;
  (* the findings pin the exact offending instructions *)
  (match fs with
  | [ b; a; l ] ->
      Alcotest.(check bool) "branch is a jcc" true
        (String.length b.insn >= 1 && b.insn.[0] = 'j');
      Alcotest.(check bool) "addr is the table load" true
        (String.length a.insn >= 4 && String.sub a.insn 0 4 = "load");
      Alcotest.(check bool) "latency is the remu" true
        (String.length l.insn >= 4 && String.sub l.insn 0 4 = "remu")
  | _ -> Alcotest.fail "expected three findings");
  Alcotest.(check bool) "addresses strictly increasing" true
    (match fs with
    | [ a; b; c ] -> a.addr < b.addr && b.addr < c.addr
    | _ -> false)

let test_ct_leaky_naive_also_flagged () =
  (* the checker works on uninstrumented-by-optimizer binaries too *)
  let fs = ct_findings ~config:Codegen.sfi_naive leaky_src in
  Alcotest.(check int) "three findings on naive build" 3 (List.length fs)

let test_ct_safe_clean () =
  Alcotest.(check int) "constant-time rewrite is clean" 0
    (List.length (ct_findings safe_src))

let test_ct_no_secrets_trivially_clean () =
  let prog = Runtime.program [ Ast.func "main" [] [ Ast.Return (Ast.i 0) ] ] in
  let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  Alcotest.(check (list pass)) "no secrets, no findings" []
    (Taint.check (accepted_exn oelf))

let test_ct_workloads_clean () =
  (* SPEC kernels and the fish workload declare no secrets: the checker
     must return nothing, fast *)
  List.iter
    (fun (name, prog) ->
      let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
      let fs = Taint.check (accepted_exn oelf) in
      Alcotest.(check int) (name ^ " clean") 0 (List.length fs))
    (Occlum_workloads.Spec.all ~scale:1 @ Occlum_workloads.Fish.binaries)

(* --- secret annotation plumbing ------------------------------------------ *)

let test_secret_parsing_and_ranges () =
  let prog = Parser.parse leaky_src in
  Alcotest.(check (list string)) "parsed secrets" [ "key" ] prog.Ast.secrets;
  let layout = Layout.of_program prog in
  Alcotest.(check int) "one secret range" 1
    (List.length layout.Layout.secret_ranges);
  let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  Alcotest.(check bool) "range carried into the OELF" true
    (oelf.secret_ranges = layout.Layout.secret_ranges);
  List.iter
    (fun (off, len) ->
      Alcotest.(check int) "range is the 8-byte key" 8 len;
      Alcotest.(check bool) "offset inside the data region" true
        (off >= 0 && off + len <= oelf.data_region_size))
    oelf.secret_ranges

let test_secret_undeclared_rejected () =
  match Parser.parse "secret global key[8];\nfn main() { return 0; }" with
  | exception _ -> Alcotest.fail "secret global alone must parse"
  | p ->
      Alcotest.(check (list string)) "key is secret" [ "key" ] p.Ast.secrets;
      (* a secret not matching any global is a check_program error *)
      (match
         Ast.check_program
           { p with Ast.secrets = [ "missing" ] }
       with
      | exception _ -> ()
      | () -> Alcotest.fail "undeclared secret must be rejected")

let test_secret_survives_signing () =
  let oelf = compile_src leaky_src in
  let signed = V.sign (accepted_exn oelf) in
  Alcotest.(check bool) "signed ok" true (V.signature_ok signed);
  let stripped = { signed with Occlum_oelf.Oelf.secret_ranges = [] } in
  Alcotest.(check bool) "stripping the annotation breaks the signature"
    false
    (V.signature_ok stripped)

(* --- guard audit --------------------------------------------------------- *)

(* `occlum_verify --guard-audit` reports elision's classification: the
   naive build leaves guards it proves redundant, the optimized one far
   fewer. *)
let test_guard_audit_naive_has_redundancy () =
  let analyze config =
    Occlum_analysis.Elide.analyze (accepted_exn (compile_src ~config leaky_src))
  in
  let naive = analyze Codegen.sfi_naive and opt = analyze Codegen.sfi in
  Alcotest.(check bool) "naive leaves provably redundant guards" true
    (naive.elided > 0);
  Alcotest.(check bool) "optimized has fewer residual guards" true
    (opt.elided < naive.elided);
  Alcotest.(check bool) "optimized carries fewer guards overall" true
    (opt.total < naive.total)

(* --- guard elision ------------------------------------------------------- *)

module Elide = Occlum_analysis.Elide
module Lint = Occlum_analysis.Lint

let g1 disp =
  Asm.Mem_guard (Sib { base = Reg.r1; index = None; scale = 1; disp })

let elide_ok oelf =
  match Elide.run (accepted_exn oelf) with
  | Ok (a, report) -> (V.sign a, report)
  | Error e -> Alcotest.fail (Elide.error_to_string e)

let classes (r : Elide.report) =
  List.map (fun (g : Elide.guard) -> g.cls) r.guards

(* Two identical adjacent guards: the verifier accepts both, and the
   range fixpoint proves the second from the first. *)
let test_elide_straightline_dominated () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        g1 0;
        g1 0;
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let report = Elide.analyze (accepted_exn oelf) in
  Alcotest.(check int) "two guards" 2 report.Elide.total;
  Alcotest.(check int) "one elided" 1 report.Elide.elided;
  Alcotest.(check bool) "no bail" false report.Elide.bailed;
  (match classes report with
  | [ Elide.Required; Elide.Redundant ] -> ()
  | _ -> Alcotest.fail "expected [required; redundant]");
  let oelf', _ = elide_ok oelf in
  Alcotest.(check bool) "elided binary is signed" true
    (V.signature_ok oelf');
  match V.verify oelf' with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unmodified verifier must re-accept the output"

(* The §4.3 hoisting shape on a self-loop: a preheader guard proves the
   loop-carried copy; the in-loop guard goes, the preheader stays. *)
let test_elide_loop_hoisted () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        g1 0;
        Asm.Ins (Mov_imm (Reg.r0, 0L));
        Asm.Label "loop";
        g1 0;
        Asm.Ins (Alu (Add, Reg.r0, O_imm 1L));
        Asm.Ins (Cmp (Reg.r0, O_imm 3L));
        Asm.Jcc_l (Lt, "loop");
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let a = accepted_exn oelf in
  let d = V.disasm a in
  let cfg = Cfg.build ~entry:oelf.entry d in
  Alcotest.(check bool) "the loop is a self-loop" true
    (List.exists (fun (h, body) -> body = [ h ]) (Cfg.natural_loops cfg));
  Alcotest.(check bool) "reducible" false (Cfg.irreducible cfg);
  let report = Elide.analyze a in
  Alcotest.(check int) "two guards" 2 report.Elide.total;
  Alcotest.(check int) "in-loop guard elided" 1 report.Elide.elided;
  (match classes report with
  | [ Elide.Required; Elide.Redundant ] -> ()
  | _ -> Alcotest.fail "preheader stays, loop copy goes");
  let oelf', _ = elide_ok oelf in
  match V.verify oelf' with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unmodified verifier must re-accept the output"

(* A conditional jump into the middle of a cycle, bypassing its header:
   the CFG is irreducible, and elision must conservatively bail — even
   an obviously dominated twin stays. *)
let test_elide_irreducible_bails () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        g1 0;
        g1 0;
        Asm.Ins (Cmp (Reg.r0, O_imm 0L));
        Asm.Jcc_l (Eq, "body");
        Asm.Label "head";
        Asm.Ins (Alu (Add, Reg.r0, O_imm 1L));
        Asm.Label "body";
        Asm.Ins (Alu (Add, Reg.r0, O_imm 1L));
        Asm.Ins (Cmp (Reg.r0, O_imm 10L));
        Asm.Jcc_l (Lt, "head");
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let a = accepted_exn oelf in
  let d = V.disasm a in
  Alcotest.(check bool) "irreducible" true
    (Cfg.irreducible (Cfg.build ~entry:oelf.entry d));
  let report = Elide.analyze a in
  Alcotest.(check bool) "bailed" true report.Elide.bailed;
  Alcotest.(check int) "nothing elided" 0 report.Elide.elided;
  List.iter
    (fun (g : Elide.guard) ->
      Alcotest.(check bool) "all guards required" true (g.cls = Elide.Required))
    report.Elide.guards;
  (* run still succeeds: the input comes back unchanged, signed *)
  let oelf', report' = elide_ok oelf in
  Alcotest.(check bool) "bail reported through run" true report'.Elide.bailed;
  Alcotest.(check bool) "code unchanged" true (oelf'.code = oelf.code)

(* examples/guard_heavy.ol under the naive config: the elision count is
   pinned exactly (a regression gate — the count may only grow), and the
   elided binary is observationally identical but dynamically cheaper. *)
let test_guard_heavy_exact_count () =
  let src =
    (* cwd is test/ under `dune runtest` but the root under `dune exec`;
       the copy next to the executable covers both *)
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
  in
  let naive = compile_src ~config:Codegen.sfi_naive src in
  let report = Elide.analyze (accepted_exn naive) in
  Alcotest.(check int) "total guards" 341 report.Elide.total;
  Alcotest.(check int) "exact elision count" 248 report.Elide.elided;
  Alcotest.(check int) "classified redundant" 248
    (List.length
       (List.filter (fun c -> c = Elide.Redundant) (classes report)));
  Alcotest.(check bool) "no bail" false report.Elide.bailed;
  (* the optimized config leaves nothing on the table *)
  let opt = compile_src src in
  let opt_report = Elide.analyze (accepted_exn opt) in
  Alcotest.(check int) "sfi build has no elidable guards" 0
    opt_report.Elide.elided;
  (* elided binary: same behavior, strictly fewer dynamic checks *)
  let elided, _ = elide_ok naive in
  let rn = Occlum_workloads.Harness.run_bare naive in
  let re = Occlum_workloads.Harness.run_bare elided in
  Alcotest.(check int) "same exit code" rn.exit_code re.exit_code;
  Alcotest.(check string) "same stdout" rn.stdout re.stdout;
  Alcotest.(check string) "expected output" "sum 231\n" re.stdout;
  Alcotest.(check bool) "fewer bound checks" true
    (re.cpu.bound_checks < rn.cpu.bound_checks);
  Alcotest.(check bool) "fewer cycles" true (re.cpu.cycles < rn.cpu.cycles)

(* --- lints ---------------------------------------------------------------- *)

(* OL001: a labelled function nobody transfers to. With no indirect
   transfers in the program the cfi_label fan-out contributes no edges,
   so the block is entry-unreachable (though still verifier-accepted). *)
let test_lint_unreachable_block () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        Asm.Ins (Mov_imm (Reg.r0, 7L));
        Asm.Label "spin";
        Asm.Jmp_l "spin";
        Asm.Label "dead";
        Asm.Cfi_label_here;
        Asm.Ins (Mov_imm (Reg.r1, 1L));
        Asm.Label "dspin";
        Asm.Jmp_l "dspin";
      ]
  in
  let cfg = Cfg.build ~entry:oelf.entry (disasm_exn oelf) in
  let fs = Lint.unreachable_blocks cfg in
  Alcotest.(check int) "the dead function's two blocks" 2 (List.length fs);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string) "rule" "OL001" f.rule;
      Alcotest.(check bool) "warning severity" true
        (f.severity = Lint.Warning))
    fs;
  (* a program with no dead code is clean *)
  let live = link_raw cfg_items in
  Alcotest.(check int) "cfg_items fully reachable" 0
    (List.length
       (Lint.unreachable_blocks (Cfg.build ~entry:live.entry (disasm_exn live))))

(* OL002: back-to-back cmps with no branch between them — the first
   flag store is dead. *)
let test_lint_dead_flag_update () =
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        Asm.Ins (Cmp (Reg.r0, O_imm 1L));
        Asm.Ins (Cmp (Reg.r0, O_imm 2L));
        Asm.Jcc_l (Eq, "spin");
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let d = disasm_exn oelf in
  let cfg = Cfg.build ~entry:oelf.entry d in
  (match Lint.dead_flag_updates cfg with
  | [ f ] ->
      Alcotest.(check string) "rule" "OL002" f.Lint.rule;
      Alcotest.(check bool) "anchored at the first cmp" true
        (String.length f.Lint.insn >= 3 && String.sub f.Lint.insn 0 3 = "cmp")
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one OL002 finding, got %d"
           (List.length fs)));
  (* cmp followed by its jcc is not dead *)
  let clean = link_raw cfg_items in
  Alcotest.(check int) "cfg_items has no dead flag stores" 0
    (List.length
       (Lint.dead_flag_updates
          (Cfg.build ~entry:clean.entry (disasm_exn clean))))

(* OL003, as both occlum_lint and occlum_verify --guard-audit report it:
   one note per guard elision classifies redundant. *)
let test_guard_audit_findings () =
  let report =
    Elide.analyze
      (accepted_exn (compile_src ~config:Codegen.sfi_naive leaky_src))
  in
  let findings = Lint.redundant_guards report in
  Alcotest.(check bool) "audit emits findings" true (findings <> []);
  Alcotest.(check int) "one finding per redundant guard" report.Elide.elided
    (List.length findings);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string) "rule" "OL003" f.rule;
      Alcotest.(check bool) "decoded guard text" true
        (String.length f.insn >= 9 && String.sub f.insn 0 9 = "mem_guard");
      Alcotest.(check bool) "carries a message" true
        (String.length f.message > 0))
    findings;
  (* ascending, deduplicated addresses *)
  let addrs = List.map (fun (f : Lint.finding) -> f.addr) findings in
  Alcotest.(check bool) "addresses strictly increasing" true
    (List.for_all2 ( < ) addrs (List.tl addrs @ [ max_int ]))

(* Validation reinstates a guard whose window is already covered but
   whose anchor widens the fact a later access needs: [r1+4000] lies
   inside the first guard's slack of 4095, so it is a candidate, yet
   only its anchor reaches [r1+8000]. The pass must find that through
   the verifier's own obligation check, which also drops the adjacency
   of a removed guard in front of an indexed access. *)
let test_elide_reinstates_needed_guard () =
  let load src =
    Asm.Ins (Load { dst = Reg.r0; src; size = 8 })
  in
  let sib disp : Insn.mem =
    Sib { base = Reg.r1; index = None; scale = 1; disp }
  in
  let indexed : Insn.mem =
    Sib { base = Reg.r1; index = Some Reg.r2; scale = 8; disp = 0 }
  in
  let oelf =
    link_raw
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        g1 0;
        g1 4000;
        load (sib 8000);
        Asm.Mem_guard indexed;
        load indexed;
        Asm.Label "spin";
        Asm.Jmp_l "spin";
      ]
  in
  let a = accepted_exn oelf in
  let d = V.disasm a in
  let report = Elide.analyze a in
  let widening, index_guard =
    match report.Elide.guards with
    | [ _; w; x ] -> (w, x)
    | _ -> Alcotest.fail "expected three guards"
  in
  Alcotest.(check int) "nothing elided" 0 report.Elide.elided;
  Alcotest.(check int) "one reinstating round, one clean round" 2
    report.Elide.rounds;
  Alcotest.(check bool) "the widening guard stays required" true
    (widening.cls = Elide.Required);
  Alcotest.(check string) "and says it was reinstated"
    "reinstated: a residual obligation needs this guard" widening.why;
  let failures removed =
    V.stage4_failures ~removed a
    |> List.map (fun (i, reg, _) -> (i, reg))
  in
  let without j =
    Array.init (Array.length d.sorted) (fun i -> i = j)
  in
  let r1 = Some (Reg.to_int Reg.r1) in
  Alcotest.(check (list (pair int (option int))))
    "no failure with every guard in place" []
    (failures (without (-1)));
  Alcotest.(check (list (pair int (option int))))
    "removing the widening guard fails the load on r1"
    [ (widening.index + 1, r1) ]
    (failures (without widening.index));
  Alcotest.(check (list (pair int (option int))))
    "a removed guard is no adjacent guard for the indexed load"
    [ (index_guard.index + 1, r1) ]
    (failures (without index_guard.index));
  let oelf', _ = elide_ok oelf in
  match V.verify oelf' with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unmodified verifier must re-accept the output"

(* --- the shared dataflow engine ------------------------------------------ *)

module Int_max = Occlum_range.Dataflow.Make (struct
  type t = int

  let equal = Int.equal
  let join = max
end)

let test_dataflow_engine_forward_backward () =
  (* diamond: 0 -> 1,2 -> 3; forward max propagates the larger seed *)
  let g =
    { Occlum_range.Dataflow.nodes = 4;
      succs = [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] }
  in
  let out =
    Int_max.fixpoint g ~seeds:[ (0, 5) ] ~transfer:(fun n v ->
        if n = 1 then v + 10 else v)
  in
  Alcotest.(check (option int)) "join at the merge" (Some 15) out.(3);
  Alcotest.(check (option int)) "unseeded unreachable" (Some 5) out.(1);
  let back =
    Int_max.fixpoint ~direction:`Backward g ~seeds:[ (3, 1) ]
      ~transfer:(fun _ v -> v + 1)
  in
  (* backward: 3's value flows to 1, 2, then 0 *)
  Alcotest.(check (option int)) "backward reaches the root" (Some 3) back.(0)

let suite =
  [
    Alcotest.test_case "cfg blocks and edges" `Quick test_cfg_blocks_and_edges;
    Alcotest.test_case "cfg dominators and loops" `Quick
      test_cfg_dominators_and_loops;
    Alcotest.test_case "cfg self-loop" `Quick test_cfg_straightline_no_loops;
    Alcotest.test_case "ct: leaky kernel flagged" `Quick test_ct_leaky_flagged;
    Alcotest.test_case "ct: leaky flagged on naive build" `Quick
      test_ct_leaky_naive_also_flagged;
    Alcotest.test_case "ct: constant-time rewrite clean" `Quick
      test_ct_safe_clean;
    Alcotest.test_case "ct: no secrets trivially clean" `Quick
      test_ct_no_secrets_trivially_clean;
    Alcotest.test_case "ct: workloads clean" `Quick test_ct_workloads_clean;
    Alcotest.test_case "secret parsing and ranges" `Quick
      test_secret_parsing_and_ranges;
    Alcotest.test_case "secret must be a declared global" `Quick
      test_secret_undeclared_rejected;
    Alcotest.test_case "secret annotation survives signing" `Quick
      test_secret_survives_signing;
    Alcotest.test_case "guard audit: naive vs optimized" `Quick
      test_guard_audit_naive_has_redundancy;
    Alcotest.test_case "dataflow engine directions" `Quick
      test_dataflow_engine_forward_backward;
    Alcotest.test_case "elide: straightline dominated twin" `Quick
      test_elide_straightline_dominated;
    Alcotest.test_case "elide: loop-carried guard hoisted" `Quick
      test_elide_loop_hoisted;
    Alcotest.test_case "elide: irreducible CFG bails" `Quick
      test_elide_irreducible_bails;
    Alcotest.test_case "elide: guard_heavy exact count" `Quick
      test_guard_heavy_exact_count;
    Alcotest.test_case "lint: unreachable block (OL001)" `Quick
      test_lint_unreachable_block;
    Alcotest.test_case "lint: dead flag update (OL002)" `Quick
      test_lint_dead_flag_update;
    Alcotest.test_case "guard audit: findings" `Quick
      test_guard_audit_findings;
    Alcotest.test_case "elide: reinstates a guard a later access needs"
      `Quick test_elide_reinstates_needed_guard;
  ]
