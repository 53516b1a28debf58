(* Toolchain tests. The central property is differential: a random
   (terminating, in-bounds) Occlang program must behave identically on
   - the reference AST interpreter,
   - the machine running the uninstrumented (bare) binary,
   - the machine running the fully MMDSFI-instrumented optimized binary,
   - the machine running the naive (unoptimized) instrumented binary,
   which exercises codegen, the instrumentation, the optimizer and the
   machine in one go. Instrumented binaries must additionally pass the
   independent verifier. *)

open Occlum_toolchain
open Ast

(* --- random program generation ------------------------------------------- *)

(* A small statement/expression generator producing guaranteed-terminating
   programs with all memory accesses confined to two global buffers. *)
module Progen = struct
  let g0_slots = 8 (* "g0" has 64 bytes = 8 slots *)
  let g1_slots = 32

  type env = { mutable vars : string list; prng : Occlum_util.Prng.t; mutable fresh : int }

  let pick env l = List.nth l (Occlum_util.Prng.int env.prng (List.length l))

  let slot_addr env buf slots e =
    (* address of a random in-bounds slot: buf + (e mod slots)*8 *)
    ignore env;
    Binop (Add, Global_addr buf, Binop (Mul, Binop (Rem, e, i slots), i 8))

  let rec gen_expr env depth =
    let leaf () =
      match Occlum_util.Prng.int env.prng (if env.vars = [] then 2 else 3) with
      | 0 -> i (Occlum_util.Prng.int env.prng 1000 - 500)
      | 1 -> i (Occlum_util.Prng.int env.prng 7)
      | _ -> Var (pick env env.vars)
    in
    if depth = 0 then leaf ()
    else
      match Occlum_util.Prng.int env.prng 8 with
      | 0 | 1 -> leaf ()
      | 2 ->
          let op =
            pick env [ Add; Sub; Mul; And; Or; Xor ]
          in
          Binop (op, gen_expr env (depth - 1), gen_expr env (depth - 1))
      | 3 ->
          let op = pick env [ Eq; Ne; Lt; Le; Gt; Ge ] in
          Binop (op, gen_expr env (depth - 1), gen_expr env (depth - 1))
      | 4 -> Binop (Rem, gen_expr env (depth - 1), i (1 + Occlum_util.Prng.int env.prng 9))
      | 5 -> Load (slot_addr env "g0" g0_slots (gen_expr env (depth - 1)))
      | 6 -> Load1 (slot_addr env "g1" (g1_slots * 8) (gen_expr env (depth - 1)))
      | _ -> Unop (pick env [ Neg; Not; Lnot ], gen_expr env (depth - 1))

  let rec gen_stmts env budget =
    if budget <= 0 then []
    else
      let stmt, cost =
        match Occlum_util.Prng.int env.prng 10 with
        | 0 | 1 ->
            let name = Printf.sprintf "x%d" env.fresh in
            env.fresh <- env.fresh + 1;
            let s = Let (name, gen_expr env 2) in
            env.vars <- name :: env.vars;
            (s, 1)
        | 2 when env.vars <> [] -> (Assign (pick env env.vars, gen_expr env 2), 1)
        | 3 -> (Store (slot_addr env "g0" g0_slots (gen_expr env 1), gen_expr env 2), 1)
        | 4 ->
            (Store1 (slot_addr env "g1" (g1_slots * 8) (gen_expr env 1), gen_expr env 2), 1)
        | 5 ->
            (* names declared inside a branch must not leak: the branch
               may not execute, and the interpreter would see an unbound
               variable *)
            let saved = env.vars in
            let then_ = gen_stmts env (budget / 2) in
            env.vars <- saved;
            let else_ = gen_stmts env (budget / 2) in
            env.vars <- saved;
            (If (gen_expr env 2, then_, else_), budget / 2)
        | 6 ->
            (* bounded loop with a private counter *)
            let cnt = Printf.sprintf "loop%d" env.fresh in
            env.fresh <- env.fresh + 1;
            let saved = env.vars in
            let body = gen_stmts env (budget / 2) in
            env.vars <- saved;
            ( If
                ( i 1,
                  [
                    Let (cnt, i 0);
                    While
                      ( Binop (Lt, Var cnt, i (1 + Occlum_util.Prng.int env.prng 6)),
                        body @ [ Assign (cnt, Binop (Add, Var cnt, i 1)) ] );
                  ],
                  [] ),
              budget / 2 )
        | 7 -> (Expr (Call ("aux", [ gen_expr env 2 ])), 1)
        | 8 -> (Expr (Call ("emit", [ gen_expr env 2 ])), 1)
        | _ -> (Expr (gen_expr env 2), 1)
      in
      stmt :: gen_stmts env (budget - max 1 cost)

  let generate seed =
    let env = { vars = []; prng = Occlum_util.Prng.create seed; fresh = 0 } in
    let body = gen_stmts env 12 in
    let ret = Return (Binop (And, gen_expr env 2, i 0xFF)) in
    Runtime.program
      ~globals:[ ("g0", 64); ("g1", 256) ]
      [
        func "aux" [ "a" ]
          [
            If (Binop (Gt, Var "a", i 100), [ Return (Binop (Sub, Var "a", i 100)) ], []);
            Return (Binop (Add, Var "a", i 1));
          ];
        func "emit" [ "val_" ]
          [
            Expr (Call ("print_int", [ Binop (And, Var "val_", i 0xFFFF) ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i 0);
          ];
        func "main" [] (body @ [ ret ]);
      ]
end

let run_bare = Occlum_workloads.Harness.run_bare

let run_all_backends prog =
  let iv, iout = Ir_interp.run_pure ~fuel:5_000_000 prog in
  let bare = run_bare (Compile.compile_exn ~config:Codegen.bare prog) in
  let opt_oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  let opt = run_bare opt_oelf in
  let naive_oelf = Compile.compile_exn ~config:Codegen.sfi_naive prog in
  let naive = run_bare naive_oelf in
  (iv, iout, bare, opt, naive, opt_oelf, naive_oelf)

let prop_differential =
  QCheck.Test.make ~name:"interp == bare == sfi == naive-sfi (random programs)"
    ~count:120
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let prog = Progen.generate seed in
      let iv, iout, bare, opt, naive, opt_oelf, naive_oelf = run_all_backends prog in
      let iv = Int64.to_int iv in
      let code_ok =
        iv = bare.exit_code && iv = opt.exit_code && iv = naive.exit_code
      in
      let out_ok =
        iout = bare.stdout && iout = opt.stdout && iout = naive.stdout
      in
      (* the optimizer must never produce a binary the verifier turns
         away — and neither may the unoptimized instrumentation *)
      let verified =
        (match Occlum_verifier.Verify.verify opt_oelf with
        | Ok _ -> true
        | Error _ -> false)
        &&
        match Occlum_verifier.Verify.verify naive_oelf with
        | Ok _ -> true
        | Error _ -> false
      in
      if not (code_ok && out_ok && verified) then
        QCheck.Test.fail_reportf
          "seed %d: interp=(%d,%S) bare=(%d,%S) opt=(%d,%S) naive=(%d,%S) verified=%b"
          seed iv iout bare.exit_code bare.stdout opt.exit_code opt.stdout
          naive.exit_code naive.stdout verified
      else true)

(* --- unit tests -------------------------------------------------------------- *)

let run_sfi prog = run_bare (Compile.compile_exn ~config:Codegen.sfi prog)

let test_runtime_strings () =
  let prog =
    Runtime.program
      ~globals:[ ("buf", 64) ]
      [
        func "main" []
          [
            (* strlen of a literal *)
            Expr (Call ("print_int", [ Call ("strlen", [ Str "hello" ]) ]));
            Expr (Call ("puts", [ Str " "; i 1 ]));
            (* memcpy + strcmp *)
            Expr (Call ("memcpy", [ Global_addr "buf"; Str "hello"; i 6 ]));
            Expr (Call ("print_int", [ Call ("strcmp", [ Global_addr "buf"; Str "hello" ]) ]));
            Expr (Call ("puts", [ Str " "; i 1 ]));
            Expr (Call ("print_int",
                        [ Binop (And,
                                 Call ("strcmp", [ Str "abc"; Str "abd" ]),
                                 i 0xFF) ]));
            Expr (Call ("puts", [ Str " "; i 1 ]));
            (* atoi/itoa roundtrip *)
            Expr (Call ("print_int", [ Call ("atoi", [ Call ("itoa", [ i 31337 ]) ]) ]));
            Return (i 0);
          ];
      ]
  in
  let r = run_sfi prog in
  Alcotest.(check string) "output" "5 0 255 31337" r.stdout;
  Alcotest.(check int) "exit" 0 r.exit_code

let test_function_pointers () =
  let prog =
    Runtime.program
      [
        func "double_" [ "x" ] [ Return (Binop (Mul, v "x", i 2)) ];
        func "triple" [ "x" ] [ Return (Binop (Mul, v "x", i 3)) ];
        func "apply" [ "f"; "x" ] [ Return (Call_ptr (v "f", [ v "x" ])) ];
        func "main" []
          [
            Let ("a", Call ("apply", [ Func_addr "double_"; i 10 ]));
            Let ("b", Call ("apply", [ Func_addr "triple"; i 10 ]));
            Return (v "a" +: v "b");
          ];
      ]
  in
  Alcotest.(check int) "20+30" 50 (run_sfi prog).exit_code

let test_recursion () =
  let prog =
    Runtime.program
      [
        func "fib" [ "n" ]
          [
            If (v "n" <: i 2, [ Return (v "n") ], []);
            Return (Call ("fib", [ v "n" -: i 1 ]) +: Call ("fib", [ v "n" -: i 2 ]));
          ];
        func "main" [] [ Return (Call ("fib", [ i 15 ])) ];
      ]
  in
  Alcotest.(check int) "fib 15" 610 (run_sfi prog).exit_code

let test_division_semantics () =
  (* unsigned division; division by zero faults *)
  let prog rhs =
    Runtime.program
      [ func "main" [] [ Return (Binop (Div, i 100, i rhs)) ] ]
  in
  Alcotest.(check int) "100/7" 14 (run_sfi (prog 7)).exit_code;
  match (run_sfi (prog 0)).fault with
  | Some (Occlum_machine.Fault.Div_by_zero _) -> ()
  | _ -> Alcotest.fail "expected div-by-zero fault"

let test_main_with_params_rejected () =
  let prog = Runtime.program [ func "main" [ "argc" ] [ Return (i 0) ] ] in
  match Compile.compile ~config:Codegen.sfi prog with
  | exception Codegen.Codegen_error _ -> ()
  | _ -> Alcotest.fail "main with params must be rejected"

let test_unknown_identifiers_rejected () =
  let bad_var = Runtime.program [ func "main" [] [ Return (Var "nope") ] ] in
  (match Compile.compile bad_var with
  | exception Ast.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unknown var");
  let bad_fn = Runtime.program [ func "main" [] [ Return (Call ("nope", [])) ] ] in
  (match Compile.compile bad_fn with
  | exception Ast.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unknown function");
  let bad_glob = Runtime.program [ func "main" [] [ Return (Global_addr "nope") ] ] in
  match Compile.compile bad_glob with
  | exception Ast.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unknown global"

let test_optimizer_removes_guards () =
  (* a tight reg_var loop: the optimizer must delete most guards and
     preserve behaviour; the verifier must still accept the result *)
  let prog =
    Runtime.program
      ~globals:[ ("arr", 1024) ]
      [
        func ~reg_vars:[ "p" ] "main" []
          [
            Let ("k", i 0);
            Assign ("p", Global_addr "arr");
            While
              ( v "k" <: i 128,
                [
                  Store (v "p", v "k" *: v "k");
                  Assign ("p", v "p" +: i 8);
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (Load (Global_addr "arr" +: i 504));
          ];
      ]
  in
  let _, _, stats = Compile.to_items ~config:Codegen.sfi prog in
  Alcotest.(check bool) "guards removed" true
    (stats.guards_after_opt < stats.guards_before_opt);
  let naive = run_bare (Compile.compile_exn ~config:Codegen.sfi_naive prog) in
  let opt = run_sfi prog in
  Alcotest.(check int) "same result" naive.exit_code opt.exit_code;
  Alcotest.(check int) "63*63" (63 * 63) opt.exit_code;
  Alcotest.(check bool) "fewer dynamic checks" true
    (opt.cpu.bound_checks < naive.cpu.bound_checks)

let test_loop_hoisting () =
  (* the canonical §4.3 pattern: in-loop guard hoisted to the preheader
     means dynamic checks are O(1), not O(n) *)
  let prog n =
    Runtime.program
      ~globals:[ ("arr", 8192) ]
      [
        func ~reg_vars:[ "p" ] "main" []
          [
            Let ("k", i 0);
            Assign ("p", Global_addr "arr");
            While
              ( v "k" <: i n,
                [
                  Store (v "p", v "k");
                  Assign ("p", v "p" +: i 8);
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (i 0);
          ];
      ]
  in
  let checks n =
    (run_sfi (prog n)).cpu.bound_checks
  in
  let c100 = checks 100 and c1000 = checks 1000 in
  (* without hoisting this would grow by ~2 checks per iteration *)
  Alcotest.(check bool) "store checks don't scale with iterations" true
    (c1000 - c100 < 400)

let test_arg_passing () =
  let prog =
    Runtime.program
      [
        func "main" []
          [
            Expr (Call ("print_int", [ Call ("argc", []) ]));
            Expr (Call ("puts", [ Str " "; i 1 ]));
            Expr (Call ("print_cstr", [ Call ("argv", [ i 0 ]) ]));
            Expr (Call ("puts", [ Str " "; i 1 ]));
            Expr (Call ("print_int", [ Call ("atoi", [ Call ("argv", [ i 1 ]) ]) ]));
            Return (i 0);
          ];
      ]
  in
  let r =
    run_bare ~args:[ "hello"; "42" ]
      (Compile.compile_exn ~config:Codegen.sfi prog)
  in
  Alcotest.(check string) "argv" "2 hello 42" r.stdout

let test_interp_matches_machine_on_workloads () =
  (* the SPEC kernels at tiny scale: interp vs machine *)
  List.iter
    (fun (name, prog) ->
      let iv, iout = Ir_interp.run_pure ~fuel:20_000_000 prog in
      let bare = run_bare (Compile.compile_exn ~config:Codegen.bare prog) in
      Alcotest.(check string) (name ^ " output") iout bare.stdout;
      Alcotest.(check int) (name ^ " code") (Int64.to_int iv) bare.exit_code)
    (Occlum_workloads.Spec.all ~scale:1)

let test_listing () =
  let prog = Runtime.program [ func "main" [] [ Return (i 3) ] ] in
  let l = Compile.listing ~config:Codegen.sfi prog in
  Alcotest.(check bool) "has cfi_label" true
    (Occlum_util.Bytes_util.contains ~needle:"cfi_label" (Bytes.of_string l));
  Alcotest.(check bool) "has mem_guard" true
    (Occlum_util.Bytes_util.contains ~needle:"mem_guard" (Bytes.of_string l))

(* --- the textual frontend ------------------------------------------------ *)

let test_parser_end_to_end () =
  let src = {|
    // a comment
    global tbl[128];

    fn mix(x, y) { return (x * 31 + y) & 0xFFFF; }

    fn main() regs(p) {
      let k = 0;
      p = tbl;
      while (k < 16) {
        store64(p, mix(k, k + 1));
        p = p + 8;
        k = k + 1;
      }
      if (load64(tbl + 8) == mix(1, 2)) { print_cstr("yes"); }
      else { print_cstr("no"); }
      print_int(callptr(mix, 2, 3));
      return load64(tbl) % 256;
    }
  |} in
  let prog = Parser.parse src in
  let r = run_sfi prog in
  Alcotest.(check string) "output" "yes65" r.stdout;
  Alcotest.(check int) "exit" 1 r.exit_code (* mix(0,1) = 1 *)

let test_parser_operators () =
  let src = {|
    fn main() {
      print_int(2 + 3 * 4);      puts(" ", 1);
      print_int((2 + 3) * 4);    puts(" ", 1);
      print_int(1 << 4 | 1);     puts(" ", 1);
      print_int(10 % 4);         puts(" ", 1);
      print_int(7 & 3);          puts(" ", 1);
      print_int(!0);             puts(" ", 1);
      print_int(-5 + 6);         puts(" ", 1);
      print_int(~0 & 0xFF);      puts(" ", 1);
      print_int(3 < 4);          puts(" ", 1);
      print_int(4 <= 3);
      return 0;
    }
  |} in
  let r = run_sfi (Parser.parse src) in
  Alcotest.(check string) "precedence" "14 20 17 2 3 1 1 255 1 0" r.stdout

let test_parser_strings_and_escapes () =
  let src = {|
    fn main() {
      print_cstr("a\"b\n");
      print_int(strlen("tab\there"));
      return 0;
    }
  |} in
  let r = run_sfi (Parser.parse src) in
  Alcotest.(check string) "escapes" "a\"b\n8" r.stdout

let test_parser_errors () =
  let reject src =
    match Parser.parse src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted: " ^ src)
  in
  reject "fn main( { return 0; }";
  reject "fn main() { return 0 }";
  reject "global x; fn main() { return 0; }";
  reject "fn main() { let = 3; return 0; }";
  reject "fn main() { return \"unterminated; }";
  reject "junk";
  (* well-formedness surfaces through the checker: unknown name *)
  match Compile.compile (Parser.parse "fn main() { return nope; }") with
  | exception Ast.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unknown identifier must fail"

let test_parser_matches_combinators () =
  (* the same program written both ways compiles to identical binaries *)
  let src = {|
    global g[64];
    fn main() {
      let k = 3;
      store64(g + 8, k * k);
      return load64(g + 8);
    }
  |} in
  let combinators =
    Runtime.program ~globals:[ ("g", 64) ]
      [
        func "main" []
          [
            Let ("k", i 3);
            Store (Global_addr "g" +: i 8, v "k" *: v "k");
            Return (Load (Global_addr "g" +: i 8));
          ];
      ]
  in
  let b1 = Compile.compile_exn (Parser.parse src) in
  let b2 = Compile.compile_exn combinators in
  Alcotest.(check bool) "identical code" true
    (Bytes.equal b1.Occlum_oelf.Oelf.code b2.Occlum_oelf.Oelf.code)

(* --- golden build digests ---------------------------------------------- *)

(* The output bytes of the compiler and the §4.3 optimizer, pinned: the
   first 16 hex digits of the SHA-256 of each OELF, (sfi, naive), for the
   SPEC kernels at scale 1 and every fish, gcc and httpd binary. A
   refactor of codegen, the optimizer or the range domain they share with
   the verifier must leave these unchanged; a deliberate change to the
   emitted code updates them. *)
let golden_builds =
  let spec =
    List.map (fun (n, p) -> ("spec/" ^ n, p)) (Occlum_workloads.Spec.all ~scale:1)
  in
  let digests =
    [
      ("spec/perlbench", "ef59be525e020da9", "c59a3d06371a1981");
      ("spec/bzip2", "3e700c07797efb0c", "20dec7b38acc8529");
      ("spec/gcc", "4f4c7ea9919e191b", "51d90d94e1ba7e01");
      ("spec/mcf", "38b53dd57abac561", "2f49eac10b2db82b");
      ("spec/gobmk", "f2bc5e89c2ef01a8", "06368eecc64df775");
      ("spec/hmmer", "d7d9f00395e6b186", "264ba084700adb15");
      ("spec/sjeng", "d79de2ea8019b73e", "45b9fce3c069bd7e");
      ("spec/libquantum", "5e72e3973b649e34", "9021c7dfa76d04ad");
      ("spec/h264ref", "385b7978da0deae0", "874214ddfde149e1");
      ("spec/omnetpp", "ccb3afb9d10512a0", "fcb55cfb07bfe33b");
      ("spec/astar", "4df0c7ec0f80ce07", "8a8fa26ae5f9b74a");
      ("spec/xalancbmk", "669645c85de33a52", "811ab9438914d8a5");
      ("/bin/gen", "34e424b44c50f151", "cb25a4633032679b");
      ("/bin/tr", "810d3e7744232862", "70c5b6b1e4b1c46c");
      ("/bin/filter", "70ed00857b2040f7", "045f54b954a815ff");
      ("/bin/wc", "4cb6ab944c4f32b0", "f007f29311d39f80");
      ("/bin/fish", "e68c042e1f792b1e", "cc1e28d472ddb7ae");
      ("/bin/cpp", "5cef91dcb7310887", "b08e6453c91a5836");
      ("/bin/cc1", "c69b0ef3339ed8a1", "2a2b83acb113405a");
      ("/bin/as", "bfd79aa0dd737594", "b0e2e93555b11a91");
      ("/bin/ld", "08c3f4275fe2050b", "c5b8f1f19c2714df");
      ("/bin/cc", "f2b2cf173edd27c1", "cf7d111ef6fe7e4a");
      ("/bin/httpd_worker", "c235f1e1a32d3c3a", "bdd24a884bce63ba");
      ("/bin/httpd", "88e6d05522f00d08", "c255ec22f50e92f8");
      ("/bin/httpd_mt", "da1b9159f74e7132", "6d226c13bbae8961");
      ("/bin/httpd_ev", "666dc635cb5b1da0", "fa5c5a41cee6d8fc");
    ]
  in
  let progs =
    spec @ Occlum_workloads.Fish.binaries @ Occlum_workloads.Gcc_pipeline.binaries
    @ Occlum_workloads.Httpd.binaries
  in
  List.map (fun (name, sfi, naive) -> (name, List.assoc name progs, sfi, naive))
    digests

let test_golden_build_digests () =
  let digest config prog =
    let bytes = Occlum_oelf.Oelf.to_string (Compile.compile_exn ~config prog) in
    String.sub (Occlum_util.Sha256.to_hex (Occlum_util.Sha256.digest bytes)) 0 16
  in
  Alcotest.(check int) "every build pinned" 26 (List.length golden_builds);
  List.iter
    (fun (name, prog, sfi, naive) ->
      Alcotest.(check string) (name ^ " sfi") sfi (digest Codegen.sfi prog);
      Alcotest.(check string) (name ^ " naive") naive
        (digest Codegen.sfi_naive prog))
    golden_builds

let suite =
  [
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "parser: end to end" `Quick test_parser_end_to_end;
    Alcotest.test_case "parser: operators" `Quick test_parser_operators;
    Alcotest.test_case "parser: strings" `Quick test_parser_strings_and_escapes;
    Alcotest.test_case "parser: errors" `Quick test_parser_errors;
    Alcotest.test_case "parser == combinators" `Quick test_parser_matches_combinators;
    Alcotest.test_case "runtime string functions" `Quick test_runtime_strings;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "division semantics" `Quick test_division_semantics;
    Alcotest.test_case "main with params rejected" `Quick test_main_with_params_rejected;
    Alcotest.test_case "unknown identifiers rejected" `Quick
      test_unknown_identifiers_rejected;
    Alcotest.test_case "optimizer removes guards" `Quick test_optimizer_removes_guards;
    Alcotest.test_case "loop check hoisting" `Quick test_loop_hoisting;
    Alcotest.test_case "argc/argv" `Quick test_arg_passing;
    Alcotest.test_case "spec kernels: interp == machine" `Slow
      test_interp_matches_machine_on_workloads;
    Alcotest.test_case "assembly listing" `Quick test_listing;
    Alcotest.test_case "golden build digests" `Quick test_golden_build_digests;
  ]
