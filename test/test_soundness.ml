(* End-to-end soundness fuzzing of the MMDSFI security argument
   (Theorems 5.2 / 5.3): if the verifier ACCEPTS a binary, then *running*
   it can never violate the two policies —

   - control transfers stay inside the code region C (we assert the pc
     after every single executed instruction);
   - memory accesses stay inside the data region D (we map a live
     "victim" region where an adjacent domain would be, fill it with a
     sentinel, and assert it is never written; the code bytes of C are
     likewise asserted unmodified, i.e. no self-injection).

   Inputs are (a) legitimately compiled programs and (b) random byte-flip
   mutants of them that happen to still pass the verifier — the
   interesting adversarial cases, since a flip can retarget jumps, change
   displacements, or alter immediates while remaining well-formed. *)

open Occlum_toolchain
module Exec = Occlum_fuzzing.Exec

(* Execute [oelf] in an enclave-backed domain flanked by a live victim
   region ({!Exec.run_contained}): the pc is asserted after every
   instruction, the victim audited periodically, and victim and code
   integrity at the end. *)
let run_isolated ?(fuel = 60_000) oelf =
  Result.map ignore (Exec.run_contained ~fuel (Exec.make oelf))

let base_programs =
  lazy
    (List.map
       (fun seed ->
         Compile.compile_exn ~config:Codegen.sfi
           (Runtime.program
              ~globals:[ ("buf", 256) ]
              [
                Ast.func ~reg_vars:[ "p" ] "main" []
                  Ast.
                    [
                      Let ("k", i 0);
                      Assign ("p", Global_addr "buf");
                      While
                        ( v "k" <: i (8 + seed),
                          [
                            Store (v "p", v "k" *: i seed);
                            Assign ("p", v "p" +: i 8);
                            Assign ("k", v "k" +: i 1);
                          ] );
                      Expr (Call ("print_int", [ Load (Global_addr "buf" +: i 16) ]));
                      Return (i 0);
                    ];
              ]))
       [ 1; 3; 7 ])

let test_compiled_binaries_sound () =
  List.iter
    (fun oelf ->
      match run_isolated oelf with
      | Ok () -> ()
      | Error v -> Alcotest.fail (Exec.violation_to_string v))
    (Lazy.force base_programs);
  (* the workload binaries too *)
  List.iter
    (fun (name, prog) ->
      let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
      match run_isolated ~fuel:200_000 oelf with
      | Ok () -> ()
      | Error v -> Alcotest.fail (name ^ ": " ^ Exec.violation_to_string v))
    (Occlum_workloads.Spec.all ~scale:1)

(* The adversarial property: byte-flipped mutants that still pass the
   verifier must still be contained at runtime. *)
let prop_verified_mutants_are_contained =
  QCheck.Test.make ~name:"verifier-accepted mutants cannot break isolation"
    ~count:600
    QCheck.(pair (make Gen.(int_range 0 2)) (make Gen.(int_range 0 1_000_000)))
    (fun (which, seed) ->
      let oelf = List.nth (Lazy.force base_programs) which in
      let code = Bytes.copy oelf.Occlum_oelf.Oelf.code in
      let reserved = Occlum_oelf.Oelf.trampoline_reserved in
      let prng = Occlum_util.Prng.create seed in
      (* flip 1-3 bytes *)
      for _ = 0 to Occlum_util.Prng.int prng 3 do
        let pos = reserved + Occlum_util.Prng.int prng (Bytes.length code - reserved) in
        Bytes.set code pos
          (Char.chr
             (Char.code (Bytes.get code pos)
             lxor (1 + Occlum_util.Prng.int prng 255)))
      done;
      let mutant = { oelf with Occlum_oelf.Oelf.code = code } in
      match Occlum_verifier.Verify.verify mutant with
      | Error _ -> true (* rejected: nothing to check *)
      | Ok _ -> (
          match run_isolated mutant with
          | Ok () -> true
          | Error v ->
              QCheck.Test.fail_reportf
                "mutant (prog %d, seed %d) verified but violated isolation: %s"
                which seed (Exec.violation_to_string v)))

let suite =
  [
    Alcotest.test_case "compiled binaries are contained" `Slow
      test_compiled_binaries_sound;
    QCheck_alcotest.to_alcotest prop_verified_mutants_are_contained;
  ]
