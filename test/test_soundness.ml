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

(* [which]'s code with 1-3 bytes past the trampoline flipped, drawn from
   [seed], as an adversary would *)
let mutant which seed =
  let oelf = List.nth (Lazy.force base_programs) which in
  let code = Bytes.copy oelf.Occlum_oelf.Oelf.code in
  let reserved = Occlum_oelf.Oelf.trampoline_reserved in
  let prng = Occlum_util.Prng.create seed in
  for _ = 0 to Occlum_util.Prng.int prng 3 do
    let pos = reserved + Occlum_util.Prng.int prng (Bytes.length code - reserved) in
    Bytes.set code pos
      (Char.chr
         (Char.code (Bytes.get code pos)
         lxor (1 + Occlum_util.Prng.int prng 255)))
  done;
  { oelf with Occlum_oelf.Oelf.code = code }

(* The adversarial property: byte-flipped mutants that still pass the
   verifier must still be contained at runtime. *)
let prop_verified_mutants_are_contained =
  QCheck.Test.make ~name:"verifier-accepted mutants cannot break isolation"
    ~count:600
    QCheck.(pair (make Gen.(int_range 0 2)) (make Gen.(int_range 0 1_000_000)))
    (fun (which, seed) ->
      let mutant = mutant which seed in
      match Occlum_verifier.Verify.verify mutant with
      | Error _ -> true (* rejected: nothing to check *)
      | Ok _ -> (
          match run_isolated mutant with
          | Ok () -> true
          | Error v ->
              QCheck.Test.fail_reportf
                "mutant (prog %d, seed %d) verified but violated isolation: %s"
                which seed (Exec.violation_to_string v)))

(* A mutant the property once drew (QCHECK_SEED=816454762). Its flip
   turns the return's [pop r10] into [pop r12], so [jmp *r10] lands on
   the main gate's cfi_label with a return address of 0 on the stack.
   The gate pops and jumps unguarded; the LibOS's return-target check
   (paper §6) is what stops it, so under [Os] the SIP dies of SIGKILL
   with no output, and the harness must report the same contained
   kill, not a pc escape to 0. *)
let test_gate_return_mutant () =
  let m = mutant 1 501 in
  match Occlum_verifier.Verify.verify_and_sign m with
  | Error _ -> Alcotest.fail "the prog 1 / seed 501 mutant no longer verifies"
  | Ok signed -> (
      (match Exec.run_contained ~fuel:60_000 (Exec.make m) with
      | Ok Exec.Killed -> ()
      | Ok _ -> Alcotest.fail "harness: the mutant was not killed at the gate"
      | Error v -> Alcotest.fail ("harness: " ^ Exec.violation_to_string v));
      let module Os = Occlum_libos.Os in
      let os = Os.boot () in
      Os.install_binary os "/bin/mutant" signed;
      let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/mutant" ~args:[] in
      ignore (Os.wait_pid_exit ~max_steps:200_000 os pid);
      match Os.find_proc os pid with
      | None -> Alcotest.fail "Os: the mutant vanished"
      | Some p ->
          Alcotest.(check int) "Os: killed by SIGKILL" 137 p.Os.exit_code;
          Alcotest.(check string) "Os: no output" "" (Os.proc_output os pid))

let suite =
  [
    Alcotest.test_case "compiled binaries are contained" `Slow
      test_compiled_binaries_sound;
    QCheck_alcotest.to_alcotest prop_verified_mutants_are_contained;
    Alcotest.test_case "gate-return mutant killed in harness and Os" `Quick
      test_gate_return_mutant;
  ]
