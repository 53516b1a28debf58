(* Golden transcripts of the one-core scheduler. Each case runs a
   workload at the default configuration (cores = 1, JIT on) and pins
   what it observably produced: a hash of the console bytes,
   [Os.state_digest], the virtual clock, and the syscall and
   gate-crossing counts. The values were captured from the original
   sequential scheduler, so they hold the epoch scheduler to
   bit-identical one-core behaviour: any change to queue order, clock
   charging or cache use at cores = 1 moves at least one of them. *)

module Os = Occlum_libos.Os
module H = Occlum_workloads.Harness

let short_hash s =
  String.sub (Occlum_util.Sha256.to_hex (Occlum_util.Sha256.digest s)) 0 16

let transcript os =
  Printf.sprintf "console=%s digest=%s clock=%Ld syscalls=%d gates=%d"
    (short_hash (Os.console_output os))
    (String.sub (Os.state_digest os) 0 16)
    (Os.clock os) os.Os.syscalls os.Os.gate_crossings

let check_exited name = function
  | Os.All_exited -> ()
  | _ -> Alcotest.fail (name ^ " did not run to completion")

let test_fish () =
  let os = H.boot H.Occlum in
  H.install os H.Occlum Occlum_workloads.Fish.binaries;
  let r = H.timed_run os "/bin/fish" ~args:[ "2"; "30" ] in
  check_exited "fish" r.H.status;
  Alcotest.(check string) "fish transcript"
    "console=34a8e311cddcb4f2 digest=3a13905eb3815db2 clock=99955 syscalls=334 gates=334"
    (transcript os)

let test_serving () =
  (* run_serving keeps its LibOS to itself; pin what it reports *)
  let r = H.run_serving ~connections:40 ~rounds:2 H.Occlum in
  Alcotest.(check string) "serving transcript"
    "completed=80 peak=40 vclock=6660006 p50=2822487 p99=3340678 syscalls=289 gates=289"
    (Printf.sprintf
       "completed=%d peak=%d vclock=%Ld p50=%d p99=%d syscalls=%d gates=%d"
       r.H.s_completed r.H.s_peak_open r.H.s_vclock_ns r.H.s_p50_ns
       r.H.s_p99_ns r.H.s_syscalls r.H.s_gate_crossings)

let test_spec () =
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
  let os = Os.boot () in
  ignore (Os.spawn_initial os oelf ~args:[]);
  check_exited "SPEC kernel" (Os.run ~max_steps:500_000 os);
  Alcotest.(check string) "SPEC kernel transcript"
    "console=9bc18dd318e95021 digest=bfbfb7f8331be75a clock=364047 syscalls=3 gates=3"
    (transcript os)

let test_sefs_write_flush () =
  let os = H.boot H.Occlum in
  H.install os H.Occlum [ ("/bin/fileio", H.file_io_prog) ];
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/data/x";
  let r =
    H.timed_run os "/bin/fileio" ~args:[ "w"; "4096"; string_of_int 65536 ]
  in
  check_exited "fileio" r.H.status;
  Os.flush_fs os;
  Alcotest.(check string) "SEFS write+flush transcript"
    "console=e3b0c44298fc1c14 digest=891393c097f148f7 clock=163002 syscalls=19 gates=19"
    (transcript os)

let suite =
  [
    Alcotest.test_case "cores=1 fish transcript" `Quick test_fish;
    Alcotest.test_case "cores=1 serving transcript" `Quick test_serving;
    Alcotest.test_case "cores=1 SPEC kernel transcript" `Quick test_spec;
    Alcotest.test_case "cores=1 SEFS write+flush transcript" `Quick
      test_sefs_write_flush;
  ]
