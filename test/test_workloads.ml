(* Workload integration tests: the three §9.1 applications run correctly
   on all three execution models and produce consistent observable
   output; the harness measurements are sane (Occlum beats Graphene on
   multi-process work, SEFS is writable where Graphene's secure FS was
   not, etc.). *)

module H = Occlum_workloads.Harness
module Os = Occlum_libos.Os

let systems = [ H.Linux; H.Occlum; H.Graphene ]

let test_fish_all_systems () =
  (* 2 rounds x 26 lines: exactly one line starts with 'a' -> "33\n" twice *)
  let outputs =
    List.map
      (fun sys ->
        let r = H.run_fish ~repeats:2 ~lines:26 sys in
        (match r.status with
        | Os.All_exited -> ()
        | _ -> Alcotest.fail (H.system_name sys ^ ": did not finish"));
        Alcotest.(check int) (H.system_name sys ^ " faults") 0 r.faults;
        r.console)
      systems
  in
  List.iter2
    (fun sys out ->
      Alcotest.(check string) (H.system_name sys ^ " output") "33\n33\n" out)
    systems outputs

let test_gcc_all_systems () =
  let outputs =
    List.map
      (fun sys ->
        let r = H.run_gcc ~lines:5 sys in
        (match r.status with
        | Os.All_exited -> ()
        | _ -> Alcotest.fail (H.system_name sys ^ ": did not finish"));
        r.console)
      systems
  in
  (* all three systems compile the same file to the same "linked size" *)
  match outputs with
  | [ a; b; c ] ->
      Alcotest.(check string) "occlum == linux" a b;
      Alcotest.(check string) "graphene == linux" a c;
      Alcotest.(check bool) "non-empty" true (String.length a > 1)
  | _ -> assert false

let test_httpd_all_systems () =
  List.iter
    (fun sys ->
      let r = H.run_httpd ~workers:2 ~concurrency:4 ~requests:12 sys in
      Alcotest.(check int) (H.system_name sys ^ " served") 12 r.served)
    systems

let test_httpd_multithreaded () =
  (* the artifact's multithreaded server: 3 threads sharing the listener
     via poll+accept inside one SIP *)
  let os = H.boot H.Occlum in
  H.install os H.Occlum Occlum_workloads.Httpd.binaries;
  ignore
    (Os.spawn_initial os
       (H.build_for H.Occlum Occlum_workloads.Httpd.mt_prog)
       ~args:[ "3"; "4" ]);
  let guard = ref 0 in
  while
    (not (Occlum_libos.Net.has_listener os.Os.net ~port:Occlum_workloads.Httpd.port))
    && !guard < 200_000
  do
    incr guard;
    ignore (Os.step os)
  done;
  let served = ref 0 in
  for _ = 1 to 12 do
    match Occlum_libos.Net.external_connect os.Os.net ~port:Occlum_workloads.Httpd.port with
    | Error _ -> ()
    | Ok ep ->
        ignore (Occlum_libos.Net.external_send os.Os.net ep Occlum_workloads.Httpd.request);
        let buf = Buffer.create 256 and tries = ref 0 in
        while Buffer.length buf < 10240 && !tries < 400_000 do
          incr tries;
          ignore (Os.step os);
          Buffer.add_string buf (Occlum_libos.Net.external_recv_all os.Os.net ep)
        done;
        if Buffer.length buf >= 10240 then incr served
  done;
  Alcotest.(check int) "12 requests over 3 threads" 12 !served;
  (* the whole server then exits cleanly *)
  match Os.run ~max_steps:2_000_000 os with
  | Os.All_exited -> ()
  | _ -> Alcotest.fail "mt server did not exit"

let test_gcc_output_persisted () =
  (* the pipeline's artifact lands on the (writable, encrypted) FS *)
  let os = H.boot H.Occlum in
  H.install os H.Occlum Occlum_workloads.Gcc_pipeline.binaries;
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/src/x";
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/tmp/x";
  (match
     Occlum_libos.Sefs.write_path os.Os.sefs "/src/a.c"
       (Occlum_workloads.Gcc_pipeline.source_file ~lines:5)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "seed source");
  ignore (H.timed_run os "/bin/cc" ~args:[ "/src/a.c" ]);
  match Occlum_libos.Sefs.read_path os.Os.sefs "/tmp/a.out" with
  | Ok s ->
      Alcotest.(check string) "linked header" "OEXE" (String.sub s 0 4);
      Alcotest.(check bool) "has payload" true (String.length s > 4)
  | Error e -> Alcotest.fail (Printf.sprintf "a.out missing: errno %d" e)

let test_spawn_cost_ordering () =
  (* SIP creation must be orders of magnitude cheaper than EIP creation *)
  let spawn sys =
    let os = H.boot sys in
    Os.install_binary os "/bin/small" (H.build_for sys (H.sized_program ~code_kb:14));
    H.spawn_latency ~tries:3 os "/bin/small"
  in
  let sip = spawn H.Occlum and eip = spawn H.Graphene in
  Alcotest.(check bool)
    (Printf.sprintf "eip (%.1fms) >= 10x sip (%.3fms)" (eip *. 1e3) (sip *. 1e3))
    true
    (eip > 10. *. sip)

let test_pipe_throughput_ordering () =
  let _, sip, _ = H.run_pipe ~total:(1 lsl 17) ~bufsz:4096 H.Occlum in
  let _, eip, _ = H.run_pipe ~total:(1 lsl 17) ~bufsz:4096 H.Graphene in
  Alcotest.(check bool)
    (Printf.sprintf "sip %.0f MB/s > 2x eip %.0f MB/s" sip eip)
    true (sip > 2. *. eip)

let test_sefs_vs_ext4_overhead () =
  let occlum, _ = H.run_file_io ~total:(1 lsl 18) ~bufsz:4096 ~write:false H.Occlum in
  let linux, _ = H.run_file_io ~total:(1 lsl 18) ~bufsz:4096 ~write:false H.Linux in
  let overhead = 1. -. (occlum /. linux) in
  Alcotest.(check bool)
    (Printf.sprintf "read overhead %.0f%% in (10%%, 70%%)" (overhead *. 100.))
    true
    (overhead > 0.10 && overhead < 0.70)

let test_spec_overhead_positive () =
  List.iter
    (fun (name, prog) ->
      let cycles config =
        (H.run_bare (Occlum_toolchain.Compile.compile_exn ~config prog)).cpu
          .cycles
      in
      let base = cycles Occlum_toolchain.Codegen.bare in
      let inst = cycles Occlum_toolchain.Codegen.sfi in
      Alcotest.(check bool) (name ^ " overhead >= 0") true (inst >= base);
      let naive = cycles Occlum_toolchain.Codegen.sfi_naive in
      Alcotest.(check bool) (name ^ " optimizer helps") true (inst <= naive))
    (Occlum_workloads.Spec.all ~scale:1)

(* Fig. 7's counters, pinned: every SPEC kernel at scale 1 under the
   builds of Fig. 7a and the guard-elision table, as (exit, cycles,
   insns, loads, stores, bound checks, stdout). The values were recorded
   with the dedicated bare-machine runner that bare runs replaced, so a
   bare run as a Linux-mode process reproduces Fig. 7 exactly. *)
let fig7_pins =
  [
    ("bare", "perlbench", (0, 1090866, 405935, 77920, 41031, 0, "482214\n"));
    ("bare", "bzip2", (0, 2968132, 1625753, 330004, 121122, 0, "29265\n"));
    ("bare", "gcc", (0, 5920554, 2617987, 508038, 221297, 0, "476346\n"));
    ("bare", "mcf", (0, 4559558, 2426490, 546889, 273570, 0, "61786\n"));
    ("bare", "gobmk", (0, 1053962, 556331, 109974, 34345, 0, "876361\n"));
    ("bare", "hmmer", (0, 4459330, 2163112, 491378, 132710, 0, "12226\n"));
    ("bare", "sjeng", (0, 1006327, 446892, 113444, 71114, 0, "100320\n"));
    ("bare", "libquantum", (0, 1590722, 672237, 163948, 98395, 0, "2048\n"));
    ("bare", "h264ref", (0, 2154483, 1027681, 278651, 83816, 0, "33736\n"));
    ("bare", "omnetpp", (0, 3377242, 1822840, 380088, 135481, 0, "994741\n"));
    ("bare", "astar", (0, 2945993, 1571066, 370368, 124071, 0, "438\n"));
    ("bare", "xalancbmk", (0, 979590, 424043, 71702, 38945, 0, "898132\n"));
    ("sfi", "perlbench", (0, 1091248, 406101, 77937, 41034, 104, "482214\n"));
    ("sfi", "bzip2", (0, 3369761, 1826545, 330018, 121125, 200746, "29265\n"));
    ("sfi", "gcc", (0, 6478213, 2896777, 508066, 221300, 278680, "476346\n"));
    ("sfi", "mcf", (0, 5287729, 2790490, 546945, 273573, 363786, "61786\n"));
    ("sfi", "gobmk", (0, 1170525, 614553, 110018, 34348, 58040, "876361\n"));
    ("sfi", "hmmer", (0, 4851749, 2359302, 491390, 132713, 196152, "12226\n"));
    ("sfi", "sjeng", (0, 1268658, 567117, 124377, 71117, 65582, "100320\n"));
    ("sfi", "libquantum", (0, 1591165, 672431, 163968, 98398, 116, "2048\n"));
    ("sfi", "h264ref", (0, 2324713, 1112519, 278920, 83819, 83516, "33736\n"));
    ("sfi", "omnetpp", (0, 3933913, 2095556, 384900, 135484, 250278, "994741\n"));
    ("sfi", "astar", (0, 3282096, 1739098, 370380, 124074, 167994, "438\n"));
    ("sfi", "xalancbmk", (0, 1151801, 506033, 75810, 38948, 61472, "898132\n"));
    ("sfi_naive", "perlbench", (0, 1566916, 643935, 77937, 41034, 237938, "482214\n"));
    ("sfi_naive", "bzip2", (0, 4772833, 2528081, 330018, 121125, 902282, "29265\n"));
    ("sfi_naive", "gcc", (0, 8838309, 4076825, 508066, 221300, 1458728, "476346\n"));
    ("sfi_naive", "mcf", (0, 7842221, 4067736, 546945, 273573, 1641032, "61786\n"));
    ("sfi_naive", "gobmk", (0, 1631901, 845241, 110018, 34348, 288728, "876361\n"));
    ("sfi_naive", "hmmer", (0, 6955849, 3411352, 491390, 132713, 1248202, "12226\n"));
    ("sfi_naive", "sjeng", (0, 1919462, 892519, 124377, 71117, 390984, "100320\n"));
    ("sfi_naive", "libquantum", (0, 2640389, 1197043, 163968, 98398, 524728, "2048\n"));
    ("sfi_naive", "h264ref", (0, 3608629, 1754477, 278920, 83819, 725474, "33736\n"));
    ("sfi_naive", "omnetpp", (0, 5514885, 2886042, 384900, 135484, 1040764, "994741\n"));
    ("sfi_naive", "astar", (0, 4923916, 2560008, 370380, 124074, 988904, "438\n"));
    ("sfi_naive", "xalancbmk", (0, 1487881, 674073, 75810, 38948, 229512, "898132\n"));
  ]

let test_fig7_counters_pinned () =
  let configs =
    Occlum_toolchain.Codegen.
      [ ("bare", bare); ("sfi", sfi); ("sfi_naive", sfi_naive) ]
  in
  let kernels = Occlum_workloads.Spec.all ~scale:1 in
  Alcotest.(check int) "one pin per kernel and build"
    (List.length configs * List.length kernels)
    (List.length fig7_pins);
  List.iter
    (fun (cname, kname, pinned) ->
      let r =
        H.run_bare
          (Occlum_toolchain.Compile.compile_exn
             ~config:(List.assoc cname configs) (List.assoc kname kernels))
      in
      Alcotest.check Test_jit.bare_summary (cname ^ "/" ^ kname) pinned
        (Test_jit.bare_row r))
    fig7_pins

(* A write whose end wraps past the top of the address space is EFAULT,
   as for any SIP: [write(1, buf, 2^62 - 1)] returns -14, and the bare
   process exits with it. *)
let test_bare_write_huge_len_efault () =
  let open Occlum_toolchain.Ast in
  let prog =
    Occlum_toolchain.Runtime.program
      ~globals:[ ("buf", 64) ]
      [
        func "main" []
          [
            Return
              (Syscall
                 ( Occlum_abi.Abi.Sys.write,
                   [ Int 1L; Global_addr "buf"; Int (Int64.of_int max_int) ] ));
          ];
      ]
  in
  let r =
    H.run_bare
      (Occlum_toolchain.Compile.compile_exn
         ~config:Occlum_toolchain.Codegen.bare prog)
  in
  Alcotest.(check bool) "no fault" true (r.fault = None);
  Alcotest.(check int) "EFAULT" Occlum_abi.Abi.Errno.efault r.exit_code;
  Alcotest.(check string) "nothing written" "" r.stdout

let suite =
  [
    Alcotest.test_case "fish on all systems" `Slow test_fish_all_systems;
    Alcotest.test_case "gcc on all systems" `Slow test_gcc_all_systems;
    Alcotest.test_case "httpd on all systems" `Slow test_httpd_all_systems;
    Alcotest.test_case "httpd multithreaded (threads+poll)" `Slow
      test_httpd_multithreaded;
    Alcotest.test_case "gcc artifact persisted on SEFS" `Quick
      test_gcc_output_persisted;
    Alcotest.test_case "spawn cost: EIP >> SIP" `Slow test_spawn_cost_ordering;
    Alcotest.test_case "pipe throughput: SIP >> EIP" `Quick
      test_pipe_throughput_ordering;
    Alcotest.test_case "SEFS read overhead in band" `Quick test_sefs_vs_ext4_overhead;
    Alcotest.test_case "SPEC kernels: overhead sign and optimizer" `Slow
      test_spec_overhead_positive;
    Alcotest.test_case "SPEC kernels: Fig 7 counters pinned" `Slow
      test_fig7_counters_pinned;
    Alcotest.test_case "bare write of a wrapping length is EFAULT" `Quick
      test_bare_write_huge_len_efault;
  ]
