let () =
  Alcotest.run "occlum"
    [
      ("util", Test_util.suite);
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("decode-cache", Test_decode_cache.suite);
      ("jit", Test_jit.suite);
      ("sgx", Test_sgx.suite);
      ("oelf", Test_oelf.suite);
      ("toolchain", Test_toolchain.suite);
      ("verifier", Test_verifier.suite);
      ("sefs", Test_sefs.suite);
      ("libos", Test_libos.suite);
      ("security", Test_security.suite);
      ("soundness", Test_soundness.suite);
      ("stress", Test_stress.suite);
      ("components", Test_components.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("analysis", Test_analysis.suite);
      ("cluster", Test_cluster.suite);
      ("fuzz", Test_fuzz.suite);
      ("serving", Test_serving.suite);
      ("multicore", Test_multicore.suite);
      ("golden", Test_golden.suite);
    ]
