(* The fuzzing subsystem's own tests: bit-reproducibility of reports,
   the cross-layer properties at acceptance volume (500 cases each
   under an interrupt storm), the codec exhaustive round-trip, a
   mutation test proving a deliberately broken guard is caught and
   auto-shrunk, AEX interposition between a guard and its guarded
   access, LibOS EPC-pressure behavior, replay of the checked-in
   minimized corpus, injection totals pinned per property, and one
   planted defect per part of the lockstep engine. *)

open Occlum_isa
open Occlum_fuzzing
module R = Occlum_toolchain.Codegen_regs
module Asm = Occlum_toolchain.Asm
module Layout = Occlum_toolchain.Layout
module Os = Occlum_libos.Os
module Epc = Occlum_sgx.Epc
module Errno = Occlum_abi.Abi.Errno
module Cpu = Occlum_machine.Cpu
module Mem = Occlum_machine.Mem

(* --- report determinism ---------------------------------------------------- *)

let test_determinism () =
  let json () =
    Check.report_to_json (Check.run ~seed:7L ~cases:40 ())
  in
  Alcotest.(check string) "same seed, bit-identical report" (json ()) (json ())

let test_distinct_seeds () =
  (* different seeds must actually explore different programs: the AEX
     injection totals (a function of generated program shapes) differ *)
  let aex seed =
    (Check.run ~properties:[ Check.Jit_equivalence ] ~seed ~cases:40 ())
      .Check.injected.Inject.aex
  in
  Alcotest.(check bool) "seeds diverge" true (aex 1L <> aex 2L)

(* The fuzzer's schedules, pinned: per-property injection totals at
   seed 7, 40 cases. They change only if a property's interrupt, EPC or
   I/O plan changes, so a refactor of the fuzzer must leave them
   alone. *)
let test_schedule_pins () =
  List.iter
    (fun (prop, want) ->
      let r = Check.run ~properties:[ prop ] ~seed:7L ~cases:40 () in
      let inj = r.Check.injected in
      Alcotest.(check (triple int int int))
        (Check.property_name prop ^ " aex/epc/io")
        want
        (inj.Inject.aex, inj.Inject.epc, inj.Inject.io))
    [
      (Check.Verifier_soundness, (36301, 0, 0));
      (Check.Aex_identity, (14619, 0, 0));
      (Check.Epc_pressure, (12, 17, 50));
      (Check.Guard_elide, (65324, 0, 0));
      (Check.Jit_equivalence, (30501, 0, 0));
    ];
  let inj = (Check.run ~seed:7L ~cases:40 ()).Check.injected in
  Alcotest.(check (list int)) "whole-run aex/epc/io/chan" [ 146757; 17; 50; 32 ]
    [ inj.Inject.aex; inj.Inject.epc; inj.Inject.io; inj.Inject.chan ]

(* --- the eight properties at acceptance volume ----------------------------- *)

let test_all_properties_500 () =
  let reg = Occlum_obs.Metrics.create () in
  let report = Check.run ~metrics:reg ~seed:42L ~cases:500 () in
  List.iter
    (fun (r : Check.prop_result) ->
      Alcotest.(check int)
        (Check.property_name r.Check.rprop ^ " failures")
        0
        (List.length r.Check.failures))
    report.Check.results;
  Alcotest.(check bool) "storm actually stormed" true
    (report.Check.injected.Inject.aex > 100_000);
  Alcotest.(check bool) "EPC faults injected" true
    (report.Check.injected.Inject.epc > 0);
  Alcotest.(check bool) "I/O faults injected" true
    (report.Check.injected.Inject.io > 0);
  Alcotest.(check bool) "channel faults injected" true
    (report.Check.injected.Inject.chan > 0);
  Alcotest.(check int) "fuzz.cases metric" (500 * 8)
    (Occlum_obs.Metrics.value (Occlum_obs.Metrics.counter reg "fuzz.cases"));
  Alcotest.(check int) "fuzz.failures metric" 0
    (Occlum_obs.Metrics.value (Occlum_obs.Metrics.counter reg "fuzz.failures"))

(* --- mutation test: a broken guard is caught and auto-shrunk --------------- *)

let d_size = Gen.layout.Layout.data_region_size

let test_broken_guard_caught_and_shrunk () =
  (* splice an unguarded store aimed one guard page past D — where the
     next SIP's domain sits — into an ordinary generated program *)
  let bad =
    Asm.Ins
      (Insn.Store
         {
           dst =
             Sib
               {
                 base = R.data_base;
                 index = None;
                 scale = 1;
                 disp = d_size + 4096 + 128;
               };
           src = Reg.r1;
           size = 8;
         })
  in
  let items =
    let rec splice = function
      | [] -> [ bad ]
      | Asm.Label "spin" :: rest -> bad :: Asm.Label "spin" :: rest
      | it :: rest -> it :: splice rest
    in
    splice (Gen.program (Rng.of_seed 1337L))
  in
  let escapes its =
    match Exec.run_contained (Exec.make (Gen.link its)) with
    | Error _ -> true
    | Ok _ -> false
  in
  (* the runtime containment check catches it even with the verifier
     bypassed entirely... *)
  Alcotest.(check bool) "victim write detected" true (escapes items);
  (* ...the verifier rejects it statically... *)
  (match Occlum_verifier.Verify.verify (Gen.link items) with
  | Ok _ -> Alcotest.fail "verifier accepted an unguarded cross-SIP store"
  | Error _ -> ());
  (* ...and the minimizer reduces the reproducer to a handful of
     instructions (acceptance bar: <= 10) *)
  let small = Shrink.minimize escapes items in
  Alcotest.(check bool) "still failing after shrink" true (escapes small);
  let n = Shrink.instruction_count small in
  if n > 10 then
    Alcotest.failf "shrunk reproducer has %d instructions, want <= 10" n

(* --- codec: exhaustive shapes + byte-soup totality ------------------------- *)

let test_codec_exhaustive () =
  List.iter
    (fun i ->
      let enc = Bytes.of_string (Codec.encode i) in
      match Codec.decode enc ~pos:0 ~limit:(Bytes.length enc) with
      | Ok (i', len) when i' = i && len = Bytes.length enc -> ()
      | Ok (i', _) ->
          Alcotest.failf "round-trip broke: [%s] -> [%s]" (Insn.to_string i)
            (Insn.to_string i')
      | Error e ->
          Alcotest.failf "decode failed on [%s]: %s" (Insn.to_string i)
            (Codec.error_to_string e))
    Gen.all_insn_shapes;
  Alcotest.(check bool) "shape catalogue is substantial" true
    (List.length Gen.all_insn_shapes > 60)

let test_codec_soup_total () =
  let rng = Rng.of_seed 99L in
  for _ = 1 to 10_000 do
    let soup = Gen.byte_soup rng in
    let limit = Bytes.length soup in
    let pos = ref 0 in
    while !pos < limit do
      match Codec.decode soup ~pos:!pos ~limit with
      | Ok (i, n) ->
          Alcotest.(check bool) "positive length" true (n > 0);
          let enc = Bytes.of_string (Codec.encode i) in
          (match Codec.decode enc ~pos:0 ~limit:(Bytes.length enc) with
          | Ok (i', _) when i' = i -> ()
          | _ ->
              Alcotest.failf "soup-decoded [%s] does not re-round-trip"
                (Insn.to_string i));
          pos := !pos + n
      | Error _ -> incr pos
      | exception e ->
          Alcotest.failf "decode raised on soup: %s" (Printexc.to_string e)
    done
  done

(* --- AEX between a guard and its guarded access ---------------------------- *)

let test_aex_between_guard_and_access () =
  let g = Layout.header_size in
  let slot : Insn.mem =
    Sib { base = R.data_base; index = None; scale = 1; disp = g }
  in
  let items =
    [
      Asm.Label "_start";
      Asm.Cfi_label_here;
      Asm.Ins (Insn.Mov_imm (Reg.r1, 0x5EED5EEDL));
      Asm.Mem_guard slot;
      (* an AEX lands exactly here under the period-1 storm *)
      Asm.Ins (Insn.Store { dst = slot; src = Reg.r1; size = 8 });
      Asm.Label "spin";
      Asm.Jmp_l "spin";
    ]
  in
  let env = Exec.make (Gen.link items) in
  (* interrupt storm: an AEX + full scramble + resume at EVERY boundary,
     including between the bndcl/bndcu pair and the store they guard *)
  match Exec.run_contained ~fuel:64 ~interrupt:(fun () -> true) env with
  | Error v -> Alcotest.fail (Exec.violation_to_string v)
  | Ok _ ->
      Alcotest.(check int64) "guarded store landed after AEX storm"
        0x5EED5EEDL
        (Occlum_machine.Mem.read_u64_priv env.Exec.mem (env.Exec.d_base + g))

(* --- the lockstep engine: every part can fail ------------------------- *)

(* One planted defect per engine part, each substituted through the
   machine/perturbation interface; the engine must report every one. A
   refactor that compared a machine against itself fails these. *)

let expect_error ~wanted what = function
  | Ok _ -> Alcotest.failf "%s went undetected" what
  | Error d ->
      let n = String.length wanted in
      let rec found i =
        i + n <= String.length d && (String.sub d i n = wanted || found (i + 1))
      in
      if not (found 0) then Alcotest.failf "%s: wanted %S in %S" what wanted d

let gen_oelf seed = Gen.link (Gen.program (Rng.of_seed seed))

(* a schedule counting into a throwaway plan *)
let every period = Inject.interrupt_every (Inject.make ()) ~period

let preempting fires env =
  { (Exec.machine env) with interrupt = Some { Exec.fires; round_trip = None } }

let test_engine_bad_resume () =
  let flip env =
    Exec.round_trip ~scramble:None env;
    let cpu = env.Exec.cpu in
    Cpu.set cpu Reg.r3 (Int64.logxor (Cpu.get cpu Reg.r3) 1L)
  in
  let interrupt = Some { Exec.fires = every 1; round_trip = Some flip } in
  let env = Exec.make (gen_oelf 3L) in
  expect_error ~wanted:"aex/resume not bit-identical: r3" "a resume flipping r3"
    (Exec.lockstep ~differ:Identical ~fuel:500
       [ { (Exec.machine env) with interrupt } ])

let test_engine_schedule_off_by_one () =
  let oelf = gen_oelf 3L in
  let early =
    let n = ref 1 in
    fun () ->
      incr n;
      !n mod 5 = 0
  in
  expect_error ~wanted:"at preemption, machine 0 vs 1: 4 vs 3 instructions"
    "a twin schedule one boundary early"
    (Exec.lockstep ~differ:Identical ~fuel:500
       [
         preempting (every 5) (Exec.make oelf);
         preempting early (Exec.make oelf);
       ])

(* A pool far smaller than the enclave: EADD already evicts, so the run
   misses. *)
let paged_pair oelf =
  let pool = Epc.create ~size:(8 * Epc.page_size) () in
  Epc.enable_paging pool;
  let env = Exec.make ~epc:pool oelf in
  (pool, env, Exec.make oelf)

let test_engine_corrupting_pager () =
  let pool, env, twin = paged_pair (gen_oelf 11L) in
  let reloads = ref 0 in
  let reload env ~page =
    Exec.eldu pool env ~page;
    incr reloads;
    (* flip the reloaded page's last byte *)
    let addr = ((page + 1) * Epc.page_size) - 1 in
    let b = Mem.read_bytes_priv env.Exec.mem ~addr ~len:1 in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Mem.write_bytes_priv env.Exec.mem ~addr b
  in
  let pager = { Exec.reload; aex = None; retry_spends_fuel = false } in
  expect_error ~wanted:"region bytes" "a pager corrupting reloaded bytes"
    (Exec.lockstep ~differ:Paging ~fuel:1200
       [ { (Exec.machine env) with pager = Some pager }; Exec.machine twin ]);
  Alcotest.(check bool) "the run missed" true (!reloads > 0)

let test_engine_one_sided_smc () =
  let oelf = gen_oelf 3L in
  (* overwrite one code byte, in the first machine only *)
  let perturb () =
    let first = ref true in
    fun env ->
      if !first then begin
        first := false;
        let addr = env.Exec.code_base + Occlum_oelf.Oelf.trampoline_reserved in
        Mem.write_bytes_priv env.Exec.mem ~addr (Bytes.make 1 '\xff')
      end
  in
  expect_error ~wanted:"code region bytes" "an SMC flip on one machine only"
    (Exec.lockstep ~differ:Identical ~fuel:500 ~perturb
       [
         preempting (every 3) (Exec.make oelf);
         preempting (every 3) (Exec.make oelf);
       ])

let test_engine_elided_store_changed () =
  let g = Layout.header_size in
  let slot : Insn.mem =
    Sib { base = R.data_base; index = None; scale = 1; disp = g }
  in
  let program src =
    Gen.link
      [
        Asm.Label "_start";
        Asm.Cfi_label_here;
        Asm.Ins (Insn.Mov_imm (Reg.r1, 0x5EEDL));
        Asm.Mem_guard slot;
        Asm.Ins (Insn.Store { dst = slot; src; size = 8 });
        Asm.Ins Insn.Hlt;
      ]
  in
  expect_error ~wanted:"data region bytes" "an elided binary storing r2 for r1"
    (Exec.lockstep ~differ:Layout ~fuel:500
       [
         Exec.machine (Exec.make (program Reg.r1));
         Exec.machine (Exec.make (program Reg.r2));
       ])

(* A pager that never makes the page resident must fail the case with a
   typed detail instead of retrying forever. *)
let test_engine_pager_no_progress () =
  let _, env, twin = paged_pair (gen_oelf 11L) in
  let pager =
    let reload _ ~page:_ = () in
    { Exec.reload; aex = None; retry_spends_fuel = false }
  in
  expect_error ~wanted:"pager made no progress at pc 0x" "a pager skipping ELDU"
    (Exec.lockstep ~differ:Paging ~fuel:1200
       [ { (Exec.machine env) with pager = Some pager }; Exec.machine twin ])

(* --- LibOS under EPC pressure ---------------------------------------------- *)

let tiny_signed =
  lazy
    (let module T = Occlum_toolchain in
     let prog =
       T.Runtime.program [ T.Ast.func "main" [] [ T.Ast.Return (T.Ast.i 0) ] ]
     in
     let oelf = T.Compile.compile_exn ~config:T.Codegen.sfi prog in
     match Occlum_verifier.Verify.verify_and_sign oelf with
     | Ok s -> s
     | Error _ -> Alcotest.fail "tiny binary rejected")

let test_spawn_epc_pressure () =
  let config = { Os.default_config with Os.sgx2 = true } in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/t" (Lazy.force tiny_signed);
  let free0 = Epc.free_pages os.Os.epc in
  let inj = Inject.make () in
  Inject.arm_epc inj ~at:1;
  Fun.protect ~finally:Inject.disarm (fun () ->
      match Os.spawn os ~parent_pid:0 ~path:"/bin/t" ~args:[] with
      | _ -> Alcotest.fail "spawn under EPC exhaustion must fail"
      | exception Os.Spawn_error e ->
          Alcotest.(check int) "clean ENOMEM" Errno.enomem e);
  Alcotest.(check int) "no EPC leaked by the failed spawn" free0
    (Epc.free_pages os.Os.epc);
  (* the LibOS must remain fully functional once the pressure is gone *)
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/t" ~args:[] in
  (match Os.wait_pid_exit ~max_steps:10_000 os pid with
  | Os.All_exited -> ()
  | _ -> Alcotest.fail "recovered spawn did not run to exit");
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "exit code" 0 p.Os.exit_code
  | None -> ());
  Alcotest.(check int) "EPC returned after exit" free0
    (Epc.free_pages os.Os.epc)

(* --- corpus: the checked-in minimized reproducers replay clean ------------- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fuzz")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus is seeded (%d files)" (List.length files))
    true
    (List.length files >= 8);
  List.iter
    (fun file ->
      (* the cluster-orderliness corpus carries lifecycle transitions,
         not instructions; it has its own format and replayer *)
      if Filename.basename file = "gen-cluster-orderliness.fuzz" then begin
        match Check.replay_orderliness file with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" file e
      end
      else
        match Corpus.load file with
        | Error e -> Alcotest.failf "%s does not parse: %s" file e
        | Ok items -> (
            match Check.replay_items items with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" file e))
    files

let test_corpus_format_roundtrip () =
  let items = Gen.program (Rng.of_seed 5L) in
  match Corpus.of_string (Corpus.to_string ~comment:"round\ntrip" items) with
  | Error e -> Alcotest.fail e
  | Ok items' ->
      Alcotest.(check bool) "corpus text format round-trips" true
        (items = items')

let suite =
  [
    Alcotest.test_case "report determinism" `Quick test_determinism;
    Alcotest.test_case "distinct seeds explore" `Quick test_distinct_seeds;
    Alcotest.test_case "eight properties x 500 cases" `Quick
      test_all_properties_500;
    Alcotest.test_case "broken guard caught + shrunk <= 10" `Quick
      test_broken_guard_caught_and_shrunk;
    Alcotest.test_case "codec exhaustive shapes" `Quick test_codec_exhaustive;
    Alcotest.test_case "codec soup totality (10k)" `Quick test_codec_soup_total;
    Alcotest.test_case "aex between guard and access" `Quick
      test_aex_between_guard_and_access;
    Alcotest.test_case "spawn under EPC pressure" `Quick
      test_spawn_epc_pressure;
    Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    Alcotest.test_case "corpus format round-trip" `Quick
      test_corpus_format_roundtrip;
    Alcotest.test_case "schedules pinned (seed 7, 40 cases)" `Quick
      test_schedule_pins;
    Alcotest.test_case "engine: bad resume caught" `Quick
      test_engine_bad_resume;
    Alcotest.test_case "engine: schedule off by one caught" `Quick
      test_engine_schedule_off_by_one;
    Alcotest.test_case "engine: corrupting pager caught" `Quick
      test_engine_corrupting_pager;
    Alcotest.test_case "engine: one-sided SMC caught" `Quick
      test_engine_one_sided_smc;
    Alcotest.test_case "engine: changed elided store caught" `Quick
      test_engine_elided_store_changed;
    Alcotest.test_case "engine: stuck pager fails typed" `Quick
      test_engine_pager_no_progress;
  ]
