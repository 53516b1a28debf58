(* SGX model tests: EPC accounting, enclave lifecycle and measurement,
   the SGX1 post-EINIT restriction, AEX/SSA, and local attestation. *)

open Occlum_sgx
open Occlum_machine

let page = 4096

let test_epc_accounting () =
  let epc = Epc.create ~size:(16 * page) () in
  Alcotest.(check int) "all free" 16 (Epc.free_pages epc);
  Epc.alloc epc ~pages:10;
  Alcotest.(check int) "used" 10 (Epc.used_pages epc);
  Epc.release epc ~pages:4;
  Alcotest.(check int) "released" 10 (Epc.free_pages epc);
  Alcotest.check_raises "oom" Epc.Out_of_epc (fun () -> Epc.alloc epc ~pages:11);
  Alcotest.check_raises "over-release" (Invalid_argument "Epc.release") (fun () ->
      Epc.release epc ~pages:100)

let build_enclave ?(content = "hello enclave") () =
  let epc = Epc.create ~size:(64 * page) () in
  let e = Enclave.create ~epc ~size:(8 * page) () in
  let data = Bytes.make page ' ' in
  Bytes.blit_string content 0 data 0 (String.length content);
  Enclave.add_pages e ~addr:0 ~data ~perm:Mem.perm_rx;
  Enclave.add_zero_pages e ~addr:page ~len:page ~perm:Mem.perm_rw;
  Enclave.init e;
  (epc, e)

let test_measurement_deterministic () =
  let _, e1 = build_enclave () in
  let _, e2 = build_enclave () in
  Alcotest.(check string) "same content, same measurement"
    (Occlum_util.Sha256.to_hex (Enclave.measurement e1))
    (Occlum_util.Sha256.to_hex (Enclave.measurement e2))

let test_measurement_sensitive () =
  let _, e1 = build_enclave () in
  let _, e2 = build_enclave ~content:"Hello enclave" () in
  Alcotest.(check bool) "different content, different measurement" true
    (Enclave.measurement e1 <> Enclave.measurement e2)

let test_sgx1_restriction () =
  let _, e = build_enclave () in
  Alcotest.(check bool) "initialized" true (Enclave.initialized e);
  (try
     Enclave.add_pages e ~addr:(2 * page) ~data:(Bytes.make page 'x')
       ~perm:Mem.perm_rw;
     Alcotest.fail "add_pages after EINIT must raise"
   with Enclave.Sgx1_restriction _ -> ());
  (try
     Enclave.remap e ~addr:0 ~len:page ~perm:Mem.perm_rwx;
     Alcotest.fail "remap after EINIT must raise"
   with Enclave.Sgx1_restriction _ -> ())

let test_measure_before_init () =
  let epc = Epc.create ~size:(64 * page) () in
  let e = Enclave.create ~epc ~size:(8 * page) () in
  Alcotest.check_raises "no measurement before EINIT"
    (Invalid_argument "measurement: enclave not initialized") (fun () ->
      ignore (Enclave.measurement e))

let test_destroy_releases_epc () =
  let epc = Epc.create ~size:(64 * page) () in
  let e = Enclave.create ~epc ~size:(8 * page) () in
  Alcotest.(check int) "consumed" 8 (Epc.used_pages epc);
  Enclave.init e;
  Enclave.destroy e;
  Alcotest.(check int) "released" 0 (Epc.used_pages epc);
  (* destroy is idempotent: a second teardown is a no-op, not a
     double-release into the pool *)
  Enclave.destroy e;
  Alcotest.(check int) "still released" 0 (Epc.used_pages epc)

let test_aex_restores_bounds () =
  (* §2.3: bound registers are saved on AEX and restored on resume *)
  let _, e = build_enclave () in
  let cpu = Cpu.create () in
  Cpu.set_bnd cpu Occlum_isa.Reg.bnd0 { lower = 10L; upper = 20L };
  Cpu.set cpu Occlum_isa.Reg.r1 77L;
  Enclave.aex e cpu;
  (* the OS scribbles over everything while we're out *)
  Cpu.set_bnd cpu Occlum_isa.Reg.bnd0 { lower = 0L; upper = 0L };
  Cpu.set cpu Occlum_isa.Reg.r1 0L;
  Enclave.resume e cpu;
  Alcotest.(check bool) "bnd0 restored" true
    (Cpu.get_bnd cpu Occlum_isa.Reg.bnd0 = { Cpu.lower = 10L; upper = 20L });
  Alcotest.(check int64) "gpr restored" 77L (Cpu.get cpu Occlum_isa.Reg.r1);
  Alcotest.check_raises "resume without aex"
    (Invalid_argument "resume: no saved state in SSA") (fun () ->
      Enclave.resume e cpu)

let test_aex_full_bit_identity () =
  (* §2.3 orderliness: EVERY piece of architectural state — all GPRs,
     all four MPX bound registers, the pc and the comparison flags —
     must survive an aex/resume round trip bit-identically, no matter
     what the host scribbles in between *)
  let _, e = build_enclave () in
  let cpu = Cpu.create () in
  for i = 0 to Occlum_isa.Reg.count - 1 do
    Cpu.set cpu (Occlum_isa.Reg.of_int i) (Int64.of_int ((i * 7919) + 13))
  done;
  for i = 0 to Occlum_isa.Reg.bnd_count - 1 do
    Cpu.set_bnd cpu
      (Occlum_isa.Reg.bnd_of_int i)
      { Cpu.lower = Int64.of_int (i * 11); upper = Int64.of_int ((i * 11) + 5) }
  done;
  cpu.Cpu.pc <- 0x1234;
  cpu.Cpu.flag_eq <- true;
  cpu.Cpu.flag_lt <- false;
  let regs = Bytes.copy cpu.Cpu.regs and bnds = Array.copy cpu.Cpu.bnds in
  Enclave.aex ~reason:"test" e cpu;
  for i = 0 to Occlum_isa.Reg.count - 1 do
    Cpu.set cpu (Occlum_isa.Reg.of_int i) (-1L)
  done;
  for i = 0 to Occlum_isa.Reg.bnd_count - 1 do
    Cpu.set_bnd cpu
      (Occlum_isa.Reg.bnd_of_int i)
      { Cpu.lower = -1L; upper = -1L }
  done;
  cpu.Cpu.pc <- 0;
  cpu.Cpu.flag_eq <- false;
  cpu.Cpu.flag_lt <- true;
  Enclave.resume e cpu;
  Alcotest.(check bool) "all GPRs restored" true (Bytes.equal cpu.Cpu.regs regs);
  Alcotest.(check bool) "all bound registers restored" true
    (cpu.Cpu.bnds = bnds);
  Alcotest.(check int) "pc restored" 0x1234 cpu.Cpu.pc;
  Alcotest.(check bool) "flag_eq restored" true cpu.Cpu.flag_eq;
  Alcotest.(check bool) "flag_lt restored" false cpu.Cpu.flag_lt

let test_epc_failure_mid_build () =
  (* regression: EADD running the EPC dry halfway through enclave
     construction must leave the pool balanced and the partial enclave
     queryable; destroy must give back exactly what was charged *)
  let epc = Epc.create ~size:(64 * page) () in
  (* the third allocation from this pool fails, once *)
  let inj = Occlum_fuzzing.Inject.make () in
  Occlum_fuzzing.Inject.arm_epc inj epc ~at:3 (fun () ->
      let e = Enclave.create ~version:Enclave.Sgx2 ~epc ~size:(16 * page) () in
      Enclave.add_pages e ~addr:0 ~data:(Bytes.make page 'c')
        ~perm:Mem.perm_rx;
      Alcotest.check_raises "EADD hits the dry pool" Epc.Out_of_epc (fun () ->
          Enclave.add_zero_pages e ~addr:page ~len:page ~perm:Mem.perm_rw);
      Alcotest.(check int) "only the committed page is charged" 1
        (Epc.used_pages epc);
      Alcotest.(check int) "pool stays balanced" 64
        (Epc.free_pages epc + Epc.used_pages epc);
      Alcotest.(check bool) "partial enclave is queryable" true
        (Enclave.id e > 0);
      Alcotest.(check bool) "partial enclave never initialized" false
        (Enclave.initialized e);
      Enclave.destroy e;
      Alcotest.(check int) "destroy restores the pool exactly" 64
        (Epc.free_pages epc));
  Alcotest.(check int) "one failure injected" 1 inj.Occlum_fuzzing.Inject.epc

let test_attestation () =
  let _, parent = build_enclave () in
  let _, child = build_enclave ~content:"other" () in
  let r = Attestation.report ~enclave:parent ~user_data:"nonce1" in
  Alcotest.(check bool) "report verifies" true (Attestation.verify r);
  let bad = { r with Attestation.body = r.Attestation.body ^ "x" } in
  Alcotest.(check bool) "tampered report rejected" false (Attestation.verify bad);
  (match Attestation.handshake ~parent ~child ~nonce:"n0" with
  | Ok key -> Alcotest.(check int) "session key size" 32 (String.length key)
  | Error m -> Alcotest.fail m);
  (* handshakes with different nonces derive different keys *)
  match
    ( Attestation.handshake ~parent ~child ~nonce:"n1",
      Attestation.handshake ~parent ~child ~nonce:"n2" )
  with
  | Ok k1, Ok k2 -> Alcotest.(check bool) "distinct keys" true (k1 <> k2)
  | _ -> Alcotest.fail "handshake failed"

let test_sgx2_edmm () =
  let epc = Epc.create ~size:(64 * page) () in
  let e = Enclave.create ~version:Enclave.Sgx2 ~epc ~size:(32 * page) () in
  (* SGX2 reserves address space without committing EPC *)
  Alcotest.(check int) "no EPC at create" 0 (Epc.used_pages epc);
  Enclave.add_pages e ~addr:0 ~data:(Bytes.make page 'c') ~perm:Mem.perm_rx;
  Alcotest.(check int) "EPC per page" 1 (Epc.used_pages epc);
  Enclave.init e;
  (* dynamic commit after EINIT *)
  Enclave.eaug e ~addr:(4 * page) ~len:(2 * page) ~perm:Mem.perm_rw;
  Alcotest.(check int) "EAUG charged" 3 (Epc.used_pages epc);
  Mem.write_u64_priv (Enclave.mem e) (4 * page) 7L;
  Enclave.eremove_pages e ~addr:(4 * page) ~len:(2 * page);
  Alcotest.(check int) "pages returned" 1 (Epc.used_pages epc);
  Alcotest.(check bool) "unmapped again" true
    (Mem.perm_at (Enclave.mem e) (4 * page) = None);
  (* re-EAUG: the page must come back zeroed *)
  Enclave.eaug e ~addr:(4 * page) ~len:page ~perm:Mem.perm_rw;
  Alcotest.(check int64) "zeroed" 0L (Mem.read_u64_priv (Enclave.mem e) (4 * page))

let test_sgx1_has_no_edmm () =
  let _, e = build_enclave () in
  (try
     Enclave.eaug e ~addr:(4 * page) ~len:page ~perm:Mem.perm_rw;
     Alcotest.fail "eaug on SGX1 must raise"
   with Enclave.Sgx1_restriction _ -> ());
  try
    Enclave.eremove_pages e ~addr:0 ~len:page;
    Alcotest.fail "eremove on SGX1 must raise"
  with Enclave.Sgx1_restriction _ -> ()

(* --- EPC demand paging --------------------------------------------------- *)

let paged_enclave ~pool_pages ~data_pages =
  let epc = Epc.create ~size:(pool_pages * page) () in
  Epc.enable_paging epc;
  let e = Enclave.create ~epc ~size:(16 * page) () in
  let pat i = Bytes.make page (Char.chr (0x30 + i)) in
  for i = 0 to data_pages - 1 do
    Enclave.add_pages e ~addr:(i * page) ~data:(pat i) ~perm:Mem.perm_rw
  done;
  Enclave.init e;
  (epc, e, pat)

let test_paging_zfod_and_evict_reload () =
  let epc = Epc.create ~size:(8 * page) () in
  Epc.enable_paging epc;
  let e = Enclave.create ~epc ~size:(16 * page) () in
  (* ZFOD: ECREATE commits nothing; pages are charged at first touch *)
  Alcotest.(check int) "nothing committed at ECREATE" 0 (Epc.used_pages epc);
  let pat i = Bytes.make page (Char.chr (0x30 + i)) in
  for i = 0 to 5 do
    Enclave.add_pages e ~addr:(i * page) ~data:(pat i) ~perm:Mem.perm_rw
  done;
  Enclave.init e;
  Alcotest.(check int) "committed on touch" 6 (Epc.used_pages epc);
  let cid = Enclave.id e in
  Alcotest.(check bool) "evict" true (Epc.evict_page epc ~cid ~page:3);
  Alcotest.(check int) "frame freed" 5 (Epc.used_pages epc);
  Alcotest.(check int) "sealed copy written" 1 (Epc.backing_used epc);
  Alcotest.(check bool) "page non-resident" false
    (Mem.page_resident (Enclave.mem e) 3);
  Epc.eldu epc ~cid ~page:3;
  Alcotest.(check bytes) "reload bit-identical" (pat 3)
    (Mem.read_bytes_priv (Enclave.mem e) ~addr:(3 * page) ~len:page);
  (match Epc.paging_stats epc with
  | Some s ->
      Alcotest.(check int) "one ewb" 1 s.Epc.ewb;
      Alcotest.(check int) "one eldu" 1 s.Epc.eldu;
      Alcotest.(check bool) "reload work charged" true (s.Epc.paging_cycles > 0)
  | None -> Alcotest.fail "paging stats missing");
  Enclave.destroy e;
  Enclave.destroy e (* idempotent under paging too *);
  Alcotest.(check int) "all frames returned" 0 (Epc.used_pages epc);
  Alcotest.(check int) "backing store drained" 0 (Epc.backing_used epc)

let test_paging_pressure_overcommit () =
  (* a working set twice the pool: the reclaimer pages in and out
     transparently through the privileged accessors, bit-identically *)
  let epc, e, pat = paged_enclave ~pool_pages:6 ~data_pages:12 in
  Alcotest.(check bool) "pool capped" true (Epc.used_pages epc <= 6);
  (match Epc.paging_stats epc with
  | Some s -> Alcotest.(check bool) "evictions happened" true (s.Epc.ewb > 0)
  | None -> Alcotest.fail "paging stats missing");
  for i = 0 to 11 do
    Alcotest.(check bytes)
      (Printf.sprintf "page %d intact" i)
      (pat i)
      (Mem.read_bytes_priv (Enclave.mem e) ~addr:(i * page) ~len:page)
  done;
  Enclave.destroy e;
  Alcotest.(check int) "drained" 0 (Epc.used_pages epc)

let test_paging_tamper_and_rollback_hard_fault () =
  let epc, e, pat = paged_enclave ~pool_pages:8 ~data_pages:6 in
  let cid = Enclave.id e in
  (* MAC tamper *)
  Alcotest.(check bool) "evict t" true (Epc.evict_page epc ~cid ~page:1);
  Alcotest.(check bool) "tamper" true (Epc.backing_tamper epc ~cid ~page:1);
  Alcotest.check_raises "tampered page is a hard fault"
    (Epc.Integrity_violation { cid; page = 1 }) (fun () ->
      Epc.eldu epc ~cid ~page:1);
  (* rollback: replay the version-1 sealed copy after a version-2 evict *)
  Alcotest.(check bool) "evict r" true (Epc.evict_page epc ~cid ~page:2);
  let old =
    match Epc.backing_snapshot epc ~cid ~page:2 with
    | Some c -> c
    | None -> Alcotest.fail "no sealed copy"
  in
  Epc.eldu epc ~cid ~page:2;
  Alcotest.(check bool) "evict r2" true (Epc.evict_page epc ~cid ~page:2);
  Epc.backing_restore epc ~cid ~page:2 old;
  Alcotest.check_raises "rolled-back page is a hard fault"
    (Epc.Integrity_violation { cid; page = 2 }) (fun () ->
      Epc.eldu epc ~cid ~page:2);
  (match Epc.paging_stats epc with
  | Some s -> Alcotest.(check int) "both rejections counted" 2 s.Epc.integrity_failures
  | None -> Alcotest.fail "paging stats missing");
  (* an untouched page still reloads cleanly *)
  Alcotest.(check bool) "evict c" true (Epc.evict_page epc ~cid ~page:4);
  Epc.eldu epc ~cid ~page:4;
  Alcotest.(check bytes) "clean page intact" (pat 4)
    (Mem.read_bytes_priv (Enclave.mem e) ~addr:(4 * page) ~len:page);
  Enclave.destroy e;
  Alcotest.(check int) "drained" 0 (Epc.used_pages epc);
  Alcotest.(check int) "backing drained" 0 (Epc.backing_used epc)

(* Two evictions must never share a ChaCha nonce under one key. Find two
   (cid, page, version) triples that collide under the 30-bit
   [Hashtbl.hash] (nonces were once derived from it) and check that
   their nonces still differ. *)
let test_ewb_nonce_unique () =
  let seen = Hashtbl.create 65536 in
  let rec search page version =
    let t = (1, page, version) in
    let h = Hashtbl.hash t in
    match Hashtbl.find_opt seen h with
    | Some t' -> (t', t)
    | None ->
        Hashtbl.add seen h t;
        if version < 64 then search page (version + 1) else search (page + 1) 1
  in
  let (c1, p1, v1), (c2, p2, v2) = search 0 1 in
  Alcotest.(check bool) "distinct triples" true ((c1, p1, v1) <> (c2, p2, v2));
  Alcotest.(check bool)
    (Printf.sprintf "nonces of (%d,%d,%d) and (%d,%d,%d) differ" c1 p1 v1 c2
       p2 v2)
    false
    (String.equal (Epc.entry_nonce c1 p1 v1) (Epc.entry_nonce c2 p2 v2))

let suite =
  [
    Alcotest.test_case "epc accounting" `Quick test_epc_accounting;
    Alcotest.test_case "paging: zfod + evict/reload" `Quick
      test_paging_zfod_and_evict_reload;
    Alcotest.test_case "paging: overcommit pressure" `Quick
      test_paging_pressure_overcommit;
    Alcotest.test_case "paging: tamper/rollback hard fault" `Quick
      test_paging_tamper_and_rollback_hard_fault;
    Alcotest.test_case "sgx2 edmm" `Quick test_sgx2_edmm;
    Alcotest.test_case "sgx1 has no edmm" `Quick test_sgx1_has_no_edmm;
    Alcotest.test_case "measurement determinism" `Quick test_measurement_deterministic;
    Alcotest.test_case "measurement sensitivity" `Quick test_measurement_sensitive;
    Alcotest.test_case "sgx1 post-init restriction" `Quick test_sgx1_restriction;
    Alcotest.test_case "measurement needs EINIT" `Quick test_measure_before_init;
    Alcotest.test_case "destroy releases epc" `Quick test_destroy_releases_epc;
    Alcotest.test_case "aex saves/restores bounds" `Quick test_aex_restores_bounds;
    Alcotest.test_case "aex full bit-identity" `Quick test_aex_full_bit_identity;
    Alcotest.test_case "epc failure mid-build" `Quick test_epc_failure_mid_build;
    Alcotest.test_case "local attestation" `Quick test_attestation;
    Alcotest.test_case "ewb nonces unique" `Quick test_ewb_nonce_unique;
  ]
