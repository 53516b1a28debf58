open Occlum_isa
open Occlum_machine
open Occlum_toolchain
module Enclave = Occlum_sgx.Enclave
module Epc = Occlum_sgx.Epc
module Os = Occlum_libos.Os
module Sefs = Occlum_libos.Sefs
module Net = Occlum_libos.Net
module Errno = Occlum_abi.Abi.Errno
module Verify = Occlum_verifier.Verify
module Elide = Occlum_analysis.Elide
module Attestation = Occlum_sgx.Attestation
module Host_transport = Occlum_libos.Host_transport
module Lifecycle = Occlum_cluster.Lifecycle
module Cluster = Occlum_cluster.Cluster

type property =
  | Codec_roundtrip
  | Verifier_soundness
  | Aex_identity
  | Epc_pressure
  | Mc_determinism
  | Guard_elide
  | Jit_equivalence
  | Cluster_orderliness

let all_properties =
  [
    Codec_roundtrip; Verifier_soundness; Aex_identity; Epc_pressure;
    Mc_determinism; Guard_elide; Jit_equivalence; Cluster_orderliness;
  ]

let property_name = function
  | Codec_roundtrip -> "codec-roundtrip"
  | Verifier_soundness -> "verifier-soundness"
  | Aex_identity -> "aex-identity"
  | Epc_pressure -> "epc-pressure"
  | Mc_determinism -> "mc-determinism"
  | Guard_elide -> "guard-elide"
  | Jit_equivalence -> "jit-equivalence"
  | Cluster_orderliness -> "cluster-orderliness"

let property_of_name = function
  | "codec-roundtrip" -> Some Codec_roundtrip
  | "verifier-soundness" -> Some Verifier_soundness
  | "aex-identity" -> Some Aex_identity
  | "epc-pressure" -> Some Epc_pressure
  | "mc-determinism" -> Some Mc_determinism
  | "guard-elide" -> Some Guard_elide
  | "jit-equivalence" -> Some Jit_equivalence
  | "cluster-orderliness" -> Some Cluster_orderliness
  | _ -> None

(* Index 1 belonged to the retired cache-equivalence property; the
   others keep theirs, and with them their per-property seeds. *)
let property_index = function
  | Codec_roundtrip -> 0
  | Verifier_soundness -> 2
  | Aex_identity -> 3
  | Epc_pressure -> 4
  | Mc_determinism -> 5
  | Guard_elide -> 6
  | Jit_equivalence -> 7
  | Cluster_orderliness -> 8

type failure = {
  prop : property;
  case : int;
  detail : string;
  minimized : Asm.item list option;
}

type prop_result = {
  rprop : property;
  cases_run : int;
  failures : failure list;
}

type report = {
  seed : int64;
  cases : int;
  results : prop_result list;
  injected : Inject.t;
}

(* A failing differential case, shrunk (with a throwaway injection
   counter) under "the reproduction still fails". *)
let lockstep_failure prop shrink case items repro inj =
  match repro inj items with
  | Ok _ -> None
  | Error detail ->
      let minimized =
        if shrink then
          Some
            (Shrink.minimize
               (fun its -> Result.is_error (repro (Inject.make ()) its))
               items)
        else None
      in
      Some { prop; case; detail; minimized }

(* --- property: codec round-trip ----------------------------------------- *)

exception Diff of string

let codec_case rng =
  try
    let i = Gen.insn rng in
    let enc = Bytes.of_string (Codec.encode i) in
    (match Codec.decode enc ~pos:0 ~limit:(Bytes.length enc) with
    | Ok (i', len) when i' = i && len = Bytes.length enc -> ()
    | Ok (i', len) ->
        raise
          (Diff
             (Printf.sprintf "round-trip mismatch: [%s] decoded as [%s] (%d/%d bytes)"
                (Insn.to_string i) (Insn.to_string i') len (Bytes.length enc)))
    | Error e ->
        raise
          (Diff
             (Printf.sprintf "decode failed on encoded [%s]: %s"
                (Insn.to_string i) (Codec.error_to_string e))));
    (* decoding arbitrary bytes is total, and anything it decodes must
       itself round-trip (possibly to a shorter canonical encoding) *)
    let soup = Gen.byte_soup rng in
    let limit = Bytes.length soup in
    let pos = ref 0 in
    while !pos < limit do
      match Codec.decode soup ~pos:!pos ~limit with
      | Ok (i, n) ->
          if n <= 0 then raise (Diff "decode returned a non-positive length");
          let enc2 = Bytes.of_string (Codec.encode i) in
          (match Codec.decode enc2 ~pos:0 ~limit:(Bytes.length enc2) with
          | Ok (i2, l2) when i2 = i && l2 = Bytes.length enc2 -> ()
          | _ ->
              raise
                (Diff
                   (Printf.sprintf "soup-decoded [%s] does not re-round-trip"
                      (Insn.to_string i))));
          pos := !pos + n
      | Error _ -> incr pos
    done;
    None
  with
  | Diff d -> Some d
  | e -> Some ("codec raised: " ^ Printexc.to_string e)

(* --- property: verifier soundness --------------------------------------- *)

let contained inj oelf ~period ~fuel =
  Exec.run_contained ~fuel
    ~interrupt:(Inject.interrupt_every inj ~period)
    (Exec.make oelf)

let soundness_case inj shrink rng case =
  let period = 1 + Rng.int rng 2 in
  let fuel = 4000 in
  let fail detail minimized =
    Some { prop = Verifier_soundness; case; detail; minimized }
  in
  let minimize_if pred items =
    if shrink then Some (Shrink.minimize pred items) else None
  in
  let run_accepted tag items_opt oelf =
    match contained inj oelf ~period ~fuel with
    | Ok _ -> None
    | Error v ->
        let detail =
          Printf.sprintf "%s accepted by verifier but violated isolation: %s"
            tag
            (Exec.violation_to_string v)
        in
        let minimized =
          match items_opt with
          | None -> None
          | Some items ->
              minimize_if
                (fun its ->
                  match Verify.verify (Gen.link its) with
                  | Error _ -> false
                  | Ok _ -> (
                      match
                        contained (Inject.make ()) (Gen.link its) ~period ~fuel
                      with
                      | Error _ -> true
                      | Ok _ -> false))
                items
        in
        fail detail minimized
  in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (
      (* well-formed: must verify, must be contained *)
      let items = Gen.program rng in
      let oelf = Gen.link items in
      match Verify.verify oelf with
      | Error (r :: _) ->
          fail
            ("well-formed program rejected: " ^ Verify.rejection_to_string r)
            (minimize_if
               (fun its ->
                 match Verify.verify (Gen.link its) with
                 | Error _ -> true
                 | Ok _ -> false)
               items)
      | Error [] -> fail "well-formed program rejected (no reason)" None
      | Ok _ -> run_accepted "well-formed program" (Some items) oelf)
  | 4 | 5 | 6 | 7 -> (
      (* hostile mutant: rejection is fine; acceptance must be contained *)
      let items = Gen.hostile rng in
      match Gen.link items with
      | exception _ -> None
      | oelf -> (
          match Verify.verify oelf with
          | Error _ -> None
          | Ok _ -> run_accepted "hostile mutant" (Some items) oelf))
  | _ -> (
      (* byte-flip mutant of a linked binary, as an adversary would *)
      let items = Gen.program rng in
      let oelf = Gen.link items in
      let code = Bytes.copy oelf.Occlum_oelf.Oelf.code in
      let reserved = Occlum_oelf.Oelf.trampoline_reserved in
      for _ = 0 to Rng.int rng 3 do
        if Bytes.length code > reserved then begin
          let pos = reserved + Rng.int rng (Bytes.length code - reserved) in
          Bytes.set code pos
            (Char.chr
               (Char.code (Bytes.get code pos) lxor (1 + Rng.int rng 255)))
        end
      done;
      let mutant = { oelf with Occlum_oelf.Oelf.code = code } in
      match Verify.verify mutant with
      | Error _ -> None
      | Ok _ -> run_accepted "byte-flip mutant" None mutant)

(* --- property: AEX/resume bit-identity ---------------------------------- *)

(* An AEX + full CPU scramble + resume at every [period]-th boundary,
   against a never-interrupted twin: each resume must be bit-identical
   to the pre-AEX state, and the twin identical at every sync point
   (AEX transparency). *)
let aex_repro ~period ~scramble_seed inj items =
  let oelf = Gen.link items in
  let scramble = Some (Rng.of_seed scramble_seed) in
  let interrupt =
    {
      Exec.fires = Inject.interrupt_every inj ~period;
      round_trip = Some (Exec.round_trip ~scramble);
    }
  in
  Exec.lockstep ~differ:Identical ~fuel:1200
    [
      { (Exec.machine (Exec.make oelf)) with interrupt = Some interrupt };
      Exec.machine (Exec.make oelf);
    ]

let aex_case inj shrink rng case =
  let items = Gen.program rng in
  let period = 1 + Rng.int rng 6 in
  let scramble_seed = Rng.next rng in
  lockstep_failure Aex_identity shrink case items
    (aex_repro ~period ~scramble_seed)
    inj

(* --- property: guard elision -------------------------------------------- *)

(* One reproduction of the whole elision contract on fresh input: the
   original under an interrupt storm and the elided binary under a
   silent twin schedule, compared at every sync point. Their code
   layouts differ, so pc is compared only inside the pinned trampoline
   (syscall, exit) and code bytes never; pushed return addresses and
   lea'd cfi_label addresses are pinned by the rewriter, so no live
   value is layout-dependent. Counters (cycles, bound_checks) are
   exactly what elision changes, so they are not compared. *)
let elide_repro ~period ~fuel inj items =
  let machine fires oelf =
    let round_trip = Some (Exec.round_trip ~scramble:None) in
    {
      (Exec.machine (Exec.make oelf)) with
      interrupt = Some { Exec.fires; round_trip };
    }
  in
  match Gen.link items with
  | exception _ -> Ok ()
  | oelf -> (
      match Verify.verify oelf with
      | Error _ -> Ok () (* rejection of Gen output is soundness's problem *)
      | Ok _ -> (
          match Elide.run oelf with
          | Error e ->
              Error ("elision failed on a verified program: "
                     ^ Elide.error_to_string e)
          | Ok (oelf', _) when not (Occlum_verifier.Signer.check oelf') ->
              Error "elided binary's signature does not check"
          | Ok (oelf', _) -> (
              let a = machine (Inject.interrupt_every inj ~period) oelf in
              let b =
                machine (Inject.interrupt_every (Inject.make ()) ~period) oelf'
              in
              match Exec.lockstep ~differ:Layout ~fuel [ a; b ] with
              | Error d -> Error d
              | Ok _ -> (
                  match (Exec.audit a.env, Exec.audit b.env) with
                  | Some v, _ ->
                      Error
                        ("original violated isolation: "
                        ^ Exec.violation_to_string v)
                  | _, Some v ->
                      Error
                        ("ELIDED violated isolation: "
                        ^ Exec.violation_to_string v)
                  | None, None -> Ok ()))))

let elide_case inj shrink rng case =
  let period = 1 + Rng.int rng 3 in
  let fuel = 6000 in
  let fail detail minimized = Some { prop = Guard_elide; case; detail; minimized } in
  if case mod 3 = 0 then
    (* hostile mutants: a rejected input must come back [Input_rejected]
       (the pass gives an attacker no second chance at the verifier), and
       an accepted one must re-verify after elision or be refused
       conservatively — never re-signed unverified. *)
    let items = Gen.hostile rng in
    match Gen.link items with
    | exception _ -> None
    | oelf -> (
        match Verify.verify oelf with
        | Error _ -> (
            match Elide.run oelf with
            | Error (Elide.Input_rejected _) -> None
            | Ok _ ->
                fail "rejected hostile mutant came out of the elision pass \
                      signed" None
            | Error e ->
                fail ("elision pass misreported a rejected input: "
                      ^ Elide.error_to_string e) None)
        | Ok _ -> (
            match Elide.run oelf with
            | Ok (oelf', _) ->
                if Occlum_verifier.Signer.check oelf' then None
                else fail "elided hostile mutant's signature does not check" None
            | Error (Elide.Rewrite_error _) -> None (* conservative refusal *)
            | Error (Elide.Output_rejected _ as e) ->
                fail (Elide.error_to_string e) None
            | Error (Elide.Input_rejected _) ->
                fail "verifier and elision pass disagree on acceptance" None))
  else
    (* well-formed: elision must succeed, re-sign, and preserve every
       sync-point observation under an interrupt storm *)
    lockstep_failure Guard_elide shrink case (Gen.program rng)
      (elide_repro ~period ~fuel)
      inj

(* --- property: EPC pressure / LibOS clean failure ------------------------ *)

let small_domains =
  { Os.default_config.Os.domains with Occlum_libos.Domain_mgr.max_domains = 4 }

let tiny_binary =
  lazy
    (let prog =
       Runtime.program [ Ast.func "main" [] [ Ast.Return (Ast.i 0) ] ]
     in
     let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
     match Verify.verify_and_sign oelf with
     | Ok s -> s
     | Error rs ->
         failwith
           ("fuzz tiny binary rejected: "
           ^ Verify.rejection_to_string (List.hd rs)))

let sgx2_os =
  lazy
    (let cfg = { Os.default_config with sgx2 = true; domains = small_domains } in
     let os = Os.boot ~config:cfg () in
     Os.install_binary os "/bin/fuzz" (Lazy.force tiny_binary);
     os)

let eip_os =
  lazy
    (let cfg =
       {
         Os.default_config with
         mode = Os.Eip;
         domains = small_domains;
         eip_runtime_image_bytes = 64 * 1024;
       }
     in
     let os = Os.boot ~config:cfg () in
     Os.install_binary os "/bin/fuzz" (Lazy.force tiny_binary);
     os)

(* Enclave-level: the k-th EPC allocation fails mid-build. The pool must
   stay balanced, the partial enclave queryable, and destroy must give
   back exactly what was charged. *)
let epc_enclave_injected inj rng =
  let pool = Epc.create ~size:(256 * 4096) () in
  let free0 = Epc.free_pages pool in
  (* alloc call 1 is ECREATE's zero-page reservation; 2..5 are the adds *)
  Inject.arm_epc inj ~at:(2 + Rng.int rng 4);
  Fun.protect ~finally:Inject.disarm (fun () ->
      let enc = Enclave.create ~version:Enclave.Sgx2 ~epc:pool ~size:(64 * 4096) () in
      let raised = ref false in
      (try
         for i = 0 to 3 do
           Enclave.add_zero_pages enc ~addr:(i * 4 * 4096) ~len:(4 * 4096)
             ~perm:Mem.perm_rw
         done
       with Epc.Out_of_epc -> raised := true);
      if not !raised then Some "armed EPC failure never fired"
      else if Epc.free_pages pool + Epc.used_pages pool <> Epc.total_pages pool
      then Some "EPC pool accounting unbalanced after injected failure"
      else if Enclave.initialized enc then
        Some "partial enclave claims to be initialized"
      else if Enclave.id enc <= 0 then Some "partial enclave not queryable"
      else begin
        Enclave.destroy enc;
        if Epc.free_pages pool <> free0 then
          Some
            (Printf.sprintf
               "destroy did not restore the pool: %d free of %d initial"
               (Epc.free_pages pool) free0)
        else None
      end)

(* Real exhaustion, no injection: a pool too small for the enclave. *)
let epc_real_exhaustion _rng =
  let pool = Epc.create ~size:(8 * 4096) () in
  match Enclave.create ~epc:pool ~size:(16 * 4096) () with
  | _ -> Some "SGX1 ECREATE succeeded beyond the EPC size"
  | exception Epc.Out_of_epc ->
      if Epc.free_pages pool <> 8 then
        Some "failed ECREATE leaked EPC pages"
      else begin
        let enc =
          Enclave.create ~version:Enclave.Sgx2 ~epc:pool ~size:(16 * 4096) ()
        in
        let committed = ref 0 in
        (try
           for i = 0 to 15 do
             Enclave.add_zero_pages enc ~addr:(i * 4096) ~len:4096
               ~perm:Mem.perm_rw;
             incr committed
           done
         with Epc.Out_of_epc -> ());
        if !committed <> 8 then
          Some
            (Printf.sprintf "committed %d pages from an 8-page pool" !committed)
        else begin
          Enclave.destroy enc;
          if Epc.free_pages pool <> 8 then
            Some "destroy did not restore the exhausted pool"
          else None
        end
      end

(* LibOS-level: spawn under injected EPC pressure must fail with a clean
   ENOMEM, leak nothing, and leave the LibOS fully functional. *)
let epc_libos os_lazy ~allocs_per_spawn inj rng =
  let os = Lazy.force os_lazy in
  let free0 = Epc.free_pages os.Os.epc in
  Inject.arm_epc inj ~at:(1 + Rng.int rng allocs_per_spawn);
  let spawn_result =
    Fun.protect ~finally:Inject.disarm (fun () ->
        match Os.spawn os ~parent_pid:0 ~path:"/bin/fuzz" ~args:[] with
        | _pid -> Some "spawn under EPC pressure unexpectedly succeeded"
        | exception Os.Spawn_error e when e = Errno.enomem -> None
        | exception Os.Spawn_error e ->
            Some (Printf.sprintf "spawn failed with errno %d, not ENOMEM" e)
        | exception e ->
            Some
              ("spawn leaked a raw exception through the syscall surface: "
              ^ Printexc.to_string e))
  in
  match spawn_result with
  | Some _ as s -> s
  | None ->
      if Epc.free_pages os.Os.epc <> free0 then
        Some
          (Printf.sprintf "failed spawn leaked EPC pages (%d -> %d free)"
             free0
             (Epc.free_pages os.Os.epc))
      else begin
        (* recovery: the LibOS must still spawn and run to completion *)
        match Os.spawn os ~parent_pid:0 ~path:"/bin/fuzz" ~args:[] with
        | exception e ->
            Some ("spawn after recovery failed: " ^ Printexc.to_string e)
        | pid -> (
            match Os.wait_pid_exit ~max_steps:10_000 os pid with
            | Os.All_exited | Os.Quota_exhausted -> (
                match Os.find_proc os pid with
                | Some p when p.Os.state = `Zombie && p.Os.exit_code = 0 ->
                    if Epc.free_pages os.Os.epc <> free0 then
                      Some "EPC pages not returned after process exit"
                    else None
                | Some _ -> Some "recovered process did not exit cleanly"
                | None -> None)
            | Os.Deadlock _ -> Some "LibOS deadlocked after EPC recovery")
      end

(* Injected SEFS / network I/O faults must surface as clean errnos or
   short transfers and be fully transient. *)
let io_faults inj _rng =
  let os = Lazy.force sgx2_os in
  let sefs = os.Os.sefs in
  let path = "/fuzz/io.txt" in
  let content = "occlum fuzz io payload" in
  Sefs.ensure_parents sefs path;
  (match Sefs.write_path sefs path content with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "corpus file write failed: %d" e));
  let node =
    match Sefs.lookup sefs path with
    | Some n -> n
    | None -> failwith "io fixture vanished"
  in
  let read () = Sefs.read_file sefs node ~pos:0 ~len:100 in
  let retries0 = sefs.Sefs.retries in
  (* a single transient error is absorbed by the retry wrapper *)
  Inject.arm_sefs inj ~at:1 ~fault:(Sefs.Io_error Errno.eagain) ();
  let r1 = Fun.protect ~finally:Inject.disarm read in
  if r1 <> Ok (Bytes.of_string content) then
    Some "transient SEFS error was not absorbed by the retry wrapper"
  else if sefs.Sefs.retries <> retries0 + 1 then
    Some "absorbed SEFS fault did not count a retry"
  else begin
    (* a fault outlasting every attempt surfaces its errno... *)
    Inject.arm_sefs inj ~at:1 ~times:Sefs.max_io_attempts
      ~fault:(Sefs.Io_error Errno.eagain) ();
    let rp = Fun.protect ~finally:Inject.disarm read in
    if rp <> Error Errno.eagain then
      Some "persistent SEFS error did not surface as its errno"
    else if read () <> Ok (Bytes.of_string content) then
      (* ...and is still transient once the hook clears *)
      Some "SEFS fault was not transient"
    else begin
    (* short transfers made progress and are never retried *)
    Inject.arm_sefs inj ~at:1 ~fault:(Sefs.Short 4) ();
    let r2 = Fun.protect ~finally:Inject.disarm read in
    match r2 with
    | Ok b
      when Bytes.length b = 4
           && Bytes.to_string b = String.sub content 0 4 -> (
        (* network: same contract on the host transport *)
        let net = Net.create () in
        match Net.listen net ~port:9999 ~backlog:4 with
        | Error e -> Some (Printf.sprintf "listen failed: %d" e)
        | Ok l -> (
            match Net.connect net ~port:9999 with
            | Error e -> Some (Printf.sprintf "connect failed: %d" e)
            | Ok client -> (
                match Net.accept l with
                | None -> Some "accept returned no endpoint"
                | Some server -> (
                    let payload = Bytes.of_string "ping-pong!" in
                    let send () =
                      Net.send net client payload 0 (Bytes.length payload)
                    in
                    Inject.arm_net inj ~at:1
                      ~fault:(Sefs.Io_error Errno.eagain) ();
                    let s1 = Fun.protect ~finally:Inject.disarm send in
                    if s1 <> Ok (Bytes.length payload) then
                      Some
                        "transient net error was not absorbed by the retry \
                         wrapper"
                    else if
                      (let p =
                         Inject.arm_net inj ~at:1 ~times:Sefs.max_io_attempts
                           ~fault:(Sefs.Io_error Errno.eagain) ();
                         Fun.protect ~finally:Inject.disarm send
                       in
                       p <> Error Errno.eagain)
                    then Some "persistent net error did not surface as its errno"
                    else begin
                      Inject.arm_net inj ~at:1 ~fault:(Sefs.Short 3) ();
                      let s2 = Fun.protect ~finally:Inject.disarm send in
                      match s2 with
                      | Ok 3 -> (
                          match send () with
                          | Ok n when n = Bytes.length payload -> (
                              let buf = Bytes.create 64 in
                              match Net.recv net server buf 0 64 with
                              | Ok m
                                when m = 3 + (2 * Bytes.length payload)
                                     && Bytes.sub_string buf 0
                                          (Bytes.length payload)
                                        = Bytes.to_string payload ->
                                  None
                              | Ok m ->
                                  Some
                                    (Printf.sprintf
                                       "recv returned %d bytes after short+full send"
                                       m)
                              | Error e ->
                                  Some (Printf.sprintf "recv failed: %d" e))
                          | _ -> Some "net fault was not transient"
                          )
                      | Ok n ->
                          Some
                            (Printf.sprintf
                               "short-injected send wrote %d bytes, wanted 3" n)
                      | Error e ->
                          Some (Printf.sprintf "short-injected send failed: %d" e)
                    end))))
    | Ok b ->
        Some
          (Printf.sprintf "short read returned %d bytes, wanted 4"
             (Bytes.length b))
    | Error e -> Some (Printf.sprintf "short-injected read failed: %d" e)
    end
  end

(* --- paging transparency -------------------------------------------------- *)

(* Run a program on a deliberately tiny paged pool against an uncapped
   twin. Every Epc_miss takes the production AEX -> ELDU -> resume path,
   with a full CPU scramble in the evict-and-reload window to make
   resume transparency non-vacuous; the paged machine must match the
   twin in architectural state and memory (counters excluded: a
   faulted-and-retried instruction legitimately charges extra cycles),
   and destroy must return every frame and sealed page. *)
let paging_transparency inj rng =
  let items = Gen.program rng in
  let srng = Rng.of_seed (Rng.next rng) in
  (* small enough to force eviction for most generated programs (their
     enclaves span 12+ pages), large enough that the pin ring (4) never
     starves the reclaimer *)
  let pool_pages = 8 + Rng.int rng 4 in
  let oelf = Gen.link items in
  let pool = Epc.create ~size:(pool_pages * Epc.page_size) () in
  Epc.enable_paging pool;
  let env = Exec.make ~epc:pool oelf in
  let twin = Exec.make oelf in
  let aex env =
    inj.Inject.aex <- inj.Inject.aex + 1;
    Exec.round_trip ~scramble:(Some srng) env
  in
  let pager =
    { Exec.reload = Exec.eldu pool; aex = Some aex; retry_spends_fuel = false }
  in
  match
    Exec.lockstep ~differ:Paging ~fuel:1200
      [ { (Exec.machine env) with pager = Some pager }; Exec.machine twin ]
  with
  | Error d -> Some ("paging transparency violated: " ^ d)
  | Ok _ ->
      Enclave.destroy env.Exec.enclave;
      (* destroy is idempotent: the second call must be a no-op *)
      Enclave.destroy env.Exec.enclave;
      Enclave.destroy twin.Exec.enclave;
      if Epc.used_pages pool <> 0 then
        Some
          (Printf.sprintf "%d frames leaked after destroy" (Epc.used_pages pool))
      else if Epc.backing_used pool <> 0 then
        Some
          (Printf.sprintf "%d sealed pages leaked after destroy"
             (Epc.backing_used pool))
      else None

(* A tampered or version-rolled-back sealed page must be a hard fault on
   reload — never silent corruption — and must leave the pool balanced. *)
let paging_integrity _inj rng =
  let pool = Epc.create ~size:(8 * Epc.page_size) () in
  Epc.enable_paging pool;
  let enclave = Enclave.create ~epc:pool ~size:(16 * Epc.page_size) () in
  let cid = Enclave.id enclave in
  let page_of i = Bytes.make Epc.page_size (Char.chr (65 + i)) in
  for i = 0 to 7 do
    Enclave.add_pages enclave ~addr:(i * Epc.page_size) ~data:(page_of i)
      ~perm:Mem.perm_rw
  done;
  Enclave.init enclave;
  (* distinct victims: a rejected reload leaves its page non-resident
     with a poisoned sealed copy, so each attack gets its own page *)
  let t1 = Rng.int rng 8 in
  let t2 = (t1 + 1) mod 8 in
  let t3 = (t1 + 2) mod 8 in
  let fail d =
    Enclave.destroy enclave;
    Some d
  in
  let reload_rejected page =
    match Epc.eldu pool ~cid ~page with
    | () -> false
    | exception Epc.Integrity_violation _ -> true
  in
  if not (Epc.evict_page pool ~cid ~page:t1) then
    fail "fixture page was not evictable"
  else if not (Epc.backing_tamper pool ~cid ~page:t1) then
    fail "evicted page has no sealed copy to tamper with"
  else if not (reload_rejected t1) then
    fail "MAC-tampered sealed page was reloaded"
  else if
    (* rollback: seal v1, reload, evict again (v2), replay the v1 copy *)
    not (Epc.evict_page pool ~cid ~page:t2)
  then fail "evict for rollback failed"
  else
    match Epc.backing_snapshot pool ~cid ~page:t2 with
    | None -> fail "no sealed copy to snapshot"
    | Some old ->
        Epc.eldu pool ~cid ~page:t2;
        if not (Epc.evict_page pool ~cid ~page:t2) then
          fail "second evict failed"
        else begin
          Epc.backing_restore pool ~cid ~page:t2 old;
          if not (reload_rejected t2) then
            fail "version-rolled-back sealed page was reloaded"
          else if not (Epc.evict_page pool ~cid ~page:t3) then
            fail "clean evict failed"
          else begin
            (* an untouched evict/reload cycle is still bit-identical *)
            Epc.eldu pool ~cid ~page:t3;
            let got =
              Mem.read_bytes_priv (Enclave.mem enclave)
                ~addr:(t3 * Epc.page_size) ~len:Epc.page_size
            in
            if not (Bytes.equal got (page_of t3)) then
              fail "clean reload was not bit-identical"
            else
              match Epc.paging_stats pool with
              | Some s when s.Epc.integrity_failures >= 2 ->
                  Enclave.destroy enclave;
                  if Epc.used_pages pool <> 0 then
                    Some "frames leaked after destroy"
                  else if Epc.backing_used pool <> 0 then
                    Some "sealed pages leaked after destroy"
                  else None
              | _ -> fail "integrity failures were not counted"
          end
        end

let epc_case inj _shrink rng case =
  let detail =
    match case mod 7 with
    | 0 -> epc_enclave_injected inj rng
    | 1 -> epc_real_exhaustion rng
    | 2 -> epc_libos sgx2_os ~allocs_per_spawn:2 inj rng
    | 3 -> epc_libos eip_os ~allocs_per_spawn:1 inj rng
    | 4 -> paging_transparency inj rng
    | 5 -> paging_integrity inj rng
    | _ -> io_faults inj rng
  in
  Option.map (fun d -> { prop = Epc_pressure; case; detail = d; minimized = None }) detail

(* --- property: multi-core determinism ------------------------------------ *)

(* The differential: the same workload mix booted at cores=1 and at a
   random cores=c must produce identical state digests, and two runs at
   the same c must as well. Os.state_digest already excludes what
   legitimately varies with scheduling granularity (clock, retry
   counts, global-console interleaving), so any difference is a real
   parallelism bug. Workloads are deliberately clock-free. *)

let mc_sign prog =
  let oelf = Compile.compile_exn ~config:Codegen.sfi prog in
  match Verify.verify_and_sign oelf with
  | Ok s -> s
  | Error rs ->
      failwith
        ("fuzz mc binary rejected: " ^ Verify.rejection_to_string (List.hd rs))

(* Pure CPU spin: argv0 iterations of integer arithmetic, prints the
   accumulator. *)
let mc_compute_binary =
  lazy
    (let open Ast in
     mc_sign
       (Runtime.program
          [
            func ~reg_vars:[ "acc"; "k" ] "main" []
              [
                Let ("iters", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
                Let ("acc", i 0);
                Let ("k", i 0);
                While
                  ( v "k" <: v "iters",
                    [
                      Assign ("acc", ((v "acc" *: i 31) +: v "k") %: i 65537);
                      Assign ("k", v "k" +: i 1);
                    ] );
                Expr (Call ("print_int", [ v "acc" ]));
                Return (i 0);
              ];
          ]))

(* Futex ping-pong: main and one clone()d thread strictly alternate
   [argv0] rounds over a shared turn cell, each mutating a shared
   counter on its turn; main prints the final counter. The alternation
   makes the result schedule-independent while exercising futex
   wait/wake across cores (a woken SIP may sit on another core's run
   queue). *)
let mc_pingpong_binary =
  lazy
    (let open Ast in
     let module S = Occlum_abi.Abi.Sys in
     mc_sign
       (Runtime.program
          ~globals:[ ("turn", 8); ("counter", 8) ]
          [
            func "thread_main" [ "rounds" ]
              [
                Let ("k", i 0);
                While
                  ( v "k" <: v "rounds",
                    [
                      While
                        ( Load (Global_addr "turn") <>: i 1,
                          [
                            Expr
                              (Syscall (S.futex_wait, [ Global_addr "turn"; i 0 ]));
                          ] );
                      Store
                        ( Global_addr "counter",
                          (Load (Global_addr "counter") *: i 3) +: i 1 );
                      Store (Global_addr "turn", i 0);
                      Expr (Syscall (S.futex_wake, [ Global_addr "turn"; i 1 ]));
                      Assign ("k", v "k" +: i 1);
                    ] );
                Return (i 0);
              ];
            func "main" []
              [
                Let ("rounds", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
                Store (Global_addr "turn", i 0);
                Store (Global_addr "counter", i 0);
                Let ("stack", Syscall (S.mmap, [ i 0; i 16384; i (-1); i 0 ]));
                Let
                  ( "tid",
                    Syscall
                      ( S.clone,
                        [
                          Func_addr "thread_main"; v "stack" +: i 16384;
                          v "rounds";
                        ] ) );
                If (v "tid" <: i 0, [ Return (i 1) ], []);
                Let ("k", i 0);
                While
                  ( v "k" <: v "rounds",
                    [
                      While
                        ( Load (Global_addr "turn") <>: i 0,
                          [
                            Expr
                              (Syscall (S.futex_wait, [ Global_addr "turn"; i 1 ]));
                          ] );
                      Store
                        ( Global_addr "counter",
                          Load (Global_addr "counter") +: v "k" );
                      Store (Global_addr "turn", i 1);
                      Expr (Syscall (S.futex_wake, [ Global_addr "turn"; i 1 ]));
                      Assign ("k", v "k" +: i 1);
                    ] );
                Expr (Call ("waitpid", [ v "tid"; i 0 ]));
                Expr (Call ("print_int", [ Load (Global_addr "counter") ]));
                Return (i 0);
              ];
          ]))

let mc_domains =
  { Os.default_config.Os.domains with Occlum_libos.Domain_mgr.max_domains = 10 }

let mc_run ~cores spawns =
  let cfg = { Os.default_config with domains = mc_domains; cores } in
  let os = Os.boot ~config:cfg () in
  Os.install_binary os "/bin/mc_compute" (Lazy.force mc_compute_binary);
  Os.install_binary os "/bin/mc_pp" (Lazy.force mc_pingpong_binary);
  List.iter
    (fun (path, args) -> ignore (Os.spawn os ~parent_pid:0 ~path ~args))
    spawns;
  match Os.run ~max_steps:4_000_000 os with
  | Os.All_exited -> Ok (Os.state_digest os)
  | Os.Deadlock pids ->
      Error
        (Printf.sprintf "deadlocked at cores=%d (pids %s)" cores
           (String.concat "," (List.map string_of_int pids)))
  | Os.Quota_exhausted -> Error (Printf.sprintf "step quota at cores=%d" cores)

let mc_case _inj _shrink rng case =
  (* a random mix of CPU spinners and futex ping-pong pairs *)
  let nsips = 2 + Rng.int rng 5 in
  let spawns =
    List.init nsips (fun j ->
        if (case + j) mod 3 = 0 then
          ("/bin/mc_pp", [ string_of_int (2 + Rng.int rng 5) ])
        else ("/bin/mc_compute", [ string_of_int (200 + Rng.int rng 1500) ]))
  in
  let cores = 2 + Rng.int rng 3 in
  let fail detail = Some { prop = Mc_determinism; case; detail; minimized = None } in
  match (mc_run ~cores:1 spawns, mc_run ~cores spawns, mc_run ~cores spawns) with
  | Error d, _, _ | _, Error d, _ | _, _, Error d -> fail d
  | Ok d1, Ok dc, Ok dc' ->
      if dc <> dc' then
        fail
          (Printf.sprintf "two cores=%d runs diverged: %s vs %s" cores dc dc')
      else if d1 <> dc then
        fail
          (Printf.sprintf "cores=1 vs cores=%d diverged: %s vs %s" cores d1 dc)
      else None

(* --- property: JIT equivalence ------------------------------------------- *)

(* The tiered loop must be a pure accelerator: running the same binary
   under (a) the JIT over its decode cache and (b) the reference loop
   must produce bit-identical architectural state, counters and memory
   at every synchronization point. Three hostile regimes stress the
   tier-transition seams:

   - [J_plain]: a counter-based interrupt storm on the JIT machine with
     a silent twin on an identical schedule. Consult parity is itself under
     test — a fused superinstruction that skipped an interrupt
     consultation at an original-instruction boundary would shift the
     storm to different architectural points and diverge immediately.
   - [J_smc]: the engine additionally flips a code byte — the same byte,
     the same flip — in both envs at stop boundaries, exercising
     page-generation invalidation, JIT deopt and rebuild. With RWX code
     the blocks are fragile (single-instruction units, revalidated
     between instructions); with RX code the fused fast paths run.
   - [J_epc]: both envs are demand-paged against one oversized pool
     and the engine evicts the same page from each at stop boundaries.
     Reloads are transparent ELDUs driven off [Epc_miss], mirroring the
     LibOS pager. A faulted-and-retried data access double-charges the
     counters, but identically in every tier (data accesses are
     architectural); code-fetch misses charge nothing. The interrupt
     schedule is anchored to the instruction counter, not the consult
     count, because retried boundaries legitimately re-consult — and
     how often a tier refetches code is exactly what differs between
     tiers. *)

type jit_mode = J_plain | J_smc | J_epc

(* Fires exactly once per boundary whose architectural instruction count
   is a multiple of [period], no matter how many times that boundary is
   consulted (quantum re-entry, post-reload retry). *)
let intr_at_insns inj (cpu : Cpu.t) ~period =
  let last = ref (-1) in
  fun () ->
    if cpu.Cpu.insns mod period = 0 && !last <> cpu.Cpu.insns then begin
      last := cpu.Cpu.insns;
      inj.Inject.aex <- inj.Inject.aex + 1;
      true
    end
    else false

(* The tiered and the reference loop in lockstep; only the tiered
   machine's interrupts count into [inj] (the reference counts into a
   throwaway plan), so the plan counts each boundary once. *)
let pair ~mode ~perturb_seed ~code_perm ~period ~fuel inj oelf =
  let pool =
    match mode with
    | J_epc ->
        let p = Epc.create ~size:(512 * Epc.page_size) () in
        Epc.enable_paging p;
        Some p
    | J_plain | J_smc -> None
  in
  let a = Exec.make ?epc:pool ~code_perm oelf in
  let b = Exec.make ?epc:pool ~code_perm oelf in
  let prng = Rng.of_seed perturb_seed in
  let perturb =
    match (mode, pool) with
    | J_smc, _ -> Some (Exec.smc_flip prng ~code_region:a.Exec.code_region)
    | J_epc, Some pool ->
        Some (Exec.evict prng pool ~pages:(Mem.size a.Exec.mem / Mem.page_size))
    | _ -> None
  in
  let machine env tier inj =
    let fires =
      match mode with
      | J_epc -> intr_at_insns inj env.Exec.cpu ~period
      | J_plain | J_smc -> Inject.interrupt_every inj ~period
    in
    {
      Exec.env;
      tier;
      interrupt = Some { Exec.fires; round_trip = None };
      pager =
        Option.map
          (fun pool ->
            { Exec.reload = Exec.eldu pool; aex = None; retry_spends_fuel = true })
          pool;
    }
  in
  (* threshold 2: generated loops are short, promotion must still happen *)
  let jit = Jit.create ~threshold:2 () in
  Exec.lockstep ~differ:Identical ~fuel ?perturb
    [
      machine a (Exec.Tiered jit) inj;
      machine b Exec.Reference (Inject.make ());
    ]

let jit_case inj shrink rng case =
  let period = 2 + Rng.int rng 6 in
  let fuel = 2000 + Rng.int rng 2000 in
  let mode =
    match case mod 4 with 0 -> J_smc | 1 -> J_epc | _ -> J_plain
  in
  let perturb_seed = Rng.next rng in
  (* RX is the loader's mapping (fused fast paths); RWX keeps every
     block fragile (single-instruction units + revalidation) *)
  let code_perm = if Rng.bool rng then Mem.perm_rx else Mem.perm_rwx in
  lockstep_failure Jit_equivalence shrink case (Gen.program rng)
    (fun inj its ->
      pair ~mode ~perturb_seed ~code_perm ~period ~fuel inj (Gen.link its))
    inj

(* --- property: cluster orderliness --------------------------------------- *)

(* The differential: a shadow model of the cluster lifecycle protocol,
   deliberately re-stated over bare ints/arrays rather than the
   checker's own types. The generator enumerates what the shadow calls
   legal (resp. illegal) and the property demands [Lifecycle] agree on
   every single transition — a bisimulation between two independent
   statements of the rules, so a false accept in the orderliness
   checker (or an over-strict rule) surfaces as a property failure. *)

module Lw = struct
  type chan = {
    mutable st : int;  (* 0 closed, 1 handshaking, 2 open *)
    mutable s_lh : int;
    mutable d_lh : int;
    mutable s_hl : int;
    mutable d_hl : int;
  }

  (* node phases: 0 absent, 1 created, 2 measured, 3 inited, 4 quoted,
     5 attested, 6 serving, 7 down *)
  type t = { n : int; ph : int array; chans : (int * int, chan) Hashtbl.t }

  let make n = { n; ph = Array.make n 0; chans = Hashtbl.create 8 }

  let chan t a b =
    let k = (min a b, max a b) in
    match Hashtbl.find_opt t.chans k with
    | Some c -> c
    | None ->
        let c = { st = 0; s_lh = 0; d_lh = 0; s_hl = 0; d_hl = 0 } in
        Hashtbl.replace t.chans k c;
        c

  let in_range t i = i >= 0 && i < t.n

  let legal t (tr : Lifecycle.transition) =
    match tr with
    | Lifecycle.Ecreate i -> in_range t i && (t.ph.(i) = 0 || t.ph.(i) = 7)
    | Lifecycle.Eadd i -> in_range t i && (t.ph.(i) = 1 || t.ph.(i) = 2)
    | Lifecycle.Einit i -> in_range t i && t.ph.(i) = 2
    | Lifecycle.Quote_gen i -> in_range t i && t.ph.(i) = 3
    | Lifecycle.Quote_verify i -> in_range t i && t.ph.(i) = 4
    | Lifecycle.Eenter i -> in_range t i && t.ph.(i) = 5
    | Lifecycle.Teardown i -> in_range t i && t.ph.(i) >= 1 && t.ph.(i) <= 6
    | Lifecycle.Hs_start (a, b) ->
        in_range t a && in_range t b && a <> b && t.ph.(a) = 6 && t.ph.(b) = 6
        && (chan t a b).st = 0
    | Lifecycle.Hs_done (a, b) ->
        in_range t a && in_range t b && a <> b && (chan t a b).st = 1
    | Lifecycle.Ch_send (s, d, q) ->
        in_range t s && in_range t d && s <> d && t.ph.(s) = 6
        &&
        let c = chan t s d in
        c.st = 2 && q = (if s < d then c.s_lh else c.s_hl)
    | Lifecycle.Ch_deliver (s, d, q) ->
        in_range t s && in_range t d && s <> d && t.ph.(d) = 6
        &&
        let c = chan t s d in
        c.st = 2
        &&
        let sent = if s < d then c.s_lh else c.s_hl in
        let dlvd = if s < d then c.d_lh else c.d_hl in
        q = dlvd && dlvd < sent
    | Lifecycle.Ch_close (a, b) ->
        in_range t a && in_range t b && a <> b && (chan t a b).st > 0

  let reset c =
    c.s_lh <- 0;
    c.d_lh <- 0;
    c.s_hl <- 0;
    c.d_hl <- 0

  (* Only called on [legal] transitions. *)
  let apply t (tr : Lifecycle.transition) =
    match tr with
    | Lifecycle.Ecreate i -> t.ph.(i) <- 1
    | Lifecycle.Eadd i -> t.ph.(i) <- 2
    | Lifecycle.Einit i -> t.ph.(i) <- 3
    | Lifecycle.Quote_gen i -> t.ph.(i) <- 4
    | Lifecycle.Quote_verify i -> t.ph.(i) <- 5
    | Lifecycle.Eenter i -> t.ph.(i) <- 6
    | Lifecycle.Teardown i ->
        t.ph.(i) <- 7;
        Hashtbl.iter
          (fun (a, b) c ->
            if a = i || b = i then begin
              c.st <- 0;
              reset c
            end)
          t.chans
    | Lifecycle.Hs_start (a, b) -> (chan t a b).st <- 1
    | Lifecycle.Hs_done (a, b) ->
        let c = chan t a b in
        c.st <- 2;
        reset c
    | Lifecycle.Ch_send (s, d, _) ->
        let c = chan t s d in
        if s < d then c.s_lh <- c.s_lh + 1 else c.s_hl <- c.s_hl + 1
    | Lifecycle.Ch_deliver (s, d, _) ->
        let c = chan t s d in
        if s < d then c.d_lh <- c.d_lh + 1 else c.d_hl <- c.d_hl + 1
    | Lifecycle.Ch_close (a, b) ->
        let c = chan t a b in
        c.st <- 0;
        reset c

  (* Every syntactically plausible transition over the node domain plus
     an out-of-range id, a negative id and the self pair, with seq
     candidates bracketing both direction counters — the hostile
     surface a malicious host can aim at the checker. *)
  let domain t =
    let out = ref [] in
    let push tr = out := tr :: !out in
    for i = 0 to t.n do
      push (Lifecycle.Ecreate i);
      push (Lifecycle.Eadd i);
      push (Lifecycle.Einit i);
      push (Lifecycle.Quote_gen i);
      push (Lifecycle.Quote_verify i);
      push (Lifecycle.Eenter i);
      push (Lifecycle.Teardown i)
    done;
    for a = 0 to t.n - 1 do
      for b = 0 to t.n - 1 do
        if a <> b then begin
          push (Lifecycle.Hs_start (a, b));
          push (Lifecycle.Hs_done (a, b));
          push (Lifecycle.Ch_close (a, b));
          let c = chan t a b in
          let sent = if a < b then c.s_lh else c.s_hl in
          let dlvd = if a < b then c.d_lh else c.d_hl in
          List.iter
            (fun q ->
              push (Lifecycle.Ch_send (a, b, q));
              push (Lifecycle.Ch_deliver (a, b, q)))
            (List.sort_uniq compare
               [ 0; 1; sent; sent + 1; max 0 (dlvd - 1); dlvd; dlvd + 1 ])
        end
      done
    done;
    push (Lifecycle.Hs_start (0, 0));
    push (Lifecycle.Ch_send (0, 0, 0));
    push (Lifecycle.Ecreate (-1));
    List.rev !out
end

(* A random legal walk, mutating the shadow as it goes. Teardown/close
   are rationed so walks routinely reach open channels and sequenced
   traffic instead of tearing themselves down. *)
let lw_walk rng sh steps =
  let out = ref [] in
  for _ = 1 to steps do
    let legal = List.filter (Lw.legal sh) (Lw.domain sh) in
    let destructive = function
      | Lifecycle.Teardown _ | Lifecycle.Ch_close _ -> true
      | _ -> false
    in
    let pool =
      let fwd = List.filter (fun tr -> not (destructive tr)) legal in
      if fwd <> [] && not (Rng.chance rng 1 10) then fwd else legal
    in
    if pool <> [] then begin
      let tr = Rng.choose rng (Array.of_list pool) in
      Lw.apply sh tr;
      out := tr :: !out
    end
  done;
  List.rev !out

let lw_accept_case rng =
  let nodes = 2 + Rng.int rng 3 in
  let sh = Lw.make nodes in
  let walk = lw_walk rng sh (30 + Rng.int rng 50) in
  match Lifecycle.run (Lifecycle.create ~nodes) walk with
  | Ok _ -> None
  | Error (i, tr, v) ->
      Some
        (Printf.sprintf "legal walk rejected at step %d (%s): %s" i
           (Lifecycle.transition_to_string tr)
           (Lifecycle.violation_to_string v))

let lw_reject_case rng =
  let nodes = 2 + Rng.int rng 3 in
  let sh = Lw.make nodes in
  let walk = lw_walk rng sh (Rng.int rng 60) in
  let illegal =
    List.filter (fun tr -> not (Lw.legal sh tr)) (Lw.domain sh)
  in
  (* never empty: the out-of-range/self/negative entries are always
     illegal *)
  let mutant = Rng.choose rng (Array.of_list illegal) in
  let lc = Lifecycle.create ~nodes in
  match Lifecycle.run lc walk with
  | Error (i, tr, v) ->
      Some
        (Printf.sprintf "legal prefix rejected at step %d (%s): %s" i
           (Lifecycle.transition_to_string tr)
           (Lifecycle.violation_to_string v))
  | Ok _ -> (
      match Lifecycle.step lc mutant with
      | Ok () ->
          Some
            (Printf.sprintf
               "FALSE ACCEPT: %s after %d legal steps (%d-node cluster)"
               (Lifecycle.transition_to_string mutant)
               (List.length walk) nodes)
      | Error _ -> (
          (* rejection must not have moved the machine: anything the
             shadow still calls legal must still be accepted *)
          match List.filter (Lw.legal sh) (Lw.domain sh) with
          | [] -> None
          | legals -> (
              let probe = Rng.choose rng (Array.of_list legals) in
              match Lifecycle.step lc probe with
              | Ok () -> None
              | Error v ->
                  Some
                    (Printf.sprintf
                       "state moved on rejection: after rejected %s, legal %s \
                        failed: %s"
                       (Lifecycle.transition_to_string mutant)
                       (Lifecycle.transition_to_string probe)
                       (Lifecycle.violation_to_string v)))))

(* A [via] that is alive right now (earlier faults may have failed the
   first pick over); deterministic in the alive set. *)
let pick_via cl v =
  let n = Cluster.size cl in
  let rec go k =
    if k = n then 0 else if Cluster.alive cl ((v + k) mod n) then (v + k) mod n
    else go (k + 1)
  in
  go 0

(* Channel fault storms must be absorbed deterministically: the same
   op sequence under the same armed fault plan yields bit-identical KV
   digests, RPC/failover counts and per-channel retry totals across
   two full runs. Faults land via the production Host_transport hook,
   so drops/duplicates/reorders/corruption exercise the real
   retransmission, replay-rejection and failover paths. *)
let cluster_fault_storm inj rng =
  let nodes = 2 + Rng.int rng 2 in
  let nops = 6 + Rng.int rng 10 in
  let ops =
    List.init nops (fun k ->
        ( Rng.bool rng,
          Printf.sprintf "k%d" (Rng.int rng 12),
          Printf.sprintf "v%d.%d" k (Rng.int rng 100),
          Rng.int rng nodes ))
  in
  let at = 1 + Rng.int rng 10 in
  let times = 1 + Rng.int rng 3 in
  let fault =
    match Rng.int rng 4 with
    | 0 -> Host_transport.Drop
    | 1 -> Host_transport.Duplicate
    | 2 -> Host_transport.Reorder
    | _ -> Host_transport.Corrupt (Rng.int rng 256)
  in
  let run () =
    Attestation.reset_nonce_cache ();
    let cl = Cluster.create ~nodes () in
    Fun.protect
      ~finally:(fun () ->
        Inject.disarm ();
        Cluster.destroy cl)
      (fun () ->
        Inject.arm_channel inj ~times ~at ~fault ();
        List.iter
          (fun (put, key, v, via) ->
            let via = pick_via cl via in
            if put then ignore (Cluster.kv_put cl ~via key v)
            else ignore (Cluster.kv_get cl ~via key))
          ops;
        Inject.disarm ();
        ( Cluster.kv_digest cl,
          Cluster.rpcs cl,
          Cluster.rpc_failures cl,
          Cluster.failovers cl,
          List.fold_left
            (fun a (c : Cluster.chan_stats) -> a + c.Cluster.cs_retries)
            0 (Cluster.chan_stats cl) ))
  in
  let d1, r1, f1, o1, t1 = run () in
  let d2, r2, f2, o2, t2 = run () in
  if (d1, r1, f1, o1, t1) <> (d2, r2, f2, o2, t2) then
    Some
      (Printf.sprintf
         "fault storm not deterministic (%s x%d at %d): digest %s/%s rpcs \
          %d/%d failures %d/%d failovers %d/%d retries %d/%d"
         (match fault with
         | Host_transport.Drop -> "drop"
         | Host_transport.Duplicate -> "duplicate"
         | Host_transport.Reorder -> "reorder"
         | Host_transport.Corrupt _ -> "corrupt")
         times at
         (String.sub d1 0 12) (String.sub d2 0 12) r1 r2 f1 f2 o1 o2 t1 t2)
  else None

(* The twin differential: a fault-free N-node cluster run and a
   single-enclave twin fed the same KV workload must agree on every
   read and on the cluster-level state digest, with zero RPC failures
   and zero failovers — cross-enclave RPC is transparent when the host
   behaves. *)
let cluster_twin rng =
  let nodes = 2 + Rng.int rng 3 in
  let nops = 8 + Rng.int rng 8 in
  let ops =
    List.init nops (fun k ->
        (Printf.sprintf "key%d" (Rng.int rng 10), Printf.sprintf "val%d" k))
  in
  let vias = List.map (fun _ -> Rng.int rng nodes) ops in
  let run n vias =
    Attestation.reset_nonce_cache ();
    let cl = Cluster.create ~nodes:n () in
    Fun.protect
      ~finally:(fun () -> Cluster.destroy cl)
      (fun () ->
        List.iter2
          (fun (k, v) via ->
            if not (Cluster.kv_put cl ~via k v) then
              failwith ("fault-free kv_put failed for " ^ k))
          ops vias;
        let reads = List.map (fun (k, _) -> Cluster.kv_get cl k) ops in
        (Cluster.kv_digest cl, reads, Cluster.rpc_failures cl,
         Cluster.failovers cl))
  in
  let dn, gn, fn, on_ = run nodes vias in
  let d1, g1, _, _ = run 1 (List.map (fun _ -> 0) ops) in
  if fn <> 0 || on_ <> 0 then
    Some
      (Printf.sprintf "fault-free cluster run had %d rpc failures, %d failovers"
         fn on_)
  else if dn <> d1 then
    Some
      (Printf.sprintf "cluster/single twin digests differ: %s vs %s"
         (String.sub dn 0 12) (String.sub d1 0 12))
  else if gn <> g1 then Some "cluster/single twin reads differ"
  else None

let cluster_case inj _shrink rng case =
  let detail =
    Fun.protect
      ~finally:(fun () ->
        Inject.disarm ();
        Attestation.reset_nonce_cache ())
      (fun () ->
        match case mod 6 with
        | 0 | 2 -> lw_accept_case rng
        | 1 | 3 -> lw_reject_case rng
        | 4 -> cluster_fault_storm inj rng
        | _ -> cluster_twin rng)
  in
  Option.map
    (fun d -> { prop = Cluster_orderliness; case; detail = d; minimized = None })
    detail

(* The acceptance-bar stress driver: every case is one fully-accepted
   legal walk plus one guaranteed-illegal mutation that must be
   rejected without moving the machine. 500 cases = 500 hostile
   sequences, zero false accepts. *)
let orderliness_stress ~seed ~cases =
  let master = Rng.of_seed seed in
  let fails = ref [] in
  for case = 1 to cases do
    let rng = Rng.split master in
    (match lw_accept_case rng with
    | None -> ()
    | Some d -> fails := (case, d) :: !fails);
    match lw_reject_case rng with
    | None -> ()
    | Some d -> fails := (case, d) :: !fails
  done;
  List.rev !fails

(* --- orderliness corpus ---------------------------------------------------- *)

let orderliness_magic = "# occlum-cluster-orderliness corpus v1"

let replay_orderliness path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s ->
      let fail n fmt =
        Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" n m)) fmt
      in
      let lc = ref None in
      let rec go n = function
        | [] -> Ok ()
        | ln :: more -> (
            let t = String.trim ln in
            if t = "" || t.[0] = '#' then go (n + 1) more
            else
              match String.index_opt t ' ' with
              | None -> fail n "unrecognized line: %s" t
              | Some i -> (
                  let kw = String.sub t 0 i in
                  let arg = String.sub t (i + 1) (String.length t - i - 1) in
                  match kw with
                  | "nodes" -> (
                      match int_of_string_opt arg with
                      | Some k when k >= 1 ->
                          lc := Some (Lifecycle.create ~nodes:k);
                          go (n + 1) more
                      | _ -> fail n "bad node count: %s" arg)
                  | "ok" | "reject" -> (
                      match !lc with
                      | None -> fail n "transition before a nodes directive"
                      | Some m -> (
                          match Lifecycle.transition_of_string arg with
                          | None -> fail n "bad transition: %s" arg
                          | Some tr -> (
                              match (kw, Lifecycle.step m tr) with
                              | "ok", Ok () -> go (n + 1) more
                              | "ok", Error v ->
                                  fail n "expected accept for %s, got: %s" arg
                                    (Lifecycle.violation_to_string v)
                              | _, Error _ -> go (n + 1) more
                              | _, Ok () -> fail n "FALSE ACCEPT: %s" arg)))
                  | _ -> fail n "unrecognized keyword: %s" kw))
      in
      go 1 (String.split_on_char '\n' s)

let emit_orderliness_corpus ~dir ~seed =
  let master = Rng.of_seed seed in
  let b = Buffer.create 2048 in
  Buffer.add_string b (orderliness_magic ^ "\n");
  Buffer.add_string b
    (Printf.sprintf
       "# hostile interleavings for the Lifecycle orderliness checker (seed \
        %Ld).\n" seed);
  Buffer.add_string b
    "# Each scenario: \"nodes n\" resets the machine; \"ok <tr>\" must be\n";
  Buffer.add_string b
    "# accepted; \"reject <tr>\" must be rejected with the state unchanged\n";
  Buffer.add_string b
    "# (the following ok lines continue from the pre-reject state).\n";
  for s = 1 to 6 do
    let rng = Rng.split master in
    let nodes = 2 + (s mod 3) in
    Buffer.add_string b (Printf.sprintf "nodes %d\n" nodes);
    let sh = Lw.make nodes in
    let emit_walk steps =
      List.iter
        (fun tr ->
          Buffer.add_string b
            ("ok " ^ Lifecycle.transition_to_string tr ^ "\n"))
        (lw_walk rng sh steps)
    in
    emit_walk (8 + Rng.int rng 10);
    let illegal =
      Array.of_list (List.filter (fun tr -> not (Lw.legal sh tr)) (Lw.domain sh))
    in
    List.init 5 (fun _ -> Rng.choose rng illegal)
    |> List.sort_uniq compare
    |> List.iter (fun tr ->
           Buffer.add_string b
             ("reject " ^ Lifecycle.transition_to_string tr ^ "\n"));
    emit_walk (4 + Rng.int rng 6)
  done;
  let file = Filename.concat dir "gen-cluster-orderliness.fuzz" in
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  file

(* --- runner -------------------------------------------------------------- *)

let run_case prop inj shrink rng case =
  match prop with
  | Codec_roundtrip ->
      Option.map
        (fun d -> { prop; case; detail = d; minimized = None })
        (codec_case rng)
  | Verifier_soundness -> soundness_case inj shrink rng case
  | Aex_identity -> aex_case inj shrink rng case
  | Epc_pressure -> epc_case inj shrink rng case
  | Mc_determinism -> mc_case inj shrink rng case
  | Guard_elide -> elide_case inj shrink rng case
  | Jit_equivalence -> jit_case inj shrink rng case
  | Cluster_orderliness -> cluster_case inj shrink rng case

let run ?(properties = all_properties) ?(shrink = true) ?metrics ~seed ~cases
    () =
  let inj = Inject.make () in
  let results =
    List.map
      (fun prop ->
        let master =
          Rng.of_seed
            (Int64.add seed (Int64.of_int (1_000_003 * property_index prop)))
        in
        let failures = ref [] in
        for case = 1 to cases do
          let rng = Rng.split master in
          match run_case prop inj shrink rng case with
          | None -> ()
          | Some f -> failures := f :: !failures
        done;
        { rprop = prop; cases_run = cases; failures = List.rev !failures })
      properties
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      let module M = Occlum_obs.Metrics in
      M.add (M.counter reg "fuzz.cases") (cases * List.length properties);
      M.add
        (M.counter reg "fuzz.failures")
        (List.fold_left (fun a r -> a + List.length r.failures) 0 results);
      Inject.export inj reg);
  { seed; cases; results; injected = inj }

let ok report = List.for_all (fun r -> r.failures = []) report.results

(* --- reporting ----------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"tool\":\"occlum_fuzz\",\"seed\":%Ld,\"cases\":%d,\"ok\":%b,"
       r.seed r.cases (ok r));
  Buffer.add_string b
    (Printf.sprintf "\"injected\":{\"aex\":%d,\"epc\":%d,\"io\":%d,\"chan\":%d},"
       r.injected.Inject.aex r.injected.Inject.epc r.injected.Inject.io
       r.injected.Inject.chan);
  Buffer.add_string b "\"properties\":[";
  List.iteri
    (fun i pr ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"cases\":%d,\"failures\":["
           (property_name pr.rprop) pr.cases_run);
      List.iteri
        (fun j f ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"case\":%d,\"detail\":\"%s\"" f.case
               (json_escape f.detail));
          (match f.minimized with
          | None -> ()
          | Some items ->
              Buffer.add_string b
                (Printf.sprintf ",\"minimized_insns\":%d,\"minimized\":["
                   (Shrink.instruction_count items));
              List.iteri
                (fun k it ->
                  if k > 0 then Buffer.add_char b ',';
                  Buffer.add_char b '"';
                  Buffer.add_string b (json_escape (Asm.item_to_string it));
                  Buffer.add_char b '"')
                items;
              Buffer.add_char b ']');
          Buffer.add_char b '}')
        pr.failures;
      Buffer.add_string b "]}")
    r.results;
  Buffer.add_string b "]}";
  Buffer.contents b

let summary r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "occlum_fuzz: seed=%Ld cases=%d per property\n" r.seed
       r.cases);
  List.iter
    (fun pr ->
      Buffer.add_string b
        (Printf.sprintf "  %-20s %4d cases  %s\n"
           (property_name pr.rprop) pr.cases_run
           (match List.length pr.failures with
           | 0 -> "ok"
           | n -> Printf.sprintf "%d FAILURES" n)))
    r.results;
  Buffer.add_string b
    (Printf.sprintf
       "  injected: %d AEX, %d EPC faults, %d I/O faults, %d channel faults\n"
       r.injected.Inject.aex r.injected.Inject.epc r.injected.Inject.io
       r.injected.Inject.chan);
  List.iter
    (fun pr ->
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "  FAIL %s case %d: %s\n"
               (property_name pr.rprop) f.case f.detail);
          match f.minimized with
          | None -> ()
          | Some items ->
              Buffer.add_string b
                (Printf.sprintf "    minimized to %d instructions:\n"
                   (Shrink.instruction_count items));
              List.iter
                (fun it ->
                  Buffer.add_string b
                    ("      " ^ Asm.item_to_string it ^ "\n"))
                items)
        pr.failures)
    r.results;
  Buffer.contents b

(* --- corpus -------------------------------------------------------------- *)

let replay_items items =
  match Gen.link items with
  | exception e -> Error ("corpus program does not link: " ^ Printexc.to_string e)
  | oelf -> (
      match Verify.verify oelf with
      | Error (r :: _) ->
          Error ("corpus program rejected: " ^ Verify.rejection_to_string r)
      | Error [] -> Error "corpus program rejected"
      | Ok _ -> (
          match contained (Inject.make ()) oelf ~period:1 ~fuel:20_000 with
          | Error v ->
              Error ("corpus program escaped: " ^ Exec.violation_to_string v)
          | Ok _ -> (
              (* the elision pass must also handle every corpus entry:
                 classify, rewrite, and get re-accepted by the verifier *)
              match Elide.run ~sign:false oelf with
              | Error e ->
                  Error
                    ("corpus program broke the elision pass: "
                    ^ Elide.error_to_string e)
              | Ok _ -> (
                  (* and the two execution loops must agree on it *)
                  match
                    pair ~mode:J_plain ~perturb_seed:0L ~code_perm:Mem.perm_rx
                      ~period:3 ~fuel:6000 (Inject.make ()) oelf
                  with
                  | Ok _ -> Ok ()
                  | Error d -> Error ("corpus program split the tiers: " ^ d)))))

let has_insn p items =
  List.exists (function Asm.Ins i -> p i | _ -> false) items

(* [p] of a generated program that links and verifies *)
let verified p items =
  match Gen.link items with
  | exception _ -> false
  | oelf -> (
      match Verify.verify oelf with Error _ -> false | Ok d -> p oelf d)

let features : (string * (Asm.item list -> bool)) list =
  [
    ("sib-store", has_insn (function Insn.Store { dst = Sib _; _ } -> true | _ -> false));
    ("sib-load", has_insn (function Insn.Load { src = Sib { base; _ }; _ } -> base <> Reg.sp | _ -> false));
    ("push-pop", has_insn (function Insn.Push _ -> true | _ -> false));
    ("rip-rel",
     has_insn (function
       | Insn.Load { src = Rip_rel _; _ } | Insn.Store { dst = Rip_rel _; _ } -> true
       | _ -> false));
    ("indirect-jmp", has_insn (function Insn.Jmp_reg _ -> true | _ -> false));
    ("call", fun items -> List.exists (function Asm.Call_l _ -> true | _ -> false) items);
    ("syscall", has_insn (function Insn.Call_reg _ -> true | _ -> false));
    ("loop", fun items -> List.exists (function Asm.Jcc_l _ -> true | _ -> false) items);
    ("cfi-guard", fun items -> List.exists (function Asm.Cfi_guard _ -> true | _ -> false) items);
    ("alu-div", has_insn (function Insn.Alu ((Insn.Divu | Insn.Remu), _, _) -> true | _ -> false));
    ("guard-elide",
     (* programs where the elision pass actually removes guards *)
     verified (fun oelf d -> (Elide.analyze oelf d).Elide.elided > 0));
    ("jit-equivalence",
     (* programs hot enough that a block is actually promoted into the
        JIT and then replayed from compiled code *)
     verified (fun oelf _ ->
         let env = Exec.make ~code_perm:Mem.perm_rx oelf in
         let jit = Jit.create ~threshold:2 () in
         let tier = Exec.Tiered jit in
         ignore
           (Exec.lockstep ~differ:Identical ~fuel:6000
              [ { (Exec.machine env) with tier } ]);
         let compiles, _, _ = Jit.stats jit in
         compiles > 0 && env.Exec.cpu.Cpu.jit_hits > 0));
  ]

let passes =
  verified (fun oelf _ ->
      Result.is_ok (Exec.run_contained ~fuel:20_000 (Exec.make oelf)))

let emit_corpus ~dir ~seed =
  let master = Rng.of_seed seed in
  List.filter_map
    (fun (name, has) ->
      let rec search tries =
        if tries = 0 then None
        else begin
          let rng = Rng.split master in
          let items = Gen.program rng in
          if has items && passes items then Some items else search (tries - 1)
        end
      in
      match search 300 with
      | None -> None
      | Some items ->
          let keep its = has its && passes its in
          let small = Shrink.minimize keep items in
          let file = Filename.concat dir ("gen-" ^ name ^ ".fuzz") in
          Corpus.save file
            ~comment:
              (Printf.sprintf
                 "generator feature: %s (seed %Ld, minimized); must verify and stay contained"
                 name seed)
            small;
          Some (file, Shrink.instruction_count small))
    features
