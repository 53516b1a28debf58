(* The enclave cluster: quote-based remote attestation, attested
   channels over the untrusted host transport (replay/rollback/
   corruption rejection, bounded retries, exact idle deadlines),
   lifecycle orderliness at acceptance volume (500 hostile cases, zero
   false accepts), sharded KV with failover/failback, EPC restitution
   after a mid-handshake crash, and the single-enclave twin
   differential. *)

module Epc = Occlum_sgx.Epc
module Enclave = Occlum_sgx.Enclave
module Attestation = Occlum_sgx.Attestation
module Mem = Occlum_machine.Mem
module Os = Occlum_libos.Os
module Host_transport = Occlum_libos.Host_transport
module Lifecycle = Occlum_cluster.Lifecycle
module Channel = Occlum_cluster.Channel
module Cluster = Occlum_cluster.Cluster
module Obs = Occlum_obs.Obs
module Inject = Occlum_fuzzing.Inject
module Check = Occlum_fuzzing.Check

let page = 4096

let build_enclave ?(content = "hello enclave") () =
  let epc = Epc.create ~size:(64 * page) () in
  let e = Enclave.create ~epc ~size:(8 * page) () in
  let data = Bytes.make page ' ' in
  Bytes.blit_string content 0 data 0 (String.length content);
  Enclave.add_pages e ~addr:0 ~data ~perm:Mem.perm_rx;
  Enclave.add_zero_pages e ~addr:page ~len:page ~perm:Mem.perm_rw;
  Enclave.init e;
  e

let with_cluster ?(connect = true) ~nodes f =
  Attestation.reset_nonce_cache ();
  let cl = Cluster.create ~connect ~nodes () in
  Fun.protect ~finally:(fun () -> Cluster.destroy cl) (fun () -> f cl)

(* --- remote attestation ----------------------------------------------------- *)

let test_quote_roundtrip () =
  let e = build_enclave () in
  let q = Attestation.quote ~enclave:e ~user_data:"pub-material" in
  Alcotest.(check bool) "quote verifies" true (Attestation.verify_quote q);
  Alcotest.(check (option string))
    "user data attested" (Some "pub-material")
    (Attestation.quote_user_data q);
  Alcotest.(check (option string))
    "measurement attested"
    (Some (Occlum_util.Sha256.to_hex (Enclave.measurement e)))
    (Attestation.quote_measurement q);
  (* tampering with the body or the QE identity breaks the signature *)
  let bad = { q with Attestation.q_body = q.Attestation.q_body ^ "x" } in
  Alcotest.(check bool) "tampered quote rejected" false
    (Attestation.verify_quote bad);
  let fake = { q with Attestation.q_qe = "rogue-qe" } in
  Alcotest.(check bool) "rogue QE rejected" false (Attestation.verify_quote fake)

let test_nonce_replay_rejected () =
  Attestation.reset_nonce_cache ();
  let parent = build_enclave () in
  let child = build_enclave ~content:"other" () in
  (match Attestation.handshake ~parent ~child ~nonce:"n" with
  | Ok k -> Alcotest.(check int) "session key size" 32 (String.length k)
  | Error m -> Alcotest.fail m);
  (match Attestation.handshake ~parent ~child ~nonce:"n" with
  | Ok _ -> Alcotest.fail "replayed nonce accepted"
  | Error m ->
      Alcotest.(check bool) "replay named in the error" true
        (String.length m > 0));
  (* the same nonce is fresh for the reversed (ordered) pair, and a
     fresh nonce is fine for the original pair *)
  (match Attestation.handshake ~parent:child ~child:parent ~nonce:"n" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("reversed pair rejected: " ^ m));
  match Attestation.handshake ~parent ~child ~nonce:"n2" with
  | Ok _ -> Attestation.reset_nonce_cache ()
  | Error m -> Alcotest.fail ("fresh nonce rejected: " ^ m)

(* --- channels --------------------------------------------------------------- *)

let mk_channel ?(now = 0L) () =
  let tr = Host_transport.create () in
  let ch =
    Channel.establish ~a:0 ~b:1 ~key:(String.make 32 'k') ~epoch:1
      ~transport:tr ~now ~obs:Obs.disabled
  in
  (tr, ch)

let test_retry_budget_exhaustion () =
  let inj = Inject.make () in
  let tr, ch = mk_channel () in
  (* every send (first try and all retransmissions) is dropped: the
     exchange must come back with a clean typed error, never hang *)
  Inject.arm_channel inj tr ~times:100 ~at:1 ~fault:Host_transport.Drop
    (fun () ->
      match Channel.deliver ch ~src:0 "ping" ~now:0L with
      | Error Channel.Budget_exhausted -> ()
      | Error k -> Alcotest.failf "wrong fault: %s" (Channel.fault_name k)
      | Ok _ -> Alcotest.fail "delivered through a black hole");
  Alcotest.(check int) "all attempts used" (Channel.max_attempts - 1)
    (Channel.retries ch);
  (match Channel.state ch with
  | Channel.Failed Channel.Budget_exhausted -> ()
  | _ -> Alcotest.fail "channel not failed closed");
  (* the accrued backoff follows the shared deterministic curve *)
  let expect =
    let rec sum k acc =
      if k > Channel.max_attempts - 1 then acc
      else sum (k + 1) (Int64.add acc (Channel.backoff_ns_of_attempt k))
    in
    sum 1 0L
  in
  Alcotest.(check int64) "deterministic backoff accrued" expect
    (Channel.drain_backoff ch)

let test_idle_timeout_exact () =
  let _, ch = mk_channel ~now:1_000L () in
  let deadline = Int64.add 1_000L Channel.idle_timeout_ns in
  Alcotest.(check bool) "one tick before the deadline" false
    (Channel.check_idle ch ~now:(Int64.sub deadline 1L));
  Alcotest.(check bool) "still open" true (Channel.state ch = Channel.Open);
  Alcotest.(check bool) "fires exactly at the deadline" true
    (Channel.check_idle ch ~now:deadline);
  match Channel.state ch with
  | Channel.Failed Channel.Timeout -> ()
  | _ -> Alcotest.fail "channel not failed with Timeout"

let test_replay_and_rollback_rejected () =
  (* capture an authentic frame, deliver it, then have the host inject
     the capture again: an authentic-but-old frame is a hard fault *)
  let tr, ch = mk_channel () in
  (match Channel.send ch ~src:0 "one" with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "first seq not 0");
  let frame =
    match Host_transport.recv tr ~src:0 ~dst:1 with
    | Some f -> f
    | None -> Alcotest.fail "no frame queued"
  in
  Host_transport.inject tr ~src:0 ~dst:1 frame;
  (match Channel.try_recv ch ~dst:1 ~now:0L with
  | Ok (Some p) -> Alcotest.(check string) "payload intact" "one" p
  | _ -> Alcotest.fail "fresh frame not delivered");
  (* benign duplicate of the immediately-preceding seq is absorbed ... *)
  Host_transport.inject tr ~src:0 ~dst:1 frame;
  (match Channel.try_recv ch ~dst:1 ~now:0L with
  | Ok None -> ()
  | _ -> Alcotest.fail "duplicate not absorbed");
  Alcotest.(check int) "duplicate counted" 1 (Channel.duplicates ch);
  (* ... but after more traffic the same capture is a replay *)
  (match Channel.send ch ~src:0 "two" with Ok _ -> () | _ -> Alcotest.fail "send");
  (match Channel.try_recv ch ~dst:1 ~now:0L with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "second frame");
  Host_transport.inject tr ~src:0 ~dst:1 frame;
  (match Channel.try_recv ch ~dst:1 ~now:0L with
  | Error Channel.Replay -> ()
  | _ -> Alcotest.fail "stale replay not rejected");
  match Channel.state ch with
  | Channel.Failed Channel.Replay -> ()
  | _ -> Alcotest.fail "replay did not fail the channel"

let test_rollback_on_withheld_frame () =
  let tr, ch = mk_channel () in
  (match Channel.send ch ~src:0 "a" with Ok _ -> () | _ -> Alcotest.fail "send a");
  (match Channel.send ch ~src:0 "b" with Ok _ -> () | _ -> Alcotest.fail "send b");
  (* the host withholds frame 0 and presents frame 1 first *)
  (match Host_transport.recv tr ~src:0 ~dst:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "frame 0 missing");
  match Channel.try_recv ch ~dst:1 ~now:0L with
  | Error Channel.Rollback -> ()
  | _ -> Alcotest.fail "withheld-frame rollback not rejected"

let test_arm_channel_determinism () =
  let run () =
    let inj = Inject.make () in
    let tr, ch = mk_channel () in
    let r1, r2 =
      Inject.arm_channel inj tr ~times:2 ~at:2
        ~fault:(Host_transport.Corrupt 13) (fun () ->
          let r1 = Channel.deliver ch ~src:0 "ping" ~now:0L in
          (r1, Channel.deliver ch ~src:1 "pong" ~now:0L))
    in
    ( r1, r2, Channel.retries ch, Channel.mac_failures ch, Channel.sent ch,
      Channel.received ch, inj.Inject.chan )
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "same plan, bit-identical outcome" true (a = b);
  let r1, r2, retries, macs, _, _, injected = a in
  Alcotest.(check bool) "both exchanges completed" true
    (r1 = Ok "ping" && r2 = Ok "pong");
  Alcotest.(check bool) "corruption actually bit" true
    (retries > 0 && macs > 0 && injected = 2)

(* --- the cluster ------------------------------------------------------------- *)

let test_cluster_boot_and_rpc () =
  with_cluster ~nodes:3 (fun cl ->
      Alcotest.(check int) "all alive" 3 (Cluster.alive_count cl);
      for i = 0 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "node %d serving" i)
          true
          (Lifecycle.node_phase (Cluster.checker cl) i = Lifecycle.Serving)
      done;
      Alcotest.(check int) "full mesh handshaken" 3 (Cluster.handshakes cl);
      (* a raw RPC against a non-owner exercises one full exchange *)
      match Cluster.rpc cl ~src:0 ~dst:1 "Gmissing" with
      | Ok "N" -> ()
      | Ok r -> Alcotest.failf "unexpected reply %S" r
      | Error k -> Alcotest.failf "rpc failed: %s" (Channel.fault_name k))

let test_kv_sharding_and_routing () =
  with_cluster ~nodes:3 (fun cl ->
      let keys = List.init 24 (fun i -> Printf.sprintf "key%d" i) in
      List.iter
        (fun k ->
          Alcotest.(check bool) ("put " ^ k) true
            (Cluster.kv_put cl ~via:0 k ("v-" ^ k)))
        keys;
      List.iter
        (fun k ->
          Alcotest.(check (option string))
            ("get " ^ k)
            (Some ("v-" ^ k))
            (Cluster.kv_get cl ~via:(Cluster.shard_of_key k mod 3) k))
        keys;
      Alcotest.(check bool) "cross-enclave RPCs happened" true
        (Cluster.rpcs cl > 0);
      Alcotest.(check int) "no failures on a clean host" 0
        (Cluster.rpc_failures cl);
      (* rejected keys *)
      Alcotest.(check bool) "empty key rejected" false (Cluster.kv_put cl "" "v");
      Alcotest.(check bool) "slash key rejected" false
        (Cluster.kv_put cl "a/b" "v"))

let test_cluster_single_twin () =
  let ops = List.init 16 (fun i -> (Printf.sprintf "key%d" (i mod 10), Printf.sprintf "val%d" i)) in
  let run nodes =
    with_cluster ~nodes (fun cl ->
        List.iter
          (fun (k, v) ->
            Alcotest.(check bool) ("put " ^ k) true
              (Cluster.kv_put cl ~via:(Cluster.shard_of_key v mod nodes) k v))
          ops;
        let reads = List.map (fun (k, _) -> Cluster.kv_get cl k) ops in
        Alcotest.(check int) "fault-free: no failovers" 0 (Cluster.failovers cl);
        (Cluster.kv_digest cl, reads))
  in
  let dn, gn = run 3 in
  let d1, g1 = run 1 in
  Alcotest.(check string) "digest-identical to the single-enclave twin" d1 dn;
  Alcotest.(check bool) "read-identical to the single-enclave twin" true
    (gn = g1)

let test_failover_and_failback () =
  with_cluster ~nodes:3 (fun cl ->
      (* a key homed on node 2, reached via node 0 *)
      let key =
        let rec find i =
          let k = Printf.sprintf "fo%d" i in
          if Cluster.owner_of_key cl k = 2 then k else find (i + 1)
        in
        find 0
      in
      Alcotest.(check bool) "put before crash" true
        (Cluster.kv_put cl ~via:0 key "v0");
      Cluster.kill_node cl 2;
      Alcotest.(check int) "two alive" 2 (Cluster.alive_count cl);
      Alcotest.(check bool) "owner failed over" true
        (Cluster.owner_of_key cl key <> 2);
      (* the write is re-routed to the failover owner; the old copy died
         with the enclave *)
      Alcotest.(check bool) "put after crash" true
        (Cluster.kv_put cl ~via:0 key "v1");
      Alcotest.(check (option string)) "served by the failover owner"
        (Some "v1")
        (Cluster.kv_get cl ~via:0 key);
      (* revival: full lifecycle from ECREATE, fresh quotes, re-handshakes *)
      let handshakes_before = Cluster.handshakes cl in
      Cluster.revive cl 2;
      Alcotest.(check int) "three alive again" 3 (Cluster.alive_count cl);
      Alcotest.(check bool) "revived node re-attested and re-handshaken" true
        (Cluster.handshakes cl > handshakes_before);
      Alcotest.(check int) "ownership failed back" 2
        (Cluster.owner_of_key cl key);
      Alcotest.(check bool) "writes land on the revived home" true
        (Cluster.kv_put cl ~via:0 key "v2");
      Alcotest.(check (option string)) "served by the revived home"
        (Some "v2")
        (Cluster.kv_get cl ~via:1 key))

let test_hostile_host_degrades_gracefully () =
  with_cluster ~nodes:2 (fun cl ->
      let inj = Inject.make () in
      (* every frame from now on is dropped: the first remote op burns
         its retry budget, re-attests, fails again, and declares the
         peer down — and the op still completes via failover *)
      let key =
        let rec find i =
          let k = Printf.sprintf "hh%d" i in
          if Cluster.owner_of_key cl k = 1 then k else find (i + 1)
        in
        find 0
      in
      Inject.arm_channel inj (Cluster.transport cl) ~times:1_000 ~at:1
        ~fault:Host_transport.Drop (fun () ->
          Alcotest.(check bool) "op completes despite a black-hole host" true
            (Cluster.kv_put cl ~via:0 key "v"));
      Alcotest.(check int) "peer declared down" 1 (Cluster.failovers cl);
      Alcotest.(check bool) "failed exchanges recorded" true
        (Cluster.rpc_failures cl >= 2);
      Alcotest.(check (option string)) "value served by the survivor"
        (Some "v")
        (Cluster.kv_get cl ~via:0 key))

let test_midhandshake_crash_epc_restitution () =
  Attestation.reset_nonce_cache ();
  let cl = Cluster.create ~connect:false ~nodes:2 () in
  let pool = (Cluster.node_os cl 1).Os.epc in
  Alcotest.(check bool) "node 1 holds EPC while serving" true
    (Epc.used_pages pool > 0);
  (* crash the peer between Hs_start and Hs_done *)
  Cluster.begin_handshake cl 0 1;
  Alcotest.(check bool) "mid-handshake" true
    (Lifecycle.chan_phase (Cluster.checker cl) 0 1 = Lifecycle.Handshaking);
  Cluster.kill_node cl 1;
  Alcotest.(check int) "every EPC page restituted" 0 (Epc.used_pages pool);
  Alcotest.(check bool) "checker agrees the channel died" true
    (Lifecycle.chan_phase (Cluster.checker cl) 0 1 = Lifecycle.Closed);
  (* the survivor is still fully functional *)
  Alcotest.(check bool) "survivor serves" true
    (Cluster.kv_put cl ~via:0 "k" "v");
  Cluster.destroy cl

let test_idle_sweep_in_cluster () =
  with_cluster ~nodes:2 (fun cl ->
      (match Cluster.channel cl 0 1 with
      | Some ch -> Alcotest.(check bool) "open" true (Channel.state ch = Channel.Open)
      | None -> Alcotest.fail "no channel");
      Cluster.advance_node_clock cl 0 (Int64.add Channel.idle_timeout_ns 1L);
      Cluster.tick cl;
      match Cluster.channel cl 0 1 with
      | Some ch -> (
          match Channel.state ch with
          | Channel.Failed Channel.Timeout -> ()
          | _ -> Alcotest.fail "idle channel not timed out")
      | None -> Alcotest.fail "no channel")

(* --- orderliness at acceptance volume --------------------------------------- *)

let test_orderliness_500 () =
  match Check.orderliness_stress ~seed:2026L ~cases:500 with
  | [] -> ()
  | (case, d) :: _ as fails ->
      Alcotest.failf "%d orderliness failures; first (case %d): %s"
        (List.length fails) case d

let test_orderliness_corpus_replay () =
  match Check.replay_orderliness "corpus/gen-cluster-orderliness.fuzz" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "quote roundtrip + tampering" `Quick test_quote_roundtrip;
    Alcotest.test_case "handshake nonce replay rejected" `Quick
      test_nonce_replay_rejected;
    Alcotest.test_case "retry budget exhaustion is a clean error" `Quick
      test_retry_budget_exhaustion;
    Alcotest.test_case "idle timeout at the exact deadline" `Quick
      test_idle_timeout_exact;
    Alcotest.test_case "replay rejected, benign duplicate absorbed" `Quick
      test_replay_and_rollback_rejected;
    Alcotest.test_case "withheld frame is a rollback" `Quick
      test_rollback_on_withheld_frame;
    Alcotest.test_case "arm_channel fault plans are deterministic" `Quick
      test_arm_channel_determinism;
    Alcotest.test_case "boot, attest, full-mesh RPC" `Quick
      test_cluster_boot_and_rpc;
    Alcotest.test_case "sharded KV routes across enclaves" `Quick
      test_kv_sharding_and_routing;
    Alcotest.test_case "cluster digests equal the single-enclave twin" `Quick
      test_cluster_single_twin;
    Alcotest.test_case "failover and failback" `Quick test_failover_and_failback;
    Alcotest.test_case "black-hole host degrades gracefully" `Quick
      test_hostile_host_degrades_gracefully;
    Alcotest.test_case "mid-handshake crash restitutes EPC" `Quick
      test_midhandshake_crash_epc_restitution;
    Alcotest.test_case "idle sweep times out stalled channels" `Quick
      test_idle_sweep_in_cluster;
    Alcotest.test_case "orderliness: 500 hostile cases, zero false accepts"
      `Quick test_orderliness_500;
    Alcotest.test_case "orderliness corpus replays" `Quick
      test_orderliness_corpus_replay;
  ]
