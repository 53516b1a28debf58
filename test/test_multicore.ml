(* The multi-core scheduler: run-queue/steal mechanics of
   Occlum_libos.Sched, the determinism-vs-parallelism differential over
   Os.state_digest, the scaling win in virtual time, and the multi-core
   serving path. *)

module Os = Occlum_libos.Os
module Sched = Occlum_libos.Sched
module Harness = Occlum_workloads.Harness
module Check = Occlum_fuzzing.Check

let mk ncores =
  Sched.create ~ncores ~jit:false ~obs:Occlum_obs.Obs.disabled ()

let always _ = true
let claim_all s = Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> -1)

(* --- run queues and stealing --------------------------------------------- *)

let test_steal_order () =
  (* all work homed on core 0; thieves take from the BACK of the victim
     queue, in deterministic victim order (self+1) mod n *)
  let s = mk 3 in
  List.iter (Sched.enqueue s) [ 0; 3; 6 ];
  Alcotest.(check (list (pair int int)))
    "core0 claims its front; cores 1,2 steal from core0's back"
    [ (0, 0); (1, 6); (2, 3) ]
    (claim_all s);
  Alcotest.(check int) "two steals counted" 2 (Sched.steals_total s);
  (* a stolen SIP moves to the thief's queue at claim time: locality
     follows the work *)
  Alcotest.(check (option int)) "6 now lives on core 1" (Some 1)
    (Sched.core_of s 6);
  Alcotest.(check (option int)) "claimed 0 is requeued on its owner" (Some 0)
    (Sched.core_of s 0)

let test_slot_exclusion () =
  (* two runnable SIPs sharing a domain slot never co-run in one epoch *)
  let s = mk 2 in
  Sched.enqueue s 2;
  (* home core 0 *)
  Sched.enqueue s 4;
  (* also home core 0; same slot below *)
  let claims =
    Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> 7)
  in
  Alcotest.(check (list (pair int int)))
    "only one of the slot-sharing pair is claimed"
    [ (0, 2) ] claims;
  let claims2 =
    Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> 7)
  in
  Alcotest.(check (list (pair int int))) "the other runs next epoch"
    [ (0, 4) ] claims2

let test_empty_queue_backoff () =
  (* an idle core's failed steal rounds back off exponentially up to
     max_backoff, and fresh work cancels the backoff *)
  let s = mk 2 in
  let failed_rounds = ref 0 in
  let peak = ref 0 in
  let expected () = min Sched.max_backoff (1 lsl min 8 (!failed_rounds - 1)) in
  for _ = 1 to 60 do
    ignore (claim_all s);
    let c = s.Sched.cores.(0) in
    if c.Sched.backoff > !peak then peak := c.Sched.backoff;
    if c.Sched.backoff > 0 && c.Sched.fail_streak > !failed_rounds then begin
      incr failed_rounds;
      Alcotest.(check int)
        (Printf.sprintf "backoff after %d failed rounds" !failed_rounds)
        (expected ()) c.Sched.backoff
    end
  done;
  Alcotest.(check bool) "several failed rounds observed" true
    (!failed_rounds >= 4);
  Alcotest.(check int) "backoff peaks at the cap" Sched.max_backoff !peak;
  Sched.enqueue s 0;
  Alcotest.(check int) "enqueue clears the home core's backoff" 0
    s.Sched.cores.(0).Sched.backoff;
  Alcotest.(check bool) "the other core still backs off" true
    (s.Sched.cores.(1).Sched.backoff > 0)

let test_futex_wake_targeting () =
  (* a futex wake clears the backoff of the core holding the woken pid,
     and only cross-core wakes are counted as such *)
  let s = mk 2 in
  Sched.enqueue s 5 (* home = 5 mod 2 = core 1 *);
  s.Sched.cores.(1).Sched.backoff <- 4;
  Sched.notify_wake s ~waker:0 5;
  Alcotest.(check int) "holder's backoff cleared" 0
    s.Sched.cores.(1).Sched.backoff;
  Alcotest.(check int) "wake from core 0 to core 1 is cross-core" 1
    s.Sched.cross_wakes;
  s.Sched.cores.(1).Sched.backoff <- 4;
  Sched.notify_wake s ~waker:1 5;
  Alcotest.(check int) "backoff cleared again" 0
    s.Sched.cores.(1).Sched.backoff;
  Alcotest.(check int) "same-core wake is not cross-core" 1 s.Sched.cross_wakes;
  Sched.notify_wake s ~waker:0 99;
  Alcotest.(check int) "waking an unqueued pid is a no-op" 1 s.Sched.cross_wakes

(* --- determinism differential -------------------------------------------- *)

let scaling cores =
  Harness.run_compute_scaling ~sips:8 ~iters:15_000 ~cores Harness.Occlum

let test_determinism_differential () =
  let r1 = scaling 1 in
  let r4a = scaling 4 in
  let r4b = scaling 4 in
  Alcotest.(check bool) "cores=1 completes" true (r1.Harness.sc_status = Os.All_exited);
  Alcotest.(check bool) "cores=4 completes" true (r4a.Harness.sc_status = Os.All_exited);
  Alcotest.(check string) "two cores=4 runs are bit-identical"
    r4a.Harness.sc_digest r4b.Harness.sc_digest;
  Alcotest.(check string) "cores=4 == cores=1 (state digest)"
    r1.Harness.sc_digest r4a.Harness.sc_digest;
  Alcotest.(check int) "same instructions retired" r1.Harness.sc_insns
    r4a.Harness.sc_insns

let test_scaling_speedup () =
  (* 8 independent CPU-bound SIPs: 4 cores must finish in well under
     half the virtual time of 1 core (an epoch costs its longest
     quantum) *)
  let r1 = scaling 1 and r4 = scaling 4 in
  let speedup =
    Int64.to_float r1.Harness.sc_vclock_ns
    /. Int64.to_float r4.Harness.sc_vclock_ns
  in
  Alcotest.(check bool)
    (Printf.sprintf "virtual-time speedup %.2f >= 2.0" speedup)
    true (speedup >= 2.0)

let test_step_matches_run () =
  (* driving a multi-core OS with Os.step (as the serving harness does)
     reaches the same final state as Os.run *)
  let boot () =
    let os = Harness.boot ~cores:3 Harness.Occlum in
    Harness.install os Harness.Occlum
      [ ("/bin/compute", Harness.compute_prog) ];
    for _ = 1 to 5 do
      ignore
        (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "2000" ])
    done;
    os
  in
  let a = boot () in
  ignore (Os.run ~max_steps:1_000_000 a);
  let b = boot () in
  let guard = ref 0 in
  while Os.step b && !guard < 1_000_000 do
    incr guard
  done;
  Os.merge_core_metrics b;
  Alcotest.(check string) "step-driven == run-driven" (Os.state_digest a)
    (Os.state_digest b)

let test_serving_multicore () =
  (* 2 event-loop servers on consecutive ports, clients sharded
     round-robin, on 2 vCPUs: every request completes *)
  let r =
    Harness.run_serving ~connections:60 ~rounds:2 ~servers:2 ~cores:2
      Harness.Occlum
  in
  Alcotest.(check int) "all responses received" 120 r.Harness.s_completed

let test_fuzz_property_replay () =
  (* the mc-determinism property from a fixed seed, as CI replays it *)
  let report =
    Check.run ~properties:[ Check.Mc_determinism ] ~shrink:false ~seed:1234L
      ~cases:25 ()
  in
  Alcotest.(check bool) "25 mc-determinism cases pass" true (Check.ok report)

let test_metrics_merge () =
  (* scheduler counters fold into the main registry exactly once *)
  let obs = Occlum_obs.Obs.create ~capacity:16 () in
  let os =
    Os.boot ~config:{ Os.default_config with cores = 2 } ~obs ()
  in
  Os.install_binary os "/bin/compute"
    (Harness.build_for Harness.Occlum Harness.compute_prog);
  for _ = 1 to 4 do
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "1000" ])
  done;
  ignore (Os.run ~max_steps:100_000 os);
  let value name =
    Occlum_obs.Metrics.value
      (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics name)
  in
  let q1 = value "os.quanta" and e1 = value "sched.epochs" in
  Alcotest.(check bool) "quanta recorded" true (q1 > 0);
  Alcotest.(check int) "every epoch merged" os.Os.sched.Sched.epochs e1;
  Os.merge_core_metrics os;
  Os.merge_core_metrics os;
  Alcotest.(check int) "re-merging adds nothing" e1 (value "sched.epochs");
  Alcotest.(check int) "quanta unchanged by merging" q1 (value "os.quanta")

let test_clock_covers_events () =
  (* four SIPs doing large file writes on 4 cores: their handlers run one
     after another in the post phase, each charging copy and encryption
     time. Every event a step records must be stamped no later than the
     clock the step leaves behind. *)
  let module Trace = Occlum_obs.Trace in
  let obs =
    Occlum_obs.Obs.create ~capacity:(1 lsl 16)
      ~events:[ Occlum_obs.Obs.Syscall; Occlum_obs.Obs.Sefs ]
      ()
  in
  let domains =
    { Occlum_libos.Domain_mgr.default_config with max_domains = 5 }
  in
  let os = Harness.boot ~domains ~cores:4 ~obs Harness.Occlum in
  Harness.install os Harness.Occlum [ ("/bin/fileio", Harness.file_io_prog) ];
  Occlum_libos.Sefs.ensure_parents os.Os.sefs "/data/x";
  for _ = 1 to 4 do
    ignore
      (Os.spawn os ~parent_pid:0 ~path:"/bin/fileio"
         ~args:[ "w"; "16384"; "65536" ])
  done;
  Trace.clear obs.Occlum_obs.Obs.trace;
  let late = ref 0 and steps = ref 0 in
  while Os.step os && !steps < 100_000 do
    incr steps;
    let now = Os.clock os in
    List.iter
      (fun (e : Trace.event) -> if Int64.compare e.ts now > 0 then incr late)
      (Trace.events obs.Occlum_obs.Obs.trace);
    Trace.clear obs.Occlum_obs.Obs.trace
  done;
  Alcotest.(check bool) "all writers exited" true (Os.live_procs os = []);
  Alcotest.(check int) "no event stamped after the step's final clock" 0 !late

let test_decode_cache_stats () =
  (* at cores=4 the reported code-cache stats, (hits, builds,
     invalidations), are the sum over the per-core JITs, and every core
     that ran code compiled and replayed it *)
  let os = Harness.boot ~cores:4 Harness.Occlum in
  Harness.install os Harness.Occlum [ ("/bin/compute", Harness.compute_prog) ];
  for _ = 1 to 4 do
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "2000" ])
  done;
  ignore (Os.run os);
  let sum =
    Array.fold_left
      (fun (a, b, c) core ->
        match core.Sched.jit with
        | Some j ->
            let compiles, hits, inv = Occlum_machine.Jit.stats j in
            (a + hits, b + compiles, c + inv)
        | None -> (a, b, c))
      (0, 0, 0) os.Os.sched.Sched.cores
  in
  match Os.decode_cache_stats os with
  | Some ((hits, builds, _) as stats) ->
      Alcotest.(check bool) "JIT compiled and replayed" true
        (builds > 0 && hits > 0);
      Alcotest.(check (triple int int int)) "equals the per-core sum" sum stats
  | None -> Alcotest.fail "stats missing with the JIT enabled"

let suite =
  [
    Alcotest.test_case "steal order is deterministic" `Quick test_steal_order;
    Alcotest.test_case "slot sharers never co-run" `Quick test_slot_exclusion;
    Alcotest.test_case "empty-queue steal backoff" `Quick
      test_empty_queue_backoff;
    Alcotest.test_case "futex wake targets the holding core" `Quick
      test_futex_wake_targeting;
    Alcotest.test_case "cores=1 vs cores=4 differential" `Quick
      test_determinism_differential;
    Alcotest.test_case "4-core virtual-time speedup >= 2x" `Quick
      test_scaling_speedup;
    Alcotest.test_case "Os.step == Os.run at cores=3" `Quick
      test_step_matches_run;
    Alcotest.test_case "multi-core serving completes" `Quick
      test_serving_multicore;
    Alcotest.test_case "mc-determinism fuzz replay (seed 1234)" `Quick
      test_fuzz_property_replay;
    Alcotest.test_case "per-core metrics merge exactly once" `Quick
      test_metrics_merge;
    Alcotest.test_case "epoch clock covers every event's timestamp" `Quick
      test_clock_covers_events;
    Alcotest.test_case "decode-cache stats sum the per-core caches" `Quick
      test_decode_cache_stats;
  ]
