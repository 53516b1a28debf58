(* The multi-core scheduler: the claim pass of Occlum_libos.Sched, the
   determinism-vs-parallelism differential over Os.state_digest, the
   scaling win in virtual time, and the multi-core serving path. *)

module Os = Occlum_libos.Os
module Sched = Occlum_libos.Sched
module Harness = Occlum_workloads.Harness
module Check = Occlum_fuzzing.Check

let mk ncores = Sched.create ~ncores

let always _ = true
let claim_all s = Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> -1)

(* --- the run queue --------------------------------------------------------- *)

let test_slot_exclusion () =
  (* two runnable SIPs sharing a domain slot never co-run in one epoch *)
  let s = mk 2 in
  Sched.enqueue s 2;
  Sched.enqueue s 4;
  let claims =
    Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> 7)
  in
  Alcotest.(check (list int))
    "only one of the slot-sharing pair is claimed"
    [ 2 ] claims;
  let claims2 =
    Sched.claim s ~runnable:always ~live:always ~slot_of:(fun _ -> 7)
  in
  Alcotest.(check (list int)) "the other runs next epoch"
    [ 4 ] claims2

let test_idle_core_claims () =
  (* epochs with nothing runnable leave no core ignoring work that
     arrives afterwards: both queued SIPs run in the next epoch *)
  let s = mk 2 in
  Sched.enqueue s 1;
  for _ = 1 to 3 do
    ignore
      (Sched.claim s ~runnable:(fun _ -> false) ~live:always
         ~slot_of:(fun _ -> -1))
  done;
  Sched.enqueue s 3;
  Alcotest.(check (list int))
    "both cores claim" [ 1; 3 ] (claim_all s)

(* The one-core round-robin pick, as a list model: pop the front; a dead
   pid is dropped, a live one goes behind the tail, the claimed one
   too; [len + 1] pops at most. Returns the claim and the queue after. *)
let model_pick rq ~live ~ok =
  let rec go rq tries =
    match rq with
    | pid :: rest when tries > 0 ->
        if not (live pid) then go rest (tries - 1)
        else
          let rq = rest @ [ pid ] in
          if ok pid then (Some pid, rq) else go rq (tries - 1)
    | _ -> (None, rq)
  in
  go rq (List.length rq + 1)

(* One epoch of the random schedule: pids enqueued before it, then its
   live, runnable and slot maps over pids 0..max_pid-1. *)
let max_pid = 24

let gen_epoch =
  QCheck.Gen.(
    quad (int_range 0 3)
      (array_repeat max_pid (int_range 0 5))
      (array_repeat max_pid bool)
      (array_repeat max_pid (int_range (-1) 3)))

let prop_claim_pass =
  QCheck.Test.make ~name:"one claim pass over random queues" ~count:500
    QCheck.(
      make
        ~print:(fun (cores, epochs) ->
          (* per epoch: +fresh, then life/runnable/slot of each pid *)
          Printf.sprintf "cores=%d %s" cores
            (String.concat " | "
               (List.map
                  (fun (fresh, life, run, slots) ->
                    Printf.sprintf "+%d %s" fresh
                      (String.concat " "
                         (List.init max_pid (fun p ->
                              Printf.sprintf "%d%c%d" life.(p)
                                (if run.(p) then 'r' else '-')
                                slots.(p)))))
                  epochs)))
        Gen.(pair (int_range 1 4) (list_size (int_range 1 8) gen_epoch)))
    (fun (cores, epochs) ->
      let s = mk cores in
      let next = ref 0 in
      List.for_all
        (fun (fresh, life, run, slots) ->
          for _ = 1 to fresh do
            if !next < max_pid then begin
              Sched.enqueue s !next;
              incr next
            end
          done;
          (* 0 = dead; 1 = live, blocked; above = runnable *)
          let live pid = life.(pid) > 0 in
          let runnable pid = life.(pid) > 1 && run.(pid) in
          let slot_of pid = slots.(pid) in
          let before = Sched.queued s in
          let pids = Sched.claim s ~runnable ~live ~slot_of in
          let after = Sched.queued s in
          let claimed_slots =
            List.filter (fun x -> x >= 0) (List.map slot_of pids)
          in
          let distinct l = List.length (List.sort_uniq compare l) = List.length l in
          let sorted l = List.sort compare l in
          List.length pids <= cores
          && distinct pids && distinct claimed_slots
          && List.for_all (fun p -> runnable p && List.mem p before) pids
          && (List.length pids = cores
             || List.for_all
                  (fun p ->
                    List.mem p pids
                    || (not (runnable p))
                    || List.mem (slot_of p) claimed_slots)
                  before)
          && sorted (List.filter live after) = sorted (List.filter live before)
          && List.for_all (fun p -> List.mem p before) after
          && (cores > 1
             ||
             let pick, rq = model_pick before ~live ~ok:runnable in
             Option.to_list pick = pids && rq = after))
        epochs)

(* --- the LibOS's queue of proc records ------------------------------------ *)

let rt = Occlum_toolchain.Runtime.program

let transcript os =
  Printf.sprintf "console=%s digest=%s clock=%Ld syscalls=%d gates=%d"
    (String.sub
       (Occlum_util.Sha256.to_hex
          (Occlum_util.Sha256.digest (Os.console_output os)))
       0 16)
    (String.sub (Os.state_digest os) 0 16)
    (Os.clock os) os.Os.syscalls os.Os.gate_crossings

let blocked_procs os =
  Hashtbl.fold
    (fun _ p n -> if p.Os.state = `Blocked then n + 1 else n)
    os.Os.procs 0

(* A parent reaps a zombie child with [wait] while a sibling still runs.
   The reaped record leaves the process table but is still queued; the
   claims that follow drop it without running it, and the run is the
   same as when the queue held pids. *)
let test_reap_while_sibling_runs () =
  let open Occlum_toolchain.Ast in
  let quick = rt [ func "main" [] [ Return (i 7) ] ] in
  let slow =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            While
              ( v "k" <: i 3,
                [
                  Let ("j", i 0);
                  While (v "j" <: i 20_000, [ Assign ("j", v "j" +: i 1) ]);
                  Expr (Call ("puts", [ Str "s"; i 1 ]));
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (i 0);
          ];
      ]
  in
  let parent =
    rt
      [
        func "main" []
          [
            Let ("slow", Call ("spawn0", [ Str "/bin/slow"; i 9 ]));
            Let ("quick", Call ("spawn0", [ Str "/bin/quick"; i 10 ]));
            Let ("st", Global_addr "_rt_misc_buf");
            If
              ( Call ("waitpid", [ v "quick"; v "st" ]) <>: v "quick",
                [ Return (i 1) ],
                [] );
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            If
              ( Call ("waitpid", [ v "slow"; v "st" ]) <>: v "slow",
                [ Return (i 2) ],
                [] );
            Return (i 0);
          ];
      ]
  in
  let module Trace = Occlum_obs.Trace in
  let obs = Occlum_obs.Obs.(create ~events:[ Quantum; Lifecycle ] ()) in
  let trace = obs.Occlum_obs.Obs.trace in
  let os = Harness.boot ~obs Harness.Occlum in
  Harness.install os Harness.Occlum
    [ ("/bin/app", parent); ("/bin/slow", slow); ("/bin/quick", quick) ];
  let app = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  Alcotest.(check bool) "ran to completion" true (Os.run os = Os.All_exited);
  Alcotest.(check int) "parent exit code" 0
    (match Os.find_proc os app with Some p -> p.Os.exit_code | None -> -1);
  let slow_pid = app + 1 and quick_pid = app + 2 in
  Alcotest.(check bool) "the quick child was reaped" true
    (Os.find_proc os quick_pid = None);
  Alcotest.(check bool) "its record left the queue" true
    (List.for_all (fun p -> p.Os.pid <> quick_pid) (Sched.queued os.Os.sched));
  let events = List.map (fun e -> e.Trace.kind) (Trace.events trace) in
  Alcotest.(check int) "no event dropped" 0 (Trace.dropped trace);
  let rec after_exit pid = function
    | [] -> []
    | Trace.Exit { pid = q; _ } :: rest when q = pid -> rest
    | _ :: rest -> after_exit pid rest
  in
  let later = after_exit quick_pid events in
  Alcotest.(check bool) "the reaped child never runs again" true
    (List.for_all
       (function Trace.Quantum_start { pid } -> pid <> quick_pid | _ -> true)
       later);
  Alcotest.(check bool) "its sibling ran on after it" true
    (List.exists
       (function Trace.Quantum_start { pid } -> pid = slow_pid | _ -> false)
       later);
  Alcotest.(check string) "transcript"
    "console=cfbdd67a45d7f929 digest=2d561dbca3f13320 clock=341960 syscalls=12 gates=12"
    (transcript os)

(* [t.blocked] is the number of [`Blocked] procs after every step of the
   fish golden run, at one core and at three. The one-core run is the
   golden transcript. *)
let test_blocked_count_fish () =
  List.iter
    (fun cores ->
      let os = Harness.boot ~cores Harness.Occlum in
      Harness.install os Harness.Occlum Occlum_workloads.Fish.binaries;
      ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/fish" ~args:[ "2"; "30" ]);
      let peak = ref 0 in
      let rec go () =
        match Os.run ~max_steps:1 os with
        | Os.Quota_exhausted ->
            let n = blocked_procs os in
            if os.Os.blocked <> n then
              Alcotest.failf "cores=%d: count %d, %d procs blocked" cores
                os.Os.blocked n;
            peak := max !peak n;
            go ()
        | status -> status
      in
      Alcotest.(check bool) "fish ran to completion" true (go () = Os.All_exited);
      Alcotest.(check int) "none blocked at the end" 0 os.Os.blocked;
      Alcotest.(check bool) "some SIP blocked on the way" true (!peak > 0);
      if cores = 1 then
        Alcotest.(check string) "fish golden transcript"
          "console=34a8e311cddcb4f2 digest=3a13905eb3815db2 clock=99955 syscalls=334 gates=334"
          (transcript os))
    [ 1; 3 ]

(* A blocked SIP can go straight to Zombie: when its retried call
   completes but the gate's return address fails the return check, the
   LibOS kills it. The blocked count follows. *)
let test_blocked_sip_killed () =
  let open Occlum_toolchain.Ast in
  let nap =
    rt
      [
        func "main" []
          [
            Expr (Syscall (Occlum_abi.Abi.Sys.nanosleep, [ i 1_000_000 ]));
            Return (i 0);
          ];
      ]
  in
  let os = Harness.boot Harness.Occlum in
  Harness.install os Harness.Occlum [ ("/bin/nap", nap) ];
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/nap" ~args:[] in
  let p = Option.get (Os.find_proc os pid) in
  while p.Os.state <> `Blocked && Os.step os do () done;
  Alcotest.(check int) "one blocked" 1 os.Os.blocked;
  let sp = Int64.to_int (Occlum_machine.Cpu.get p.Os.cpu Occlum_isa.Reg.sp) in
  Occlum_machine.Mem.write_u64_priv os.Os.mem sp 0L;
  (* the idle retry kills it, and with no live SIP left the run ends as
     every SIP having exited, not as a deadlock *)
  Alcotest.(check bool) "run ends" true (Os.run os = Os.All_exited);
  Alcotest.(check int) "killed by SIGKILL" (128 + 9) p.Os.exit_code;
  Alcotest.(check int) "none blocked" 0 os.Os.blocked

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
  (* every step is one epoch, and each is counted once *)
  let obs = Occlum_obs.Obs.create ~capacity:16 () in
  let os =
    Os.boot ~config:{ Os.default_config with cores = 2 } ~obs ()
  in
  Os.install_binary os "/bin/compute"
    (Harness.build_for Harness.Occlum Harness.compute_prog);
  for _ = 1 to 4 do
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "1000" ])
  done;
  let steps = ref 1 in
  while Os.step os && !steps < 100_000 do
    incr steps
  done;
  Alcotest.(check bool) "all SIPs exited" true (Os.live_procs os = []);
  let value name =
    Occlum_obs.Metrics.value
      (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics name)
  in
  Alcotest.(check bool) "quanta recorded" true (value "os.quanta" > 0);
  Alcotest.(check int) "sched.epochs = steps" !steps (value "sched.epochs");
  Alcotest.(check int) "claims beyond the second never happen" 0
    (value "sched.core2.quanta")

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

let test_jit_events_traced () =
  (* at cores=4 every core's quanta run through the one JIT and report
     to the LibOS's trace: each compile the JIT counts is one
     Jit_compile event, from whichever core ran the block *)
  let module Trace = Occlum_obs.Trace in
  let obs =
    Occlum_obs.Obs.create ~capacity:(1 lsl 18) ~events:[ Occlum_obs.Obs.Jit ]
      ()
  in
  let os = Harness.boot ~cores:4 ~obs Harness.Occlum in
  Harness.install os Harness.Occlum [ ("/bin/compute", Harness.compute_prog) ];
  for _ = 1 to 4 do
    ignore (Os.spawn os ~parent_pid:0 ~path:"/bin/compute" ~args:[ "2000" ])
  done;
  ignore (Os.run os);
  let trace = obs.Occlum_obs.Obs.trace in
  Alcotest.(check int) "no event dropped" 0 (Trace.dropped trace);
  let traced =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.kind with Trace.Jit_compile _ -> true | _ -> false)
         (Trace.events trace))
  in
  match Os.jit_stats os with
  | Some (compiles, hits, _) ->
      Alcotest.(check bool) "JIT compiled and replayed" true
        (compiles > 0 && hits > 0);
      Alcotest.(check int) "one Jit_compile event per compile" compiles traced
  | None -> Alcotest.fail "stats missing with the JIT enabled"

let suite =
  [
    Alcotest.test_case "slot sharers never co-run" `Quick test_slot_exclusion;
    Alcotest.test_case "an idle core claims queued work" `Quick
      test_idle_core_claims;
    QCheck_alcotest.to_alcotest prop_claim_pass;
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
    Alcotest.test_case "every core's JIT events reach the trace" `Quick
      test_jit_events_traced;
    Alcotest.test_case "a reaped zombie is dropped, not run" `Quick
      test_reap_while_sibling_runs;
    Alcotest.test_case "blocked count over the fish run" `Quick
      test_blocked_count_fish;
    Alcotest.test_case "blocked SIP killed at its return check" `Quick
      test_blocked_sip_killed;
  ]
