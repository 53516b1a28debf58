(* Observability-layer tests: metric bucketing edges, ring-buffer
   wraparound, Chrome trace_event export validity, and — the load-bearing
   property — differential runs proving that tracing never perturbs the
   simulation: registers, memory, counters, cycle charges and the
   virtual clock are bit-identical with tracing enabled and disabled. *)

open Occlum_machine
open Occlum_isa
module Metrics = Occlum_obs.Metrics
module Trace = Occlum_obs.Trace
module Obs = Occlum_obs.Obs
module H = Occlum_workloads.Harness
module Os = Occlum_libos.Os

(* --- metrics ------------------------------------------------------------- *)

let test_counter () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "a" in
  Metrics.inc c;
  Metrics.add c 41;
  Alcotest.(check int) "accumulates" 42 (Metrics.value c);
  Alcotest.(check int) "get-or-create returns the same counter" 42
    (Metrics.value (Metrics.counter reg "a"));
  Alcotest.check_raises "histogram under a counter name"
    (Invalid_argument "Metrics.histogram: a is a counter") (fun () ->
      ignore (Metrics.histogram reg "a" ~bounds:[| 1 |]))

let test_histogram_edges () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" ~bounds:[| 10; 100; 1000 |] in
  (* one observation per interesting edge: below, exactly-at (inclusive),
     just-above, and past the last bound *)
  List.iter (Metrics.observe h) [ 0; 10; 11; 100; 101; 1000; 1001; 5000 ];
  Alcotest.(check (array int)) "inclusive upper bounds + overflow"
    [| 2; 2; 2; 2 |] (Metrics.bucket_counts h);
  Alcotest.(check int) "count" 8 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 7223 (Metrics.hist_sum h);
  (* negative values land in the first bucket, not a crash *)
  Metrics.observe h (-5);
  Alcotest.(check (array int)) "negative in first bucket" [| 3; 2; 2; 2 |]
    (Metrics.bucket_counts h);
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument "Metrics.histogram: bounds not increasing")
    (fun () -> ignore (Metrics.histogram reg "bad" ~bounds:[| 5; 5 |]))

(* --- tracer ring ---------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Trace.create ~capacity:4 () in
  for i = 1 to 11 do
    Trace.emit r ~ts:(Int64.of_int i) (Trace.Quantum_start { pid = i })
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Trace.length r);
  Alcotest.(check int) "total counts every emit" 11 (Trace.total r);
  Alcotest.(check int) "dropped = total - capacity" 7 (Trace.dropped r);
  let pids =
    List.map
      (fun (e : Trace.event) ->
        match e.kind with Trace.Quantum_start { pid } -> pid | _ -> -1)
      (Trace.events r)
  in
  Alcotest.(check (list int)) "keeps the newest, oldest first" [ 8; 9; 10; 11 ]
    pids;
  Trace.clear r;
  Alcotest.(check int) "clear empties the ring" 0 (Trace.length r);
  (* capacity 0: the disabled configuration records nothing *)
  let z = Trace.create ~capacity:0 () in
  Trace.emit z ~ts:0L (Trace.Quantum_start { pid = 1 });
  Alcotest.(check int) "zero-capacity stores nothing" 0 (Trace.length z);
  Alcotest.(check int) "zero-capacity counts drops" 1 (Trace.dropped z)

let test_class_parsing () =
  (match Obs.classes_of_string "syscall, net,dcache" with
  | Ok cls ->
      Alcotest.(check int) "three classes" 3 (List.length cls);
      Alcotest.(check bool) "syscall present" true (List.mem Obs.Syscall cls)
  | Error m -> Alcotest.fail m);
  (match Obs.classes_of_string "all" with
  | Ok cls ->
      Alcotest.(check int) "all = every class"
        (List.length Obs.all_classes) (List.length cls)
  | Error m -> Alcotest.fail m);
  match Obs.classes_of_string "syscall,bogus" with
  | Ok _ -> Alcotest.fail "unknown class accepted"
  | Error _ -> ()

(* --- Chrome export -------------------------------------------------------- *)

(* A minimal JSON syntax checker: enough to catch unbalanced structure,
   bad literals and broken string escaping in the exporter. *)
let json_valid (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail fmt = Printf.ksprintf (fun m -> failwith m) fmt in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail "expected %c at %d" c !pos
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos; fin := true
      | Some '\\' -> (
          incr pos;
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
          | Some 'u' ->
              incr pos;
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
                | _ -> fail "bad \\u escape at %d" !pos
              done
          | _ -> fail "bad escape at %d" !pos)
      | Some c when Char.code c < 0x20 -> fail "raw control char at %d" !pos
      | Some _ -> incr pos
    done
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected number at %d" start
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let more = ref true in
          while !more do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            if peek () = Some ',' then incr pos else more := false
          done;
          skip_ws ();
          expect '}'
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let more = ref true in
          while !more do
            value ();
            skip_ws ();
            if peek () = Some ',' then incr pos else more := false
          done;
          skip_ws ();
          expect ']'
        end
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') ->
        let lit = if peek () = Some 't' then "true"
                  else if peek () = Some 'f' then "false" else "null" in
        if !pos + String.length lit <= n
           && String.sub s !pos (String.length lit) = lit
        then pos := !pos + String.length lit
        else fail "bad literal at %d" !pos
    | _ -> number ());
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage at %d of %d" !pos n

let test_chrome_export () =
  let r = Trace.create ~capacity:64 () in
  Trace.emit r ~ts:0L (Trace.Enclave_create { enclave = 1; size = 4096 });
  Trace.emit r ~ts:10L (Trace.Quantum_start { pid = 1 });
  Trace.emit r ~ts:50L (Trace.Syscall_enter { pid = 1; nr = 3 });
  Trace.emit r ~ts:90L
    (Trace.Syscall_exit
       { pid = 1; nr = 3; ret = -2L; latency_ns = 40L; blocked = false });
  Trace.emit r ~ts:100L (Trace.Quantum_end { pid = 1; insns = 90; cycles = 270 });
  (* a path needing every escape class: quote, backslash, control chars *)
  Trace.emit r ~ts:110L
    (Trace.Spawn { pid = 2; parent = 1; path = "/bin/\"we\\ird\"\n\tname\x01" });
  let json = Trace.to_chrome_json r in
  (match json_valid json with
  | () -> ()
  | exception Failure m -> Alcotest.fail ("invalid chrome JSON: " ^ m));
  let contains hay needle =
    Occlum_util.Bytes_util.contains ~needle (Bytes.of_string hay)
  in
  Alcotest.(check bool) "has traceEvents" true (contains json "\"traceEvents\"");
  Alcotest.(check bool) "B/E pair for the syscall" true
    (contains json "\"ph\":\"E\"");
  let summary = Trace.summary r in
  Alcotest.(check bool) "summary names kinds" true
    (contains summary "syscall_enter")

(* --- differential: tracing must not perturb the simulation ---------------- *)

let cpu_state_str (cpu : Cpu.t) mem =
  Printf.sprintf
    "pc=%d eq=%b lt=%b cycles=%d insns=%d loads=%d stores=%d bnd=%d hit=%d miss=%d inv=%d regs=%s memhash=%d"
    cpu.Cpu.pc cpu.Cpu.flag_eq cpu.Cpu.flag_lt cpu.Cpu.cycles cpu.Cpu.insns
    cpu.Cpu.loads cpu.Cpu.stores cpu.Cpu.bound_checks cpu.Cpu.dcache_hits
    cpu.Cpu.dcache_misses cpu.Cpu.dcache_invalidations
    (String.concat ","
       (List.init Occlum_isa.Reg.count (fun i ->
            Int64.to_string (Cpu.get cpu (Occlum_isa.Reg.of_int i)))))
    (Hashtbl.hash (Mem.raw mem))

let test_differential_interp () =
  (* a store-heavy loop so memory contents are part of the comparison *)
  let r1 = Reg.of_int 1 and r2 = Reg.of_int 2 in
  let insns =
    [
      Insn.Mov_imm (r1, 200L);
      Insn.Mov_imm (r2, Int64.of_int (8 * 4096));
      Insn.Store
        { dst = Insn.Sib { base = r2; index = None; scale = 1; disp = 0 };
          src = r1; size = 8 };
      Insn.Alu (Insn.Add, r2, Insn.O_imm 8L);
      Insn.Alu (Insn.Sub, r1, Insn.O_imm 1L);
      Insn.Cmp (r1, Insn.O_imm 0L);
      Insn.Jcc (Insn.Ne, -100);
    ]
  in
  (* fix the backward displacement like the bench hot loop does *)
  let body_len =
    List.fold_left
      (fun a i -> a + String.length (Codec.encode i))
      0 [ List.nth insns 2; List.nth insns 3; List.nth insns 4; List.nth insns 5 ]
  in
  let rec fix disp =
    let len = String.length (Codec.encode (Insn.Jcc (Insn.Ne, disp))) in
    let disp' = -(body_len + len) in
    if disp' = disp then Insn.Jcc (Insn.Ne, disp) else fix disp'
  in
  let insns =
    [ List.nth insns 0; List.nth insns 1; List.nth insns 2; List.nth insns 3;
      List.nth insns 4; List.nth insns 5; fix (-body_len) ]
  in
  let go obs =
    let mem, cpu = Test_machine.setup insns in
    let stop = Interp.run ~jit:(Jit.create ()) ~obs mem cpu ~fuel:5000 in
    (Interp.stop_to_string stop ^ " " ^ cpu_state_str cpu mem)
  in
  let off = go Obs.disabled in
  let obs = Obs.create ~capacity:256 () in
  let on = go obs in
  Alcotest.(check string) "traced = untraced (registers, memory, counters)"
    off on;
  Alcotest.(check bool) "events were actually recorded" true
    (Trace.total obs.Obs.trace > 0)

let test_differential_spec () =
  (* full SPEC-kernel binaries through the bare-metal runner, bit-compared
     across every architectural counter and the program output *)
  let kernels = Occlum_workloads.Spec.all ~scale:1 in
  List.iter
    (fun (name, prog) ->
      let oelf =
        Occlum_toolchain.Compile.compile_exn
          ~config:Occlum_toolchain.Codegen.sfi prog
      in
      let fingerprint (r : Occlum_baseline.Native_run.result) =
        Printf.sprintf "exit=%Ld cycles=%d insns=%d loads=%d stores=%d bnd=%d out=%s"
          r.exit_code r.cycles r.insns r.loads r.stores r.bound_checks r.stdout
      in
      let off = fingerprint (Occlum_baseline.Native_run.run oelf) in
      let obs = Obs.create ~capacity:1024 () in
      let on = fingerprint (Occlum_baseline.Native_run.run ~obs oelf) in
      Alcotest.(check string) (name ^ ": traced = untraced") off on)
    (match kernels with a :: b :: c :: _ -> [ a; b; c ] | l -> l)

let test_differential_libos () =
  (* a whole multi-process LibOS run: console bytes, virtual clock and
     bookkeeping counters must not move when tracing is on — also at 4
     cores, where core 0's quanta report to the traced instance itself *)
  let go cores obs =
    let os = H.boot ~cores ?obs H.Occlum in
    H.install os H.Occlum Occlum_workloads.Fish.binaries;
    let r = H.timed_run os "/bin/fish" ~args:[ "2"; "30" ] in
    Printf.sprintf "clock=%Ld syscalls=%d spawns=%d faults=%d console=%s"
      (Os.clock os) os.Os.syscalls os.Os.spawns (List.length os.Os.faults)
      r.H.console
  in
  let kinds_of cores =
    let off = go cores None in
    let obs = Obs.create () in
    let on = go cores (Some obs) in
    Alcotest.(check string)
      (Printf.sprintf "traced LibOS run = untraced (cores=%d)" cores)
      off on;
    List.sort_uniq compare
      (List.map
         (fun (e : Trace.event) -> Trace.kind_name e.kind)
         (Trace.events obs.Obs.trace))
  in
  let kinds = kinds_of 1 and kinds4 = kinds_of 4 in
  Alcotest.(check bool)
    (Printf.sprintf "boot trace has >= 4 distinct event kinds (got %d)"
       (List.length kinds))
    true
    (List.length kinds >= 4);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("cores=1 trace has " ^ k) true (List.mem k kinds);
      Alcotest.(check bool) ("cores=4 trace has " ^ k) true (List.mem k kinds4))
    [ "sched_switch"; "quantum_start"; "quantum_end" ];
  Alcotest.(check bool) "cores=1 trace has a dcache_* or jit_* event" true
    (List.exists
       (fun k ->
         String.starts_with ~prefix:"dcache_" k
         || String.starts_with ~prefix:"jit_" k)
       kinds)

let test_disabled_is_inert () =
  (* the shared disabled instance must never accumulate anything, from
     any emission site *)
  let os = H.boot H.Occlum in
  H.install os H.Occlum Occlum_workloads.Fish.binaries;
  ignore (H.timed_run os "/bin/fish" ~args:[ "1"; "10" ]);
  Alcotest.(check int) "no events recorded" 0 (Trace.total Obs.disabled.Obs.trace);
  Alcotest.(check (list (pair string (float 0.))))
    "no metrics registered" []
    (Metrics.to_json_items Obs.disabled.Obs.metrics)

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counter;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "event-class parsing" `Quick test_class_parsing;
    Alcotest.test_case "chrome trace_event export" `Quick test_chrome_export;
    Alcotest.test_case "differential: interpreter" `Quick test_differential_interp;
    Alcotest.test_case "differential: SPEC kernels" `Quick test_differential_spec;
    Alcotest.test_case "differential: LibOS run" `Quick test_differential_libos;
    Alcotest.test_case "disabled instance is inert" `Quick test_disabled_is_inert;
  ]
