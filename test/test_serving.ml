(* The C10K serving tier: the single-SIP event-loop httpd (epoll +
   O_NONBLOCK) must be observably identical to the pre-forking server, a
   load smoke must complete every keep-alive request, batching the
   event-loop's syscalls must cut gate crossings at equal load, and the
   whole tier must tolerate transient faults injected at the network I/O
   seam. *)

module H = Occlum_workloads.Harness
module Httpd = Occlum_workloads.Httpd
module Os = Occlum_libos.Os
module Net = Occlum_libos.Net
module Sefs = Occlum_libos.Sefs
module Inject = Occlum_fuzzing.Inject

(* Boot an Occlum system, spawn [prog] with [args], wait for the
   listener, serve one external request and return the full response
   bytes. *)
let one_response prog args =
  let os = H.boot H.Occlum in
  H.install os H.Occlum Httpd.binaries;
  ignore (Os.spawn_initial os (H.build_for H.Occlum prog) ~args);
  let guard = ref 0 in
  while
    (not (Net.has_listener os.Os.net ~port:Httpd.port)) && !guard < 400_000
  do
    incr guard;
    ignore (Os.step os)
  done;
  Alcotest.(check bool) "listener up" true
    (Net.has_listener os.Os.net ~port:Httpd.port);
  match Net.external_connect os.Os.net ~port:Httpd.port with
  | Error e -> Alcotest.fail (Printf.sprintf "connect failed: %d" e)
  | Ok ep ->
      ignore (Net.external_send os.Os.net ep Httpd.request);
      let buf = Buffer.create H.response_bytes and tries = ref 0 in
      while Buffer.length buf < H.response_bytes && !tries < 600_000 do
        incr tries;
        ignore (Os.step os);
        Buffer.add_string buf (Net.external_recv_all os.Os.net ep)
      done;
      Buffer.contents buf

let test_ev_matches_prefork () =
  (* the event-loop server's response is byte-identical to the
     pre-forking server's (1 worker, quota 1 each; ev takes batch=0) *)
  let ev = one_response Httpd.ev_prog [ "1"; "0"; "0" ] in
  let prefork = one_response Httpd.master_prog [ "1"; "1" ] in
  Alcotest.(check int) "ev full response" H.response_bytes (String.length ev);
  Alcotest.(check string) "ev == prefork" prefork ev;
  (* and the batched event loop serves the very same bytes *)
  let ev_batched = one_response Httpd.ev_prog [ "1"; "1"; "0" ] in
  Alcotest.(check string) "batched == unbatched" ev ev_batched

let test_load_smoke () =
  (* a scaled-down C10K run: 300 concurrent keep-alive clients, 2
     requests each, every one completed *)
  let r = H.run_serving ~connections:300 ~rounds:2 H.Occlum in
  Alcotest.(check int) "all requests completed" 600 r.H.s_completed;
  Alcotest.(check int) "all clients concurrently open" 300 r.H.s_peak_open;
  Alcotest.(check bool) "p50 measured" true (r.H.s_p50_ns > 0);
  Alcotest.(check bool) "p99 >= p50" true (r.H.s_p99_ns >= r.H.s_p50_ns)

let test_batch_cuts_gate_crossings () =
  (* equal load, batch on vs off: same completions, fewer crossings *)
  let u = H.run_serving ~connections:200 ~rounds:2 ~batch:false H.Occlum in
  let b = H.run_serving ~connections:200 ~rounds:2 ~batch:true H.Occlum in
  Alcotest.(check int) "equal completions" u.H.s_completed b.H.s_completed;
  Alcotest.(check bool)
    (Printf.sprintf "batched crossings %d < unbatched %d" b.H.s_gate_crossings
       u.H.s_gate_crossings)
    true
    (b.H.s_gate_crossings < u.H.s_gate_crossings)

let test_io_fault_seam () =
  (* transient Io_errors injected into the host transport mid-run are
     absorbed by the bounded retry wrapper; the quota still completes *)
  let inj = Inject.make () in
  let r =
    H.run_serving ~connections:50 ~rounds:2 H.Occlum ~around:(fun os run ->
        Inject.arm_net inj os.Os.net ~at:500 ~times:2
          ~fault:(Sefs.Io_error Occlum_abi.Abi.Errno.eagain) run)
  in
  Alcotest.(check int) "faults injected" 2 inj.Inject.io;
  Alcotest.(check int) "quota completed despite faults" 100 r.H.s_completed

let suite =
  [
    Alcotest.test_case "ev httpd == prefork httpd (bytes)" `Quick
      test_ev_matches_prefork;
    Alcotest.test_case "300-conn keep-alive load smoke" `Slow test_load_smoke;
    Alcotest.test_case "batching cuts gate crossings" `Slow
      test_batch_cuts_gate_crossings;
    Alcotest.test_case "transient net faults absorbed" `Quick
      test_io_fault_seam;
  ]
