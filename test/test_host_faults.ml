(* Fault schedules on the untrusted host sides are per instance: arming
   one instance's EPC pool, SEFS host store, network or host transport
   leaves every other instance in the process untouched, and an armed
   scope is cleared on every exit, exceptions included. *)

open Occlum_fuzzing
module Os = Occlum_libos.Os
module Sefs = Occlum_libos.Sefs
module Net = Occlum_libos.Net
module Host_transport = Occlum_libos.Host_transport
module Epc = Occlum_sgx.Epc
module Errno = Occlum_abi.Abi.Errno

let path = "/data/f.txt"
let content = "per-instance host"
let eagain = Sefs.Io_error Errno.eagain

let boot () =
  let os = Os.boot () in
  Sefs.ensure_parents os.Os.sefs path;
  (match Sefs.write_path os.Os.sefs path content with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fixture write failed: %d" e);
  os

(* One connected socket pair on [net]; [send ()] pushes a short payload. *)
let socket net =
  let l =
    match Net.listen net ~port:7000 ~backlog:1 with
    | Ok l -> l
    | Error e -> Alcotest.failf "listen failed: %d" e
  in
  let client =
    match Net.connect net ~port:7000 with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect failed: %d" e
  in
  ignore (Net.accept l);
  let payload = Bytes.of_string "ping" in
  fun () -> Net.send net client payload 0 (Bytes.length payload)

let test_isolation () =
  let inj = Inject.make () in
  (* two LibOS instances in one process: A's hostile disk and network
     must not reach B *)
  let a = boot () and b = boot () in
  let send_a = socket a.Os.net and send_b = socket b.Os.net in
  Inject.arm_sefs inj a.Os.sefs.Sefs.host ~at:1 ~times:1_000 ~fault:eagain
    (fun () ->
      Inject.arm_net inj a.Os.net ~at:1 ~times:1_000 ~fault:eagain (fun () ->
          Alcotest.(check (result string int))
            "A's armed store fails its read" (Error Errno.eagain)
            (Sefs.read_path a.Os.sefs path);
          Alcotest.(check (result int int))
            "A's armed net fails its send" (Error Errno.eagain) (send_a ());
          Alcotest.(check (result string int))
            "B reads through" (Ok content)
            (Sefs.read_path b.Os.sefs path);
          Alcotest.(check (result int int))
            "B sends through" (Ok 4) (send_b ())));
  Alcotest.(check int) "B's SEFS never retried" 0 b.Os.sefs.Sefs.retries;
  Alcotest.(check int) "B's net never retried" 0 b.Os.net.Net.retries;
  (* two host transports: a black hole on one, full delivery on the other *)
  let ta = Host_transport.create () and tb = Host_transport.create () in
  Inject.arm_channel inj ta ~at:1 ~times:1_000 ~fault:Host_transport.Drop
    (fun () ->
      for i = 1 to 8 do
        let frame = Printf.sprintf "frame-%d" i in
        Host_transport.send ta ~src:0 ~dst:1 frame;
        Host_transport.send tb ~src:0 ~dst:1 frame
      done);
  Alcotest.(check int) "A's transport dropped every frame" 0
    (Host_transport.pending ta ~src:0 ~dst:1);
  for i = 1 to 8 do
    Alcotest.(check (option string))
      "B's transport delivers in order"
      (Some (Printf.sprintf "frame-%d" i))
      (Host_transport.recv tb ~src:0 ~dst:1)
  done;
  (* two EPC pools: A's first allocation fails, B's succeed *)
  let pa = Epc.create ~size:(8 * Epc.page_size) ()
  and pb = Epc.create ~size:(8 * Epc.page_size) () in
  Inject.arm_epc inj pa ~at:1 (fun () ->
      Epc.alloc pb ~pages:1;
      Alcotest.check_raises "A's first alloc fails" Epc.Out_of_epc (fun () ->
          Epc.alloc pa ~pages:1);
      Epc.alloc pb ~pages:1);
  Alcotest.(check int) "B's pool charged normally" 2 (Epc.used_pages pb);
  Alcotest.(check int) "A's pool charged nothing" 0 (Epc.used_pages pa);
  (* each persistent fault is consulted once per retry attempt *)
  Alcotest.(check (list int))
    "injections counted" [ 1; 2 * Sefs.max_io_attempts; 8 ]
    [ inj.Inject.epc; inj.Inject.io; inj.Inject.chan ]

(* A raising body must not leave its schedule behind on a shared
   instance, as the fuzzer's lazily booted LibOS is shared by every
   case of a property. *)
let test_scope_clears_on_raise () =
  let inj = Inject.make () in
  let os = boot () in
  let send = socket os.Os.net in
  let sefs = os.Os.sefs in
  (try
     Inject.arm_sefs inj sefs.Sefs.host ~at:1 ~times:1_000 ~fault:eagain
       (fun () ->
         ignore (Sefs.read_path sefs path);
         Inject.arm_net inj os.Os.net ~at:1 ~times:1_000 ~fault:eagain
           (fun () ->
             ignore (send ());
             raise Exit))
   with Exit -> ());
  let retries = sefs.Sefs.retries and net_retries = os.Os.net.Net.retries in
  Alcotest.(check (result string int))
    "next read succeeds" (Ok content) (Sefs.read_path sefs path);
  Alcotest.(check int) "with no retry" retries sefs.Sefs.retries;
  Alcotest.(check (result int int)) "next send succeeds" (Ok 4) (send ());
  Alcotest.(check int) "with no net retry" net_retries os.Os.net.Net.retries

let suite =
  [
    Alcotest.test_case "faults stay on their instance" `Quick test_isolation;
    Alcotest.test_case "armed scope clears on raise" `Quick
      test_scope_clears_on_raise;
  ]
