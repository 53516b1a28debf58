type t = {
  mutable aex : int;
  mutable epc : int;
  mutable io : int;
  mutable chan : int;
}

let make () = { aex = 0; epc = 0; io = 0; chan = 0 }

let interrupt_every t ~period =
  if period < 1 then invalid_arg "Inject.interrupt_every";
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod period = 0 then begin
      t.aex <- t.aex + 1;
      true
    end
    else false

(* The one schedule behind every seam: fire on consults [at] through
   [at + times - 1] (1-based), counting each firing with [count]. *)
let countdown name ~at ~times count fault =
  if at < 1 || times < 1 then invalid_arg name;
  let n = ref 0 in
  fun () ->
    incr n;
    if !n >= at && !n < at + times then begin
      count ();
      Some fault
    end
    else None

(* Install [schedule] through [set] while [body] runs, and clear it on
   every exit, exceptions included. *)
let scoped set schedule body =
  set (Some schedule);
  Fun.protect ~finally:(fun () -> set None) body

let arm_epc t pool ~at body =
  let fires =
    countdown "Inject.arm_epc" ~at ~times:1 (fun () -> t.epc <- t.epc + 1) ()
  in
  scoped (Occlum_sgx.Epc.set_fault pool)
    (fun () -> Option.is_some (fires ()))
    body

let arm_sefs t (store : Occlum_libos.Sefs.Host_store.t) ?(times = 1) ~at
    ~fault body =
  scoped
    (fun f -> store.fault <- f)
    (countdown "Inject.arm_sefs" ~at ~times (fun () -> t.io <- t.io + 1) fault)
    body

let arm_net t (net : Occlum_libos.Net.t) ?(times = 1) ~at ~fault body =
  scoped
    (fun f -> net.fault <- f)
    (countdown "Inject.arm_net" ~at ~times (fun () -> t.io <- t.io + 1) fault)
    body

let arm_channel t transport ?(times = 1) ~at ~fault body =
  scoped
    (Occlum_libos.Host_transport.set_fault transport)
    (countdown "Inject.arm_channel" ~at ~times
       (fun () -> t.chan <- t.chan + 1)
       fault)
    body

let export t reg =
  let module M = Occlum_obs.Metrics in
  M.add (M.counter reg "fuzz.inject.aex") t.aex;
  M.add (M.counter reg "fuzz.inject.epc") t.epc;
  M.add (M.counter reg "fuzz.inject.io") t.io;
  M.add (M.counter reg "fuzz.inject.chan") t.chan
