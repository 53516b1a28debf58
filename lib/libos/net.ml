(* The loopback network. §6 "Networking": network operations are mostly
   delegated to the (untrusted) host OS; the LibOS only redirects,
   bookkeeps and sanity-checks, so payloads are NOT encrypted by the
   LibOS — applications must bring TLS. We model the host side as a
   per-LibOS port registry plus "external" endpoints that the benchmark
   harness (playing the remote ApacheBench client) can drive directly
   from OCaml.

   Multi-core ownership (cfg.cores > 1): endpoints, rings, the port
   registry and wake-hook lists are touched only from syscall handlers
   and from the harness between scheduler steps, never from an
   interpreter quantum. Every simulated core runs on the one thread
   that drives the LibOS, so each has a single writer and no lock. *)

type endpoint = {
  inbox : Ring.t;   (* bytes this endpoint can read *)
  mutable peer : endpoint option;
  mutable closed : bool; (* our side closed *)
  mutable wake : (unit -> unit) list;
      (* readiness hooks (epoll watchers); fired whenever this
         endpoint's readable/writable/hup state may have changed *)
}

let wake_all ws = List.iter (fun f -> f ()) ws

let wake_ep (e : endpoint) = wake_all e.wake

let make_endpoint rings ring_bytes =
  { inbox = Ring.create rings ring_bytes; peer = None; closed = false;
    wake = [] }

let pair rings ring_bytes =
  let a = make_endpoint rings ring_bytes in
  let b = make_endpoint rings ring_bytes in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

(* The backlog is a Queue (O(1) push/pop/length), not a list — the old
   [List.length] + [l @ [e]] pair was O(n²) per connection at C10K
   backlogs. [owner] lets the last close of a Listener fd deregister the
   port and EOF every queued connection. *)
type listener = {
  port : int;
  backlog : int;
  pending : endpoint Queue.t; (* server-side endpoints to accept *)
  mutable wake : (unit -> unit) list;
  owner : t;
}

and t = {
  listeners : (int, listener) Hashtbl.t;
  mutable sock_ring_bytes : int; (* per-direction buffer of new connections *)
  rings : Ring.pool; (* storage of this LibOS's socket and pipe rings *)
  mutable retries : int; (* transient faults absorbed by bounded retry *)
  mutable backoff_ns : int64; (* simulated wait accrued by retries *)
  obs : Occlum_obs.Obs.t; (* I/O events/metrics *)
  mutable fault : (unit -> Sefs.io_fault option) option;
      (* fault-injection seam: the transport is the untrusted host, so a
         harness can fail or truncate any transfer of this network;
         production never sets it *)
}

let create ?(obs = Occlum_obs.Obs.disabled) () =
  { listeners = Hashtbl.create 8; sock_ring_bytes = 65536; rings = Ring.pool ();
    retries = 0; backoff_ns = 0L; obs; fault = None }

(* Observability for one transfer: event with the byte count plus byte
   counters. One branch when disabled. *)
let note_io t ~send n =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_net then
      Occlum_obs.Obs.emit o
        (if send then Occlum_obs.Trace.Net_send { bytes = n }
         else Occlum_obs.Trace.Net_recv { bytes = n });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
         (if send then "net.send.bytes" else "net.recv.bytes"))
      n
  end

let listen t ~port ~backlog =
  if Hashtbl.mem t.listeners port then Error Occlum_abi.Abi.Errno.eexist
  else begin
    let l = { port; backlog; pending = Queue.create (); wake = []; owner = t } in
    Hashtbl.replace t.listeners port l;
    Ok l
  end

(* Connect to a port: creates a pair, queues the server side. *)
let connect t ~port =
  match Hashtbl.find_opt t.listeners port with
  | None -> Error Occlum_abi.Abi.Errno.econnrefused
  | Some l ->
      if Queue.length l.pending >= l.backlog then
        Error Occlum_abi.Abi.Errno.eagain
      else begin
        let client_side, server_side = pair t.rings t.sock_ring_bytes in
        Queue.push server_side l.pending;
        wake_all l.wake;
        Ok client_side
      end

let accept (l : listener) =
  if Queue.is_empty l.pending then None else Some (Queue.pop l.pending)

let close_endpoint (e : endpoint) =
  e.closed <- true;
  wake_ep e;
  match e.peer with Some p -> wake_ep p | None -> ()

(* Last close of a Listener fd: free the port (so a re-[listen] succeeds)
   and close every queued endpoint so the external clients observe EOF
   instead of hanging. Guarded by physical equality: a port re-listened
   by someone else is not stolen back. *)
let close_listener (l : listener) =
  (match Hashtbl.find_opt l.owner.listeners l.port with
  | Some cur when cur == l -> Hashtbl.remove l.owner.listeners l.port
  | _ -> ());
  Queue.iter close_endpoint l.pending;
  Queue.clear l.pending;
  wake_all l.wake

(* Same bounded retry as SEFS: one loop, [Sefs.retry_io]. *)
let consult_io t ~len =
  match t.fault with
  | None -> Ok len
  | Some f ->
      Sefs.retry_io f ~obs:t.obs ~len ~retried:(fun ns ->
          t.retries <- t.retries + 1;
          t.backoff_ns <- Int64.add t.backoff_ns ns)

(* [send_with]/[recv_with] leave the byte movement to [xfer ring len],
   which moves at most [len] bytes into or out of [ring] and returns the
   count: the LibOS copies straight between SIP memory and the ring. *)
let send_with t (e : endpoint) len xfer =
  match consult_io t ~len with
  | Error errno -> Error errno
  | Ok len ->
  match e.peer with
  | None -> Error Occlum_abi.Abi.Errno.epipe
  | Some p ->
      if p.closed then Error Occlum_abi.Abi.Errno.epipe
      else begin
        let n = xfer p.inbox len in
        if n = 0 then Error Occlum_abi.Abi.Errno.eagain
        else begin
          note_io t ~send:true n;
          wake_ep p; (* the receiver became readable *)
          Ok n
        end
      end

let recv_with t (e : endpoint) len xfer =
  match consult_io t ~len with
  | Error errno -> Error errno
  | Ok len ->
  let n = xfer e.inbox len in
  if n > 0 then begin
    note_io t ~send:false n;
    (* draining our inbox makes the peer writable again *)
    (match e.peer with Some p -> wake_ep p | None -> ());
    Ok n
  end
  else
    match e.peer with
    | Some p when not p.closed -> Error Occlum_abi.Abi.Errno.eagain
    | _ -> Ok 0 (* orderly EOF *)

let send t e src off len =
  send_with t e len (fun ring len -> Ring.write ring src off len)

let recv t e dst off len =
  recv_with t e len (fun ring len -> Ring.read ring dst off len)

(* --- external (harness-side) API ---------------------------------------- *)

(* The benchmark harness acts as a client on the "network" outside the
   enclave: it connects, writes request bytes and drains responses
   without going through any SIP. *)
let external_connect t ~port = connect t ~port

(* [send] only reads its source, so [s] is passed uncopied. *)
let external_send t e (s : string) =
  match send t e (Bytes.unsafe_of_string s) 0 (String.length s) with
  | Ok n -> n
  | Error _ -> 0

let external_recv_all t e =
  let buf = Buffer.create 256 in
  let tmp = Bytes.create 4096 in
  let rec drain () =
    match recv t e tmp 0 4096 with
    | Ok 0 -> ()
    | Ok n ->
        Buffer.add_subbytes buf tmp 0 n;
        drain ()
    | Error _ -> ()
  in
  drain ();
  Buffer.contents buf

(* Allocation-free fast path for C10K load harnesses: how many bytes are
   waiting, and a drain into a caller-owned scratch buffer. *)
let external_pending (e : endpoint) = Ring.length e.inbox

let external_recv_into t e buf =
  match recv t e buf 0 (Bytes.length buf) with Ok n -> n | Error _ -> 0

let has_listener t ~port = Hashtbl.mem t.listeners port
