(* The attested enclave-to-enclave channel: encrypted, MAC'd,
   sequence-numbered frames over the untrusted {!Host_transport}. The
   transport can drop, duplicate, reorder, corrupt and replay frames at
   will, so every security property lives here:

   - confidentiality and integrity: each frame goes through
     {!Occlum_util.Seal} under two subkeys of the attested session key
     (domain ["chan"]), with a per-(direction, epoch, seq) nonce and a
     tag over (channel identity, direction, epoch, seq, ciphertext). A
     corrupted frame fails the tag and is treated as transport loss,
     absorbed by bounded retransmission;
   - ordering + replay/rollback protection: frames carry a strictly
     sequential counter per direction. The immediately preceding seq is
     a benign retransmit duplicate (counted, discarded); anything older
     is a hard [Replay] fault and anything newer a hard [Rollback]
     fault (the host withheld the frame in between) — the channel
     fails closed rather than degrade;
   - epoch binding: a re-handshake bumps the epoch, so an authentic
     frame from a previous session presented after re-attestation is a
     [Rollback], not a valid message.

   Loss is repaired by the stop-and-wait RPC driver in [Cluster]:
   retransmits reuse the seq of the lost frame, are bounded by
   [max_attempts] (= [Sefs.max_io_attempts]), and each retry accrues
   the same deterministic exponential backoff as SEFS/Net I/O retries
   ([Sefs.backoff_ns_of_attempt]), drained into the virtual clock by
   the owning cluster. Exhausting the budget is a clean
   [Budget_exhausted] failure, never a hang. An idle channel times out
   at exactly [last_activity + idle_timeout_ns] on the virtual clock. *)

module Sefs = Occlum_libos.Sefs
module Transport = Occlum_libos.Host_transport
module Obs = Occlum_obs.Obs
module Trace = Occlum_obs.Trace
module Metrics = Occlum_obs.Metrics

type fault_kind = Replay | Rollback | Timeout | Budget_exhausted | Peer_down

let fault_name = function
  | Replay -> "replay"
  | Rollback -> "rollback"
  | Timeout -> "timeout"
  | Budget_exhausted -> "budget-exhausted"
  | Peer_down -> "peer-down"

type state = Open | Closed | Failed of fault_kind

(* Retry/backoff/timeout constants. The retry budget and backoff curve
   are shared with the SEFS/Net bounded-retry wrappers so every
   untrusted-host interaction degrades identically; the idle timeout is
   channel-specific (documented in docs/cluster.md). *)
let max_attempts = Sefs.max_io_attempts
let backoff_ns_of_attempt = Sefs.backoff_ns_of_attempt
let idle_timeout_ns = 5_000_000_000L (* 5 virtual seconds *)

(* Per-frame virtual cost: two enclave boundary crossings (the frame
   leaves one enclave and enters another) plus seal/unseal work linear
   in the payload. *)
let crossing_ns = 6_000L
let frame_cost_ns len = Int64.add crossing_ns (Int64.of_int (2 * len))

type dir_state = {
  mutable send_seq : int;  (** next seq to assign *)
  mutable recv_seq : int;  (** next seq the receiver accepts *)
  mutable last_payload : string;  (** for retransmission *)
  mutable last_seq : int;
}

type t = {
  a : int;
  b : int;
  keys : Occlum_util.Seal.keys;  (** domain ["chan"] of the session key *)
  epoch : int;
  transport : Transport.t;
  ab : dir_state;  (** a -> b *)
  ba : dir_state;  (** b -> a *)
  mutable state : state;
  mutable last_activity : int64;
  mutable retries : int;
  mutable duplicates : int;  (** benign retransmit duplicates discarded *)
  mutable mac_failures : int;  (** corrupted frames discarded *)
  mutable sent : int;
  mutable received : int;
  mutable backoff_ns : int64;  (** accrued, drained by the cluster *)
  obs : Obs.t;
}

let fresh_dir () =
  { send_seq = 0; recv_seq = 0; last_payload = ""; last_seq = -1 }

let establish ~a ~b ~key ~epoch ~transport ~now ~obs =
  if String.length key <> 32 then invalid_arg "Channel.establish: key size";
  let t =
    {
      a;
      b;
      keys = Occlum_util.Seal.keys ~domain:"chan" key;
      epoch;
      transport;
      ab = fresh_dir ();
      ba = fresh_dir ();
      state = Open;
      last_activity = now;
      retries = 0;
      duplicates = 0;
      mac_failures = 0;
      sent = 0;
      received = 0;
      backoff_ns = 0L;
      obs;
    }
  in
  if obs.Obs.enabled && obs.Obs.t_cluster then
    Obs.emit obs (Trace.Chan_open { a; b });
  t

let state t = t.state
let retries t = t.retries
let duplicates t = t.duplicates
let mac_failures t = t.mac_failures
let sent t = t.sent
let received t = t.received

let drain_backoff t =
  let b = t.backoff_ns in
  t.backoff_ns <- 0L;
  b

let dir_of t ~src = if src = t.a then t.ab else t.ba
let dst_of t ~src = if src = t.a then t.b else t.a

(* --- sealing -------------------------------------------------------------- *)

(* A frame's tag covers this header, then its ciphertext. *)
let mac_header t ~src ~epoch ~seq =
  Printf.sprintf "chan|%d->%d|e%d|s%d|" src (dst_of t ~src) epoch seq

let frame_nonce t ~src ~epoch ~seq =
  Occlum_util.Cipher.derive_nonce
    (Printf.sprintf "chan|%d->%d|e%d" src (dst_of t ~src) epoch)
    seq

(* A frame is epoch and seq (big-endian 32-bit), tag, ciphertext. *)
let seal t ~src ~seq payload =
  let epoch = t.epoch in
  let cipher, mac =
    Occlum_util.Seal.seal t.keys
      ~label:(mac_header t ~src ~epoch ~seq)
      ~nonce:(frame_nonce t ~src ~epoch ~seq)
      (Bytes.unsafe_of_string payload)
  in
  let hdr = Bytes.create 8 in
  Bytes.set_int32_be hdr 0 (Int32.of_int epoch);
  Bytes.set_int32_be hdr 4 (Int32.of_int seq);
  String.concat "" [ Bytes.unsafe_to_string hdr; mac; cipher ]

(* [None] = not an authentic current frame (malformed, bad MAC, or a
   stale-epoch forgery candidate is still checked against the current
   epoch's MAC context and fails). [Some (epoch, seq, payload)] only
   for frames MAC'd under this channel's keys; the caller then judges
   the epoch and seq. A valid-MAC frame carries the epoch it was
   MAC'd under, so an old-epoch frame surfaces as [Some] with a stale
   epoch — the rollback signal. *)
let unseal t ~src frame =
  if String.length frame < 4 + 4 + 32 then None
  else
    let u32 off = Int32.to_int (String.get_int32_be frame off) land 0xffff_ffff in
    let epoch = u32 0 and seq = u32 4 in
    Occlum_util.Seal.open_ t.keys
      ~label:(mac_header t ~src ~epoch ~seq)
      ~nonce:(frame_nonce t ~src ~epoch ~seq)
      ~tag:(String.sub frame 8 32)
      (String.sub frame 40 (String.length frame - 40))
    |> Option.map (fun plain -> (epoch, seq, Bytes.unsafe_to_string plain))

(* --- failure -------------------------------------------------------------- *)

let fail t kind =
  (match t.state with
  | Failed _ | Closed -> ()
  | Open ->
      t.state <- Failed kind;
      if t.obs.Obs.enabled then begin
        if t.obs.Obs.t_cluster then
          Obs.emit t.obs
            (Trace.Chan_fault { a = t.a; b = t.b; kind = fault_name kind });
        Metrics.inc (Metrics.counter t.obs.Obs.metrics "cluster.chan.faults")
      end);
  ()

let close t =
  match t.state with
  | Closed -> ()
  | Open | Failed _ ->
      t.state <- Closed;
      if t.obs.Obs.enabled && t.obs.Obs.t_cluster then
        Obs.emit t.obs (Trace.Chan_close { a = t.a; b = t.b })

(* Idle timeout: fires at exactly [last_activity + idle_timeout_ns] on
   the virtual clock — [check_idle ~now] with [now] one nanosecond
   earlier leaves the channel open. *)
let deadline t = Int64.add t.last_activity idle_timeout_ns

let check_idle t ~now =
  match t.state with
  | Open when now >= deadline t ->
      fail t Timeout;
      true
  | _ -> false

(* --- transfer ------------------------------------------------------------- *)

let guard t = match t.state with Open -> Ok () | Closed -> Error Peer_down
             | Failed k -> Error k

let send t ~src payload =
  match guard t with
  | Error k -> Error k
  | Ok () ->
      let d = dir_of t ~src in
      let seq = d.send_seq in
      d.send_seq <- seq + 1;
      d.last_payload <- payload;
      d.last_seq <- seq;
      let frame = seal t ~src ~seq payload in
      Transport.send t.transport ~src ~dst:(dst_of t ~src) frame;
      t.sent <- t.sent + 1;
      if t.obs.Obs.enabled && t.obs.Obs.t_cluster then
        Obs.emit t.obs
          (Trace.Chan_msg
             { a = src; b = dst_of t ~src; seq; bytes = String.length payload });
      Ok seq

(* Retransmit the last frame of this direction, under the same seq —
   the receiver treats it as a benign duplicate if the original did
   arrive. [attempt] is 1-based over the whole exchange (first send =
   attempt 1), so retry [attempt] waits [backoff_ns_of_attempt
   (attempt - 1)] like the SEFS/Net wrappers. *)
let resend t ~src ~attempt =
  match guard t with
  | Error k -> Error k
  | Ok () ->
      let d = dir_of t ~src in
      if d.last_seq < 0 then invalid_arg "Channel.resend: nothing sent";
      let frame = seal t ~src ~seq:d.last_seq d.last_payload in
      Transport.send t.transport ~src ~dst:(dst_of t ~src) frame;
      t.retries <- t.retries + 1;
      t.backoff_ns <-
        Int64.add t.backoff_ns (backoff_ns_of_attempt (attempt - 1));
      if t.obs.Obs.enabled then begin
        if t.obs.Obs.t_cluster then
          Obs.emit t.obs
            (Trace.Chan_retry { a = src; b = dst_of t ~src; seq = d.last_seq });
        Metrics.inc (Metrics.counter t.obs.Obs.metrics "cluster.chan.retries")
      end;
      Ok d.last_seq

(* Drain the transport towards [dst] until a fresh in-order frame, the
   queue runs dry, or a hard fault. Corrupted frames (MAC failures) are
   transport noise: discarded and counted, repaired by retransmission.
   A duplicate of the previous seq is benign. An older seq is [Replay],
   a newer seq or a stale epoch is [Rollback]; both fail the channel. *)
let try_recv t ~dst ~now =
  match guard t with
  | Error k -> Error k
  | Ok () ->
      let src = dst_of t ~src:dst in
      let d = dir_of t ~src in
      let rec drain () =
        match Transport.recv t.transport ~src ~dst with
        | None -> Ok None
        | Some frame -> (
            match unseal t ~src frame with
            | None ->
                t.mac_failures <- t.mac_failures + 1;
                drain ()
            | Some (epoch, seq, payload) ->
                if epoch <> t.epoch then begin
                  fail t Rollback;
                  Error Rollback
                end
                else if seq = d.recv_seq then begin
                  d.recv_seq <- seq + 1;
                  t.received <- t.received + 1;
                  t.last_activity <- now;
                  Ok (Some payload)
                end
                else if seq = d.recv_seq - 1 then begin
                  t.duplicates <- t.duplicates + 1;
                  drain ()
                end
                else if seq < d.recv_seq then begin
                  fail t Replay;
                  Error Replay
                end
                else begin
                  fail t Rollback;
                  Error Rollback
                end)
      in
      drain ()

(* One stop-and-wait exchange: send once, then poll the receiver side;
   if the frame did not arrive (dropped, or corrupted into a MAC
   failure), retransmit with backoff up to [max_attempts] total
   attempts. Everything is in-process, so the caller passes the
   receiver's poll in as [recv_now] (the receiving node's clock). *)
let deliver t ~src payload ~now =
  match send t ~src payload with
  | Error k -> Error k
  | Ok _seq ->
      let dst = dst_of t ~src in
      let rec wait attempt =
        match try_recv t ~dst ~now with
        | Error k -> Error k
        | Ok (Some p) -> Ok p
        | Ok None ->
            if attempt >= max_attempts then begin
              fail t Budget_exhausted;
              Error Budget_exhausted
            end
            else
              match resend t ~src ~attempt:(attempt + 1) with
              | Error k -> Error k
              | Ok _ -> wait (attempt + 1)
      in
      wait 1
