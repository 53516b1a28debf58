(* An enclave cluster: N single-enclave Occlum instances (each a full
   LibOS with its own EPC pool, SEFS volume and network stack) joined
   by quote-based remote attestation and encrypted channels over the
   untrusted {!Host_transport}, serving a sharded KV store.

   Trust story (docs/cluster.md): each node's enclave is built and
   EINIT'd locally, then quoted — the simulated quoting enclave
   verifies the local EREPORT and countersigns it. Peers admit a node
   only if (a) the quote verifies against the pinned QE identity and
   (b) the quoted measurement equals the cluster's reference
   measurement, so only enclaves running this exact LibOS image join
   the mesh. The session key of a channel is derived from both sides'
   quote signatures plus a per-(pair, epoch) nonce: unforgeable by the
   host (it cannot produce QE countersignatures) and fresh per epoch
   (a re-handshake after a failure bumps the epoch, making any frame
   from the previous session a rollback).

   Every host-visible transition — boot, quote, verify, enter,
   handshake, each message delivery, teardown — is simultaneously fed
   through a {!Lifecycle} orderliness checker. The production path must
   never violate it ([Violation] is raised if it does, and the fuzz
   suite keeps it honest with hostile sequences); this is the
   Guardian-style argument that the cluster cannot be driven out of
   order silently.

   Degradation is local, never cluster-wide: a hard channel fault
   (replay, rollback, retry-budget exhaustion, idle timeout) tears the
   channel down and triggers one re-attestation + re-handshake with a
   fresh epoch; if the peer still cannot be reached, it is declared
   down, its enclave torn down, and its shards fail over to the next
   alive node. A revived node re-runs the full lifecycle from ECREATE
   and reclaims its home shards. *)

module Os = Occlum_libos.Os
module Sefs = Occlum_libos.Sefs
module Transport = Occlum_libos.Host_transport
module Attestation = Occlum_sgx.Attestation
module Enclave = Occlum_sgx.Enclave
module Obs = Occlum_obs.Obs
module Trace = Occlum_obs.Trace
module Metrics = Occlum_obs.Metrics

exception Violation of string
(** The production path drove the lifecycle checker out of order — a
    cluster bug, never a recoverable condition. *)

exception Cluster_down
(** No alive node can own a shard. *)

(* Virtual cost of one pairwise attested handshake (two quotes, two
   verifications, key derivation), charged to both endpoints. *)
let handshake_ns = 25_000L

let shard_count = 16

type node = {
  id : int;
  mutable os : Os.t option;  (** [None] while down *)
  mutable quote : Attestation.quote option;
}

type t = {
  n : int;
  nodes : node array;
  transport : Transport.t;
  checker : Lifecycle.t;
  channels : (int * int, Channel.t) Hashtbl.t;
  epochs : (int * int, int) Hashtbl.t;  (** per-pair handshake epoch *)
  obs : Obs.t;
  mutable reference_measurement : string option;
  mutable handshakes : int;
  mutable rpcs : int;
  mutable rpc_failures : int;
  mutable failovers : int;
}

let ckey a b = (min a b, max a b)

let expect t tr =
  match Lifecycle.step t.checker tr with
  | Ok () -> ()
  | Error v ->
      raise
        (Violation
           (Printf.sprintf "%s: %s"
              (Lifecycle.transition_to_string tr)
              (Lifecycle.violation_to_string v)))

let node t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.node";
  t.nodes.(i)

let alive t i = (node t i).os <> None

let node_os t i =
  match (node t i).os with
  | Some os -> os
  | None -> invalid_arg (Printf.sprintf "Cluster: node %d is down" i)

let node_clock t i = Os.clock (node_os t i)
let advance_node_clock t i ns = Os.advance_clock (node_os t i) ns

let channel t a b = Hashtbl.find_opt t.channels (ckey a b)
let checker t = t.checker
let transport t = t.transport

(* --- lifecycle: boot, attest, enter --------------------------------------- *)

let boot_node t i =
  let nd = node t i in
  if nd.os <> None then invalid_arg "Cluster.boot_node: already up";
  let os = Os.boot () in
  nd.os <- Some os;
  nd.quote <- None;
  (* Os.boot performed ECREATE, the EADD/EEXTEND sweep and EINIT
     internally; the checker sees them in that order. *)
  expect t (Lifecycle.Ecreate i);
  expect t (Lifecycle.Eadd i);
  expect t (Lifecycle.Einit i)

let attest_node t i =
  let nd = node t i in
  let os = node_os t i in
  let measurement =
    Occlum_util.Sha256.to_hex (Enclave.measurement os.Os.enclave)
  in
  (* the attested public material: bound into the quote's user data and
     later into the session keys derived from this quote *)
  let pub =
    Occlum_util.Sha256.to_hex
      (Occlum_util.Sha256.digest
         (Printf.sprintf "cluster-pub|%d|%s" i measurement))
  in
  let q = Attestation.quote ~enclave:os.Os.enclave ~user_data:pub in
  nd.quote <- Some q;
  expect t (Lifecycle.Quote_gen i);
  if t.obs.Obs.enabled && t.obs.Obs.t_cluster then
    Obs.emit t.obs (Trace.Quote_issue { enclave = Enclave.id os.Os.enclave });
  (* remote verification: the QE countersignature must verify and the
     quoted measurement must match the cluster's reference image *)
  if not (Attestation.verify_quote q) then
    raise (Violation (Printf.sprintf "node %d: quote rejected" i));
  (match Attestation.quote_measurement q with
  | None -> raise (Violation (Printf.sprintf "node %d: unparseable quote" i))
  | Some m -> (
      match t.reference_measurement with
      | None -> t.reference_measurement <- Some m
      | Some r when String.equal r m -> ()
      | Some _ ->
          raise
            (Violation (Printf.sprintf "node %d: measurement mismatch" i))));
  expect t (Lifecycle.Quote_verify i)

let enter_node t i =
  ignore (node_os t i) (* EENTER needs a live node; raises otherwise *);
  expect t (Lifecycle.Eenter i)

(* --- attested key exchange + channel establishment ------------------------ *)

let pair_epoch t a b =
  Option.value ~default:0 (Hashtbl.find_opt t.epochs (ckey a b))

let begin_handshake t a b = expect t (Lifecycle.Hs_start (a, b))

let complete_handshake t a b =
  let qa =
    match (node t a).quote with
    | Some q -> q
    | None -> raise (Violation (Printf.sprintf "node %d: no quote" a))
  in
  let qb =
    match (node t b).quote with
    | Some q -> q
    | None -> raise (Violation (Printf.sprintf "node %d: no quote" b))
  in
  if not (Attestation.verify_quote qa && Attestation.verify_quote qb) then
    raise (Violation "handshake: quote rejected");
  let epoch = pair_epoch t a b + 1 in
  Hashtbl.replace t.epochs (ckey a b) epoch;
  (* session key: both attested transcripts + a per-(pair, epoch) nonce.
     The QE countersignatures are unforgeable by the host, so only the
     two attested enclaves (and the simulator) can derive this key. *)
  let nonce = Printf.sprintf "hs|%d|%d|e%d" (min a b) (max a b) epoch in
  let key =
    Occlum_util.Sha256.digest
      (String.concat "|" [ "cluster-session"; qa.q_sig; qb.q_sig; nonce ])
  in
  expect t (Lifecycle.Hs_done (a, b));
  (match Hashtbl.find_opt t.channels (ckey a b) with
  | Some old -> Channel.close old
  | None -> ());
  let ch =
    Channel.establish ~a:(min a b) ~b:(max a b) ~key ~epoch
      ~transport:t.transport ~now:(node_clock t a) ~obs:t.obs
  in
  Hashtbl.replace t.channels (ckey a b) ch;
  advance_node_clock t a handshake_ns;
  advance_node_clock t b handshake_ns;
  t.handshakes <- t.handshakes + 1;
  if t.obs.Obs.enabled then begin
    if t.obs.Obs.t_cluster then Obs.emit t.obs (Trace.Chan_attest { a; b });
    Metrics.inc (Metrics.counter t.obs.Obs.metrics "cluster.handshakes")
  end

let connect t a b =
  begin_handshake t a b;
  complete_handshake t a b

let connect_all t =
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      if alive t a && alive t b then connect t a b
    done
  done

(* --- teardown / failover / revival ---------------------------------------- *)

let kill_node t i =
  let nd = node t i in
  match nd.os with
  | None -> ()
  | Some os ->
      (* channels die with the node: fail Peer_down, close, and flush
         whatever the host still had queued in either direction *)
      Hashtbl.iter
        (fun (a, b) ch ->
          if (a = i || b = i) && Channel.state ch <> Channel.Closed then begin
            Channel.fail ch Channel.Peer_down;
            Channel.close ch;
            ignore (Transport.drop_pending t.transport ~src:a ~dst:b);
            ignore (Transport.drop_pending t.transport ~src:b ~dst:a)
          end)
        t.channels;
      expect t (Lifecycle.Teardown i);
      Enclave.destroy os.Os.enclave;
      nd.os <- None;
      nd.quote <- None

(* Bring a node back: the full lifecycle from ECREATE (fresh enclave,
   fresh measurement, fresh quote) plus re-handshakes with every alive
   peer under bumped epochs. Its home shards fail back automatically
   (ownership is a pure function of the alive set). *)
let revive t i =
  if alive t i then invalid_arg "Cluster.revive: node is up";
  boot_node t i;
  attest_node t i;
  enter_node t i;
  for j = 0 to t.n - 1 do
    if j <> i && alive t j then connect t i j
  done

(* --- sharding ------------------------------------------------------------- *)

(* A deterministic string hash (not [Hashtbl.hash]: its value is not
   pinned across OCaml versions, and the shard map must be stable). *)
let shard_of_key key =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0xffffff) key;
  !h mod shard_count

(* Shard [s] lives on its home node [s mod n] when alive, else on the
   next alive node after it — pure in the alive set, so ownership
   recovers by itself when the home node revives. *)
let owner_of_shard t s =
  let home = s mod t.n in
  let rec go k =
    if k = t.n then raise Cluster_down
    else
      let i = (home + k) mod t.n in
      if alive t i then i else go (k + 1)
  in
  go 0

let owner_of_key t key = owner_of_shard t (shard_of_key key)

(* --- the KV service ------------------------------------------------------- *)

let kv_path key = "/kv/" ^ key

let local_put os key value =
  Sefs.ensure_parents os.Os.sefs (kv_path key);
  match Sefs.write_path os.Os.sefs (kv_path key) value with
  | Ok _ -> true
  | Error _ -> false

let local_get os key =
  match Sefs.read_path os.Os.sefs (kv_path key) with
  | Ok v -> Some v
  | Error _ -> None

(* Request/reply wire encoding (inside the sealed payload) *)
let enc_put key value = "P" ^ key ^ "\x00" ^ value
let enc_get key = "G" ^ key

let handle_request os payload =
  if String.length payload = 0 then "E"
  else
    match payload.[0] with
    | 'P' -> (
        match String.index_opt payload '\x00' with
        | None -> "E"
        | Some i ->
            let key = String.sub payload 1 (i - 1) in
            let value =
              String.sub payload (i + 1) (String.length payload - i - 1)
            in
            if local_put os key value then "O" else "E")
    | 'G' -> (
        let key = String.sub payload 1 (String.length payload - 1) in
        match local_get os key with Some v -> "V" ^ v | None -> "N")
    | _ -> "E"

(* One cross-enclave RPC: request leg src->dst, serve on dst, reply leg
   dst->src; stop-and-wait with bounded retransmission on each leg.
   Frame costs land on both clocks, retry backoff on the retransmitting
   sender's clock — same charging discipline as SEFS/Net retries. *)
let rpc t ~src ~dst payload =
  match channel t src dst with
  | None -> Error Channel.Peer_down
  | Some ch when Channel.state ch <> Channel.Open -> (
      match Channel.state ch with
      | Channel.Failed k -> Error k
      | _ -> Error Channel.Peer_down)
  | Some ch -> (
      t.rpcs <- t.rpcs + 1;
      if t.obs.Obs.enabled then
        Metrics.inc (Metrics.counter t.obs.Obs.metrics "cluster.rpcs");
      let charge_leg payload_len =
        let c = Channel.frame_cost_ns payload_len in
        advance_node_clock t src c;
        advance_node_clock t dst c
      in
      charge_leg (String.length payload);
      match Channel.deliver ch ~src payload ~now:(node_clock t dst) with
      | Error k ->
          t.rpc_failures <- t.rpc_failures + 1;
          advance_node_clock t src (Channel.drain_backoff ch);
          Error k
      | Ok req -> (
          advance_node_clock t src (Channel.drain_backoff ch);
          let reply = handle_request (node_os t dst) req in
          charge_leg (String.length reply);
          match Channel.deliver ch ~src:dst reply ~now:(node_clock t src) with
          | Error k ->
              t.rpc_failures <- t.rpc_failures + 1;
              advance_node_clock t dst (Channel.drain_backoff ch);
              Error k
          | Ok r ->
              advance_node_clock t dst (Channel.drain_backoff ch);
              Ok r))

(* Graceful degradation around one KV operation: on a hard channel
   fault, re-attest and re-handshake the pair once (fresh epoch) and
   retry; if the exchange still fails, declare the peer down — its
   enclave is torn down and its shards fail over — and re-route to the
   new owner. The cluster as a whole never fails from one bad link. *)
let reconnect t a b =
  (match channel t a b with
  | Some ch when Channel.state ch <> Channel.Closed -> Channel.close ch
  | _ -> ());
  (match Lifecycle.chan_phase t.checker a b with
  | Lifecycle.Closed -> ()
  | _ -> expect t (Lifecycle.Ch_close (a, b)));
  connect t a b

let declare_down t ~survivor ~failed =
  kill_node t failed;
  t.failovers <- t.failovers + 1;
  if t.obs.Obs.enabled then begin
    if t.obs.Obs.t_cluster then
      Obs.emit t.obs (Trace.Failover { failed; target = survivor });
    Metrics.inc (Metrics.counter t.obs.Obs.metrics "cluster.failovers")
  end

let rec kv_op t ~via ~key ~mk_req ~local ~parse =
  let owner = owner_of_key t key in
  if owner = via then local (node_os t via)
  else
    match rpc t ~src:via ~dst:owner (mk_req ()) with
    | Ok r -> parse r
    | Error _ -> (
        (* one repair attempt: fresh attestation epoch for the pair *)
        reconnect t via owner;
        match rpc t ~src:via ~dst:owner (mk_req ()) with
        | Ok r -> parse r
        | Error _ ->
            declare_down t ~survivor:via ~failed:owner;
            (* shards failed over; the new owner may be [via] itself *)
            kv_op t ~via ~key ~mk_req ~local ~parse)

let kv_put t ?(via = 0) key value =
  if String.length key = 0 || String.contains key '/' then false
  else
    kv_op t ~via ~key
      ~mk_req:(fun () -> enc_put key value)
      ~local:(fun os -> local_put os key value)
      ~parse:(fun r -> String.equal r "O")

let kv_get t ?(via = 0) key =
  if String.length key = 0 || String.contains key '/' then None
  else
    kv_op t ~via ~key
      ~mk_req:(fun () -> enc_get key)
      ~local:(fun os -> local_get os key)
      ~parse:(fun r ->
        if String.length r > 0 && r.[0] = 'V' then
          Some (String.sub r 1 (String.length r - 1))
        else None)

(* --- maintenance ---------------------------------------------------------- *)

(* Idle sweep: channels whose virtual idle deadline has passed fail
   with [Timeout] (the host stalling a link cannot park a channel
   forever); a timed-out channel is re-established on next use. *)
let tick t =
  Hashtbl.iter
    (fun (a, b) ch ->
      if Channel.state ch = Channel.Open && alive t a && alive t b then
        ignore (Channel.check_idle ch ~now:(max (node_clock t a) (node_clock t b))))
    t.channels

(* --- digest ---------------------------------------------------------------- *)

(* SHA-256 over the sorted union of every alive node's /kv tree: the
   cluster-level observable state. A fault-free N-node run must digest
   identically to its single-node twin over the same operations. *)
let kv_digest t =
  let items = ref [] in
  Array.iter
    (fun nd ->
      match nd.os with
      | None -> ()
      | Some os -> (
          match Sefs.readdir os.Os.sefs "/kv" with
          | Error _ -> ()
          | Ok names ->
              List.iter
                (fun name ->
                  match local_get os name with
                  | Some v -> items := (name, v) :: !items
                  | None -> ())
                names))
    t.nodes;
  let sorted = List.sort compare !items in
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v;
      Buffer.add_char buf '\x02')
    sorted;
  Occlum_util.Sha256.to_hex (Occlum_util.Sha256.digest (Buffer.contents buf))

(* --- stats ----------------------------------------------------------------- *)

type chan_stats = {
  cs_a : int;
  cs_b : int;
  cs_epoch : int;
  cs_state : string;
  cs_sent : int;
  cs_received : int;
  cs_retries : int;
  cs_duplicates : int;
  cs_mac_failures : int;
}

let chan_stats t =
  Hashtbl.fold
    (fun (a, b) ch acc ->
      {
        cs_a = a;
        cs_b = b;
        cs_epoch = pair_epoch t a b;
        cs_state =
          (match Channel.state ch with
          | Channel.Open -> "open"
          | Channel.Closed -> "closed"
          | Channel.Failed k -> "failed:" ^ Channel.fault_name k);
        cs_sent = Channel.sent ch;
        cs_received = Channel.received ch;
        cs_retries = Channel.retries ch;
        cs_duplicates = Channel.duplicates ch;
        cs_mac_failures = Channel.mac_failures ch;
      }
      :: acc)
    t.channels []
  |> List.sort (fun x y -> compare (x.cs_a, x.cs_b) (y.cs_a, y.cs_b))

let handshakes t = t.handshakes
let rpcs t = t.rpcs
let rpc_failures t = t.rpc_failures
let failovers t = t.failovers
let size t = t.n
let alive_count t = Array.fold_left (fun acc nd -> if nd.os <> None then acc + 1 else acc) 0 t.nodes

(* --- construction ---------------------------------------------------------- *)

let create ?(obs = Obs.disabled) ?(connect = true) ~nodes () =
  if nodes < 1 || nodes > 16 then invalid_arg "Cluster.create";
  let t =
    {
      n = nodes;
      nodes = Array.init nodes (fun id -> { id; os = None; quote = None });
      transport = Transport.create ();
      checker = Lifecycle.create ~nodes;
      channels = Hashtbl.create 8;
      epochs = Hashtbl.create 8;
      obs;
      reference_measurement = None;
      handshakes = 0;
      rpcs = 0;
      rpc_failures = 0;
      failovers = 0;
    }
  in
  for i = 0 to nodes - 1 do
    boot_node t i;
    attest_node t i;
    enter_node t i
  done;
  if connect then connect_all t;
  t

let destroy t =
  for i = 0 to t.n - 1 do
    if alive t i then kill_node t i
  done
