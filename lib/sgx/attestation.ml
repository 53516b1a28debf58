(* Attestation, modelled on the EREPORT/EGETKEY flow. Local attestation
   is what an EIP creation (Graphene-style) must do with its parent
   before the encrypted process state can be transferred (§3.2) — part
   of why EIP process creation is slow. Remote attestation layers a
   quoting enclave on top: it verifies the local report (it runs on the
   same platform, so it holds the platform MAC key) and re-signs the
   report body under its own key, whose public identity a remote
   verifier trusts — the verifier never needs the platform fuse key. *)

(* The platform key never leaves the CPU on real hardware; here it is a
   module-private constant standing in for the fused key. *)
let platform_key =
  Occlum_util.Hmac.key (Occlum_util.Sha256.digest "occlum-sim-platform-fuse-key")

type report = { body : string; tag : string }

(* EREPORT: a MAC over the enclave's measurement plus user data, keyed so
   only enclaves on the same platform can verify it. *)
let report ~enclave ~user_data =
  let body =
    Printf.sprintf "measurement=%s;user=%s"
      (Occlum_util.Sha256.to_hex (Enclave.measurement enclave))
      user_data
  in
  { body; tag = Occlum_util.Hmac.mac platform_key [ body ] }

let verify r = Occlum_util.Hmac.verify platform_key ~tag:r.tag [ r.body ]

(* --- remote attestation: quotes ------------------------------------------ *)

(* The quoting enclave's root of trust. [qe_identity] is the public half
   a remote verifier pins; the signing key is module-private, standing
   in for the QE's attestation key (EPID/ECDSA on real hardware). *)
let qe_identity = "occlum-sim-quoting-enclave-v1"
let qe_key =
  Occlum_util.Hmac.key
    (Occlum_util.Sha256.digest ("occlum-sim-qe-key|" ^ qe_identity))

type quote = { q_body : string; q_qe : string; q_sig : string }

exception Bad_report

(* The quoting enclave: verify the local report, then countersign its
   body. Raising on a bad report models the QE refusing to quote an
   enclave it cannot locally attest. *)
let quote ~enclave ~user_data =
  let r = report ~enclave ~user_data in
  if not (verify r) then raise Bad_report;
  let q_body = Printf.sprintf "qe=%s;%s" qe_identity r.body in
  { q_body; q_qe = qe_identity; q_sig = Occlum_util.Hmac.mac qe_key [ q_body ] }

(* What the remote verifier checks: the QE identity is the one it pins,
   and the signature verifies under that identity's key. *)
let verify_quote q =
  String.equal q.q_qe qe_identity
  && Occlum_util.Hmac.verify qe_key ~tag:q.q_sig [ q.q_body ]

let quote_measurement q =
  (* "qe=<id>;measurement=<hex>;user=..." *)
  match String.index_opt q.q_body ';' with
  | None -> None
  | Some i -> (
      let rest = String.sub q.q_body (i + 1) (String.length q.q_body - i - 1) in
      let prefix = "measurement=" in
      if not (String.length rest > String.length prefix) then None
      else if not (String.equal (String.sub rest 0 (String.length prefix)) prefix)
      then None
      else
        match String.index_opt rest ';' with
        | None -> None
        | Some j ->
            Some
              (String.sub rest (String.length prefix)
                 (j - String.length prefix)))

let quote_user_data q =
  let prefix = ";user=" in
  let rec find i =
    if i + String.length prefix > String.length q.q_body then None
    else if String.equal (String.sub q.q_body i (String.length prefix)) prefix
    then Some (i + String.length prefix)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub q.q_body i (String.length q.q_body - i))

(* --- mutual attestation --------------------------------------------------- *)

(* Nonce-replay protection: the derived session key is a pure function
   of (measurements, nonce), so accepting a reused nonce for the same
   enclave pair would let a host replay a captured handshake transcript
   and resurrect an old session key. Track consumed nonces per ordered
   enclave pair; the cache is keyed by enclave ids, which are globally
   unique, so a *fresh* enclave pair never collides with an old one. *)
let seen_nonces : (int * int, (string, unit) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 64

let nonce_replayed ~parent ~child ~nonce =
  let key = (Enclave.id parent, Enclave.id child) in
  let set =
    match Hashtbl.find_opt seen_nonces key with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace seen_nonces key s;
        s
  in
  if Hashtbl.mem set nonce then true
  else begin
    Hashtbl.replace set nonce ();
    false
  end

let reset_nonce_cache () = Hashtbl.reset seen_nonces

(* Mutual attestation: both sides exchange reports and derive a shared
   session key for the encrypted channel between their enclaves. Real
   work (four HMAC computations + key derivation) so the handshake has
   honest cost in benchmarks. *)
let handshake ~parent ~child ~nonce =
  if nonce_replayed ~parent ~child ~nonce then
    Error "attestation nonce replayed for this enclave pair"
  else
    let r1 = report ~enclave:parent ~user_data:nonce in
    let r2 = report ~enclave:child ~user_data:nonce in
    if not (verify r1 && verify r2) then Error "attestation report rejected"
    else
      Ok
        (Occlum_util.Sha256.digest
           (String.concat "|" [ "session"; r1.tag; r2.tag; nonce ]))
