(** Attestation. Local (EREPORT/EGETKEY flow): what an EIP creation must
    do between parent and child enclaves before the encrypted
    process-state transfer (§3.2). Remote: a simulated quoting enclave
    countersigns local reports into quotes a verifier checks against
    the QE's pinned identity — the root of trust for cluster channels
    (lib/cluster), with no platform key outside the platform. *)

type report = { body : string; tag : string }

val report : enclave:Enclave.t -> user_data:string -> report
(** A MAC over the enclave's measurement plus caller data, keyed by the
    (simulated) platform fuse key. *)

val verify : report -> bool

(** {1 Remote attestation} *)

type quote = { q_body : string; q_qe : string; q_sig : string }

exception Bad_report
(** The quoting enclave refuses to quote an enclave whose local report
    does not verify. *)

val quote : enclave:Enclave.t -> user_data:string -> quote
(** EREPORT to the quoting enclave, which verifies it locally and
    countersigns the body under its attestation key.
    @raise Bad_report if the local report is rejected. *)

val verify_quote : quote -> bool
(** What a remote verifier can check without any platform secret. *)

val quote_measurement : quote -> string option
(** The quoted enclave's measurement (hex), parsed from the body. *)

val quote_user_data : quote -> string option
(** The attested user data (e.g. a bound public value), from the body. *)

(** {1 Mutual attestation} *)

val handshake :
  parent:Enclave.t -> child:Enclave.t -> nonce:string -> (string, string) result
(** Mutual attestation; on success returns a derived 32-byte session key
    for the encrypted channel between the enclaves. A [nonce] already
    consumed by the same ordered enclave pair is rejected — the session
    key is a pure function of the transcript, so accepting a replayed
    nonce would resurrect an old key. *)

val reset_nonce_cache : unit -> unit
(** Forget consumed nonces (deterministic test/fuzz harnesses only). *)
