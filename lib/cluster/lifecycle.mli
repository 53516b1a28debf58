(** The enclave + attestation + channel lifecycle as an explicit state
    machine, with an orderliness checker after Guardian (PAPERS.md):
    every host-driven transition — ECREATE/EADD/EINIT, quote
    generation/verification, EENTER, channel handshakes, sequenced
    message delivery, teardown — is checked against the machine, and
    anything out of order is a {!violation}. {!Cluster} routes its real
    transitions through a checker; fuzz property #9 drives hostile
    sequences at one and requires zero false accepts.

    Node protocol (linear; revival restarts at ECREATE):
    [Absent → Created → Measured → Inited → Quoted → Attested → Serving
    → Down], with [Teardown] legal from any live phase. Channel protocol
    per unordered pair: [Closed → Handshaking → Open → Closed], both
    endpoints Serving at handshake start, and per direction strictly
    sequential send/delivery counters — a delivery behind the cursor is
    a replay, ahead of it a rollback. *)

type node_phase =
  | Absent
  | Created  (** ECREATE *)
  | Measured  (** at least one EADD+EEXTEND *)
  | Inited  (** EINIT *)
  | Quoted  (** quoting enclave countersigned the report *)
  | Attested  (** a verifier accepted the quote *)
  | Serving  (** EENTER: live in the mesh *)
  | Down  (** torn down or crashed *)

type chan_phase = Closed | Handshaking | Open

type transition =
  | Ecreate of int
  | Eadd of int
  | Einit of int
  | Quote_gen of int
  | Quote_verify of int
  | Eenter of int
  | Teardown of int
  | Hs_start of int * int
  | Hs_done of int * int
  | Ch_send of int * int * int  (** src, dst, seq *)
  | Ch_deliver of int * int * int  (** src, dst, seq *)
  | Ch_close of int * int

type violation =
  | Bad_node of int
  | Bad_phase of { node : int; have : node_phase; transition : string }
  | Chan_bad_state of { a : int; b : int; transition : string }
  | Chan_endpoint_not_serving of { a : int; b : int; node : int }
  | Seq_skip of { src : int; dst : int; seq : int; expect : int }
  | Replay of { src : int; dst : int; seq : int; expect : int }
  | Rollback of { src : int; dst : int; seq : int; expect : int }
  | Deliver_unsent of { src : int; dst : int; seq : int }

val violation_to_string : violation -> string

type t

val create : nodes:int -> t
val node_phase : t -> int -> node_phase
val chan_phase : t -> int -> int -> chan_phase

val step : t -> transition -> (unit, violation) result
(** Advance the machine; the state only moves on [Ok]. *)

val run : t -> transition list -> (int, int * transition * violation) result
(** Feed a whole sequence; [Ok n] = all [n] accepted, [Error (i, tr, v)]
    = transition [i] (0-based) rejected with [v], earlier ones applied. *)

val transition_to_string : transition -> string
val transition_of_string : string -> transition option
(** One-line textual encoding, used by the orderliness corpus. *)
