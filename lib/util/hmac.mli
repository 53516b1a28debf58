(** HMAC-SHA-256 (RFC 2104): binary signing, attestation reports, and
    the tag of {!Seal}, which SEFS, the cluster channels and the EPC
    pager seal through.

    A {!key} holds the ipad and opad midstates of one secret, computed
    once. A message is a list of parts, MAC'd as their concatenation
    without building it: [mac k parts = mac k [String.concat "" parts]]. *)

type key
(** A prepared HMAC key. Immutable: one key may serve any number of
    tags, from any domain. *)

val key : string -> key
(** [key secret] prepares [secret]; a secret longer than 64 bytes is
    hashed first, as RFC 2104 specifies. *)

val mac : key -> string list -> string
(** [mac k parts] is the 32-byte tag of the concatenation of [parts]. *)

val verify : key -> tag:string -> string list -> bool
(** [verify k ~tag parts] checks [tag] against [mac k parts] in
    constant time. *)
