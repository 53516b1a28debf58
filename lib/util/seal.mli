(** The one sealing construction for everything the enclave hands the
    untrusted host: SEFS blocks and metadata, EPC pages written back by
    EWB, and cluster channel frames.

    Encrypt-then-MAC. The payload is enciphered with {!Cipher} under the
    domain's cipher key and a caller-chosen nonce, then a keyed
    {!Blake2b} tag covers the label's length as a little-endian 64-bit
    word, the label, and the ciphertext. The label binds the sealed
    object's identity (block and generation, page and version, channel
    direction and sequence number), so a sealed object cannot be moved
    to another identity; the length prefix keeps two (label,
    ciphertext) pairs with the same concatenation apart. {!open_} checks
    the tag in constant time before it deciphers a byte. The caller
    keeps nonces unique per key. *)

type keys
(** The cipher key and the prepared MAC key of one secret in one
    domain. Immutable. *)

val keys : domain:string -> string -> keys
(** [keys ~domain secret] derives two unrelated subkeys: the cipher key
    [Sha256.digest (domain ^ "-data:" ^ secret)] and the MAC key
    [Blake2b.key (Sha256.digest (domain ^ "-mac:" ^ secret))]. *)

val seal :
  keys -> label:string -> nonce:string -> ?pos:int -> ?len:int -> Bytes.t ->
  string * string
(** [seal k ~label ~nonce ?pos ?len b] is [(cipher, tag)] for the [len]
    bytes of [b] at [pos] (default: all of [b]). [b] is read, never
    changed; the ciphertext is the one copy made.
    @raise Invalid_argument on a bad nonce or span. *)

val open_ :
  keys -> label:string -> nonce:string -> tag:string -> ?pos:int -> ?len:int ->
  string -> Bytes.t option
(** [open_ k ~label ~nonce ~tag ?pos ?len cipher] is the plaintext of
    the [len] bytes of [cipher] at [pos] (default: all of [cipher]), in a
    fresh buffer the caller owns, when [tag] authenticates [label] and
    that ciphertext under [k]; [None] otherwise. The plaintext buffer is
    the one copy made.
    @raise Invalid_argument on a bad span. *)
