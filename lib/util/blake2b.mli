(** BLAKE2b-256 (RFC 7693 BLAKE2b with a 32-byte digest-length
    parameter): the tag of {!Seal}, which SEFS, the cluster channels and
    the EPC pager seal through. A keyed BLAKE2b is a MAC on its own; no
    HMAC wrapper is needed.

    A {!key} holds the chaining value after its key block, computed once.
    Contexts share no state, and a block allocates nothing. *)

type key
(** A prepared MAC key. Immutable: one key may serve any number of
    tags. *)

val key : string -> key
(** [key k] prepares the key [k].
    @raise Invalid_argument unless [k] has 1 to 64 bytes. *)

val mac : key -> string list -> string
(** [mac k parts] is the 32-byte keyed BLAKE2b-256 of the concatenation
    of [parts]. *)

type ctx
(** The state of one keyed hash in progress. *)

val start : key -> ctx
(** [start k] is a fresh keyed hash under [k]. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes c b off len] absorbs [len] bytes of [b] at [off].
    @raise Invalid_argument on a span outside [b]. *)

val feed : ctx -> string -> unit
(** [feed c s] absorbs all of [s]. *)

val finalize : ctx -> string
(** [finalize c] is the 32-byte tag. The context must not be reused. *)

val digest512 : string -> string
(** [digest512 s] is the 64-byte unkeyed BLAKE2b-512 of [s], the
    function of RFC 7693's test vector; it checks the compression
    function, and no seal uses it. *)
