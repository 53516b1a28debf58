(** SHA-256 (FIPS 180-4): enclave page measurement and the hash under
    every {!Hmac} tag. The compression function loads message words
    whole, rotates through a doubled word and keeps its message schedule
    in the context, so distinct contexts may be used from different
    domains at once. *)

type ctx
(** Streaming hash state. *)

val init : unit -> ctx
(** [init ()] is a fresh hash state. *)

val copy : ctx -> ctx
(** [copy ctx] is an independent state that has absorbed what [ctx]
    has; feeding either leaves the other unchanged. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs [len] bytes of [b] at [off].
    @raise Invalid_argument on a span outside [b]. *)

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all of [s]. *)

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 of [s]. *)

val digest_bytes : Bytes.t -> int -> int -> string
(** [digest_bytes b off len] hashes a byte slice. *)

val to_hex : string -> string
(** [to_hex d] renders a digest in lowercase hex. *)
