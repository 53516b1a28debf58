(** ChaCha20-style stream cipher: SEFS block encryption and EIP
    inter-enclave message encryption. XOR keystream, so encryption and
    decryption are the same operation. *)

val key_size : int
(** 32 bytes. *)

val nonce_size : int
(** 12 bytes. *)

val encrypt : key:string -> nonce:string -> string -> string
(** [encrypt ~key ~nonce data] en/decrypts [data].
    @raise Invalid_argument on wrong key or nonce size. *)

val encrypt_bytes : key:string -> nonce:string -> Bytes.t -> unit
(** In-place variant of {!encrypt}. *)

val encrypt_sub : key:string -> nonce:string -> Bytes.t -> int -> int -> unit
(** [encrypt_sub ~key ~nonce b off len] en/decrypts [b]'s bytes
    [off .. off+len-1] in place, keystream starting at block 0.
    @raise Invalid_argument on a bad key, nonce or span. *)

val derive_nonce : string -> int -> string
(** [derive_nonce tag index] is a deterministic per-context nonce. *)
