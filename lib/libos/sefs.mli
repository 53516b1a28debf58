(** SEFS: Occlum's writable encrypted file system (§6). All metadata and
    data live — encrypted and MAC'd — in an untrusted host store; the
    single in-enclave LibOS instance holds the keys, a page cache of
    decrypted blocks shared by all SIPs, and the authoritative metadata.
    This is the capability Table 1 reserves to SIPs: Graphene-SGX's
    per-process enclaves cannot maintain one consistent writable view.

    Confidentiality: per-(block, generation) nonces from a fixed-width
    encoding of the pair, disjoint from the metadata's nonces
    ({!block_nonce}, {!meta_nonce}), under keys of the volume's own
    domain. Integrity: a keyed BLAKE2b tag per
    block over its length-prefixed identity-and-generation label and its
    ciphertext; host tampering surfaces as {!Corrupt} on the next cold
    read.

    Metadata operations are O(1) in the size of the volume: inodes are
    indexed by ino, block generations by block id, and every directory's
    entries by [(dir ino, name)]. Directory listings keep creation order
    (a renamed name goes first). *)

val block_size : int

exception Corrupt of string

type io_fault =
  | Io_error of int  (** fail the whole transfer with this errno *)
  | Short of int  (** transfer at most this many bytes *)

val max_io_attempts : int
(** Transient [Io_error] faults are retried up to this many attempts
    before the errno surfaces. [Short] transfers are never retried:
    they made partial progress the caller must consume. *)

val backoff_ns_of_attempt : int -> int64
(** Deterministic simulated backoff before retry [k] (1-based):
    exponential from 1 µs. Shared with the cluster channels. *)

val retry_io :
  (unit -> io_fault option) ->
  obs:Occlum_obs.Obs.t ->
  len:int ->
  retried:(int64 -> unit) ->
  (int, int) result
(** [retry_io fault ~obs ~len ~retried] runs the fault schedule of one
    [len]-byte transfer with an untrusted host through the bounded
    retry loop shared by SEFS and {!Net}: [Ok n] is the byte count to
    move ([len], or fewer after a [Short]), [Error errno] a fault that
    outlasted {!max_io_attempts}. [retried ns] accounts each retry with
    its simulated backoff, and each retry bumps [io.retries] in [obs]. *)

(** The untrusted host side: ciphertext blocks plus a sealed metadata
    blob. Serializable to the occlum_sefs image format (version 4,
    magic [SEFSIMG4]) without keys; {!Host_store.of_string} refuses a
    version-1, -2 or -3 image with its own [Bad_image] message. *)
module Host_store : sig
  type entry = { cipher : string; mac : string }

  type t = {
    blocks : (int, entry) Hashtbl.t;
    mutable meta : (int * entry) option;  (** public generation + blob *)
    mutable reads : int;
    mutable writes : int;
    mutable fault : (unit -> io_fault option) option;
        (** fault-injection seam of this store, consulted once per
            {!read_file}/{!write_file} of every volume mounted over it;
            [None] (the default, and always in production) is a
            well-behaved host *)
  }

  val create : unit -> t
  val put : t -> int -> entry -> unit
  val get : t -> int -> entry option

  val to_string : t -> string
  exception Bad_image of string

  val of_string : string -> t
  (** @raise Bad_image on a malformed image, on a version-3 image,
      whose blocks carry BLAKE2s tags, on a version-2 image, whose
      blocks carry HMAC tags, and on a version-1 image, whose blocks
      were sealed under the old, non-injective nonces. *)

  val save : t -> string -> unit
  val load : string -> t

  val tamper : t -> int -> bool
  (** Flip a ciphertext bit of a block (integrity demos/tests). *)
end

type kind = File | Dir

type inode = private {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable blocks : int array;  (** host block ids; -1 = hole *)
  mutable entries : (string * int) list;  (** directories only *)
  mutable nlink : int;
}

type meta
(** The trusted metadata: the inode table, the directory-entry index,
    the allocation counters and every block's write generation. *)

type t = {
  host : Host_store.t;
  keys : Occlum_util.Seal.keys;
      (** domain ["sefs:<volume>"] of the volume key *)
  volume : string;
  encrypted : bool;  (** false models a plain ext4-style host FS *)
  mutable m : meta;
  cache : (int, cache_line) Hashtbl.t;  (** shared page cache, all SIPs *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable retries : int;
      (** transient I/O faults absorbed by the bounded-retry wrapper *)
  mutable backoff_ns : int64;
      (** simulated backoff accrued by retries, drained by the LibOS *)
  obs : Occlum_obs.Obs.t;  (** I/O events and byte counters *)
}

and cache_line = { mutable data : Bytes.t; mutable dirty : bool }

val create :
  ?volume:string ->
  ?encrypted:bool ->
  ?obs:Occlum_obs.Obs.t ->
  key:string ->
  unit ->
  t
(** A fresh volume over an empty host store. Its I/O events and byte
    counters go to [obs] (default {!Occlum_obs.Obs.disabled}). *)

val mount :
  ?volume:string ->
  ?encrypted:bool ->
  ?obs:Occlum_obs.Obs.t ->
  key:string ->
  Host_store.t ->
  t
(** Reload a volume (e.g. a fresh LibOS boot over the same host files),
    reporting to [obs] as {!create} does.
    @raise Corrupt on tampered or wrong-key metadata. *)

val flush : t -> unit
(** Write back dirty cache lines and seal the metadata.
    @raise Invalid_argument, and writes nothing, when the metadata's
    next generation is outside {!meta_nonce}'s range; a block outside
    {!block_nonce}'s is refused the same way before its generation
    moves. *)

val block_nonce : int -> int -> string
(** [block_nonce idx gen]: the nonce block [idx] is sealed under at
    write generation [gen], [u32le idx ‖ u56le gen ‖ 0x00]. Injective
    in [(idx, gen)].
    @raise Invalid_argument unless [0 <= idx < 2^32] and
    [0 <= gen < 2^56]. *)

val meta_nonce : int -> string
(** [meta_nonce gen]: the nonce the metadata is sealed under at
    metadata generation [gen], [u32le 0 ‖ u56le gen ‖ 0x01]; never
    equal to a {!block_nonce}.
    @raise Invalid_argument unless [0 <= gen < 2^56]. *)

val inode : t -> int -> inode option

(** {1 Namespace} *)

val split_path : string -> string list
val lookup : t -> string -> inode option
val create_file : t -> string -> (inode, int) result
val mkdir : t -> string -> (inode, int) result
val unlink : t -> string -> (unit, int) result
val rename : t -> string -> string -> (unit, int) result
(** POSIX rename. A replaced target's inode is freed; a directory moved
    into its own subtree is [EINVAL] and changes nothing; replacing a
    non-empty directory is [ENOTEMPTY], a directory by a file [EISDIR],
    a file by a directory [ENOTDIR]. *)

val readdir : t -> string -> (string list, int) result
val ensure_parents : t -> string -> unit
(** mkdir -p for the directories leading to the path's parent. *)

(** {1 File data} *)

val read_file : t -> inode -> pos:int -> len:int -> (Bytes.t, int) result
(** Up to [len] bytes from [pos]; short at end of file. [EINVAL] for a
    negative [pos], [EISDIR] for a directory. *)

val max_file_size : int
(** 1 GiB: no file grows past it. *)

val write_file : t -> inode -> pos:int -> Bytes.t -> (int, int) result
(** Write at [pos], zeroing any gap between the old end of file and
    [pos] first, so bytes from before a shrink never reappear. [EINVAL]
    for a negative [pos], [EFBIG] when the write would end past
    {!max_file_size}, [EISDIR] for a directory. *)

val truncate : t -> inode -> int -> (unit, int) result
(** Set the file's size, the one way a size shrinks. Growing zeroes the
    bytes between the old and the new end; the inode keeps its blocks.
    [EINVAL] for a negative size, [EFBIG] past {!max_file_size},
    [EISDIR] for a directory. *)

val write_path : t -> string -> string -> (inode, int) result
(** Create/replace a whole file (images and tests). *)

val read_path : t -> string -> (string, int) result
