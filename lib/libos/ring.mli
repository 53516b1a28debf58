(** A bounded byte ring buffer: the kernel-side object behind pipes and
    loopback sockets. Because all SIPs share the LibOS address space, IPC
    is a plain copy through this buffer — no encryption, no enclave exit
    (Table 1). *)

type t

val create : int -> t
val capacity : t -> int
val length : t -> int
val free_space : t -> int
val is_empty : t -> bool

val write : t -> Bytes.t -> int -> int -> int
(** [write t src off len] copies in as much as fits; returns the count.
    @raise Invalid_argument if [len < 0] or [(off, len)] is not a valid
    span of [src]; the ring is then unchanged. *)

val read : t -> Bytes.t -> int -> int -> int
(** [read t dst off len] copies out up to [len]; returns the count.
    @raise Invalid_argument if [len < 0] or [(off, len)] is not a valid
    span of [dst]; the ring is then unchanged. *)
