(** A bounded byte ring buffer: the kernel-side object behind pipes and
    loopback sockets. Because all SIPs share the LibOS address space, IPC
    is a plain copy through this buffer — no encryption, no enclave exit
    (Table 1).

    A ring holds byte storage only while bytes are queued. It takes a
    buffer of its capacity from its pool when bytes arrive and gives it
    back when a read drains it; stale bytes in a reused buffer are never
    readable, since every read is bounded by the queued length. *)

type pool
(** Spare ring buffers, one stack per capacity. Each LibOS has its own
    (see {!Net.t}), so no buffer passes between two instances. *)

val pool : unit -> pool
(** An empty pool. *)

type t

val create : pool -> int -> t
(** [create pool capacity] is an empty ring that holds no storage until
    written to; its storage comes from, and returns to, [pool].
    @raise Invalid_argument if [capacity <= 0]. *)

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
