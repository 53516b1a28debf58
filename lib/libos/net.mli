(** The loopback network (§6 "Networking"): delegated to the untrusted
    host, so payloads are not LibOS-encrypted. Endpoints can be held by
    SIPs (through socket fds) or by the benchmark harness playing an
    external client. *)

type endpoint = {
  inbox : Ring.t;
  mutable peer : endpoint option;
  mutable closed : bool;
  mutable wake : (unit -> unit) list;
      (** readiness hooks (epoll watchers); fired whenever this
          endpoint's readable/writable/hup state may have changed *)
}

type listener = {
  port : int;
  backlog : int;
  pending : endpoint Queue.t;  (** O(1) push/pop/length accept backlog *)
  mutable wake : (unit -> unit) list;
  owner : t;
}

and t = {
  listeners : (int, listener) Hashtbl.t;
  mutable sock_ring_bytes : int;
      (** per-direction buffer size for new connections (default 64 KiB;
          load harnesses shrink it to fit thousands of connections) *)
  mutable ocall_bytes : int;  (** traffic that crossed the enclave edge *)
  mutable retries : int;
      (** transient I/O faults absorbed by the bounded-retry wrapper *)
  mutable backoff_ns : int64;
      (** simulated backoff accrued by retries, drained by the LibOS *)
  mutable obs : Occlum_obs.Obs.t;
      (** I/O events and byte counters; {!Occlum_obs.Obs.disabled} until
          the LibOS attaches its own instance at boot *)
}

val create : unit -> t
val pair : ?ring_bytes:int -> unit -> endpoint * endpoint
val listen : t -> port:int -> backlog:int -> (listener, int) result
val connect : t -> port:int -> (endpoint, int) result
val accept : listener -> endpoint option
val send : t -> endpoint -> Bytes.t -> int -> int -> (int, int) result
val recv : t -> endpoint -> Bytes.t -> int -> int -> (int, int) result

val send_with :
  t -> endpoint -> int -> (Ring.t -> int -> int) -> (int, int) result
(** [send_with t e len xfer] is {!send} with the copy left to
    [xfer ring len], which moves at most [len] bytes into the peer's
    inbox and returns the count. The I/O hook is consulted exactly once,
    before [xfer], and a [Short] fault shrinks the [len] it is given. *)

val recv_with :
  t -> endpoint -> int -> (Ring.t -> int -> int) -> (int, int) result
(** [recv_with t e len xfer] is {!recv} with the copy left to
    [xfer ring len], which moves at most [len] bytes out of [e]'s inbox
    and returns the count. Same hook contract as {!send_with}. *)

val close_endpoint : endpoint -> unit

val close_listener : listener -> unit
(** Deregister the port (a re-[listen] then succeeds) and close every
    queued endpoint so external clients observe EOF, not a hang. Called
    by the last close of a Listener fd. *)

val has_listener : t -> port:int -> bool

val set_io_hook : (send:bool -> len:int -> Sefs.io_fault option) option -> unit
(** Fault-injection seam: when set, the hook is consulted at the top of
    every {!send}/{!recv} and may fail the transfer with a transient
    errno ({!Sefs.Io_error}) or truncate it ({!Sefs.Short}), modelling
    the untrusted host transport. [None] (the default) restores normal
    operation; production code never sets it. *)

(** {1 External (harness-side) API} *)

val external_connect : t -> port:int -> (endpoint, int) result
val external_send : t -> endpoint -> string -> int
val external_recv_all : t -> endpoint -> string

val external_pending : endpoint -> int
(** Bytes waiting in the endpoint's inbox — an allocation-free readiness
    check for load harnesses polling thousands of connections. *)

val external_recv_into : t -> endpoint -> Bytes.t -> int
(** Drain into a caller-owned scratch buffer; 0 on empty/EOF/error. *)
