(** Bounded ring-buffer event tracer. Events are typed variants stamped
    with the virtual clock; when the ring is full the oldest events are
    overwritten (and counted as dropped), so tracing never grows memory
    no matter how long the run. Exporters produce Chrome [trace_event]
    JSON — loadable in chrome://tracing and Perfetto — and a plain-text
    summary. *)

type kind =
  | Quantum_start of { pid : int }
  | Quantum_end of { pid : int; insns : int; cycles : int }
  | Syscall_enter of { pid : int; nr : int }
  | Syscall_exit of {
      pid : int;
      nr : int;
      ret : int64;
      latency_ns : int64;
      blocked : bool;  (** the call did not complete and will be retried *)
    }
  | Aex of { enclave : int; reason : string }
  | Resume of { enclave : int }
  | Page_map of { enclave : int; addr : int; len : int }
  | Page_unmap of { enclave : int; addr : int; len : int }
  | Page_evict of { enclave : int; page : int }
  | Page_reload of { enclave : int; page : int }
  | Enclave_create of { enclave : int; size : int }
  | Enclave_init of { enclave : int }
  | Enclave_destroy of { enclave : int }
  | Jit_compile of { pc : int }
  | Jit_hit of { pc : int }
  | Jit_invalidate of { pc : int }
  | Jit_deopt of { pc : int }
  | Sefs_read of { bytes : int }
  | Sefs_write of { bytes : int }
  | Net_send of { bytes : int }
  | Net_recv of { bytes : int }
  | Spawn of { pid : int; parent : int; path : string }
  | Exit of { pid : int; code : int }
  | Sched_switch of { from_pid : int; to_pid : int }
  | Quote_issue of { enclave : int }  (** quoting enclave countersigned *)
  | Chan_attest of { a : int; b : int }  (** mutual quote verification *)
  | Chan_open of { a : int; b : int }
  | Chan_msg of { a : int; b : int; seq : int; bytes : int }
  | Chan_retry of { a : int; b : int; seq : int }
  | Chan_fault of { a : int; b : int; kind : string }
      (** hard channel fault: replay/rollback/timeout/down *)
  | Chan_close of { a : int; b : int }
  | Failover of { failed : int; target : int }
      (** a dead node's shard moved to [target] *)

val kind_name : kind -> string

type event = { ts : int64;  (** virtual ns *) kind : kind }

type t

val create : capacity:int -> unit -> t
(** A ring holding at most [capacity] events ([capacity = 0] records
    nothing and counts every emit as dropped). *)

val emit : t -> ts:int64 -> kind -> unit

val length : t -> int
val total : t -> int
(** Events ever emitted, including dropped ones. *)

val dropped : t -> int
val clear : t -> unit

val events : t -> event list
(** Oldest first. *)

val to_chrome_json : t -> string
(** The Chrome [trace_event] format: a JSON object with a [traceEvents]
    array; quanta and syscalls become duration (B/E) events per SIP,
    everything else instants. Timestamps are virtual microseconds. *)

val summary : t -> string
(** Per-kind event counts plus ring occupancy and drop statistics. *)
