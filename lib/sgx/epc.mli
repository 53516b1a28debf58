(** The Enclave Page Cache: the finite pool of protected pages shared by
    all enclaves on the platform. The EIP baseline burns an enclave's
    worth per process; Occlum's SIPs share one enclave.

    By default the pool is a bare counter and exhaustion raises
    {!Out_of_epc}. {!enable_paging} switches it to demand paging:
    evicted pages are sealed (encrypted + MAC'd, version-bound) into an
    untrusted backing store by an EWB-style writeback, reloaded and
    verified by an ELDU-style reload, and a clock-style second-chance
    reclaimer turns allocation pressure into eviction while backing
    capacity remains. *)

type t

val page_size : int

val default_size : int
(** 93 MiB, the usable EPC of SGX1-era parts. *)

val create : ?size:int -> unit -> t

exception Out_of_epc

exception Integrity_violation of { cid : int; page : int }
(** A reload found a tampered or rolled-back sealed page. Hard fault:
    the page is not restored and the frame allocation is undone. *)

val alloc : t -> pages:int -> unit
(** Under paging, a shortfall first runs the reclaimer; only when
    nothing can be evicted (everything pinned/protected, or the backing
    store is at capacity) does it raise.
    @raise Out_of_epc when the pool is exhausted. *)

val set_fault : t -> (unit -> bool) option -> unit
(** Fault-injection seam of this pool alone: when set, the schedule is
    consulted on every {!alloc} before the capacity check, and [true]
    raises {!Out_of_epc} to model transient platform pressure, without
    consulting the reclaimer. [None] (the default) restores normal
    operation; production code never sets it. *)

val release : t -> pages:int -> unit
val free_pages : t -> int
val total_pages : t -> int
val used_pages : t -> int

(** {1 Demand paging} *)

val enable_paging : ?backing_pages:int -> ?key:string -> t -> unit
(** Switch the pool to EWB/ELDU paging. [backing_pages] bounds how many
    sealed pages the untrusted store may hold at once (default
    unbounded); [key] seeds the sealing keys. Must be called before any
    client registers. *)

val paging_enabled : t -> bool

val register_client : t -> cid:int -> mem:Occlum_machine.Mem.t -> unit
(** Put an enclave's address space under the pager: enables paging on
    [mem] (zero-fill-on-demand — freshly mapped pages own no frame
    until first touch) and wires its privileged page-in path to
    {!eldu}. *)

val eldu : t -> cid:int -> page:int -> unit
(** Make [page] resident: verify + decrypt from the backing store, or
    zero-fill a first-touch page. No-op if already resident. May evict
    other pages to find a frame.
    @raise Integrity_violation on a tampered or rolled-back sealed page.
    @raise Out_of_epc when no frame can be reclaimed. *)

val client_resident : t -> cid:int -> int
(** The client's resident-set size, in pages. *)

val discard_page : t -> cid:int -> page:int -> unit
(** EREMOVE one page: release its frame if resident, drop its sealed
    copy and version counter. Call while the page is still mapped. *)

val drop_client : t -> cid:int -> unit
(** Enclave destroy: release the client's whole resident set and drop
    all its sealed pages. Idempotent. *)

val set_victim_policy : t -> (unit -> cid:int -> page:int -> bool) option -> unit
(** LibOS hook deciding which frames the reclaimer should spare. The
    outer thunk runs once per reclaim sweep and returns a predicate;
    frames it protects are only raided when nothing else is evictable
    (the livelock guard is advisory, not a hard reservation). *)

type page_event = Evict | Reload

val set_event_hook : t -> (cid:int -> page:int -> page_event -> unit) option -> unit

type paging_stats = {
  ewb : int;
  eldu : int;
  integrity_failures : int;
  paging_cycles : int;  (** deterministic Cost.ewb/eldu charges accrued *)
}

val paging_stats : t -> paging_stats option
(** [None] when paging is disabled. *)

val backing_used : t -> int
(** Sealed pages currently held by the backing store. *)

(** {1 Test-only entry points} *)

val entry_nonce : int -> int -> int -> string
(** [entry_nonce cid page version] is the ChaCha nonce that seals that
    EWB. Distinct triples get distinct nonces. *)

val evict_page : t -> cid:int -> page:int -> bool
(** Force one EWB; false if the page is not an evictable resident frame. *)

type backing_copy

val backing_tamper : t -> cid:int -> page:int -> bool
(** Flip a bit of the sealed bytes; false if the page is not backed. *)

val backing_snapshot : t -> cid:int -> page:int -> backing_copy option
val backing_restore : t -> cid:int -> page:int -> backing_copy -> unit
(** Replay an earlier sealed copy — the rollback attack. *)
