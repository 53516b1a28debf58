(** Flat, paged, permission-checked memory: the single address space of
    an enclave. MMDSFI guard regions are pages left unmapped, so any
    access to them raises {!Fault.Fault} — the mechanism §4.1 of the
    paper relies on. *)

val page_size : int
(** 4096. *)

type perm = { r : bool; w : bool; x : bool }

val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val perm_ro : perm
val perm_to_string : perm -> string

type t = private {
  data : Bytes.t;  (** the backing store, little-endian *)
  direct : Bytes.t;
      (** The page check: one byte per page, written only by {!map},
          {!unmap} and {!enable_paging}. Bit {!direct_read} is set
          exactly when a read of the page can neither fault nor have a
          side effect. Bit {!direct_write} is set exactly when the page
          is writable and not executable, so a write can neither fault
          nor bump {!page_gen}. Both bits are clear whenever paging is
          on. An access within one page whose bit is set may use [data]
          directly; every other access must use the checked accessors,
          which raise the fault. *)
  pages : perm option array;
  gens : int array;
  size : int;
  mutable paged : bool;
  resident : Bytes.t;
  accessed : Bytes.t;
  mutable pager : (int -> unit) option;
}
(** Private so that the execution tiers can read [data] and [direct]
    without a cross-module call; every other field is internal. *)

val direct_read : int
val direct_write : int

val create : size:int -> t
(** [create ~size] is a zeroed address space of [size] bytes (a positive
    page multiple), with every page unmapped. *)

val size : t -> int
val page_count : t -> int

val map : t -> addr:int -> len:int -> perm:perm -> unit
(** Map a page-aligned range with the given permissions. *)

val unmap : t -> addr:int -> len:int -> unit

val perm_at : t -> int -> perm option
(** [None] if the address is unmapped or out of range. *)

val page_gen : t -> int -> int
(** [page_gen t page] is the page's generation counter. It is bumped by
    {!map}, {!unmap} and every write — user or privileged — that touches
    an executable page, so cached decodings of a page are stale exactly
    when its generation has moved. *)

val check_access : t -> int -> int -> Fault.access -> unit
(** Fault-checking span test used by the interpreter: the whole byte span
    must be mapped with the needed permission.
    @raise Fault.Fault with [Page_fault] otherwise, or with [Epc_miss]
    when paging is enabled and a page in the span has been evicted. *)

(** {1 EPC demand paging}

    Off by default: every mapped page is permanently resident and none
    of the calls below change behaviour. {!enable_paging} switches the
    address space to demand-paged semantics: freshly mapped pages are
    zero-fill-on-demand (no frame until first touch), checked accesses
    to a mapped non-resident page raise [Fault.Epc_miss] carrying the
    faulting page's base address, and privileged accessors page in
    transparently through the [pager] callback. *)

val enable_paging : t -> pager:(int -> unit) -> unit
(** [pager page] must make [page] resident (ELDU or zero-fill commit)
    or raise; it is invoked by the privileged accessors. *)

val paging_enabled : t -> bool

val page_resident : t -> int -> bool
(** Always true when paging is disabled. *)

val set_resident : t -> int -> bool -> unit
(** Pager-side: flip a page's presence bit (no data movement). *)

val page_accessed : t -> int -> bool
val set_accessed : t -> int -> bool -> unit
(** Clock reference bit, set by every checked access to the page and
    cleared by the reclaimer's second-chance sweep. *)

val probe_resident : t -> addr:int -> len:int -> unit
(** Fetch-path probe: raise [Fault.Epc_miss] if any mapped page in the
    (clamped) span is non-resident; unmapped pages are skipped. Used to
    distinguish "bytes are evicted" from "bytes are not an instruction"
    on decode errors. *)

(** {1 Checked accessors (user-mode semantics)} *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

(** {1 Privileged accessors}

    For the LibOS and loader (the runtime TCB): bounds-checked but not
    permission-checked. *)

val span_priv :
  t -> addr:int -> len:int -> write:bool -> (Bytes.t -> int -> int -> int) -> int
(** [span_priv t ~addr ~len ~write f] walks the span one page-bounded
    chunk at a time and returns the bytes moved. Each chunk's page is
    made resident just before [f (raw t) a k] runs; [f] moves up to [k]
    bytes at offset [a] of the backing store and returns how many it
    took. The walk stops at the first chunk [f] does not take whole, so
    a consumer that fills up early pages in nothing past its need. With
    [write], the executable pages actually written get their
    {!page_gen} bumped. Every other privileged span accessor is built
    on this walk, paged or not.
    @raise Invalid_argument if the span is outside the address space or
    [f] returns a count outside [0, k]. *)

val read_bytes_priv : t -> addr:int -> len:int -> Bytes.t
val write_bytes_priv : t -> addr:int -> Bytes.t -> unit
val read_u64_priv : t -> int -> int64
val write_u64_priv : t -> int -> int64 -> unit
val fill_priv : t -> addr:int -> len:int -> char -> unit

val raw : t -> Bytes.t
(** The backing store (used by the decoder for zero-copy fetch). *)
