(** Flat, paged, permission-checked memory: the single address space of
    an enclave. MMDSFI guard regions are pages left unmapped, so any
    access to them raises {!Fault.Fault} — the mechanism §4.1 of the
    paper relies on. *)

val page_shift : int
(** 12. *)

val page_size : int
(** 4096, [1 lsl page_shift]. *)

type perm = { r : bool; w : bool; x : bool }

val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val perm_ro : perm
val perm_to_string : perm -> string

type t = private {
  mutable data : Bytes.t;
      (** The backing store of [\[0, extent)], little-endian. The extent,
          [Bytes.length data], is a page multiple no larger than
          {!size}; every page at or beyond it is clean and reads as
          zeros. A checked or privileged access that first reaches such
          a page replaces [data] with a longer copy, so a reader must
          not keep it across an access. *)
  direct : Bytes.t;
      (** The page check: one byte per page, written only by {!map},
          {!unmap}, {!enable_paging}, {!install}, a clean page's first
          write and growth of the extent. Bit {!direct_read} is set
          exactly when the page lies below the extent and a read of it
          can neither fault nor have a side effect. Bit
          {!direct_write} is set exactly when the page is writable, not
          executable and dirty ({!page_dirty}), so a write can neither
          fault, nor bump {!page_gen}, nor need to mark the page. Both
          bits are clear whenever paging is on. An access within one
          page whose bit is set may use [data] directly, unchecked: the
          bits are clear at and past the extent, a page multiple, and
          [data] only ever grows. Every other access must use the
          checked accessors, which raise the fault and mark the page
          dirty. Only {!map}, {!unmap}, {!enable_paging} and {!install}
          clear a bit; checked writes and growth only grant them. *)
  dirty : Bytes.t;
  pages : perm option array;
  gens : int array;
  mutable code_epoch : int;
      (** Moves whenever any {!page_gen} moves: on {!map}, {!unmap} and
          every write that touches an executable page. A compiled block
          compares it across each of its writes instead of re-checking
          its pages' generations. A write the page check lets through
          ({!direct_write}) never moves it. *)
  size : int;
  mutable paged : bool;
  resident : Bytes.t;
  accessed : Bytes.t;
  mutable pager : (int -> unit) option;
}
(** Private so that the execution tiers can read [data], [direct] and
    [code_epoch] without a cross-module call; every other field is
    internal. *)

val direct_read : int
val direct_write : int

val create : size:int -> t
(** [create ~size] is an address space of [size] bytes (a positive page
    multiple), zero-filled on demand, with every page unmapped. It holds
    no storage until an access reaches a page. *)

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
    must be mapped with the needed permission. On success the span is
    below the extent, and an [Exec] check leaves 16 bytes past the
    address (or up to {!size}) there, more than the longest encoding.
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
    {!page_gen} bumped, and every page actually written is marked
    dirty. Every other privileged span accessor is built on this walk,
    paged or not.
    @raise Invalid_argument if the span is outside the address space or
    [f] returns a count outside [0, k]. *)

val read_bytes_priv : t -> addr:int -> len:int -> Bytes.t
val write_bytes_priv : t -> addr:int -> Bytes.t -> unit
val read_u64_priv : t -> int -> int64

val read_int_priv : t -> int -> int
(** [read_u64_priv] taken modulo 2{^63} as [Int64.to_int] does, with the
    same checks and paging; it allocates nothing. *)

val equal_u64_priv : t -> int -> int64 -> bool
(** [equal_u64_priv t addr v] is [Int64.equal (read_u64_priv t addr) v],
    allocating nothing. *)

val write_u64_priv : t -> int -> int64 -> unit
val fill_priv : t -> addr:int -> len:int -> char -> unit

(** {1 Dirty pages}

    A page is dirty once any write has touched it — checked, privileged
    or (on a page already dirty) a direct store — since it was mapped
    zeroed or last {!install}ed with an all-zero target. A clean page
    holds only zeros. *)

val page_dirty : t -> int -> bool

val install : t -> addr:int -> len:int -> Bytes.t -> unit
(** [install t ~addr ~len bytes] makes the page-aligned range hold
    [bytes] followed by zeros. A page that already holds exactly its
    target bytes is not written: its {!page_gen}, dirty mark and direct
    bits stay as they are, so decodings cached for it stay valid. A
    page that differs is rewritten whole through the privileged walk
    ({!span_priv}), bumping the generation of an executable one. A page
    whose target is all zeros ends clean, with {!direct_write} clear.
    Under demand paging the pages are paged in in the order a zeroing of
    every dirty page followed by a write of [bytes] would page them in:
    every dirty page first, then every page [bytes] reaches.
    @raise Invalid_argument if the range is unaligned, outside the
    address space or shorter than [bytes]. *)

val raw : t -> Bytes.t
(** [data]: the backing store of [\[0, extent)], used by the decoder for
    zero-copy fetch after an [Exec] {!check_access}. Bytes past it read
    as zeros. *)
