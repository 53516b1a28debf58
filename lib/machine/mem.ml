(* Flat, paged, permission-checked memory: the single address space of an
   enclave. MMDSFI guard regions are simply pages left unmapped, so any
   access to them raises a page fault — exactly the mechanism §4.1 relies
   on. *)

let page_shift = 12
let page_size = 1 lsl page_shift

type perm = { r : bool; w : bool; x : bool }

let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }
let perm_ro = { r = true; w = false; x = false }

let perm_to_string p =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type t = {
  mutable data : Bytes.t;
  (* The storage of [0, extent), where extent = [Bytes.length data] is a
     page multiple no larger than [size]. Every page at or beyond it is
     clean and reads as zeros; [grow] extends it, with one blit, when a
     checked or privileged access first reaches such a page. *)
  direct : Bytes.t;
  (* One byte per page, recomputed by [map], [unmap], [enable_paging],
     [install] and a page's first write since it was last clean.
     [direct_read] is set exactly when a read of the page can neither
     fault nor have a side effect; [direct_write] exactly when a write
     can neither fault, nor bump a generation (writable and not
     executable), nor need to mark the page (already dirty), so
     [note_write] would do nothing. Both are clear whenever paging is
     on, so the residency and accessed-bit logic of [check_access]
     always runs there, and clear at or beyond the extent. A compiled
     load or store within one page whose bit is set may use [data]
     directly, with no bounds check: the extent is a page multiple, so
     a page below it lies wholly inside [data], and [grow] only ever
     lengthens [data]. Any other access goes through the checked
     accessors.

     No user-mode access clears a bit: a checked write and [grow] only
     grant them. Only [map], [unmap], [enable_paging] and [install]
     clear one, and those run between quanta, never inside a compiled
     block, so a block may test a page once at entry for every access
     it makes to that page (docs/jit.md, "Stack window"). *)
  dirty : Bytes.t;
  (* One byte per page, '\001' once any write (checked or privileged)
     has touched it since an [install] last left it clean. A clean page
     holds zeros, so [install] need not read it. Direct stores need no
     mark: [direct_write] is only granted once the page is dirty. *)
  pages : perm option array; (* None = unmapped *)
  gens : int array; (* per-page code generation, see [page_gen] *)
  mutable code_epoch : int;
  (* Moves whenever any page generation moves. A compiled block reads it
     around each of its writes that takes the checked path: an unmoved
     epoch proves no generation moved, so the block is still valid. A
     direct store never moves it: [direct_write] is only granted on
     writable, non-executable pages. *)
  size : int;
  (* EPC demand paging. When [paged] is false (the default) none of the
     fields below are consulted and every mapped page is its own frame,
     exactly the pre-paging semantics. When true, [resident] is the
     per-page presence bit maintained by the pager: a checked access to
     a mapped non-resident page raises [Fault.Epc_miss] (the simulated
     #PF that triggers AEX + ELDU), and [accessed] carries the clock
     reference bits the reclaimer uses for second-chance eviction. *)
  mutable paged : bool;
  resident : Bytes.t; (* '\001' = EPC frame present *)
  accessed : Bytes.t; (* clock reference bit *)
  mutable pager : (int -> unit) option; (* page-in callback, by page index *)
}

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Mem.create: size must be a positive multiple of the page size";
  {
    data = Bytes.empty;
    direct = Bytes.make (size / page_size) '\x00';
    dirty = Bytes.make (size / page_size) '\x00';
    pages = Array.make (size / page_size) None;
    gens = Array.make (size / page_size) 0;
    code_epoch = 0;
    size;
    paged = false;
    resident = Bytes.make (size / page_size) '\x01';
    accessed = Bytes.make (size / page_size) '\x00';
    pager = None;
  }

let direct_read = 1
let direct_write = 2

let direct_bits t p =
  match t.pages.(p) with
  | Some perm when (not t.paged) && p * page_size < Bytes.length t.data ->
      (if perm.r then direct_read else 0)
      lor
      if perm.w && (not perm.x) && Bytes.get t.dirty p <> '\x00' then
        direct_write
      else 0
  | _ -> 0

let refresh_direct t p = Bytes.set t.direct p (Char.chr (direct_bits t p))

(* Cover [0, hi) ([hi] <= [size]), at least doubling the extent so that
   growth page by page copies each byte a bounded number of times. *)
let grow t hi =
  let old = Bytes.length t.data in
  if hi > old then begin
    let need = (hi + page_size - 1) / page_size * page_size in
    let ext = Int.min t.size (Int.max need (2 * old)) in
    let d = Bytes.create ext in
    Bytes.blit t.data 0 d 0 old;
    Bytes.fill d old (ext - old) '\x00';
    t.data <- d;
    for p = old / page_size to (ext / page_size) - 1 do
      refresh_direct t p
    done
  end

let enable_paging t ~pager =
  t.paged <- true;
  t.pager <- Some pager;
  Bytes.fill t.direct 0 (Bytes.length t.direct) '\x00'

let paging_enabled t = t.paged
let page_resident t page = (not t.paged) || Bytes.get t.resident page = '\x01'

let set_resident t page r =
  Bytes.set t.resident page (if r then '\x01' else '\x00')

let page_accessed t page = Bytes.get t.accessed page = '\x01'

let set_accessed t page a =
  Bytes.set t.accessed page (if a then '\x01' else '\x00')

let size t = t.size
let page_count t = Array.length t.pages

(* Generation counter of a page, bumped whenever the bytes or mapping of
   an executable page may have changed: on [map]/[unmap] and on any write
   that lands in a page with the x permission (privileged writers
   included — the loader writes code through them). Decoded-instruction
   caches snapshot these counters and treat a mismatch as invalidation,
   so they never serve stale code. *)
let page_gen t page = t.gens.(page)

let bump_gen t ~addr ~len =
  t.code_epoch <- t.code_epoch + 1;
  for p = addr / page_size to (addr + len - 1) / page_size do
    t.gens.(p) <- t.gens.(p) + 1
  done

(* Every write's bookkeeping: bump generations only where the span
   touches executable pages (writes to plain data pages stay
   generation-silent), and mark each page dirty, granting [direct_write]
   on its first write. *)
let note_write t ~addr ~len =
  if len > 0 then
    for p = addr / page_size to (addr + len - 1) / page_size do
      (match t.pages.(p) with
      | Some { x = true; _ } ->
          t.gens.(p) <- t.gens.(p) + 1;
          t.code_epoch <- t.code_epoch + 1
      | _ -> ());
      if Bytes.unsafe_get t.dirty p = '\x00' then begin
        Bytes.unsafe_set t.dirty p '\x01';
        refresh_direct t p
      end
    done

(* [len > size - addr], not [addr + len > size]: the sum wraps for a
   huge [len]. *)
let check_range t addr len =
  if addr < 0 || len < 0 || len > t.size - addr then
    invalid_arg (Printf.sprintf "Mem: range [0x%x, +%d) outside address space" addr len)

let map t ~addr ~len ~perm =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.map: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    (* Zero-fill-on-demand under paging: a freshly mapped page has no
       EPC frame until first touch. Remapping an already-mapped page
       (a permission change) keeps its frame. *)
    if t.paged && t.pages.(p) = None then begin
      Bytes.set t.resident p '\x00';
      Bytes.set t.accessed p '\x00'
    end;
    t.pages.(p) <- Some perm;
    refresh_direct t p
  done;
  if len > 0 then bump_gen t ~addr ~len

let unmap t ~addr ~len =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.unmap: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    t.pages.(p) <- None;
    Bytes.set t.direct p '\x00'
  done;
  if len > 0 then bump_gen t ~addr ~len

let perm_at t addr =
  if addr < 0 || addr >= t.size then None else t.pages.(addr / page_size)

(* Fault-checking access used by the interpreter. The whole byte span
   must be readable/writable; an access that starts in a mapped page and
   spills into a guard page faults, which is what makes base-address-only
   mem_guards sound. A fetch leaves [fetch_window] bytes past [addr]
   (or up to [size]) materialized, more than the longest encoding, so a
   decode bounded by [Bytes.length data] reads what it would read
   bounded by [size]. *)
let fetch_window = 16

let check_access t addr len (access : Fault.access) =
  if addr < 0 || len > t.size - addr then
    raise (Fault.Fault (Page_fault { addr; access }));
  for p = addr / page_size to (addr + len - 1) / page_size do
    match t.pages.(p) with
    | None -> raise (Fault.Fault (Page_fault { addr; access }))
    | Some perm ->
        let allowed =
          match access with
          | Read -> perm.r
          | Write -> perm.w
          | Exec -> perm.x
        in
        if not allowed then raise (Fault.Fault (Page_fault { addr; access }));
        if t.paged then begin
          if Bytes.get t.resident p = '\x00' then
            raise (Fault.Fault (Epc_miss { addr = p * page_size; access }));
          Bytes.set t.accessed p '\x01'
        end
  done;
  (* int comparisons only: this runs on every fetch *)
  let hi =
    match access with
    | Exec ->
        let w = addr + if len > fetch_window then len else fetch_window in
        if w > t.size then t.size else w
    | Read | Write -> addr + len
  in
  if hi > Bytes.length t.data then grow t hi

(* Residency probe for the fetch path: a decode error over bytes that
   include a mapped-but-evicted page must surface as an EPC miss (the
   real bytes are in the backing store), never as a #UD over the
   scrubbed frame. Unmapped or out-of-range pages are skipped — those
   legitimately decode-fault. *)
let probe_resident t ~addr ~len =
  if t.paged && len > 0 && addr >= 0 && addr < t.size then
    let last = Int.min (addr + len) t.size - 1 in
    for p = addr / page_size to last / page_size do
      if t.pages.(p) <> None && Bytes.get t.resident p = '\x00' then
        raise (Fault.Fault (Epc_miss { addr = p * page_size; access = Exec }))
    done

(* Privileged accessors page transparently: the LibOS and loader never
   take EPC-miss faults, they just trigger the reload (which may itself
   evict and can raise the pool's pressure exceptions). *)
let ensure_resident t ~addr ~len =
  if t.paged && len > 0 then
    match t.pager with
    | None -> ()
    | Some pager ->
        for p = addr / page_size to (addr + len - 1) / page_size do
          if t.pages.(p) <> None && Bytes.get t.resident p = '\x00' then
            pager p
        done

let read_u8 t addr =
  check_access t addr 1 Read;
  Char.code (Bytes.get t.data addr)

let write_u8 t addr v =
  check_access t addr 1 Write;
  note_write t ~addr ~len:1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let read_u64 t addr =
  check_access t addr 8 Read;
  Bytes.get_int64_le t.data addr

let write_u64 t addr v =
  check_access t addr 8 Write;
  note_write t ~addr ~len:8;
  Bytes.set_int64_le t.data addr v

(* Privileged accessors for the LibOS / loader: no permission checks,
   still bounds-checked. The LibOS is trusted (§3.1). *)
(* The one privileged page walk. Under paging a span can exceed the EPC
   pool, so paging in a later page may evict (and scrub) an earlier one:
   each page is made resident immediately before its chunk moves, never
   before the whole span. [f data a k] moves up to [k] bytes at
   [data.[a]] and returns how many it took; the walk stops at the first
   chunk not taken whole, so no page past the consumer's need is paged
   in. Writes bump the generation of the executable pages they reach
   and mark every page they reach dirty. *)
let span_priv t ~addr ~len ~write f =
  check_range t addr len;
  let rec go pos =
    if pos >= len then pos
    else begin
      let a = addr + pos in
      let chunk = Int.min (len - pos) (page_size - (a mod page_size)) in
      ensure_resident t ~addr:a ~len:chunk;
      grow t (a + chunk);
      let k = f t.data a chunk in
      if k < 0 || k > chunk then invalid_arg "Mem.span_priv: count outside the chunk";
      if write then note_write t ~addr:a ~len:k;
      if k < chunk then pos + k else go (pos + k)
    end
  in
  go 0

let read_bytes_priv t ~addr ~len =
  check_range t addr len;
  let out = Bytes.create len in
  ignore
    (span_priv t ~addr ~len ~write:false (fun d a k ->
         Bytes.blit d a out (a - addr) k;
         k));
  out

let write_bytes_priv t ~addr bytes =
  ignore
    (span_priv t ~addr ~len:(Bytes.length bytes) ~write:true (fun d a k ->
         Bytes.blit bytes (a - addr) d a k;
         k))

(* the range check, paging and storage of an 8-byte privileged access *)
let priv_u64 t addr =
  check_range t addr 8;
  ensure_resident t ~addr ~len:8;
  grow t (addr + 8)

let read_u64_priv t addr =
  priv_u64 t addr;
  Bytes.get_int64_le t.data addr

(* [read_u64_priv] for callers on a hot path: the [int64] never leaves
   the function, so neither allocates. *)
let read_int_priv t addr =
  priv_u64 t addr;
  Int64.to_int (Bytes.get_int64_le t.data addr)

let equal_u64_priv t addr v =
  priv_u64 t addr;
  Int64.equal (Bytes.get_int64_le t.data addr) v

let write_u64_priv t addr v =
  priv_u64 t addr;
  note_write t ~addr ~len:8;
  Bytes.set_int64_le t.data addr v

let fill_priv t ~addr ~len c =
  ignore
    (span_priv t ~addr ~len ~write:true (fun d a k ->
         Bytes.fill d a k c;
         k))

let page_dirty t page = Bytes.get t.dirty page <> '\x00'

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let zeros = Bytes.make page_size '\x00'

(* [a.[ai .. ai+n-1]] = [b.[bi .. bi+n-1]], a word at a time; the caller
   guarantees both spans are in bounds. *)
let equal_sub a ai b bi n =
  let rec words i =
    i + 8 > n || (get64u a (ai + i) = get64u b (bi + i) && words (i + 8))
  in
  let rec tail i =
    i >= n
    || (Bytes.unsafe_get a (ai + i) = Bytes.unsafe_get b (bi + i) && tail (i + 1))
  in
  words 0 && tail (n land lnot 7)

(* Make page [p] of an [install] hold its target: [k] bytes of [src] at
   [si], then zeros. A clean page holds zeros; a dirty one is compared
   word-wide. Only a page whose bytes differ is written, through the
   privileged walk, so an unchanged page keeps its generation, dirty
   mark and direct bits. A page whose target is all zeros ends clean. *)
let settle t p src si k =
  let a = p * page_size in
  let zero_target = equal_sub src si zeros 0 k in
  ensure_resident t ~addr:a ~len:page_size;
  let same =
    if Bytes.get t.dirty p = '\x00' then zero_target
    else
      equal_sub t.data a src si k
      && equal_sub t.data (a + k) zeros 0 (page_size - k)
  in
  if not same then
    ignore
      (span_priv t ~addr:a ~len:page_size ~write:true (fun d a _ ->
           Bytes.blit src si d a k;
           Bytes.fill d (a + k) (page_size - k) '\x00';
           page_size));
  if zero_target && Bytes.get t.dirty p <> '\x00' then begin
    Bytes.set t.dirty p '\x00';
    refresh_direct t p
  end

let install t ~addr ~len bytes =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.install: unaligned";
  let n = Bytes.length bytes in
  if n > len then invalid_arg "Mem.install: image longer than the range";
  (* The whole range at once: a SIP's later accesses to the slot it was
     installed in then never grow the store mid-run. *)
  grow t (addr + len);
  let first = addr / page_size and last = ((addr + len) / page_size) - 1 in
  let image_last = first + ((n + page_size - 1) / page_size) - 1 in
  (* Pages are paged in in the order that zeroing every dirty page and
     then writing the image would page them in, so under a tight EPC
     pool the residency and reloads match that model: first every dirty
     page (settling those past the image, whose target is zeros), then
     every page of the image. *)
  for p = first to last do
    if Bytes.get t.dirty p <> '\x00' then
      if p > image_last then settle t p bytes 0 0
      else ensure_resident t ~addr:(p * page_size) ~len:page_size
  done;
  for p = first to image_last do
    let si = (p - first) * page_size in
    settle t p bytes si (Int.min page_size (n - si))
  done

let raw t = t.data
