(* Flat, paged, permission-checked memory: the single address space of an
   enclave. MMDSFI guard regions are simply pages left unmapped, so any
   access to them raises a page fault — exactly the mechanism §4.1 relies
   on. *)

let page_size = 4096

type perm = { r : bool; w : bool; x : bool }

let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }
let perm_ro = { r = true; w = false; x = false }

let perm_to_string p =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type t = {
  data : Bytes.t;
  direct : Bytes.t;
  (* One byte per page, recomputed by [map], [unmap], [enable_paging],
     [scrub] and a page's first write since it was last clean.
     [direct_read] is set exactly when a read of the page can neither
     fault nor have a side effect; [direct_write] exactly when a write
     can neither fault, nor bump a generation (writable and not
     executable), nor need to mark the page (already dirty), so
     [note_write] would do nothing. Both are clear whenever paging is
     on, so the residency and accessed-bit logic of [check_access]
     always runs there. A compiled load or store within one page whose
     bit is set may use [data] directly; any other access goes through
     the checked accessors. *)
  dirty : Bytes.t;
  (* One byte per page, '\001' once any write (checked or privileged)
     has touched it since the last [scrub]. A clean page holds zeros,
     so [scrub] skips it. Direct stores need no mark: [direct_write]
     is only granted once the page is dirty. *)
  pages : perm option array; (* None = unmapped *)
  gens : int array; (* per-page code generation, see [page_gen] *)
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
    data = Bytes.make size '\x00';
    direct = Bytes.make (size / page_size) '\x00';
    dirty = Bytes.make (size / page_size) '\x00';
    pages = Array.make (size / page_size) None;
    gens = Array.make (size / page_size) 0;
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
  | Some perm when not t.paged ->
      (if perm.r then direct_read else 0)
      lor
      if perm.w && (not perm.x) && Bytes.get t.dirty p <> '\x00' then
        direct_write
      else 0
  | _ -> 0

let refresh_direct t p = Bytes.set t.direct p (Char.chr (direct_bits t p))

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
      | Some { x = true; _ } -> t.gens.(p) <- t.gens.(p) + 1
      | _ -> ());
      if Bytes.unsafe_get t.dirty p = '\x00' then begin
        Bytes.unsafe_set t.dirty p '\x01';
        refresh_direct t p
      end
    done

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
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
   mem_guards sound. *)
let check_access t addr len (access : Fault.access) =
  if addr < 0 || addr + len > t.size then
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
  done

(* Residency probe for the fetch path: a decode error over bytes that
   include a mapped-but-evicted page must surface as an EPC miss (the
   real bytes are in the backing store), never as a #UD over the
   scrubbed frame. Unmapped or out-of-range pages are skipped — those
   legitimately decode-fault. *)
let probe_resident t ~addr ~len =
  if t.paged && len > 0 && addr >= 0 && addr < t.size then
    let last = min (addr + len) t.size - 1 in
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
      let chunk = min (len - pos) (page_size - (a mod page_size)) in
      ensure_resident t ~addr:a ~len:chunk;
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

let read_u64_priv t addr =
  check_range t addr 8;
  ensure_resident t ~addr ~len:8;
  Bytes.get_int64_le t.data addr

let write_u64_priv t addr v =
  check_range t addr 8;
  ensure_resident t ~addr ~len:8;
  note_write t ~addr ~len:8;
  Bytes.set_int64_le t.data addr v

let fill_priv t ~addr ~len c =
  ignore
    (span_priv t ~addr ~len ~write:true (fun d a k ->
         Bytes.fill d a k c;
         k))

let page_dirty t page = Bytes.get t.dirty page <> '\x00'

(* Zero the dirty pages of a page-aligned range through the privileged
   page walk (paged in first, executable pages' generations bumped);
   clean pages already hold zeros and are skipped. Each page zeroed ends
   clean, so its [direct_write] is withdrawn until its next write. *)
let scrub t ~addr ~len =
  check_range t addr len;
  if addr mod page_size <> 0 || len mod page_size <> 0 then
    invalid_arg "Mem.scrub: unaligned";
  for p = addr / page_size to ((addr + len) / page_size) - 1 do
    if Bytes.get t.dirty p <> '\x00' then begin
      fill_priv t ~addr:(p * page_size) ~len:page_size '\x00';
      Bytes.set t.dirty p '\x00';
      refresh_direct t p
    end
  done

let raw t = t.data
