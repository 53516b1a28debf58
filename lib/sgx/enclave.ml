(* Enclave lifecycle, modelled on SGX1:

   ECREATE  -> [create]    reserve the enclave's address range and EPC
   EADD     -> [add_pages] copy a page in and set its permissions
   EEXTEND  -> (inside add_pages) extend the measurement hash over the
               page contents — this is real SHA-256 work, which is what
               makes enclave creation expensive and size-proportional,
               the effect behind Figure 6a
   EINIT    -> [init]      finalize the measurement; from here SGX1
               forbids adding/removing pages or changing permissions

   The LibOS must therefore preallocate all domain memory before EINIT
   (§6 "Memory management") — attempts to remap after init raise
   [Sgx1_restriction], and there is a test asserting the LibOS never
   trips it. *)

open Occlum_machine

exception Sgx1_restriction of string

type version = Sgx1 | Sgx2

type state = Building | Initialized | Destroyed

type t = {
  id : int;
  version : version;
  epc : Epc.t;
  mem : Mem.t;
  mutable state : state;
  measure_ctx : Occlum_util.Sha256.ctx;
  mutable measurement : string; (* valid once initialized *)
  mutable epc_pages : int;
  mutable ssa : Cpu.snapshot option; (* state save area for AEX *)
  obs : Occlum_obs.Obs.t; (* lifecycle/AEX/page events *)
}

let next_id = ref 0

(* SGX1 commits EPC for the whole enclave at ECREATE; SGX2 (EDMM) only
   reserves address space and commits EPC page by page (EAUG). On a
   demand-paged pool neither commits anything up front: every page is
   zero-fill-on-demand, charged at first touch and reclaimable after —
   [epc_pages] then mirrors the pool's per-client resident count rather
   than a lifetime commitment. *)
let create ?(version = Sgx1) ?(obs = Occlum_obs.Obs.disabled) ~epc ~size () =
  let paged = Epc.paging_enabled epc in
  let pages =
    match version with Sgx1 when not paged -> size / Epc.page_size | _ -> 0
  in
  Epc.alloc epc ~pages;
  incr next_id;
  let t =
    {
      id = !next_id;
      version;
      epc;
      mem = Mem.create ~size;
      state = Building;
      measure_ctx = Occlum_util.Sha256.init ();
      measurement = "";
      epc_pages = pages;
      ssa = None;
      obs;
    }
  in
  if paged then Epc.register_client epc ~cid:t.id ~mem:t.mem;
  if obs.Occlum_obs.Obs.t_life then
    Occlum_obs.Obs.emit obs
      (Occlum_obs.Trace.Enclave_create { enclave = t.id; size = Mem.size t.mem });
  t

let version t = t.version

let charge_pages t len =
  if t.version = Sgx2 && not (Epc.paging_enabled t.epc) then begin
    let pages = len / Epc.page_size in
    Epc.alloc t.epc ~pages;
    t.epc_pages <- t.epc_pages + pages
  end

let id t = t.id
let mem t = t.mem
let initialized t = t.state = Initialized

let require_building t op =
  match t.state with
  | Building -> ()
  | Initialized ->
      raise (Sgx1_restriction (op ^ ": enclave pages are immutable after EINIT"))
  | Destroyed -> invalid_arg (op ^ ": enclave destroyed")

let note_page_map t ~addr ~len =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_page then
      Occlum_obs.Obs.emit o
        (Occlum_obs.Trace.Page_map { enclave = t.id; addr; len });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "sgx.pages.mapped")
      (len / Epc.page_size)
  end

let note_page_unmap t ~addr ~len =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_page then
      Occlum_obs.Obs.emit o
        (Occlum_obs.Trace.Page_unmap { enclave = t.id; addr; len });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "sgx.pages.unmapped")
      (len / Epc.page_size)
  end

(* EADD + EEXTEND over every 4 KiB chunk. *)
let add_pages t ~addr ~data ~perm =
  require_building t "add_pages";
  let len = Occlum_util.Bytes_util.round_up (Bytes.length data) Epc.page_size in
  charge_pages t len;
  Mem.map t.mem ~addr ~len ~perm;
  note_page_map t ~addr ~len;
  Mem.write_bytes_priv t.mem ~addr data;
  (* measure: address, permissions, then page contents *)
  Occlum_util.Sha256.feed t.measure_ctx
    (Printf.sprintf "EADD:%d:%s:" addr (Mem.perm_to_string perm));
  let padded = Bytes.make len '\x00' in
  Bytes.blit data 0 padded 0 (Bytes.length data);
  Occlum_util.Sha256.feed_bytes t.measure_ctx padded 0 len

let add_zero_pages t ~addr ~len ~perm =
  require_building t "add_zero_pages";
  if len mod Epc.page_size <> 0 then invalid_arg "add_zero_pages: unaligned";
  charge_pages t len;
  Mem.map t.mem ~addr ~len ~perm;
  note_page_map t ~addr ~len;
  Occlum_util.Sha256.feed t.measure_ctx
    (Printf.sprintf "EADDZ:%d:%d:%s" addr len (Mem.perm_to_string perm));
  (* zero pages are measured by metadata only, like EADD of a zero page
     without EEXTENDing every byte — cheap, mirroring how loaders measure
     heap/stack *)
  ()

let init t =
  require_building t "init";
  t.measurement <- Occlum_util.Sha256.finalize t.measure_ctx;
  t.state <- Initialized;
  if t.obs.Occlum_obs.Obs.t_life then
    Occlum_obs.Obs.emit t.obs (Occlum_obs.Trace.Enclave_init { enclave = t.id })

let measurement t =
  if t.state <> Initialized then invalid_arg "measurement: enclave not initialized";
  t.measurement

(* Post-init page-table mutation: always an SGX1 violation. Exists so
   tests can assert the LibOS (in SGX1 mode) never needs it. *)
let remap t ~addr ~len ~perm =
  require_building t "remap";
  Mem.map t.mem ~addr ~len ~perm

(* --- SGX2 / EDMM -------------------------------------------------------- *)

(* EAUG + EACCEPT: dynamically commit zeroed pages to an initialized
   enclave. (The real flow also needs EMODPE for executable pages; we
   fold the permission into the single call.) *)
let eaug t ~addr ~len ~perm =
  if t.version <> Sgx2 then
    raise (Sgx1_restriction "eaug: dynamic pages need SGX2 (EDMM)");
  if t.state <> Initialized then invalid_arg "eaug: enclave not initialized";
  if len mod Epc.page_size <> 0 then invalid_arg "eaug: unaligned";
  charge_pages t len;
  Mem.map t.mem ~addr ~len ~perm;
  note_page_map t ~addr ~len;
  (* EAUG pages arrive zeroed from the EPC. Under paging the zeroing is
     deferred to the first-touch commit, so an augmented-but-untouched
     page costs no frame. *)
  if not (Epc.paging_enabled t.epc) then Mem.fill_priv t.mem ~addr ~len '\x00'

(* EMODT/EACCEPT removal: give dynamic pages back. *)
let eremove_pages t ~addr ~len =
  if t.version <> Sgx2 then
    raise (Sgx1_restriction "eremove_pages: dynamic pages need SGX2 (EDMM)");
  if t.state <> Initialized then invalid_arg "eremove_pages: not initialized";
  if len mod Epc.page_size <> 0 then invalid_arg "eremove_pages: unaligned";
  if Epc.paging_enabled t.epc then
    (* discard before unmapping: the residency bit is only meaningful
       while the page is mapped *)
    for p = addr / Epc.page_size to ((addr + len) / Epc.page_size) - 1 do
      Epc.discard_page t.epc ~cid:t.id ~page:p
    done;
  Mem.unmap t.mem ~addr ~len;
  note_page_unmap t ~addr ~len;
  if not (Epc.paging_enabled t.epc) then begin
    let pages = len / Epc.page_size in
    Epc.release t.epc ~pages;
    t.epc_pages <- t.epc_pages - pages
  end

(* Idempotent: tearing an enclave down twice is a no-op, not a
   double-release into the pool. *)
let destroy t =
  if t.state <> Destroyed then begin
    if Epc.paging_enabled t.epc then Epc.drop_client t.epc ~cid:t.id
    else Epc.release t.epc ~pages:t.epc_pages;
    t.epc_pages <- 0;
    t.state <- Destroyed;
    if t.obs.Occlum_obs.Obs.t_life then
      Occlum_obs.Obs.emit t.obs
        (Occlum_obs.Trace.Enclave_destroy { enclave = t.id })
  end

(* --- AEX: asynchronous enclave exit ------------------------------------ *)

(* On an AEX the CPU spills its state — including the MPX bound registers
   (§2.3) — into the SSA; resume restores it. This is why MMDSFI's
   per-domain bounds survive interrupts without LibOS help. *)
let aex ?(reason = "interrupt") t cpu =
  if t.state <> Initialized then invalid_arg "aex: enclave not initialized";
  t.ssa <- Some (Cpu.save cpu);
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_aex then
      Occlum_obs.Obs.emit o (Occlum_obs.Trace.Aex { enclave = t.id; reason });
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "sgx.aex")
  end

let resume t cpu =
  match t.ssa with
  | None -> invalid_arg "resume: no saved state in SSA"
  | Some s ->
      Cpu.restore cpu s;
      t.ssa <- None;
      if t.obs.Occlum_obs.Obs.t_aex then
        Occlum_obs.Obs.emit t.obs
          (Occlum_obs.Trace.Resume { enclave = t.id })
