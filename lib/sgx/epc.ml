(* The Enclave Page Cache: the finite pool of protected physical pages
   shared by all enclaves on the platform. SGX1 machines shipped with
   ~93 MiB usable; going past it is either an error (the pre-paging
   model) or dramatic paging cost (real hardware). This module now
   implements both regimes: a bare counter pool by default, and — once
   {!enable_paging} is called — a full EWB/ELDU pager with an
   encrypted+MAC'd backing store, per-page version counters for
   anti-rollback (the VA-page mechanism of the SGX paging ISA), and a
   clock-style second-chance reclaimer that turns [Out_of_epc] into
   eviction while backing capacity remains.

   Trust model, mirroring the hardware: the backing store stands for
   untrusted host memory, so its contents are authenticated but never
   believed — a reload verifies the MAC over a label binding
   (client, page, version) and compares the stored version against the
   in-EPC trusted counter. A mismatch of either is a hard
   {!Integrity_violation}, never silent corruption. Version counters
   live on the trusted side and survive reloads, so replaying an old
   (correctly MAC'd) snapshot of a page is detected. *)

module Mem = Occlum_machine.Mem
module Cost = Occlum_machine.Cost

let page_size = Mem.page_size
let default_size = 93 * 1024 * 1024

type backing_entry = { cipher : string; mac : string; version : int }
type backing_copy = backing_entry
type page_event = Evict | Reload

(* A client is one enclave's address space registered for paging. The
   [resident] count is its resident set — the per-SIP accounting the
   LibOS victim policy uses to keep one greedy SIP from evicting
   everyone else into livelock. *)
type client = { cid : int; mem : Mem.t; mutable resident : int }

type pager = {
  data_key : string;
  mac_key : string;
  backing : (int * int, backing_entry) Hashtbl.t; (* keyed (cid, page) *)
  versions : (int * int, int) Hashtbl.t; (* trusted VA counters *)
  backing_limit : int;
  mutable clients : client list; (* registration order: deterministic *)
  (* Recently reloaded frames are briefly pinned so a single instruction
     whose fetch and memory operand each span a page boundary (at most
     four frames) can always make progress. *)
  pins : (int * int) array;
  mutable pin_next : int;
  mutable hand : int; (* clock hand, an index into the frame sequence *)
  mutable n_ewb : int;
  mutable n_eldu : int;
  mutable n_integrity : int;
  mutable cycles : int; (* deterministic EWB/ELDU charge, drained by Os *)
  mutable victim_policy : (unit -> cid:int -> page:int -> bool) option;
  mutable event_hook : (cid:int -> page:int -> page_event -> unit) option;
}

type t = {
  total_pages : int;
  mutable free_pages : int;
  mutable pager : pager option;
}

let create ?(size = default_size) () =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Epc.create: size must be a positive multiple of the page size";
  let pages = size / page_size in
  { total_pages = pages; free_pages = pages; pager = None }

exception Out_of_epc
exception Integrity_violation of { cid : int; page : int }

(* Fault-injection seam: consulted on every [alloc] before the capacity
   check, so a harness can model transient platform pressure (another
   tenant grabbing pages) without shrinking the pool. A hook-raised
   [Out_of_epc] deliberately bypasses the reclaimer: injected pressure
   must surface to the caller, not be absorbed by eviction. *)
let alloc_hook : (pages:int -> unit) option ref = ref None
let set_alloc_hook h = alloc_hook := h

let enable_paging ?backing_pages ?(key = "epc-backing") t =
  if t.pager <> None then invalid_arg "Epc.enable_paging: already enabled";
  let backing_limit =
    match backing_pages with
    | None -> max_int
    | Some n when n >= 0 -> n
    | Some _ -> invalid_arg "Epc.enable_paging: backing_pages"
  in
  t.pager <-
    Some
      {
        data_key = Occlum_util.Sha256.digest ("epc-ewb-data:" ^ key);
        mac_key = Occlum_util.Sha256.digest ("epc-ewb-mac:" ^ key);
        backing = Hashtbl.create 256;
        versions = Hashtbl.create 256;
        backing_limit;
        clients = [];
        pins = Array.make 4 (-1, -1);
        pin_next = 0;
        hand = 0;
        n_ewb = 0;
        n_eldu = 0;
        n_integrity = 0;
        cycles = 0;
        victim_policy = None;
        event_hook = None;
      }

let paging_enabled t = t.pager <> None

let set_victim_policy t p =
  match t.pager with
  | None -> invalid_arg "Epc.set_victim_policy: paging disabled"
  | Some pg -> pg.victim_policy <- p

let set_event_hook t h =
  match t.pager with
  | None -> invalid_arg "Epc.set_event_hook: paging disabled"
  | Some pg -> pg.event_hook <- h

let find_client_opt pg cid = List.find_opt (fun c -> c.cid = cid) pg.clients

let find_client pg cid =
  match find_client_opt pg cid with
  | Some c -> c
  | None -> invalid_arg "Epc: unknown paging client"

let is_pinned pg key = Array.exists (fun k -> k = key) pg.pins

let pin pg key =
  pg.pins.(pg.pin_next) <- key;
  pg.pin_next <- (pg.pin_next + 1) mod Array.length pg.pins

let unpin_client pg cid =
  Array.iteri (fun i (c, _) -> if c = cid then pg.pins.(i) <- (-1, -1)) pg.pins

(* The label authenticated alongside the page bytes binds identity and
   version, so backing entries cannot be swapped between pages or rolled
   back to an earlier version without failing the MAC/version check. *)
let entry_label cid page version = Printf.sprintf "ewb:%d:%d:%d" cid page version

(* Each eviction seals under a fresh ChaCha nonce: the label is an
   injective encoding of (cid, page, version), and the version grows on
   every EWB of a page. *)
let entry_nonce cid page version =
  Occlum_util.Cipher.derive_nonce (entry_label cid page version) 0

(* EWB: seal a resident frame out to the backing store, scrub the frame
   and drop the residency bit so the next touch faults. *)
let do_evict t pg c page =
  let addr = page * page_size in
  let version =
    1 + (try Hashtbl.find pg.versions (c.cid, page) with Not_found -> 0)
  in
  Hashtbl.replace pg.versions (c.cid, page) version;
  let plain = Bytes.sub_string (Mem.raw c.mem) addr page_size in
  let cipher =
    Occlum_util.Cipher.encrypt ~key:pg.data_key
      ~nonce:(entry_nonce c.cid page version)
      plain
  in
  let mac =
    Occlum_util.Hmac.mac ~key:pg.mac_key (entry_label c.cid page version ^ cipher)
  in
  Hashtbl.replace pg.backing (c.cid, page) { cipher; mac; version };
  (* Scrub through the privileged writer so executable pages bump their
     generation and cached decodings of the frame are invalidated. *)
  Mem.fill_priv c.mem ~addr ~len:page_size '\x00';
  Mem.set_resident c.mem page false;
  Mem.set_accessed c.mem page false;
  c.resident <- c.resident - 1;
  t.free_pages <- t.free_pages + 1;
  pg.n_ewb <- pg.n_ewb + 1;
  pg.cycles <- pg.cycles + Cost.ewb;
  match pg.event_hook with Some h -> h ~cid:c.cid ~page Evict | None -> ()

let frame_at clients idx =
  let rec go cs idx =
    match cs with
    | [] -> assert false
    | c :: tl ->
        let n = Mem.page_count c.mem in
        if idx < n then (c, idx) else go tl (idx - n)
  in
  go clients idx

(* Clock reclaimer. Three sweeps of decreasing mercy: the first honours
   both the accessed bits (second chance) and the LibOS victim policy,
   the second gives up on second chance, the last ignores the policy too
   so protected resident sets are raided only when nothing else is left
   — graceful degradation in preference to a hard Out_of_epc. *)
let reclaim t pg ~need =
  let protected_of =
    match pg.victim_policy with
    | Some f -> f ()
    | None -> fun ~cid:_ ~page:_ -> false
  in
  let total =
    List.fold_left (fun a c -> a + Mem.page_count c.mem) 0 pg.clients
  in
  let freed = ref 0 in
  let try_pass ~respect_policy ~second_chance =
    let steps = ref 0 in
    while !steps < total && !freed < need do
      incr steps;
      pg.hand <- (pg.hand + 1) mod total;
      let c, page = frame_at pg.clients pg.hand in
      if
        Mem.perm_at c.mem (page * page_size) <> None
        && Mem.page_resident c.mem page
        && (not (is_pinned pg (c.cid, page)))
        && Hashtbl.length pg.backing < pg.backing_limit
        && ((not respect_policy) || not (protected_of ~cid:c.cid ~page))
      then
        if second_chance && Mem.page_accessed c.mem page then
          Mem.set_accessed c.mem page false
        else begin
          do_evict t pg c page;
          incr freed
        end
    done
  in
  if total > 0 then begin
    try_pass ~respect_policy:true ~second_chance:true;
    if !freed < need then try_pass ~respect_policy:true ~second_chance:false;
    if !freed < need then try_pass ~respect_policy:false ~second_chance:false
  end

let alloc t ~pages =
  if pages < 0 then invalid_arg "Epc.alloc";
  (match !alloc_hook with Some h -> h ~pages | None -> ());
  if t.free_pages < pages then begin
    (match t.pager with
    | None -> raise Out_of_epc
    | Some pg -> reclaim t pg ~need:(pages - t.free_pages));
    if t.free_pages < pages then raise Out_of_epc
  end;
  t.free_pages <- t.free_pages - pages

let release t ~pages =
  if pages < 0 || t.free_pages + pages > t.total_pages then
    invalid_arg "Epc.release";
  t.free_pages <- t.free_pages + pages

let free_pages t = t.free_pages
let total_pages t = t.total_pages
let used_pages t = t.total_pages - t.free_pages

(* ELDU: bring a page back in. Three cases — already resident (racing
   reload through a privileged accessor: no-op), present in the backing
   store (verify version + MAC, decrypt, restore bit-identically), or
   never written out (zero-fill-on-demand commit of a fresh page). *)
let eldu t ~cid ~page =
  match t.pager with
  | None -> invalid_arg "Epc.eldu: paging disabled"
  | Some pg ->
      let c = find_client pg cid in
      if not (Mem.page_resident c.mem page) then begin
        alloc t ~pages:1;
        let addr = page * page_size in
        let restored =
          match Hashtbl.find_opt pg.backing (cid, page) with
          | Some entry ->
              let trusted =
                try Hashtbl.find pg.versions (cid, page) with Not_found -> 0
              in
              let authentic =
                entry.version = trusted
                && Occlum_util.Hmac.verify ~key:pg.mac_key ~tag:entry.mac
                     (entry_label cid page entry.version ^ entry.cipher)
              in
              if not authentic then begin
                t.free_pages <- t.free_pages + 1 (* undo the alloc *);
                pg.n_integrity <- pg.n_integrity + 1;
                raise (Integrity_violation { cid; page })
              end;
              let plain =
                Occlum_util.Cipher.encrypt ~key:pg.data_key
                  ~nonce:(entry_nonce cid page entry.version)
                  entry.cipher
              in
              Mem.set_resident c.mem page true;
              Mem.write_bytes_priv c.mem ~addr (Bytes.of_string plain);
              Hashtbl.remove pg.backing (cid, page);
              true
          | None ->
              Mem.set_resident c.mem page true;
              Mem.fill_priv c.mem ~addr ~len:page_size '\x00';
              false
        in
        Mem.set_accessed c.mem page true;
        c.resident <- c.resident + 1;
        pin pg (cid, page);
        (* a zero-fill first-touch commit is an EAUG-style event, not a
           reload: only real backing-store restores count as ELDU and
           carry its cycle charge, so an unpressured paged pool costs the
           same as an uncapped one *)
        if restored then begin
          pg.n_eldu <- pg.n_eldu + 1;
          pg.cycles <- pg.cycles + Cost.eldu;
          match pg.event_hook with Some h -> h ~cid ~page Reload | None -> ()
        end
      end

let register_client t ~cid ~mem =
  match t.pager with
  | None -> invalid_arg "Epc.register_client: paging disabled"
  | Some pg ->
      if find_client_opt pg cid <> None then
        invalid_arg "Epc.register_client: duplicate client";
      pg.clients <- pg.clients @ [ { cid; mem; resident = 0 } ];
      Mem.enable_paging mem ~pager:(fun page -> eldu t ~cid ~page)

let client_resident t ~cid =
  match t.pager with
  | None -> 0
  | Some pg -> (
      match find_client_opt pg cid with Some c -> c.resident | None -> 0)

(* EREMOVE support: retire one page of a client, releasing its frame if
   resident and dropping any sealed copy and version counter. Must be
   called while the page is still mapped (the residency bit is only
   meaningful for mapped pages). *)
let discard_page t ~cid ~page =
  match t.pager with
  | None -> ()
  | Some pg -> (
      match find_client_opt pg cid with
      | None -> ()
      | Some c ->
          if Mem.page_resident c.mem page then begin
            Mem.set_resident c.mem page false;
            Mem.set_accessed c.mem page false;
            c.resident <- c.resident - 1;
            t.free_pages <- t.free_pages + 1
          end;
          Hashtbl.remove pg.backing (cid, page);
          Hashtbl.remove pg.versions (cid, page))

(* Full teardown of a client on enclave destroy: every resident frame
   returns to the pool and every sealed page is dropped, so after all
   enclaves are destroyed [used_pages] is back to zero. *)
let drop_client t ~cid =
  match t.pager with
  | None -> ()
  | Some pg -> (
      match find_client_opt pg cid with
      | None -> ()
      | Some c ->
          t.free_pages <- t.free_pages + c.resident;
          c.resident <- 0;
          pg.clients <- List.filter (fun c -> c.cid <> cid) pg.clients;
          unpin_client pg cid;
          let stale tbl =
            Hashtbl.fold
              (fun ((c', _) as k) _ acc -> if c' = cid then k :: acc else acc)
              tbl []
          in
          List.iter (Hashtbl.remove pg.backing) (stale pg.backing);
          List.iter (Hashtbl.remove pg.versions) (stale pg.versions))

type paging_stats = {
  ewb : int;
  eldu : int;
  integrity_failures : int;
  paging_cycles : int;
}

let paging_stats t =
  Option.map
    (fun pg ->
      {
        ewb = pg.n_ewb;
        eldu = pg.n_eldu;
        integrity_failures = pg.n_integrity;
        paging_cycles = pg.cycles;
      })
    t.pager

let backing_used t =
  match t.pager with None -> 0 | Some pg -> Hashtbl.length pg.backing

(* Test-only entry points. [evict_page] forces one EWB so tests and
   benches can create the evicted state deterministically; the
   tamper/snapshot/restore trio plays the untrusted host — flip sealed
   bytes, or replay an old sealed copy over a newer one (the rollback
   the version counters defeat). *)

let evict_page t ~cid ~page =
  match t.pager with
  | None -> false
  | Some pg -> (
      match find_client_opt pg cid with
      | None -> false
      | Some c ->
          if
            Mem.perm_at c.mem (page * page_size) <> None
            && Mem.page_resident c.mem page
            && Hashtbl.length pg.backing < pg.backing_limit
          then begin
            do_evict t pg c page;
            true
          end
          else false)

let backing_tamper t ~cid ~page =
  match t.pager with
  | None -> false
  | Some pg -> (
      match Hashtbl.find_opt pg.backing (cid, page) with
      | None -> false
      | Some e ->
          let b = Bytes.of_string e.cipher in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
          Hashtbl.replace pg.backing (cid, page)
            { e with cipher = Bytes.to_string b };
          true)

let backing_snapshot t ~cid ~page =
  match t.pager with
  | None -> None
  | Some pg -> Hashtbl.find_opt pg.backing (cid, page)

let backing_restore t ~cid ~page copy =
  match t.pager with
  | None -> ()
  | Some pg -> Hashtbl.replace pg.backing (cid, page) copy
