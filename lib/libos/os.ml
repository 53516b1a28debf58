(* The Occlum LibOS: one enclave, one LibOS instance, many SIPs.

   This module owns the process table, the scheduler, and the system-call
   layer. SIPs are interpreter green-threads over the shared enclave
   address space, scheduled round-robin with a fixed instruction quantum.
   Blocking calls use a retry model: a blocked SIP's registers are left
   untouched and its syscall is re-dispatched when it might make
   progress — handlers therefore commit no effects before deciding not
   to block.

   The same engine also runs in EIP mode, modelling the Graphene-SGX
   baseline: every process creation builds (and measures — real SHA-256)
   a fresh enclave plus local attestation and an encrypted state
   transfer; every syscall pays an ocall exit/enter; pipe data is
   encrypted out and decrypted back in; and the file system is read-only
   (§3.2's comparison, Table 1). *)

open Occlum_machine
open Occlum_isa
module R = Occlum_toolchain.Codegen_regs
module Sys = Occlum_abi.Abi.Sys
module Errno = Occlum_abi.Abi.Errno
module Sig = Occlum_abi.Abi.Signal

type mode = Sip | Eip | Linux

type proc = {
  pid : int;
  mutable parent : int;
  img : Loader.image;
  cpu : Cpu.t;
  fds : Fd.table;
  slot_refs : int ref; (* threads share the slot; last one out frees it *)
  is_thread : bool;
  mutable state : [ `Runnable | `Blocked | `Zombie ];
  mutable exit_code : int;
  mutable brk : int; (* absolute *)
  mutable mmaps : (int * int) list;
  mutable mmap_top : int; (* absolute, grows down *)
  mutable children : int list;
  mutable sig_handlers : (int * int64) list;
  mutable sig_pending : int list;
  mutable saved_ctx : Cpu.snapshot option;
  mutable futex_woken : bool;
  mutable wake_time : int64 option;
  mutable last_cycles : int;
  mutable eip_enclave : Occlum_sgx.Enclave.t option;
  path : string;
}

type config = {
  mode : mode;
  sgx2 : bool; (* EDMM: commit domain pages per binary instead of
                  preallocating (§6's "can be avoided on SGX 2.0") *)
  domains : Domain_mgr.config;
  quantum : int;
  cores : int; (* simulated vCPUs: cores of the epoch scheduler *)
  decode_cache : bool; (* the tiered loop in Interp.run: decode cache +
                          block JIT, one per core; off = reference loop *)
  fs_key : string;
  (* EIP model knobs *)
  eip_runtime_image_bytes : int; (* measured on every enclave creation *)
  eip_ocall_ns : int64;
  sip_syscall_ns : int64;
}

let default_config =
  {
    mode = Sip;
    sgx2 = false;
    domains = Domain_mgr.default_config;
    quantum = 100_000;
    cores = 1;
    decode_cache = true;
    fs_key = "occlum-fs-master-key";
    eip_runtime_image_bytes = 8 * 1024 * 1024;
    eip_ocall_ns = 6_000L;
    sip_syscall_ns = 100L;
  }

type t = {
  cfg : config;
  epc : Occlum_sgx.Epc.t;
  enclave : Occlum_sgx.Enclave.t;
  mem : Mem.t;
  domains : Domain_mgr.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  sefs : Sefs.t;
  net : Net.t;
  mutable clock_ns : int64;
  console : Buffer.t;
  proc_out : (int, Buffer.t) Hashtbl.t;
  futexq : (int, int list ref) Hashtbl.t;
  mutable syscalls : int;
  mutable gate_crossings : int;
  (* user->LibOS trampoline entries; batching submits many syscalls per
     crossing, so this diverges from [syscalls] under Sys.batch *)
  mutable spawns : int;
  mutable faults : (int * Fault.t) list;
  prng : Occlum_util.Prng.t;
  eip_runtime_image : Bytes.t; (* stand-in for the Graphene runtime pages *)
  obs : Occlum_obs.Obs.t;
  sched : Sched.t;
  (* per-core run queues, decode caches and JITs; a core's caches key
     blocks by absolute pc in the shared address space, and the loader's
     privileged code writes bump the page generations that invalidate
     them when a domain slot is reused *)
  mutable cur_core : int; (* core whose claim is being post-processed;
                             attributes futex wakes to their waker core *)
  mutable last_run_pid : int; (* previously scheduled pid, for Sched_switch *)
  mutable paging_cycles_seen : int;
  (* EWB/ELDU cycle charges already folded into [clock_ns] *)
  mutable io_backoff_seen : int64;
  (* Sefs/Net retry backoff already folded into [clock_ns] *)
}

let cycles_to_ns c = Int64.of_int (c / 3)

(* Fold freshly accrued memory-pressure costs into the virtual clock:
   EWB/ELDU cycle charges from the EPC pager and retry backoff from the
   I/O stacks. Tracks deltas since the last call, so it is safe to call
   from anywhere (boot, spawn, every scheduler step). *)
let sync_pressure_charges t =
  (match Occlum_sgx.Epc.paging_stats t.epc with
  | None -> ()
  | Some s ->
      let d = s.Occlum_sgx.Epc.paging_cycles - t.paging_cycles_seen in
      if d > 0 then begin
        t.paging_cycles_seen <- s.Occlum_sgx.Epc.paging_cycles;
        t.clock_ns <- Int64.add t.clock_ns (cycles_to_ns d)
      end);
  let b = Int64.add t.sefs.Sefs.backoff_ns t.net.Net.backoff_ns in
  if Int64.compare b t.io_backoff_seen > 0 then begin
    t.clock_ns <- Int64.add t.clock_ns (Int64.sub b t.io_backoff_seen);
    t.io_backoff_seen <- b
  end

let boot ?(config = default_config) ?(obs = Occlum_obs.Obs.disabled) ?epc
    ?host_fs () =
  let epc =
    match epc with Some e -> e | None -> Occlum_sgx.Epc.create ~size:(512 * 1024 * 1024) ()
  in
  let enclave =
    Occlum_sgx.Enclave.create
      ~version:(if config.sgx2 then Occlum_sgx.Enclave.Sgx2 else Occlum_sgx.Enclave.Sgx1)
      ~epc
      ~size:(Domain_mgr.enclave_size config.domains)
      ()
  in
  (* attach before the domain build so EADD page events are captured *)
  Occlum_sgx.Enclave.attach_obs enclave obs;
  let domains = Domain_mgr.build config.domains enclave in
  Occlum_sgx.Enclave.init enclave;
  (* only Occlum gets the writable *encrypted* FS; Graphene-SGX's
     writable files live on the plaintext host FS (its protected FS is
     read-only, section 3.2), and the Linux baseline is plain ext4 *)
  let encrypted = config.mode = Sip in
  let sefs =
    match host_fs with
    | Some host -> Sefs.mount ~encrypted ~key:config.fs_key host
    | None -> Sefs.create ~encrypted ~key:config.fs_key ()
  in
  let t =
    {
    cfg = config;
    epc;
    enclave;
    mem = Occlum_sgx.Enclave.mem enclave;
    domains;
    procs = Hashtbl.create 32;
    next_pid = 1;
    sefs;
    net = Net.create ();
    clock_ns = 0L;
    console = Buffer.create 1024;
    proc_out = Hashtbl.create 8;
    futexq = Hashtbl.create 8;
    syscalls = 0;
    gate_crossings = 0;
    spawns = 0;
    faults = [];
      prng = Occlum_util.Prng.create 0x0cc1;
      eip_runtime_image = Bytes.make config.eip_runtime_image_bytes '\x5a';
      obs;
      sched =
        Sched.create ~ncores:config.cores ~decode_cache:config.decode_cache
          ~obs ();
      cur_core = 0;
      last_run_pid = 0;
      paging_cycles_seen = 0;
      io_backoff_seen = 0L;
    }
  in
  if obs.Occlum_obs.Obs.enabled then begin
    (* events are stamped with the LibOS virtual clock from here on *)
    obs.Occlum_obs.Obs.now <- (fun () -> t.clock_ns);
    t.sefs.Sefs.obs <- obs;
    t.net.Net.obs <- obs
  end;
  if Occlum_sgx.Epc.paging_enabled epc then begin
    (* paging counters/events flow through obs like every other layer *)
    if obs.Occlum_obs.Obs.enabled then
      Occlum_sgx.Epc.set_event_hook epc
        (Some
           (fun ~cid ~page ev ->
             let name =
               match ev with
               | Occlum_sgx.Epc.Evict -> "epc.ewb"
               | Occlum_sgx.Epc.Reload -> "epc.eldu"
             in
             Occlum_obs.Metrics.inc
               (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics name);
             if obs.Occlum_obs.Obs.t_page then
               Occlum_obs.Obs.emit obs
                 (match ev with
                 | Occlum_sgx.Epc.Evict ->
                     Occlum_obs.Trace.Page_evict { enclave = cid; page }
                 | Occlum_sgx.Epc.Reload ->
                     Occlum_obs.Trace.Page_reload { enclave = cid; page })));
    (* Per-SIP resident-set guard: each in-use domain slot is entitled to
       an equal share of the pool; slots at or under their share are
       spared by the reclaimer so one greedy SIP cannot evict the whole
       enclave into livelock. Advisory — raided only when nothing else
       is evictable. *)
    Occlum_sgx.Epc.set_victim_policy epc
      (Some
         (fun () ->
           let stride = Domain_mgr.slot_stride config.domains in
           let pages_per_slot = stride / Occlum_sgx.Epc.page_size in
           let n_slots = Array.length domains.Domain_mgr.slots in
           let emem = Occlum_sgx.Enclave.mem enclave in
           let counts = Array.make (max 1 n_slots) 0 in
           for s = 0 to n_slots - 1 do
             if domains.Domain_mgr.slots.(s).Domain_mgr.in_use then begin
               let base =
                 (Domain_mgr.domains_base + (s * stride))
                 / Occlum_sgx.Epc.page_size
               in
               for p = base to base + pages_per_slot - 1 do
                 if
                   Mem.perm_at emem (p * Occlum_sgx.Epc.page_size) <> None
                   && Mem.page_resident emem p
                 then counts.(s) <- counts.(s) + 1
               done
             end
           done;
           let budget =
             max 8
               (Occlum_sgx.Epc.total_pages epc
               / (2 * max 1 (Domain_mgr.in_use_count domains)))
           in
           let cid_main = Occlum_sgx.Enclave.id enclave in
           fun ~cid ~page ->
             cid = cid_main
             &&
             let addr = page * Occlum_sgx.Epc.page_size in
             addr >= Domain_mgr.domains_base
             &&
             let s = (addr - Domain_mgr.domains_base) / stride in
             s < n_slots
             && domains.Domain_mgr.slots.(s).Domain_mgr.in_use
             && counts.(s) <= budget))
  end;
  sync_pressure_charges t;
  t

let clock t = t.clock_ns
let console_output t = Buffer.contents t.console

(* Sum a per-core JIT's (x, y, z) stats over the cores; None under the
   reference loop, where the cores have no JIT. *)
let sum_over_cores t stats =
  Array.fold_left
    (fun acc core ->
      match core.Sched.jit with
      | None -> acc
      | Some j ->
          let x, y, z = stats j in
          let a, b, d = Option.value acc ~default:(0, 0, 0) in
          Some (a + x, b + y, d + z))
    None t.sched.Sched.cores

(* (hits, misses, invalidations) of the JITs' decoded-block caches *)
let decode_cache_stats t =
  sum_over_cores t (fun j -> Decode_cache.stats (Jit.decode_cache j))

(* (compiles, hits, invalidations) of the block JITs *)
let jit_stats t = sum_over_cores t Jit.stats

let proc_output t pid =
  match Hashtbl.find_opt t.proc_out pid with
  | Some b -> Buffer.contents b
  | None -> ""

let find_proc t pid = Hashtbl.find_opt t.procs pid

let live_procs t =
  Hashtbl.fold (fun _ p acc -> if p.state <> `Zombie then p :: acc else acc) t.procs []

(* --- user memory access -------------------------------------------------- *)

let d_bounds (p : proc) =
  (Int64.to_int p.img.bnd0.lower, Int64.to_int p.img.bnd0.upper)

let user_ok p addr len =
  let lo, hi = d_bounds p in
  len >= 0 && addr >= lo && addr + len - 1 <= hi

let read_user t p addr len =
  if user_ok p addr len then Some (Mem.read_bytes_priv t.mem ~addr ~len) else None

let write_user t p addr (b : Bytes.t) =
  if user_ok p addr (Bytes.length b) then begin
    Mem.write_bytes_priv t.mem ~addr b;
    true
  end
  else false

let read_user_string t p addr len =
  if len > 65536 then None
  else Option.map Bytes.to_string (read_user t p addr len)

(* --- binaries on the FS ---------------------------------------------------- *)

let install_binary t path (oelf : Occlum_oelf.Oelf.t) =
  Sefs.ensure_parents t.sefs path;
  match Sefs.write_path t.sefs path (Occlum_oelf.Oelf.to_string oelf) with
  | Ok _ -> ()
  | Error e -> invalid_arg (Printf.sprintf "install_binary %s: errno %d" path e)

(* --- EIP-mode costs -------------------------------------------------------- *)

(* Graphene-style process creation: a fresh enclave whose every page is
   measured, local attestation with the parent, then the process state
   migrates over an encrypted stream. All of it is real computation. *)
let eip_create_process_enclave t ~parent_enclave (oelf : Occlum_oelf.Oelf.t) =
  let image_bytes =
    Bytes.length oelf.code + Bytes.length oelf.data + Bytes.length t.eip_runtime_image
  in
  let size = Occlum_util.Bytes_util.round_up (image_bytes + (1 lsl 20)) 4096 in
  let enclave = Occlum_sgx.Enclave.create ~epc:t.epc ~size () in
  (try
     Occlum_sgx.Enclave.attach_obs enclave t.obs;
     Occlum_sgx.Enclave.add_pages enclave ~addr:0 ~data:t.eip_runtime_image
       ~perm:Mem.perm_rx;
     let code_at =
       Occlum_util.Bytes_util.round_up (Bytes.length t.eip_runtime_image) 4096
     in
     Occlum_sgx.Enclave.add_pages enclave ~addr:code_at ~data:oelf.code
       ~perm:Mem.perm_rwx;
     let data_at =
       code_at + Occlum_util.Bytes_util.round_up (Bytes.length oelf.code) 4096
     in
     Occlum_sgx.Enclave.add_pages enclave ~addr:data_at ~data:oelf.data
       ~perm:Mem.perm_rw;
     Occlum_sgx.Enclave.init enclave
   with e ->
     (* the half-built enclave would otherwise pin its EPC pages forever *)
     Occlum_sgx.Enclave.destroy enclave;
     raise e);
  (* local attestation, then ship the process state encrypted *)
  (match
     Occlum_sgx.Attestation.handshake ~parent:parent_enclave ~child:enclave
       ~nonce:(string_of_int t.next_pid)
   with
  | Error m -> failwith m
  | Ok session_key ->
      let state = Bytes.cat oelf.code oelf.data in
      let nonce = Occlum_util.Cipher.derive_nonce "eip-transfer" t.next_pid in
      Occlum_util.Cipher.encrypt_bytes
        ~key:(Occlum_util.Bytes_util.take_prefix 32 session_key) ~nonce state);
  enclave

(* Every EIP syscall leaves and re-enters the enclave. *)
let eip_ocall_scratch = Bytes.make 2048 '\x00'

let charge_syscall t (p : proc) =
  t.syscalls <- t.syscalls + 1;
  match t.cfg.mode with
  | Linux -> t.clock_ns <- Int64.add t.clock_ns 150L
  | Sip -> t.clock_ns <- Int64.add t.clock_ns t.cfg.sip_syscall_ns
  | Eip ->
      t.clock_ns <- Int64.add t.clock_ns t.cfg.eip_ocall_ns;
      (* marshalling through untrusted memory *)
      let nonce = Occlum_util.Cipher.derive_nonce "ocall" p.pid in
      Occlum_util.Cipher.encrypt_bytes ~key:(String.make 32 'k') ~nonce
        eip_ocall_scratch

(* Per-sub-call cost inside a batch: the dominant syscall cost is the
   boundary crossing (Figure 5), already paid once by the batch itself,
   so each submitted call costs only dispatch work. *)
let batched_call_ns t =
  match t.cfg.mode with
  | Linux -> 40L
  | Sip -> Int64.div t.cfg.sip_syscall_ns 4L
  | Eip -> Int64.div t.cfg.eip_ocall_ns 4L

(* EIP pipes cross enclave boundaries as ciphertext: encrypt on the way
   out, decrypt on the way in — two passes over each chunk the pipe
   moves, run in place in the SIP's memory. The passes cancel, so the
   bytes are left as they were; the host work is the model. *)
let eip_pipe_crypto t =
  match t.cfg.mode with
  | Sip | Linux -> fun _ _ _ -> ()
  | Eip ->
      let nonce = Occlum_util.Cipher.derive_nonce "eip-pipe" t.syscalls in
      let key = String.make 32 'p' in
      fun b off len ->
        Occlum_util.Cipher.encrypt_sub ~key ~nonce b off len;
        Occlum_util.Cipher.encrypt_sub ~key ~nonce b off len

(* The pipe/socket data path: bytes move straight between the SIP's
   buffer and the ring, a page at a time with no staging copy. Only as
   many bytes as the ring can take (or holds) are touched, so an
   untrusted [len] sizes neither an allocation nor the pages walked.
   [on_chunk] sees each moved chunk in the SIP's memory. *)
let user_to_ring ?(on_chunk = fun _ _ _ -> ()) t ~buf ~len ring =
  Mem.span_priv t.mem ~addr:buf ~len:(min len (Ring.free_space ring))
    ~write:false (fun d a k ->
      let n = Ring.write ring d a k in
      on_chunk d a n;
      n)

let ring_to_user ?(on_chunk = fun _ _ _ -> ()) t ~buf ~len ring =
  Mem.span_priv t.mem ~addr:buf ~len:(min len (Ring.length ring))
    ~write:true (fun d a k ->
      let n = Ring.read ring d a k in
      on_chunk d a n;
      n)

(* --- process lifecycle ----------------------------------------------------- *)

exception Spawn_error of int (* errno *)

let console_fds () =
  let tbl = Fd.create () in
  Fd.install_at tbl 0 (Fd.make Fd.Dev_null);
  Fd.install_at tbl 1 (Fd.make (Fd.Console { err = false }));
  Fd.install_at tbl 2 (Fd.make (Fd.Console { err = true }));
  tbl

let make_proc t ~parent ~img ~fds ~is_thread ~slot_refs ~path ~eip_enclave =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let cpu = Cpu.create () in
  Loader.init_cpu img cpu;
  let heap_lo, heap_hi = Occlum_oelf.Oelf.heap_zone img.oelf in
  let p =
    {
      pid;
      parent;
      img;
      cpu;
      fds;
      slot_refs;
      is_thread;
      state = `Runnable;
      exit_code = 0;
      brk = Domain_mgr.d_base img.slot + heap_lo;
      mmaps = [];
      mmap_top = Domain_mgr.d_base img.slot + heap_hi;
      children = [];
      sig_handlers = [];
      sig_pending = [];
      saved_ctx = None;
      futex_woken = false;
      wake_time = None;
      last_cycles = 0;
      eip_enclave;
      path;
    }
  in
  Hashtbl.replace t.procs pid p;
  Sched.enqueue t.sched pid;
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_life then
      Occlum_obs.Obs.emit o (Occlum_obs.Trace.Spawn { pid; parent; path });
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "os.spawns")
  end;
  p

(* Spawn a new SIP from a signed binary stored on the encrypted FS. *)
let spawn t ~parent_pid ~path ~args =
  t.spawns <- t.spawns + 1;
  let binary =
    match Sefs.read_path t.sefs path with
    | Ok s -> s
    | Error e -> raise (Spawn_error e)
  in
  let oelf =
    match Occlum_oelf.Oelf.of_string binary with
    | o -> o
    | exception Occlum_oelf.Oelf.Malformed _ -> raise (Spawn_error Errno.einval)
  in
  let slot =
    match Domain_mgr.acquire t.domains with
    | Some s -> s
    | None -> raise (Spawn_error Errno.eagain)
  in
  let parent = find_proc t parent_pid in
  let eip_enclave =
    match t.cfg.mode with
    | Sip | Linux -> None
    | Eip -> (
        let parent_enclave =
          match parent with
          | Some { eip_enclave = Some e; _ } -> e
          | _ -> t.enclave
        in
        match eip_create_process_enclave t ~parent_enclave oelf with
        | e -> Some e
        | exception Occlum_sgx.Epc.Out_of_epc ->
            Domain_mgr.release slot;
            raise (Spawn_error Errno.enomem))
  in
  let img =
    match
      Loader.load
        ~require_signature:(t.cfg.mode <> Linux)
        ?dynamic:(if t.cfg.sgx2 then Some t.enclave else None)
        t.mem slot oelf ~args
    with
    | img -> img
    | exception Loader.Load_error _ ->
        Domain_mgr.release slot;
        (match eip_enclave with
        | Some e -> Occlum_sgx.Enclave.destroy e
        | None -> ());
        raise (Spawn_error Errno.eaccess)
    | exception Occlum_sgx.Epc.Out_of_epc ->
        (* SGX2 lazy commit ran the EPC dry mid-load; surface it as the
           POSIX failure the application expects, not a LibOS crash *)
        Domain_mgr.release slot;
        (match eip_enclave with
        | Some e -> Occlum_sgx.Enclave.destroy e
        | None -> ());
        raise (Spawn_error Errno.enomem)
  in
  let fds =
    match parent with
    | Some pp -> Fd.inherit_from pp.fds
    | None -> console_fds ()
  in
  let p =
    make_proc t ~parent:parent_pid ~img ~fds ~is_thread:false
      ~slot_refs:(ref 1) ~path ~eip_enclave
  in
  (match parent with Some pp -> pp.children <- p.pid :: pp.children | None -> ());
  (* a load into a tight pool pages older SIPs out rather than failing;
     charge that EWB work to the clock now *)
  sync_pressure_charges t;
  p.pid

let spawn_initial t oelf ~args =
  install_binary t "/bin/init" oelf;
  spawn t ~parent_pid:0 ~path:"/bin/init" ~args

(* --- exit / signals -------------------------------------------------------- *)

let post_signal p signo =
  if not (List.mem signo p.sig_pending) then
    p.sig_pending <- p.sig_pending @ [ signo ]

let rec do_exit t (p : proc) code =
  if p.state <> `Zombie then begin
    p.state <- `Zombie;
    p.exit_code <- code;
    if t.obs.Occlum_obs.Obs.t_life then
      Occlum_obs.Obs.emit t.obs (Occlum_obs.Trace.Exit { pid = p.pid; code });
    decr p.slot_refs;
    if !(p.slot_refs) = 0 then begin
      Fd.close_all p.fds;
      (* SGX2: give the dynamically committed pages back to the EPC *)
      if t.cfg.sgx2 then begin
        List.iter
          (fun (addr, len) ->
            Occlum_sgx.Enclave.eremove_pages t.enclave ~addr ~len)
          p.img.slot.mapped;
        p.img.slot.mapped <- []
      end;
      Domain_mgr.release p.img.slot
    end;
    (match p.eip_enclave with
    | Some e -> Occlum_sgx.Enclave.destroy e
    | None -> ());
    (* drop from any futex queue *)
    Hashtbl.iter (fun _ q -> q := List.filter (fun pid -> pid <> p.pid) !q) t.futexq;
    (* children are reparented to init (pid 1); zombie children of a dying
       parent are reaped here *)
    List.iter
      (fun cpid ->
        match find_proc t cpid with
        | None -> ()
        | Some c ->
            if c.state = `Zombie then Hashtbl.remove t.procs cpid
            else begin
              c.parent <- 1;
              match find_proc t 1 with
              | Some init when init.state <> `Zombie ->
                  init.children <- cpid :: init.children
              | _ -> ()
            end)
      p.children;
    p.children <- [];
    match find_proc t p.parent with
    | Some pp when pp.state <> `Zombie -> post_signal pp Sig.sigchld
    | _ ->
        (* no one will wait for us *)
        if p.parent <> 0 then Hashtbl.remove t.procs p.pid
  end

and kill_proc t p ~fatal_signal =
  do_exit t p (128 + fatal_signal)

(* Deliver one pending signal before the SIP resumes. Handlers run on the
   user stack; returning from one lands on the sigreturn gate, where the
   LibOS restores the saved context (the CFI-compatible version of
   sigreturn — a handler cannot legally jump back to an arbitrary
   interrupted pc, since that target carries no cfi_label). *)
let deliver_signals t (p : proc) =
  match p.sig_pending with
  | [] -> ()
  | signo :: rest -> (
      if signo = Sig.sigkill then begin
        p.sig_pending <- rest;
        kill_proc t p ~fatal_signal:signo
      end
      else if p.saved_ctx <> None then () (* finish current handler first *)
      else begin
        p.sig_pending <- rest;
        match List.assoc_opt signo p.sig_handlers with
        | None ->
            if signo = Sig.sigchld then () (* default: ignore *)
            else kill_proc t p ~fatal_signal:signo
        | Some handler ->
            let haddr = Int64.to_int handler in
            let ok =
              haddr >= Domain_mgr.c_base p.img.slot
              && haddr + 8 <= Domain_mgr.c_base p.img.slot + p.img.slot.code_size
              && (t.cfg.mode = Linux
                 || Int64.equal (Mem.read_u64_priv t.mem haddr) p.img.label_value)
            in
            if not ok then kill_proc t p ~fatal_signal:signo
            else begin
              p.saved_ctx <- Some (Cpu.save p.cpu);
              let sp = Int64.to_int (Cpu.get p.cpu Reg.sp) - 16 in
              if not (user_ok p sp 16) then kill_proc t p ~fatal_signal:signo
              else begin
                Mem.write_u64_priv t.mem (sp + 8) (Int64.of_int signo);
                (* return address: the cfi_label opening the sigreturn gate *)
                Mem.write_u64_priv t.mem sp
                  (Int64.of_int (p.img.sigreturn_gate - 8));
                Cpu.set p.cpu Reg.sp (Int64.of_int sp);
                p.cpu.pc <- haddr
              end
            end
      end)

(* --- system calls ----------------------------------------------------------- *)

type sysret = Done of int64 | Block | Exited

let ok n = Done (Int64.of_int n)
let err e = Done (Int64.of_int e)

let arg (p : proc) i = Cpu.get p.cpu (Reg.of_int (Occlum_abi.Abi.Regs.sys_arg0 + i))
let iarg p i = Int64.to_int (arg p i)

(* O_NONBLOCK status flag: would-block paths return EAGAIN instead of
   suspending the SIP in the blocking-retry model. *)
let nonblocking (entry : Fd.entry) =
  entry.Fd.sflags land Occlum_abi.Abi.Open_flags.nonblock <> 0

let block_or_eagain entry = if nonblocking entry then err Errno.eagain else Block

let console_write t (p : proc) bytes =
  Buffer.add_bytes t.console bytes;
  let b =
    match Hashtbl.find_opt t.proc_out p.pid with
    | Some b -> b
    | None ->
        let b = Buffer.create 128 in
        Hashtbl.replace t.proc_out p.pid b;
        b
  in
  Buffer.add_bytes b bytes

(* Virtual-time cost of moving [n] file bytes: a ~500 MB/s disk for
   everyone, plus AES-NI-speed encryption/integrity for the SEFS path
   (the real cipher work still runs inside Sefs for correctness; this
   charge models the paper's hardware crypto rate on the clock the
   throughput figures use). *)
let charge_file_io t ~write n =
  (* writes defer encryption to batched writeback (dirty page cache
     lines are sealed once at flush), so their crypto charge is lower *)
  let crypto = if write then 13 * n / 30 else 13 * n / 10 in
  let ns = (2 * n) + (if t.cfg.mode = Sip then crypto else 0) in
  t.clock_ns <- Int64.add t.clock_ns (Int64.of_int ns)

let sys_read t p =
  let fd = iarg p 0 and buf = iarg p 1 and len = iarg p 2 in
  if len < 0 || not (user_ok p buf len) then err Errno.efault
  else
    match Fd.find p.fds fd with
    | None -> err Errno.ebadf
    | Some entry -> (
        match entry.kind with
        | Fd.File f -> (
            match Sefs.read_file t.sefs f.node ~pos:f.pos ~len with
            | Error e -> err e
            | Ok bytes ->
                f.pos <- f.pos + Bytes.length bytes;
                charge_file_io t ~write:false (Bytes.length bytes);
                ignore (write_user t p buf bytes);
                ok (Bytes.length bytes))
        | Fd.Pipe_r pipe ->
            if Ring.is_empty pipe.ring then
              if pipe.writers > 0 then block_or_eagain entry else ok 0
            else begin
              let n =
                ring_to_user ~on_chunk:(eip_pipe_crypto t) t ~buf ~len pipe.ring
              in
              (* copy-out cost, ~4 GB/s *)
              t.clock_ns <- Int64.add t.clock_ns (Int64.of_int (n / 4));
              Fd.pipe_wake pipe; (* writers gained space *)
              ok n
            end
        | Fd.Pipe_w _ -> err Errno.ebadf
        | Fd.Sock s -> (
            match s.ep with
            | None -> err Errno.einval
            | Some ep -> (
                match
                  Net.recv_with t.net ep len (fun ring len ->
                      ring_to_user t ~buf ~len ring)
                with
                | Ok 0 -> ok 0
                | Ok n ->
                    (* the 1 Gbps wire of the paper's testbed *)
                    t.clock_ns <- Int64.add t.clock_ns (Int64.of_int (8 * n));
                    ok n
                | Error e when e = Errno.eagain -> block_or_eagain entry
                | Error e -> err e))
        | Fd.Listener _ | Fd.Epoll _ -> err Errno.einval
        | Fd.Dev_null -> ok 0
        | Fd.Dev_zero ->
            ignore (write_user t p buf (Bytes.make len '\x00'));
            ok len
        | Fd.Dev_random prng ->
            ignore (write_user t p buf (Occlum_util.Prng.bytes prng len));
            ok len
        | Fd.Console _ -> ok 0
        | Fd.Proc_file f ->
            let avail = max 0 (String.length f.content - f.pos) in
            let n = min len avail in
            ignore
              (write_user t p buf (Bytes.of_string (String.sub f.content f.pos n)));
            f.pos <- f.pos + n;
            ok n)

let sys_write t p =
  let fd = iarg p 0 and buf = iarg p 1 and len = iarg p 2 in
  if len < 0 || not (user_ok p buf len) then err Errno.efault
  else
    match Fd.find p.fds fd with
    | None -> err Errno.ebadf
    | Some entry -> (
        let data () = Option.get (read_user t p buf len) in
        match entry.kind with
        | Fd.File f ->
            if not f.writable then err Errno.eaccess
            else begin
              if f.append then f.pos <- f.node.size;
              match Sefs.write_file t.sefs f.node ~pos:f.pos (data ()) with
              | Error e -> err e
              | Ok n ->
                  f.pos <- f.pos + n;
                  charge_file_io t ~write:true n;
                  ok n
            end
        | Fd.Pipe_w pipe ->
            if pipe.readers = 0 then err Errno.epipe
            else if Ring.free_space pipe.ring = 0 then block_or_eagain entry
            else begin
              let n =
                user_to_ring ~on_chunk:(eip_pipe_crypto t) t ~buf ~len pipe.ring
              in
              t.clock_ns <- Int64.add t.clock_ns (Int64.of_int (n / 4));
              Fd.pipe_wake pipe; (* readers gained data *)
              ok n
            end
        | Fd.Pipe_r _ -> err Errno.ebadf
        | Fd.Sock s -> (
            match s.ep with
            | None -> err Errno.einval
            | Some ep -> (
                match
                  Net.send_with t.net ep len (fun ring len ->
                      user_to_ring t ~buf ~len ring)
                with
                | Ok n ->
                    t.clock_ns <- Int64.add t.clock_ns (Int64.of_int (8 * n));
                    ok n
                | Error e when e = Errno.eagain -> block_or_eagain entry
                | Error e -> err e))
        | Fd.Listener _ | Fd.Epoll _ -> err Errno.einval
        | Fd.Dev_null | Fd.Dev_zero | Fd.Dev_random _ -> ok len
        | Fd.Console _ ->
            console_write t p (data ());
            ok len
        | Fd.Proc_file _ -> err Errno.eaccess)

let procfs_content t p path =
  match path with
  | "/proc/meminfo" ->
      Some
        (Printf.sprintf "domains_total: %d\ndomains_used: %d\nepc_free_kb: %d\n"
           t.domains.cfg.max_domains
           (Domain_mgr.in_use_count t.domains)
           (Occlum_sgx.Epc.free_pages t.epc * 4))
  | "/proc/uptime" -> Some (Printf.sprintf "%Ld\n" t.clock_ns)
  | _ -> (
      (* /proc/<pid>/status and /proc/self/status *)
      match Sefs.split_path path with
      | [ "proc"; who; "status" ] -> (
          let pid = if who = "self" then Some p.pid else int_of_string_opt who in
          match pid with
          | None -> None
          | Some pid -> (
              match find_proc t pid with
              | None -> None
              | Some q ->
                  Some
                    (Printf.sprintf "pid:\t%d\nppid:\t%d\nstate:\t%s\nbin:\t%s\n"
                       q.pid q.parent
                       (match q.state with
                       | `Runnable -> "R"
                       | `Blocked -> "S"
                       | `Zombie -> "Z")
                       q.path)))
      | _ -> None)

let sys_open t p =
  let path_ptr = iarg p 0 and path_len = iarg p 1 and flags = iarg p 2 in
  match read_user_string t p path_ptr path_len with
  | None -> err Errno.efault
  | Some path ->
      let module F = Occlum_abi.Abi.Open_flags in
      if String.length path >= 5 && String.sub path 0 5 = "/dev/" then
        let kind =
          match path with
          | "/dev/null" -> Some Fd.Dev_null
          | "/dev/zero" -> Some Fd.Dev_zero
          | "/dev/urandom" | "/dev/random" ->
              Some (Fd.Dev_random (Occlum_util.Prng.create (Hashtbl.hash (p.pid, t.syscalls))))
          | _ -> None
        in
        match kind with
        | None -> err Errno.enoent
        | Some kind -> ok (Fd.install p.fds (Fd.make kind))
      else if String.length path >= 6 && String.sub path 0 6 = "/proc/" then
        match procfs_content t p path with
        | None -> err Errno.enoent
        | Some content ->
            ok (Fd.install p.fds
                  (Fd.make (Fd.Proc_file { content; pos = 0 })))
      else
        let node =
          if flags land F.creat <> 0 then Sefs.create_file t.sefs path
          else
            match Sefs.lookup t.sefs path with
            | Some n -> Ok n
            | None -> Error Errno.enoent
        in
        match node with
        | Error e -> err e
        | Ok node ->
            if node.kind = Sefs.Dir then err Errno.eisdir
            else begin
              if flags land F.trunc <> 0 then node.size <- 0;
              let writable = flags land (F.wronly lor F.rdwr) <> 0
                             || flags land F.creat <> 0
                             || flags land F.append <> 0 in
              ok (Fd.install p.fds
                    (Fd.make
                       (Fd.File { node; pos = 0;
                                  append = flags land F.append <> 0;
                                  writable })))
            end

let sys_lseek p =
  let fd = iarg p 0 and off = iarg p 1 and whence = iarg p 2 in
  match Fd.find p.fds fd with
  | None -> err Errno.ebadf
  | Some { kind = Fd.File f; _ } ->
      let module W = Occlum_abi.Abi.Whence in
      let base =
        if whence = W.set then 0
        else if whence = W.cur then f.pos
        else f.node.size
      in
      let np = base + off in
      if np < 0 then err Errno.einval
      else begin
        f.pos <- np;
        ok np
      end
  | Some { kind = Fd.Proc_file f; _ } ->
      if whence = Occlum_abi.Abi.Whence.set && off >= 0 then begin
        f.pos <- off;
        ok off
      end
      else err Errno.einval
  | Some _ -> err Errno.espipe

let sys_fstat t p =
  let fd = iarg p 0 and buf = iarg p 1 in
  if not (user_ok p buf 16) then err Errno.efault
  else
    match Fd.find p.fds fd with
    | None -> err Errno.ebadf
    | Some entry ->
        let size, kind_code =
          match entry.kind with
          | Fd.File f -> (f.node.size, 1)
          | Fd.Proc_file f -> (String.length f.content, 1)
          | Fd.Pipe_r pp | Fd.Pipe_w pp -> (Ring.length pp.ring, 2)
          | _ -> (0, 3)
        in
        let b = Bytes.create 16 in
        Bytes.set_int64_le b 0 (Int64.of_int size);
        Bytes.set_int64_le b 8 (Int64.of_int kind_code);
        ignore (write_user t p buf b);
        ignore t;
        ok 0

let sys_pipe t p =
  let fds_ptr = iarg p 0 in
  if not (user_ok p fds_ptr 16) then err Errno.efault
  else begin
    let pipe =
      { Fd.ring = Ring.create 65536; readers = 1; writers = 1; wake = [] }
    in
    let rfd = Fd.install p.fds (Fd.make (Fd.Pipe_r pipe)) in
    let wfd = Fd.install p.fds (Fd.make (Fd.Pipe_w pipe)) in
    let b = Bytes.create 16 in
    Bytes.set_int64_le b 0 (Int64.of_int rfd);
    Bytes.set_int64_le b 8 (Int64.of_int wfd);
    ignore (write_user t p fds_ptr b);
    ok 0
  end

let sys_spawn t p =
  let path_ptr = iarg p 0 and path_len = iarg p 1 in
  let argv_ptr = iarg p 2 and argv_len = iarg p 3 in
  match read_user_string t p path_ptr path_len with
  | None -> err Errno.efault
  | Some path -> (
      let args =
        if argv_len = 0 then Some []
        else
          match read_user_string t p argv_ptr argv_len with
          | None -> None
          | Some blob ->
              Some (String.split_on_char '\x00' blob
                    |> List.filter (fun s -> s <> ""))
      in
      match args with
      | None -> err Errno.efault
      | Some args -> (
          match spawn t ~parent_pid:p.pid ~path ~args with
          | pid -> ok pid
          | exception Spawn_error e -> err e))

let sys_wait t p =
  let want = iarg p 0 and status_ptr = iarg p 1 in
  if p.children = [] then err Errno.echild
  else
    let candidates =
      List.filter_map
        (fun cpid ->
          if want <> -1 && want <> cpid then None
          else
            match find_proc t cpid with
            | Some c when c.state = `Zombie -> Some c
            | _ -> None)
        p.children
    in
    match candidates with
    | [] ->
        if want <> -1 && not (List.mem want p.children) then err Errno.echild
        else Block
    | c :: _ ->
        p.children <- List.filter (fun x -> x <> c.pid) p.children;
        Hashtbl.remove t.procs c.pid;
        if status_ptr <> 0 && user_ok p status_ptr 8 then
          Mem.write_u64_priv t.mem status_ptr (Int64.of_int c.exit_code);
        ok c.pid

let sys_brk () p =
  let req = iarg p 0 in
  let d = Domain_mgr.d_base p.img.slot in
  let lo, hi = Occlum_oelf.Oelf.heap_zone p.img.oelf in
  if req = 0 then ok p.brk
  else if req >= d + lo && req <= d + hi && req <= p.mmap_top then begin
    p.brk <- req;
    ok p.brk
  end
  else err Errno.enomem

let sys_mmap t p =
  let _hint = iarg p 0 and len = iarg p 1 and fd = iarg p 2 and off = iarg p 3 in
  if len <= 0 then err Errno.einval
  else begin
    let len = Occlum_util.Bytes_util.round_up len 16 in
    let newtop = p.mmap_top - len in
    if newtop < p.brk then err Errno.enomem
    else begin
      p.mmap_top <- newtop;
      p.mmaps <- (newtop, len) :: p.mmaps;
      (* anonymous mappings are zeroed manually by the LibOS (§6) *)
      Mem.fill_priv t.mem ~addr:newtop ~len '\x00';
      (if fd >= 0 then
         (* file-backed: SGX1 cannot map pages, so the content is copied *)
         match Fd.find p.fds fd with
         | Some { kind = Fd.File f; _ } -> (
             match Sefs.read_file t.sefs f.node ~pos:off ~len with
             | Ok bytes -> Mem.write_bytes_priv t.mem ~addr:newtop bytes
             | Error _ -> ())
         | _ -> ());
      ok newtop
    end
  end

let sys_munmap t p =
  let addr = iarg p 0 and len = iarg p 1 in
  match List.assoc_opt addr p.mmaps with
  | Some l when l = Occlum_util.Bytes_util.round_up len 16 ->
      p.mmaps <- List.remove_assoc addr p.mmaps;
      Mem.fill_priv t.mem ~addr ~len:l '\x00';
      ok 0
  | _ -> err Errno.einval

let sys_futex_wait t p =
  let uaddr = iarg p 0 and expected = arg p 1 in
  if p.futex_woken then begin
    p.futex_woken <- false;
    ok 0
  end
  else if not (user_ok p uaddr 8) then err Errno.efault
  else if not (Int64.equal (Mem.read_u64_priv t.mem uaddr) expected) then
    err Errno.eagain
  else begin
    let q =
      match Hashtbl.find_opt t.futexq uaddr with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.replace t.futexq uaddr q;
          q
    in
    if not (List.mem p.pid !q) then q := !q @ [ p.pid ];
    Block
  end

let sys_futex_wake t p =
  let uaddr = iarg p 0 and nwake = iarg p 1 in
  match Hashtbl.find_opt t.futexq uaddr with
  | None -> ok 0
  | Some q ->
      let to_wake, rest =
        let rec split n = function
          | [] -> ([], [])
          | l when n = 0 -> ([], l)
          | x :: tl ->
              let a, b = split (n - 1) tl in
              (x :: a, b)
        in
        split (max 0 nwake) !q
      in
      q := rest;
      List.iter
        (fun pid ->
          match find_proc t pid with
          | Some wp when wp.state = `Blocked ->
              wp.futex_woken <- true;
              (* a wake must cancel the sleeping SIP's core's steal
                 backoff, or the wakeup waits it out *)
              Sched.notify_wake t.sched ~waker:t.cur_core wp.pid
          | _ -> ())
        to_wake;
      ok (List.length to_wake)

(* Readiness bitmask of a descriptor (full mask; callers intersect with
   the requested events plus the always-reported POLLHUP). Pure check —
   consumes nothing, so the blocking-retry model applies directly. *)
let fd_ready (entry : Fd.entry) =
  let module P = Occlum_abi.Abi.Poll in
  match entry.Fd.kind with
  | Fd.Pipe_r pipe ->
      if (not (Ring.is_empty pipe.ring)) || pipe.writers = 0 then P.pollin
      else 0
  | Fd.Pipe_w pipe ->
      if Ring.free_space pipe.ring > 0 || pipe.readers = 0 then P.pollout
      else 0
  | Fd.Sock { ep = Some ep; _ } ->
      let peer_gone =
        match ep.Net.peer with Some pr -> pr.Net.closed | None -> true
      in
      let r = ref 0 in
      if (not (Ring.is_empty ep.Net.inbox)) || peer_gone then
        r := !r lor P.pollin;
      (match ep.Net.peer with
      | Some pr when (not pr.Net.closed) && Ring.free_space pr.Net.inbox > 0 ->
          r := !r lor P.pollout
      | _ -> ());
      if peer_gone then r := !r lor P.pollhup;
      !r
  | Fd.Sock { ep = None; _ } ->
      (* an unconnected socket is "connectable": report writable so a
         poll-then-connect loop makes progress instead of spinning *)
      P.pollout
  | Fd.Listener l ->
      if not (Queue.is_empty l.Net.pending) then P.pollin else 0
  | Fd.Epoll e -> if Hashtbl.length e.Fd.ready > 0 then P.pollin else 0
  | Fd.File _ | Fd.Dev_null | Fd.Dev_zero | Fd.Dev_random _ | Fd.Console _
  | Fd.Proc_file _ ->
      P.pollin lor P.pollout

(* Attach an epoll watch: a [mark] closure is hooked onto the watched
   object's wake list so readiness edges push the fd into the candidate
   set in O(1). The returned unhook is stored in the interest table.
   Objects without edges (files, devices) are always-ready and need no
   hook. *)
let epoll_watch (e : Fd.epoll) fd (entry : Fd.entry) events =
  let module P = Occlum_abi.Abi.Poll in
  let mark () = Hashtbl.replace e.Fd.ready fd () in
  let hook get set =
    set (mark :: get ());
    fun () -> set (List.filter (fun f -> f != mark) (get ()))
  in
  let unhook =
    match entry.Fd.kind with
    | Fd.Sock { ep = Some sep; _ } ->
        hook (fun () -> sep.Net.wake) (fun ws -> sep.Net.wake <- ws)
    | Fd.Listener l ->
        hook (fun () -> l.Net.wake) (fun ws -> l.Net.wake <- ws)
    | Fd.Pipe_r pp | Fd.Pipe_w pp ->
        hook (fun () -> pp.Fd.wake) (fun ws -> pp.Fd.wake <- ws)
    | _ -> fun () -> ()
  in
  Hashtbl.replace e.Fd.interest fd (events, unhook);
  (* level-triggered: seed the candidate set if already ready *)
  if fd_ready entry land (events lor P.pollhup) <> 0 then mark ()

let sys_socket p =
  ok (Fd.install p.fds (Fd.make (Fd.Sock { ep = None; port = 0 })))

let sys_bind p =
  let fd = iarg p 0 and port = iarg p 1 in
  match Fd.find p.fds fd with
  | Some { kind = Fd.Sock s; _ } ->
      s.port <- port;
      ok 0
  | Some _ -> err Errno.einval
  | None -> err Errno.ebadf

let sys_listen t p =
  let fd = iarg p 0 and backlog = iarg p 1 in
  match Fd.find p.fds fd with
  | Some ({ kind = Fd.Sock s; _ } as entry) -> (
      match Net.listen t.net ~port:s.port ~backlog:(max 1 backlog) with
      | Error e -> err e
      | Ok l ->
          (* retype the descriptor in place *)
          Fd.install_at p.fds fd { entry with kind = Fd.Listener l };
          ok 0)
  | Some _ -> err Errno.einval
  | None -> err Errno.ebadf

let sys_accept p =
  let fd = iarg p 0 in
  match Fd.find p.fds fd with
  | Some ({ kind = Fd.Listener l; _ } as entry) -> (
      match Net.accept l with
      | None -> block_or_eagain entry
      | Some ep ->
          ok (Fd.install p.fds
                (Fd.make (Fd.Sock { ep = Some ep; port = l.port }))))
  | Some _ -> err Errno.einval
  | None -> err Errno.ebadf

let sys_connect t p =
  let fd = iarg p 0 and port = iarg p 1 in
  match Fd.find p.fds fd with
  | Some ({ kind = Fd.Sock s; _ } as entry) -> (
      match Net.connect t.net ~port with
      | Error e -> err e
      | Ok ep ->
          s.ep <- Some ep;
          s.port <- port;
          (* a watch registered while unconnected hooked nothing — re-arm
             it on the live endpoint *)
          Fd.iter p.fds (fun _ watcher ->
              match watcher.Fd.kind with
              | Fd.Epoll e -> (
                  match Hashtbl.find_opt e.Fd.interest fd with
                  | Some (events, unhook) ->
                      unhook ();
                      epoll_watch e fd entry events
                  | None -> ())
              | _ -> ());
          ok 0)
  | Some _ -> err Errno.einval
  | None -> err Errno.ebadf

let sys_readdir t p =
  let path_ptr = iarg p 0 and path_len = iarg p 1 in
  let buf = iarg p 2 and buf_len = iarg p 3 in
  match read_user_string t p path_ptr path_len with
  | None -> err Errno.efault
  | Some path -> (
      match Sefs.readdir t.sefs path with
      | Error e -> err e
      | Ok names ->
          let s = String.concat "\n" names in
          let n = min (String.length s) buf_len in
          if n > 0 && not (write_user t p buf (Bytes.of_string (String.sub s 0 n)))
          then err Errno.efault
          else ok n)

(* poll: pure readiness checks over an array of
   {fd; events; revents} entries. POLLHUP is reported regardless of the
   requested events, as on Linux. *)
let sys_poll t p =
  let module P = Occlum_abi.Abi.Poll in
  let entries = iarg p 0 and nfds = iarg p 1 in
  let deadline = arg p 2 in
  if nfds < 0 || nfds > 64 || not (user_ok p entries (nfds * P.entry_size)) then
    err Errno.efault
  else begin
    let ready = ref 0 in
    for k = 0 to nfds - 1 do
      let base = entries + (k * P.entry_size) in
      let fd = Int64.to_int (Mem.read_u64_priv t.mem base) in
      let events = Int64.to_int (Mem.read_u64_priv t.mem (base + 8)) in
      let revents =
        match Fd.find p.fds fd with
        | None -> P.pollnval
        | Some entry -> fd_ready entry land (events lor P.pollhup)
      in
      Mem.write_u64_priv t.mem (base + 16) (Int64.of_int revents);
      if revents <> 0 then incr ready
    done;
    if !ready > 0 then begin
      p.wake_time <- None;
      ok !ready
    end
    else if Int64.equal deadline 0L then ok 0
    else begin
      (* block with an absolute virtual-time deadline (negative = forever) *)
      (match (p.wake_time, Int64.compare deadline 0L > 0) with
      | None, true -> p.wake_time <- Some (Int64.add t.clock_ns deadline)
      | _ -> ());
      match p.wake_time with
      | Some d when Int64.compare t.clock_ns d >= 0 ->
          p.wake_time <- None;
          ok 0
      | _ -> Block
    end
  end

let sys_fcntl p =
  let module F = Occlum_abi.Abi.Fcntl in
  let fd = iarg p 0 and cmd = iarg p 1 and argv = iarg p 2 in
  match Fd.find p.fds fd with
  | None -> err Errno.ebadf
  | Some entry ->
      if cmd = F.getfl then ok entry.Fd.sflags
      else if cmd = F.setfl then begin
        (* only the status flags we model; others are silently dropped *)
        entry.Fd.sflags <- argv land Occlum_abi.Abi.Open_flags.nonblock;
        ok 0
      end
      else err Errno.einval

let sys_epoll_create p =
  ok
    (Fd.install p.fds
       (Fd.make
          (Fd.Epoll { Fd.interest = Hashtbl.create 16; ready = Hashtbl.create 16 })))

let sys_epoll_ctl p =
  let module E = Occlum_abi.Abi.Epoll in
  let epfd = iarg p 0 and op = iarg p 1 and fd = iarg p 2 and events = iarg p 3 in
  match Fd.find p.fds epfd with
  | None -> err Errno.ebadf
  | Some { kind = Fd.Epoll e; _ } -> (
      if fd = epfd then err Errno.einval
      else
        match Fd.find p.fds fd with
        | None -> err Errno.ebadf
        | Some entry ->
            if op = E.ctl_add then
              if Hashtbl.mem e.Fd.interest fd then err Errno.eexist
              else begin
                epoll_watch e fd entry events;
                ok 0
              end
            else if op = E.ctl_mod then (
              match Hashtbl.find_opt e.Fd.interest fd with
              | None -> err Errno.enoent
              | Some (_, unhook) ->
                  unhook ();
                  Hashtbl.remove e.Fd.ready fd;
                  epoll_watch e fd entry events;
                  ok 0)
            else if op = E.ctl_del then (
              match Hashtbl.find_opt e.Fd.interest fd with
              | None -> err Errno.enoent
              | Some (_, unhook) ->
                  unhook ();
                  Hashtbl.remove e.Fd.interest fd;
                  Hashtbl.remove e.Fd.ready fd;
                  ok 0)
            else err Errno.einval)
  | Some _ -> err Errno.einval

(* epoll_wait: scan only the candidate set maintained by the wake hooks
   — O(ready), never O(watched). Level-triggered: candidates are
   re-validated against [fd_ready]; those that stopped being ready are
   dropped (their hook will re-add them on the next edge), and ready
   ones stay in the set so the next wait reports them again. *)
let sys_epoll_wait t p =
  let module E = Occlum_abi.Abi.Epoll in
  let module P = Occlum_abi.Abi.Poll in
  let epfd = iarg p 0 and buf = iarg p 1 and maxevents = iarg p 2 in
  let deadline = arg p 3 in
  match Fd.find p.fds epfd with
  | None -> err Errno.ebadf
  | Some { kind = Fd.Epoll e; _ } ->
      if maxevents <= 0 || not (user_ok p buf (maxevents * E.event_size)) then
        err Errno.efault
      else begin
        let candidates =
          List.sort compare (Hashtbl.fold (fun fd () acc -> fd :: acc) e.Fd.ready [])
        in
        let count = ref 0 in
        List.iter
          (fun fd ->
            match Fd.find p.fds fd with
            | None ->
                (* closed behind our back: lazily forget the watch *)
                (match Hashtbl.find_opt e.Fd.interest fd with
                | Some (_, unhook) -> unhook ()
                | None -> ());
                Hashtbl.remove e.Fd.interest fd;
                Hashtbl.remove e.Fd.ready fd
            | Some entry -> (
                match Hashtbl.find_opt e.Fd.interest fd with
                | None -> Hashtbl.remove e.Fd.ready fd
                | Some (events, _) ->
                    let rev = fd_ready entry land (events lor P.pollhup) in
                    if rev = 0 then Hashtbl.remove e.Fd.ready fd
                    else if !count < maxevents then begin
                      let base = buf + (!count * E.event_size) in
                      Mem.write_u64_priv t.mem base (Int64.of_int fd);
                      Mem.write_u64_priv t.mem (base + 8) (Int64.of_int rev);
                      incr count
                    end))
          candidates;
        if !count > 0 then begin
          p.wake_time <- None;
          ok !count
        end
        else if Int64.equal deadline 0L then ok 0
        else begin
          (match (p.wake_time, Int64.compare deadline 0L > 0) with
          | None, true -> p.wake_time <- Some (Int64.add t.clock_ns deadline)
          | _ -> ());
          match p.wake_time with
          | Some d when Int64.compare t.clock_ns d >= 0 ->
              p.wake_time <- None;
              ok 0
          | _ -> Block
        end
      end
  | Some _ -> err Errno.einval

let sys_clone t p =
  let entry = iarg p 0 and stack_top = iarg p 1 and tharg = arg p 2 in
  (* the entry must open with this domain's cfi_label *)
  let c0 = Domain_mgr.c_base p.img.slot in
  if entry < c0 || entry + 8 > c0 + p.img.slot.code_size
     || not (Int64.equal (Mem.read_u64_priv t.mem entry) p.img.label_value)
  then err Errno.einval
  else if not (user_ok p (stack_top - 16) 16) then err Errno.efault
  else begin
    incr p.slot_refs;
    let child =
      make_proc t ~parent:p.pid ~img:p.img ~fds:p.fds ~is_thread:true
        ~slot_refs:p.slot_refs ~path:p.path ~eip_enclave:None
    in
    (* share the fd table object: make_proc got it directly *)
    Mem.write_u64_priv t.mem (stack_top - 8) tharg;
    Mem.write_u64_priv t.mem (stack_top - 16)
      (Int64.of_int (p.img.thread_exit_gate - 8));
    Cpu.set child.cpu Reg.sp (Int64.of_int (stack_top - 16));
    child.cpu.pc <- entry;
    p.children <- child.pid :: p.children;
    ok child.pid
  end

let rec dispatch t (p : proc) : sysret =
  let nr = Int64.to_int (Cpu.get p.cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr)) in
  if nr = Sys.exit then begin
    do_exit t p (iarg p 0);
    Exited
  end
  else if nr = Sys.read then sys_read t p
  else if nr = Sys.write then sys_write t p
  else if nr = Sys.open_ then sys_open t p
  else if nr = Sys.close then
    match Fd.close p.fds (iarg p 0) with Ok () -> ok 0 | Error e -> err e
  else if nr = Sys.lseek then sys_lseek p
  else if nr = Sys.fstat then sys_fstat t p
  else if nr = Sys.pipe then sys_pipe t p
  else if nr = Sys.dup2 then begin
    match Fd.dup2 p.fds ~src:(iarg p 0) ~dst:(iarg p 1) with
    | Ok fd -> ok fd
    | Error e -> err e
  end
  else if nr = Sys.spawn then sys_spawn t p
  else if nr = Sys.wait then sys_wait t p
  else if nr = Sys.getpid then ok p.pid
  else if nr = Sys.yield then ok 0
  else if nr = Sys.gettime then Done t.clock_ns
  else if nr = Sys.nanosleep then begin
    let deadline =
      match p.wake_time with
      | Some d -> d
      | None ->
          let d = Int64.add t.clock_ns (arg p 0) in
          p.wake_time <- Some d;
          d
    in
    if Int64.compare t.clock_ns deadline >= 0 then begin
      p.wake_time <- None;
      ok 0
    end
    else Block
  end
  else if nr = Sys.brk then sys_brk () p
  else if nr = Sys.mmap then sys_mmap t p
  else if nr = Sys.munmap then sys_munmap t p
  else if nr = Sys.futex_wait then sys_futex_wait t p
  else if nr = Sys.futex_wake then sys_futex_wake t p
  else if nr = Sys.kill then begin
    let pid = iarg p 0 and signo = iarg p 1 in
    match find_proc t pid with
    | Some target when target.state <> `Zombie ->
        if signo >= 1 && signo <= Sig.max_signo then begin
          post_signal target signo;
          ok 0
        end
        else err Errno.einval
    | _ -> err Errno.esrch
  end
  else if nr = Sys.sigaction then begin
    let signo = iarg p 0 and handler = arg p 1 in
    if signo < 1 || signo > Sig.max_signo || signo = Sig.sigkill then
      err Errno.einval
    else begin
      p.sig_handlers <- (signo, handler) :: List.remove_assoc signo p.sig_handlers;
      ok 0
    end
  end
  else if nr = Sys.socket then sys_socket p
  else if nr = Sys.bind then sys_bind p
  else if nr = Sys.listen then sys_listen t p
  else if nr = Sys.accept then sys_accept p
  else if nr = Sys.connect then sys_connect t p
  else if nr = Sys.send then sys_write t p
  else if nr = Sys.recv then sys_read t p
  else if nr = Sys.mkdir then begin
    match read_user_string t p (iarg p 0) (iarg p 1) with
    | None -> err Errno.efault
    | Some path -> (
        match Sefs.mkdir t.sefs path with Ok _ -> ok 0 | Error e -> err e)
  end
  else if nr = Sys.unlink then begin
    match read_user_string t p (iarg p 0) (iarg p 1) with
    | None -> err Errno.efault
    | Some path -> (
        match Sefs.unlink t.sefs path with Ok () -> ok 0 | Error e -> err e)
  end
  else if nr = Sys.rename then begin
    match
      ( read_user_string t p (iarg p 0) (iarg p 1),
        read_user_string t p (iarg p 2) (iarg p 3) )
    with
    | Some src, Some dst -> (
        match Sefs.rename t.sefs src dst with Ok () -> ok 0 | Error e -> err e)
    | _ -> err Errno.efault
  end
  else if nr = Sys.ftruncate then begin
    match Fd.find p.fds (iarg p 0) with
    | Some { kind = Fd.File f; _ } -> (
        match Sefs.truncate t.sefs f.node (max 0 (iarg p 1)) with
        | Ok () -> ok 0
        | Error e -> err e)
    | Some _ -> err Errno.einval
    | None -> err Errno.ebadf
  end
  else if nr = Sys.readdir then sys_readdir t p
  else if nr = Sys.clone then sys_clone t p
  else if nr = Sys.poll then sys_poll t p
  else if nr = Sys.fcntl then sys_fcntl p
  else if nr = Sys.epoll_create then sys_epoll_create p
  else if nr = Sys.epoll_ctl then sys_epoll_ctl p
  else if nr = Sys.epoll_wait then sys_epoll_wait t p
  else if nr = Sys.batch then sys_batch t p
  else err Errno.enosys

(* Batched syscalls: one gate crossing submits N calls described by an
   array of fixed-size entries in user memory and collects N results.
   Each sub-call is dispatched with the real handler by temporarily
   poking the syscall registers; calls that would block are converted to
   EAGAIN (the batch never suspends the SIP mid-way — callers pair it
   with nonblocking fds and epoll). Scheduling-class calls (exit, clone,
   spawn, nested batch) are rejected per-entry with EINVAL. *)
and sys_batch t (p : proc) : sysret =
  let module B = Occlum_abi.Abi.Batch in
  let entries = iarg p 0 and n = iarg p 1 in
  if n < 0 || n > B.max_entries || not (user_ok p entries (n * B.entry_size))
  then err Errno.efault
  else begin
    let saved = Array.init 7 (fun i -> Cpu.get p.cpu (Reg.of_int i)) in
    for k = 0 to n - 1 do
      let base = entries + (k * B.entry_size) in
      let nr = Int64.to_int (Mem.read_u64_priv t.mem base) in
      let ret =
        if nr = Sys.exit || nr = Sys.batch || nr = Sys.clone || nr = Sys.spawn
        then Int64.of_int Errno.einval
        else begin
          Cpu.set p.cpu
            (Reg.of_int Occlum_abi.Abi.Regs.sys_nr)
            (Int64.of_int nr);
          for a = 0 to Occlum_abi.Abi.Regs.max_args - 1 do
            Cpu.set p.cpu
              (Reg.of_int (Occlum_abi.Abi.Regs.sys_arg0 + a))
              (Mem.read_u64_priv t.mem (base + 16 + (8 * a)))
          done;
          t.syscalls <- t.syscalls + 1;
          t.clock_ns <- Int64.add t.clock_ns (batched_call_ns t);
          let o = t.obs in
          if o.Occlum_obs.Obs.enabled then
            Occlum_obs.Metrics.inc
              (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
                 "os.syscalls.batched");
          match dispatch t p with
          | Done v -> v
          | Block ->
              (* sub-calls never suspend: report would-block *)
              p.wake_time <- None;
              Int64.of_int Errno.eagain
          | Exited -> Int64.of_int Errno.einval
        end
      in
      Mem.write_u64_priv t.mem (base + 8) ret
    done;
    Array.iteri (fun i v -> Cpu.set p.cpu (Reg.of_int i) v) saved;
    ok n
  end

(* All syscall entry points dispatch through here so observability sees
   every call exactly once. [charge] is false on blocked-call retries,
   which the clock model does not re-charge. Latency is the virtual-clock
   delta across the dispatch, so it includes the boundary charge itself
   (the SIP/EIP cost the paper's Figure 5 measures). *)
let dispatch_traced ?(charge = true) t (p : proc) : sysret =
  let o = t.obs in
  if not o.Occlum_obs.Obs.enabled then begin
    if charge then charge_syscall t p;
    dispatch t p
  end
  else begin
    let nr =
      Int64.to_int (Cpu.get p.cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr))
    in
    let t0 = t.clock_ns in
    if o.Occlum_obs.Obs.t_syscall then
      Occlum_obs.Obs.emit o
        (Occlum_obs.Trace.Syscall_enter { pid = p.pid; nr });
    if charge then charge_syscall t p;
    let r = dispatch t p in
    let latency_ns = Int64.sub t.clock_ns t0 in
    let ret, blocked =
      match r with
      | Done v -> (v, false)
      | Block -> (0L, true)
      | Exited -> (0L, false)
    in
    if o.Occlum_obs.Obs.t_syscall then
      Occlum_obs.Obs.emit o
        (Occlum_obs.Trace.Syscall_exit
           { pid = p.pid; nr; ret; latency_ns; blocked });
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics "os.syscalls");
    if blocked then
      Occlum_obs.Metrics.inc
        (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
           "os.syscalls.blocked")
    else
      Occlum_obs.Metrics.observe
        (Occlum_obs.Metrics.histogram o.Occlum_obs.Obs.metrics
           "os.syscall.latency_ns" ~bounds:Occlum_obs.Metrics.latency_buckets_ns)
        (Int64.to_int latency_ns);
    r
  end

(* Paper §6: before returning to the SIP, the LibOS ensures the return
   target is a cfi_label of the SIP's own domain. *)
let return_target_ok t p =
  let sp = Int64.to_int (Cpu.get p.cpu Reg.sp) in
  if not (user_ok p sp 8) then false
  else
    let ret = Int64.to_int (Mem.read_u64_priv t.mem sp) in
    let c0 = Domain_mgr.c_base p.img.slot in
    ret >= c0
    && ret + 8 <= c0 + p.img.slot.code_size
    && Int64.equal (Mem.read_u64_priv t.mem ret) p.img.label_value

(* --- the scheduler ----------------------------------------------------------- *)

type run_status = All_exited | Deadlock of int list | Quota_exhausted

let handle_gate t (p : proc) : unit =
  (* every user->LibOS trampoline entry is one gate crossing; batching
     amortises many syscalls over one of these *)
  t.gate_crossings <- t.gate_crossings + 1;
  if t.obs.Occlum_obs.Obs.enabled then
    Occlum_obs.Metrics.inc
      (Occlum_obs.Metrics.counter t.obs.Occlum_obs.Obs.metrics
         "os.gate.crossings");
  (* pc has advanced past the Syscall_gate; classify which gate fired *)
  let gate_pc = p.cpu.pc - 1 in
  if t.cfg.mode = Linux && gate_pc <> p.img.sigreturn_gate
     && gate_pc <> p.img.thread_exit_gate then begin
    (* native model: any inline syscall instruction is legitimate, and
       there is no return-target CFI check *)
    match dispatch_traced t p with
    | Done v -> Cpu.set p.cpu R.result v
    | Block -> p.state <- `Blocked
    | Exited -> ()
  end
  else if gate_pc = p.img.sigreturn_gate then begin
    match p.saved_ctx with
    | Some ctx ->
        Cpu.restore p.cpu ctx;
        p.saved_ctx <- None
    | None -> kill_proc t p ~fatal_signal:Sig.sigkill
  end
  else if gate_pc = p.img.thread_exit_gate then begin
    do_exit t p (Int64.to_int (Cpu.get p.cpu R.result))
  end
  else if gate_pc = p.img.main_gate then begin
    match dispatch_traced t p with
    | Done v ->
        Cpu.set p.cpu R.result v;
        if not (return_target_ok t p) then
          kill_proc t p ~fatal_signal:Sig.sigkill
    | Block -> p.state <- `Blocked
    | Exited -> ()
  end
  else
    (* a gate at an unexpected pc: not possible for verified binaries *)
    kill_proc t p ~fatal_signal:Sig.sigkill

let retry_blocked t =
  Hashtbl.iter
    (fun _ p ->
      if p.state = `Blocked then begin
        match dispatch_traced ~charge:false t p with
        | Done v ->
            Cpu.set p.cpu R.result v;
            if t.cfg.mode = Linux || return_target_ok t p then
              p.state <- `Runnable
            else kill_proc t p ~fatal_signal:Sig.sigkill
        | Block -> ()
        | Exited -> ()
      end)
    t.procs

(* What the LibOS does when a quantum stops: dispatch the gate, or field
   the fault (EPC miss -> AEX + ELDU + resume; anything else kills the
   SIP). Called from the epoch's post phase. *)
let handle_stop t (p : proc) (stop : Interp.stop) =
  match stop with
  | Interp.Stop_quantum -> ()
  | Interp.Stop_syscall -> handle_gate t p
  | Interp.Stop_fault (Fault.Epc_miss { addr; _ } as f)
    when Occlum_sgx.Epc.paging_enabled t.epc -> (
      (* page fault on an evicted page: AEX out of the enclave, ELDU the
         page back, ERESUME — the SIP stays runnable and re-executes the
         faulting instruction bit-identically *)
      Occlum_sgx.Enclave.aex ~reason:(Fault.to_string f) t.enclave p.cpu;
      match
        Occlum_sgx.Epc.eldu t.epc
          ~cid:(Occlum_sgx.Enclave.id t.enclave)
          ~page:(addr / Mem.page_size)
      with
      | () ->
          Occlum_sgx.Enclave.resume t.enclave p.cpu;
          if t.obs.Occlum_obs.Obs.enabled then
            Occlum_obs.Metrics.inc
              (Occlum_obs.Metrics.counter t.obs.Occlum_obs.Obs.metrics
                 "epc.faults")
      | exception Occlum_sgx.Epc.Integrity_violation _ ->
          (* tampered or rolled-back backing page: hard fault, the
             content is never exposed to the SIP *)
          Occlum_sgx.Enclave.resume t.enclave p.cpu;
          t.faults <- (p.pid, f) :: t.faults;
          kill_proc t p ~fatal_signal:7
      | exception Occlum_sgx.Epc.Out_of_epc ->
          (* backing store at capacity and nothing evictable *)
          Occlum_sgx.Enclave.resume t.enclave p.cpu;
          t.faults <- (p.pid, f) :: t.faults;
          kill_proc t p ~fatal_signal:Sig.sigkill)
  | Interp.Stop_fault f ->
      (* AEX -> the LibOS captures the exception and kills the SIP *)
      t.faults <- (p.pid, f) :: t.faults;
      Occlum_sgx.Enclave.aex ~reason:(Fault.to_string f) t.enclave p.cpu;
      Occlum_sgx.Enclave.resume t.enclave p.cpu;
      kill_proc t p ~fatal_signal:11

(* --- the epoch scheduler ------------------------------------------------------

   Epoch model: a sequential claim phase picks at most one runnable SIP
   per core (Sched.claim — deterministic round-robin, never two SIPs of
   one domain slot, the claimed pid requeued at claim time), the
   execution phase runs one interpreter quantum per claimed SIP —
   parallelizable across OCaml domains because a SIP's quantum only
   touches its own domain slot's pages, its own Cpu, and its core's
   private caches and Obs (core 0's quantum, which reports to [t.obs],
   always runs on the calling domain) — and a sequential post phase, in
   core order, handles gates and faults.

   The cores ran concurrently, so they overlap in virtual time: before
   job i's stop is handled the clock reads [base + cycles_i], and the
   epoch ends at the largest clock any job's handling reached. Syscall
   handling is charged to the calling SIP's core — the paper's point is
   precisely that syscalls are function calls inside the enclave — so a
   handler sees its own core's time. Globally shared pressure (EPC
   paging, host-I/O retry backoff) stays serial via
   [sync_pressure_charges]. With one core an epoch is one round-robin
   quantum followed by its handler. Nothing observable depends on host
   timing, so a run at a fixed core count is bit-reproducible with or
   without the worker pool. *)

let runnable t pid =
  match find_proc t pid with Some p -> p.state = `Runnable | None -> false

let live t pid =
  match find_proc t pid with Some p -> p.state <> `Zombie | None -> false

let slot t pid =
  match find_proc t pid with
  | Some p -> p.img.slot.Domain_mgr.id
  | None -> -1

let epoch ?pool t =
  let s = t.sched in
  let o = t.obs in
  retry_blocked t;
  t.cur_core <- 0;
  let claims =
    Sched.claim s ~runnable:(runnable t) ~live:(live t) ~slot_of:(slot t)
  in
  (* sequential prologue: signal delivery (a SIP killed or blocked by a
     signal hands its core's slice back), then the switch/start events *)
  let jobs =
    List.filter_map
      (fun (cid, pid) ->
        match find_proc t pid with
        | None -> None
        | Some p ->
            t.cur_core <- cid;
            deliver_signals t p;
            if p.state <> `Runnable then None
            else begin
              if o.Occlum_obs.Obs.enabled then begin
                if o.Occlum_obs.Obs.t_sched && t.last_run_pid <> p.pid then
                  Occlum_obs.Obs.emit o
                    (Occlum_obs.Trace.Sched_switch
                       { from_pid = t.last_run_pid; to_pid = p.pid });
                t.last_run_pid <- p.pid;
                if o.Occlum_obs.Obs.t_quantum then
                  Occlum_obs.Obs.emit o
                    (Occlum_obs.Trace.Quantum_start { pid = p.pid })
              end;
              Some (cid, p, p.cpu.cycles, p.cpu.insns)
            end)
      claims
    |> Array.of_list
  in
  let n = Array.length jobs in
  (* nothing claimed, or signals took every claimed slice: no quantum
     ran and no time passed (pressure charges fold in next epoch) *)
  if n = 0 then claims <> []
  else begin
    let stops = Array.make n Interp.Stop_quantum in
    let run_job i (cid, p, _, _) =
      let core = s.Sched.cores.(cid) in
      stops.(i) <-
        Interp.run ?jit:core.Sched.jit ~obs:core.Sched.obs t.mem p.cpu
          ~fuel:t.cfg.quantum
    in
    (match pool with
    | Some pool when n > 1 ->
        Sched.Pool.run_all pool (Array.mapi (fun i job () -> run_job i job) jobs)
    | _ -> Array.iteri run_job jobs);
    (* sequential post phase, in core order *)
    let base = t.clock_ns in
    let epoch_end = ref base in
    Array.iteri
      (fun i (cid, p, cycles0, insns0) ->
        let core = s.Sched.cores.(cid) in
        let cycles = p.cpu.cycles - cycles0 and insns = p.cpu.insns - insns0 in
        t.cur_core <- cid;
        core.Sched.quanta <- core.Sched.quanta + 1;
        core.Sched.insns <- core.Sched.insns + insns;
        core.Sched.cycles <- core.Sched.cycles + cycles;
        t.clock_ns <- Int64.add base (cycles_to_ns cycles);
        if o.Occlum_obs.Obs.enabled then begin
          if o.Occlum_obs.Obs.t_quantum then
            Occlum_obs.Obs.emit o
              (Occlum_obs.Trace.Quantum_end { pid = p.pid; insns; cycles });
          let m = o.Occlum_obs.Obs.metrics in
          Occlum_obs.Metrics.inc (Occlum_obs.Metrics.counter m "os.quanta");
          Occlum_obs.Metrics.observe
            (Occlum_obs.Metrics.histogram m "os.quantum.insns"
               ~bounds:
                 [| 100; 1_000; 10_000; 25_000; 50_000; 75_000; 100_000 |])
            insns;
          Occlum_obs.Metrics.inc
            (Occlum_obs.Metrics.counter m
               (Printf.sprintf "sched.core%d.quanta" cid))
        end;
        handle_stop t p stops.(i);
        if Int64.compare t.clock_ns !epoch_end > 0 then epoch_end := t.clock_ns)
      jobs;
    t.clock_ns <- !epoch_end;
    sync_pressure_charges t;
    true
  end

let merge_core_metrics t = Sched.merge_metrics t.sched t.obs

(* One scheduler step: one epoch, executed on the calling domain —
   drivers that poke the system between steps keep working. *)
let step t = epoch t

let run ?(max_steps = 1_000_000) t =
  (* the worker pool exists only for the duration of this call; quanta
     of one epoch run on up to cores-1 workers plus the calling domain *)
  let nworkers =
    min (t.sched.Sched.ncores - 1)
      (max 0 (Domain.recommended_domain_count () - 1))
  in
  let pool =
    if nworkers > 0 then Some (Sched.Pool.create nworkers) else None
  in
  let finish status =
    merge_core_metrics t;
    status
  in
  let rec go n =
    if n = 0 then finish Quota_exhausted
    else if live_procs t = [] then finish All_exited
    else if epoch ?pool t then go (n - 1)
    else begin
      (* nothing runnable: either sleepers (advance the clock) or deadlock *)
      let sleepers =
        List.filter_map (fun p -> p.wake_time) (live_procs t)
      in
      match sleepers with
      | [] ->
          retry_blocked t;
          if List.exists (fun p -> p.state = `Runnable) (live_procs t) then
            go (n - 1)
          else finish (Deadlock (List.map (fun p -> p.pid) (live_procs t)))
      | ws ->
          t.clock_ns <- List.fold_left min (List.hd ws) ws;
          go (n - 1)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      match pool with Some p -> Sched.Pool.shutdown p | None -> ())
    (fun () -> go max_steps)

(* Convenience: run until a specific process has exited (it may already
   be reaped by its parent; absence counts as exited). *)
let wait_pid_exit ?(max_steps = 1_000_000) t pid =
  let rec go n =
    if n = 0 then Quota_exhausted
    else
      match find_proc t pid with
      | None -> All_exited
      | Some { state = `Zombie; _ } -> All_exited
      | Some _ ->
          if step t then go (n - 1)
          else begin
            let sleepers = List.filter_map (fun p -> p.wake_time) (live_procs t) in
            match sleepers with
            | [] -> Deadlock (List.map (fun p -> p.pid) (live_procs t))
            | ws ->
                t.clock_ns <- List.fold_left min (List.hd ws) ws;
                go (n - 1)
          end
  in
  go max_steps

let flush_fs t = Sefs.flush t.sefs

(* A deterministic digest of everything a workload can observe of the
   final state: per-process exits, per-SIP output streams, faults, spawn
   count and the whole FS tree. The determinism-vs-parallelism
   differential compares this across core counts, so quantities that
   legitimately vary with scheduling granularity — the virtual clock,
   syscall/retry counts, the interleaving of the *global* console — are
   deliberately excluded. *)
let state_digest t =
  let b = Buffer.create 4096 in
  let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.procs [] in
  List.iter
    (fun pid ->
      let p = Hashtbl.find t.procs pid in
      Buffer.add_string b
        (Printf.sprintf "proc %d parent %d state %s exit %d path %s\n" pid
           p.parent
           (match p.state with
           | `Runnable -> "R"
           | `Blocked -> "B"
           | `Zombie -> "Z")
           p.exit_code p.path))
    (List.sort compare pids);
  let outs =
    Hashtbl.fold (fun pid buf acc -> (pid, Buffer.contents buf) :: acc)
      t.proc_out []
  in
  List.iter
    (fun (pid, s) ->
      Buffer.add_string b (Printf.sprintf "out %d %d:" pid (String.length s));
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    (List.sort compare outs);
  List.iter
    (fun (pid, f) -> Buffer.add_string b (Printf.sprintf "fault %d %s\n" pid f))
    (List.sort compare
       (List.map (fun (pid, f) -> (pid, Fault.to_string f)) t.faults));
  Buffer.add_string b (Printf.sprintf "spawns %d\n" t.spawns);
  let rec walk path =
    match Sefs.lookup t.sefs path with
    | None -> ()
    | Some ino -> (
        match ino.Sefs.kind with
        | Sefs.Dir -> (
            Buffer.add_string b (Printf.sprintf "dir %s\n" path);
            match Sefs.readdir t.sefs path with
            | Error _ -> ()
            | Ok names ->
                List.iter
                  (fun nm ->
                    walk (if path = "/" then "/" ^ nm else path ^ "/" ^ nm))
                  (List.sort compare names))
        | Sefs.File -> (
            match Sefs.read_path t.sefs path with
            | Ok data ->
                Buffer.add_string b
                  (Printf.sprintf "file %s %d:" path (String.length data));
                Buffer.add_string b
                  (Occlum_util.Sha256.to_hex (Occlum_util.Sha256.digest data));
                Buffer.add_char b '\n'
            | Error e ->
                Buffer.add_string b (Printf.sprintf "file %s err %d\n" path e)))
  in
  walk "/";
  Occlum_util.Sha256.to_hex (Occlum_util.Sha256.digest (Buffer.contents b))
