open Occlum_isa
open Occlum_machine
module R = Occlum_toolchain.Codegen_regs
module Enclave = Occlum_sgx.Enclave
module Epc = Occlum_sgx.Epc
module Loader = Occlum_libos.Loader

let guard = Occlum_oelf.Oelf.guard_size
let code_base = 0x10000
let domain_id = 1
let sentinel = '\x5c'

type violation =
  | Pc_escape of int
  | Victim_written
  | Code_modified
  | Resume_diverged of string

let violation_to_string = function
  | Pc_escape pc -> Printf.sprintf "pc escaped the code region: 0x%x" pc
  | Victim_written -> "a store landed in the adjacent domain"
  | Code_modified -> "the code region was modified at runtime"
  | Resume_diverged d -> d

type env = {
  enclave : Enclave.t;
  mem : Mem.t;
  cpu : Cpu.t;
  img : Loader.image;
  code_base : int;
  code_region : int;
  d_base : int;
  d_size : int;
  victim_base : int;
  victim_size : int;
  code_snapshot : Bytes.t;
}

let make ?epc ?(code_perm = Mem.perm_rwx) (oelf : Occlum_oelf.Oelf.t) =
  let epc =
    match epc with Some e -> e | None -> Occlum_sgx.Epc.create ()
  in
  let slot = Loader.fitted_slot ~id:domain_id ~base:code_base oelf in
  let code_region = slot.code_size and d_size = slot.data_size in
  let d_base = Occlum_libos.Domain_mgr.d_base slot in
  let victim_base = d_base + d_size + guard in
  let victim_size = 4 * 4096 in
  let size =
    Occlum_util.Bytes_util.round_up (victim_base + victim_size) 4096
  in
  let enclave = Enclave.create ~epc ~size () in
  let mem = Enclave.mem enclave in
  (* the loader's image, EADDed before EINIT so it is measured as loaded *)
  let b = Loader.build slot (Loader.admit ~require_signature:false oelf) ~args:[] in
  Enclave.add_pages enclave ~addr:code_base ~data:b.code ~perm:code_perm;
  let dimg = Bytes.make d_size '\x00' in
  Bytes.blit b.data 0 dimg 0 (Bytes.length b.data);
  Enclave.add_pages enclave ~addr:d_base ~data:dimg ~perm:Mem.perm_rw;
  Enclave.add_zero_pages enclave ~addr:victim_base ~len:victim_size
    ~perm:Mem.perm_rw;
  Enclave.init enclave;
  Mem.fill_priv mem ~addr:victim_base ~len:victim_size sentinel;
  let cpu = Cpu.create () in
  Loader.init_cpu b.img cpu;
  let code_snapshot = Mem.read_bytes_priv mem ~addr:code_base ~len:code_region in
  {
    enclave; mem; cpu; img = b.img; code_base; code_region; d_base; d_size;
    victim_base; victim_size; code_snapshot;
  }

let in_code env pc = pc >= env.code_base && pc < env.code_base + env.code_region

let victim_intact env =
  let b = Mem.read_bytes_priv env.mem ~addr:env.victim_base ~len:env.victim_size in
  let ok = ref true in
  Bytes.iter (fun c -> if c <> sentinel then ok := false) b;
  !ok

let code_intact env =
  Bytes.equal env.code_snapshot
    (Mem.read_bytes_priv env.mem ~addr:env.code_base ~len:env.code_region)

let audit env =
  if not (victim_intact env) then Some Victim_written
  else if not (code_intact env) then Some Code_modified
  else None

(* --- the lockstep engine ----------------------------------------------- *)

type interrupt = { fires : unit -> bool; round_trip : env -> unit }

type tier = Reference of interrupt option | Tiered of Jit.t

type quantum = { every : int; expired : unit -> unit }

type pager = {
  reload : env -> page:int -> unit;
  aex : (env -> unit) option;
  retry_spends_fuel : bool;
}

type machine = {
  env : env;
  tier : tier;
  quantum : quantum option;
  pager : pager option;
}

let machine env = { env; tier = Reference None; quantum = None; pager = None }

type difference = Identical | Paging | Layout

type sync =
  | S_syscall of int
  | S_exit
  | S_kill
  | S_fault of Fault.t
  | S_preempt
  | S_fuel

let sync_to_string = function
  | S_syscall n -> Printf.sprintf "syscall %d" n
  | S_exit -> "exit"
  | S_kill -> "kill"
  | S_fault f -> "fault " ^ Fault.to_string f
  | S_preempt -> "preemption"
  | S_fuel -> "out of fuel"

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

let cpu_diff ~pc ~counters (a : Cpu.t) (b : Cpu.t) =
  if pc && a.Cpu.pc <> b.Cpu.pc then
    diverged "pc 0x%x vs 0x%x" a.Cpu.pc b.Cpu.pc;
  if a.Cpu.flag_eq <> b.Cpu.flag_eq || a.Cpu.flag_lt <> b.Cpu.flag_lt then
    diverged "comparison flags";
  for i = 0 to Reg.count - 1 do
    let r = Reg.of_int i in
    let x = Cpu.get a r and y = Cpu.get b r in
    if x <> y then diverged "r%d: %Ld vs %Ld" i x y
  done;
  Array.iteri
    (fun i (x : Cpu.bound) -> if x <> b.Cpu.bnds.(i) then diverged "bnd%d" i)
    a.Cpu.bnds;
  if counters then
    List.iter
      (fun (name, x, y) -> if x <> y then diverged "%s: %d vs %d" name x y)
      [
        ("cycles", a.Cpu.cycles, b.Cpu.cycles);
        ("insns", a.Cpu.insns, b.Cpu.insns);
        ("loads", a.Cpu.loads, b.Cpu.loads);
        ("stores", a.Cpu.stores, b.Cpu.stores);
        ("bound_checks", a.Cpu.bound_checks, b.Cpu.bound_checks);
      ]

let mem_diff ~code a b =
  let region name base len =
    let x = Mem.read_bytes_priv a.mem ~addr:base ~len in
    if not (Bytes.equal x (Mem.read_bytes_priv b.mem ~addr:base ~len)) then
      diverged "%s region bytes" name
  in
  if code then region "code" a.code_base a.code_region;
  region "data" a.d_base a.d_size;
  region "victim" a.victim_base a.victim_size

(* An AEX round trip must restore the architectural state bit-identically. *)
let checked round_trip env =
  let cpu = env.cpu in
  let regs = Bytes.copy cpu.Cpu.regs and bnds = Array.copy cpu.Cpu.bnds in
  let before = { cpu with Cpu.regs; bnds } in
  round_trip env;
  try cpu_diff ~pc:true ~counters:false before cpu
  with Diverged d -> diverged "aex/resume not bit-identical: %s" d

let scramble rng (cpu : Cpu.t) =
  for i = 0 to Reg.count - 1 do
    Cpu.set cpu (Reg.of_int i) (Rng.next rng)
  done;
  for i = 0 to Reg.bnd_count - 1 do
    Cpu.set_bnd cpu (Reg.bnd_of_int i)
      { lower = Rng.next rng; upper = Rng.next rng }
  done;
  cpu.Cpu.pc <- Rng.int rng 0x200000;
  cpu.Cpu.flag_eq <- Rng.bool rng;
  cpu.Cpu.flag_lt <- Rng.bool rng

let round_trip ~scramble:rng env =
  Enclave.aex ~reason:"fuzz" env.enclave env.cpu;
  Option.iter (fun rng -> scramble rng env.cpu) rng;
  Enclave.resume env.enclave env.cpu

let eldu pool env ~page = Epc.eldu pool ~cid:(Enclave.id env.enclave) ~page

let smc_flip rng ~code_region () =
  let reserved = Occlum_oelf.Oelf.trampoline_reserved in
  let room = code_region - reserved in
  if room > 0 && Rng.int rng 3 = 0 then begin
    let pos = reserved + Rng.int rng room in
    let flip = 1 + Rng.int rng 255 in
    fun env ->
      let addr = env.code_base + pos in
      let byte = Bytes.get (Mem.read_bytes_priv env.mem ~addr ~len:1) 0 in
      Mem.write_bytes_priv env.mem ~addr
        (Bytes.make 1 (Char.chr (Char.code byte lxor flip)))
  end
  else ignore

let evict rng pool ~pages () =
  if Rng.int rng 2 = 0 then begin
    let page = Rng.int rng pages in
    fun env ->
      ignore (Epc.evict_page pool ~cid:(Enclave.id env.enclave) ~page)
  end
  else ignore

(* A pager that reloads without the faulting instruction retiring, this
   many times in a row, is making no progress. An instruction misses on
   at most a handful of distinct pages (a straddled fetch, a straddled
   data access). *)
let max_stuck_misses = 8

type run = {
  m : machine;
  insns0 : int;
  mutable retries : int;  (* missed attempts charged to [insns] *)
  mutable retired_at_miss : int;
  mutable stuck : int;  (* consecutive misses with no instruction retired *)
}

let retired r = r.m.env.cpu.Cpu.insns - r.insns0 - r.retries

let spent r =
  match r.m.pager with
  | Some { retry_spends_fuel = true; _ } -> r.m.env.cpu.Cpu.insns - r.insns0
  | _ -> retired r

let hook env i () = if i.fires () then checked i.round_trip env

(* Run one machine to its next sync point. An [Epc_miss] is a pager
   event, not a sync point: reload and re-enter at the same boundary. *)
let rec advance ~fuel r =
  let rem = fuel - spent r in
  if rem <= 0 then S_fuel
  else begin
    let { env; tier; quantum; pager } = r.m in
    let cpu = env.cpu in
    let rem =
      match quantum with
      | Some q -> min rem (q.every - (spent r mod q.every))
      | None -> rem
    in
    match
      match tier with
      | Tiered jit -> Interp.run ~jit env.mem cpu ~fuel:rem
      | Reference i ->
          Interp.run_reference ?interrupt:(Option.map (hook env) i) env.mem cpu
            ~fuel:rem
    with
    | Interp.Stop_fault (Fault.Epc_miss { addr; access }) when pager <> None ->
        let p = Option.get pager in
        (* the interpreter charges an instruction before its data
           accesses, so a data miss counted the attempt; a fetch miss
           did not *)
        if access <> Fault.Exec then r.retries <- r.retries + 1;
        r.stuck <- (if retired r > r.retired_at_miss then 1 else r.stuck + 1);
        r.retired_at_miss <- retired r;
        if r.stuck > max_stuck_misses then
          diverged "pager made no progress at pc 0x%x" cpu.Cpu.pc;
        Option.iter (fun aex -> checked aex env) p.aex;
        (match p.reload env ~page:(addr / Epc.page_size) with
        | () -> ()
        | exception e -> diverged "reload failed: %s" (Printexc.to_string e));
        advance ~fuel r
    | Interp.Stop_syscall ->
        let nr =
          Int64.to_int (Cpu.get cpu (Reg.of_int Occlum_abi.Abi.Regs.sys_nr))
        in
        if nr = Occlum_abi.Abi.Sys.exit then S_exit
        else if
          cpu.Cpu.pc - 1 = env.img.Loader.main_gate
          && not (Loader.return_target_ok env.mem env.img cpu)
        then S_kill
        else S_syscall nr
    | Interp.Stop_fault f -> S_fault f
    | Interp.Stop_quantum ->
        if spent r >= fuel then S_fuel
        else begin
          Option.iter (fun q -> q.expired ()) quantum;
          S_preempt
        end
  end

(* The comparator. Machines on different code layouts stop at different
   pcs, so pc is compared only where it is layout-free (inside the
   pinned trampoline) and code bytes never; counters differ by design
   under elision and under paging (a retried access charges twice). A
   privileged read reloads evicted pages, so a paged machine's memory is
   compared only where that cannot change the miss schedule under test:
   at the final stop. *)
let compare_at ~differ sync r0 r =
  let layout_free =
    match sync with S_syscall _ | S_exit | S_kill -> true | _ -> false
  in
  let final =
    match sync with S_exit | S_kill | S_fault _ | S_fuel -> true | _ -> false
  in
  if differ <> Layout && spent r0 <> spent r then
    diverged "%d vs %d instructions" (spent r0) (spent r);
  cpu_diff ~pc:(differ <> Layout || layout_free) ~counters:(differ = Identical)
    r0.m.env.cpu r.m.env.cpu;
  if
    match differ with
    | Paging -> final
    | Identical | Layout -> sync <> S_preempt
  then mem_diff ~code:(differ <> Layout) r0.m.env r.m.env

let lockstep ~differ ~fuel ?perturb machines =
  let runs =
    List.map
      (fun m ->
        let insns0 = m.env.cpu.Cpu.insns in
        { m; insns0; retries = 0; retired_at_miss = 0; stuck = 0 })
      machines
  in
  let rec round () =
    let syncs = List.map (advance ~fuel) runs in
    let s0 = List.hd syncs and r0 = List.hd runs in
    if differ = Layout && List.mem S_fuel syncs then S_fuel
    else begin
      List.iteri
        (fun i (r, s) ->
          try
            if s <> s0 then
              diverged "stops diverge: %s vs %s" (sync_to_string s0)
                (sync_to_string s);
            compare_at ~differ s0 r0 r
          with Diverged d ->
            diverged "at %s, machine 0 vs %d: %s" (sync_to_string s0) (i + 1) d)
        (List.tl (List.combine runs syncs));
      match s0 with
      | S_exit | S_kill | S_fault _ | S_fuel -> s0
      | S_syscall _ | S_preempt ->
          if s0 <> S_preempt then
            List.iter (fun r -> Cpu.set r.m.env.cpu R.result 0L) runs;
          Option.iter
            (fun draw ->
              let act = draw () in
              List.iter (fun r -> act r.m.env) runs)
            perturb;
          round ()
    end
  in
  try Ok (round ()) with Diverged d -> Error d

(* --- containment ------------------------------------------------------- *)

type outcome = Exited | Killed | Faulted of Fault.t | Out_of_fuel

exception Violation of violation

let run_contained ?(fuel = 20_000) ?interrupt
    ?(on_interrupt = round_trip ~scramble:None) env =
  (* the policy after the [steps]-th instruction, checked at the next
     boundary's consult (or when the fuel runs out) *)
  let steps = ref 0 in
  let check () =
    if !steps > 0 then begin
      if not (in_code env env.cpu.Cpu.pc) then
        raise (Violation (Pc_escape env.cpu.Cpu.pc));
      if (fuel - !steps + 1) mod 1024 = 0 && not (victim_intact env) then
        raise (Violation Victim_written)
    end
  in
  let fires () =
    check ();
    incr steps;
    match interrupt with Some i -> i () | None -> false
  in
  let tier = Reference (Some { fires; round_trip = on_interrupt }) in
  try
    let outcome =
      match lockstep ~differ:Identical ~fuel [ { (machine env) with tier } ] with
      | Error d -> raise (Violation (Resume_diverged d))
      | Ok S_exit -> Exited
      | Ok S_kill -> Killed
      | Ok (S_fault f) -> Faulted f
      | Ok _ ->
          check ();
          Out_of_fuel
    in
    match audit env with None -> Ok outcome | Some v -> Error v
  with Violation v -> Error v
