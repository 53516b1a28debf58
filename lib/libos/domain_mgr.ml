(* MMDSFI domain slots inside the enclave (§6 "Memory management").

   SGX1 cannot add, remove or re-permission enclave pages after EINIT, so
   the LibOS preallocates a fixed number of domain slots when the enclave
   is built. Each slot is the Figure-2a layout:

       [ C: code, RWX ][ G1: unmapped ][ D: data, RW ][ G2: unmapped ]

   Code pages must carry RWX because the loader writes binaries into
   them at runtime; MMDSFI (not hardware) is what keeps SIPs from
   writing code — see the code-injection analysis in §7. *)

open Occlum_machine

let guard = Occlum_oelf.Oelf.guard_size

type slot = {
  id : int;
  base : int;            (* absolute address of C *)
  code_size : int;
  data_size : int;
  mutable in_use : bool;
  mutable mapped : (int * int) list; (* SGX2: dynamically committed ranges *)
}

let c_base s = s.base
let d_base s = s.base + s.code_size + guard

type config = {
  max_domains : int;
  domain_code_size : int; (* bytes, page multiple *)
  domain_data_size : int;
}

let default_config =
  { max_domains = 16; domain_code_size = 256 * 1024;
    domain_data_size = 1024 * 1024 }

let slot_stride cfg = cfg.domain_code_size + guard + cfg.domain_data_size + guard

let domains_base = 0x10000 (* LibOS-reserved low pages *)

let enclave_size cfg =
  Occlum_util.Bytes_util.round_up
    (domains_base + (cfg.max_domains * slot_stride cfg))
    4096

type t = { cfg : config; slots : slot array }

(* Carve the slots out of a building enclave. On SGX1 every page is
   mapped now (pre-EINIT, §6 "Memory management"); on SGX2 the address
   space is only reserved and the loader EAUGs pages per binary. *)
let build cfg (enclave : Occlum_sgx.Enclave.t) ~data_perm =
  let dynamic = Occlum_sgx.Enclave.version enclave = Occlum_sgx.Enclave.Sgx2 in
  let slots =
    Array.init cfg.max_domains (fun i ->
        let base = domains_base + (i * slot_stride cfg) in
        if not dynamic then begin
          Occlum_sgx.Enclave.add_zero_pages enclave ~addr:base
            ~len:cfg.domain_code_size ~perm:Mem.perm_rwx;
          Occlum_sgx.Enclave.add_zero_pages enclave
            ~addr:(base + cfg.domain_code_size + guard)
            ~len:cfg.domain_data_size ~perm:data_perm
        end;
        { id = i + 1; base; code_size = cfg.domain_code_size;
          data_size = cfg.domain_data_size; in_use = false; mapped = [] })
  in
  { cfg; slots }

let acquire t =
  match Array.find_opt (fun s -> not s.in_use) t.slots with
  | None -> None
  | Some s ->
      s.in_use <- true;
      Some s

let release s = s.in_use <- false

let in_use_count t =
  Array.fold_left (fun acc s -> if s.in_use then acc + 1 else acc) 0 t.slots
