(* The Occlum ELF loader (§6), the one module that knows the SIP image
   format. Beyond a classic loader's jobs it:
   1. admits only binaries verified AND signed by the Occlum verifier;
   2. rewrites the last four bytes of every cfi_label to the new SIP's
      domain id;
   3. injects the trampoline — the only way out of the MMDSFI sandbox —
      into the loader-reserved head of the code region and passes its
      address to the program (register r10, stored by _start);
   4. initializes the MPX bound registers for the domain's layout.
   [build] makes the image without touching memory, so the fuzz
   environment and occlum_trace run SIP code on exactly the image [load]
   places for the LibOS. *)

open Occlum_machine
open Occlum_isa
module R = Occlum_toolchain.Codegen_regs

exception Load_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Load_error m)) fmt

let main_gate_off = 0
let sigreturn_gate_off = 32
let thread_exit_gate_off = 48

type image = {
  slot : Domain_mgr.slot;
  oelf : Occlum_oelf.Oelf.t;
  entry_pc : int;
  init_sp : int;
  bnd0 : Cpu.bound;
  bnd1 : Cpu.bound;
  main_gate : int;       (* absolute pc of the syscall gate instruction *)
  sigreturn_gate : int;
  thread_exit_gate : int;
  label_value : int64;   (* the 8-byte cfi_label encoding for this domain *)
}

let encode_seq insns =
  Bytes.of_string (String.concat "" (List.map Codec.encode insns))

let cfi_label_value domain_id =
  let b = Bytes.of_string (Codec.encode (Insn.Cfi_label (Int32.of_int domain_id))) in
  Bytes.get_int64_le b 0

(* The label starts of a code image: every occurrence of the magic
   with a whole label after it. In a verified binary the magic occurs
   exactly at label starts (codec invariant + Stage 1). *)
let label_offsets code =
  List.filter
    (fun off -> off + 8 <= Bytes.length code)
    (Occlum_util.Bytes_util.find_all ~needle:Codec.cfi_magic code)

let patch_at code domain_id off =
  Bytes.set code (off + 4) (Char.chr (domain_id land 0xFF));
  Bytes.set code (off + 5) (Char.chr ((domain_id lsr 8) land 0xFF));
  Bytes.set code (off + 6) '\x00';
  Bytes.set code (off + 7) '\x00'

(* A binary that passed admission: its signature checked (unless the
   caller waived it, as Linux mode does) and its labels found. The type
   is abstract outside this module, so [build] and [load] never see a
   binary that [admit] did not check. *)
type checked = { c_oelf : Occlum_oelf.Oelf.t; labels : int array }

let admit ~require_signature oelf =
  if require_signature && not (Occlum_verifier.Verify.signature_ok oelf) then
    fail "binary is not signed by the Occlum verifier";
  { c_oelf = oelf; labels = Array.of_list (label_offsets oelf.code) }

let checked_oelf c = c.c_oelf

let fitted_slot ~id ~base (oelf : Occlum_oelf.Oelf.t) =
  {
    Domain_mgr.id;
    base;
    code_size = Occlum_oelf.Oelf.code_region_size oelf;
    data_size = Occlum_util.Bytes_util.round_up oelf.data_region_size 4096;
    in_use = true;
    mapped = [];
  }

type built = { img : image; code : Bytes.t; data : Bytes.t }

(* The SIP image, built without touching memory. Code: the binary with
   every cfi_label carrying the domain id and the loader-reserved head
   replaced by the three gates (the trampoline). Data: the data image
   with argc/argv in its first page. *)
let build ?data_len (slot : Domain_mgr.slot) checked ~args =
  let oelf = checked.c_oelf in
  if Bytes.length oelf.code > slot.code_size then
    fail "code too large for the domain (%d > %d)" (Bytes.length oelf.code)
      slot.code_size;
  if oelf.data_region_size > slot.data_size then
    fail "data region too large for the domain (%d > %d)" oelf.data_region_size
      slot.data_size;
  let c_base = Domain_mgr.c_base slot and d_base = Domain_mgr.d_base slot in
  let domain_id = slot.id in
  let reserved = Occlum_oelf.Oelf.trampoline_reserved in
  let code = Bytes.make (max reserved (Bytes.length oelf.code)) '\x00' in
  Bytes.blit oelf.code 0 code 0 (Bytes.length oelf.code);
  Array.iter (patch_at code domain_id) checked.labels;
  Bytes.fill code 0 reserved '\x00';
  let label = Insn.Cfi_label (Int32.of_int domain_id) in
  let install off insns =
    let seq = encode_seq insns in
    Bytes.blit seq 0 code off (Bytes.length seq)
  in
  install main_gate_off
    [ label; Insn.Syscall_gate; Insn.Pop R.ret_scratch; Insn.Jmp_reg R.ret_scratch ];
  install sigreturn_gate_off [ label; Insn.Syscall_gate ];
  install thread_exit_gate_off [ label; Insn.Syscall_gate ];
  let guard = Occlum_oelf.Oelf.guard_size in
  let data = Bytes.make (max guard (Bytes.length oelf.data)) '\x00' in
  Bytes.blit oelf.data 0 data 0 (Bytes.length oelf.data);
  Occlum_toolchain.Layout.write_args data ~data_base:d_base args;
  let data_len = Option.value data_len ~default:slot.data_size in
  let label_size = 8 and label_value = cfi_label_value domain_id in
  let img =
    {
      slot;
      oelf;
      entry_pc = c_base + oelf.entry;
      init_sp = d_base + oelf.data_region_size - 16;
      bnd0 = { Cpu.lower = Int64.of_int d_base;
               upper = Int64.of_int (d_base + data_len - 1) };
      bnd1 = { Cpu.lower = label_value; upper = label_value };
      main_gate = c_base + main_gate_off + label_size;
      sigreturn_gate = c_base + sigreturn_gate_off + label_size;
      thread_exit_gate = c_base + thread_exit_gate_off + label_size;
      label_value;
    }
  in
  { img; code; data }

(* [dynamic] carries the SGX2 enclave when pages are committed lazily
   (EDMM): the loader EAUGs exactly the pages this binary needs, so no
   scrubbing is required (fresh pages arrive zeroed) and the SIP's reach
   ends at its own last mapped page. *)
let load ?dynamic mem (slot : Domain_mgr.slot) (checked : checked) ~args =
  let oelf = checked.c_oelf in
  let c_base = Domain_mgr.c_base slot and d_base = Domain_mgr.d_base slot in
  let round_page n = Occlum_util.Bytes_util.round_up n 4096 in
  let data_len = round_page oelf.data_region_size in
  let b =
    build ?data_len:(Option.map (fun _ -> data_len) dynamic) slot checked ~args
  in
  (match dynamic with
  | Some enclave ->
      let code_len = round_page (max 4096 (Bytes.length oelf.code)) in
      Occlum_sgx.Enclave.eaug enclave ~addr:c_base ~len:code_len
        ~perm:Mem.perm_rwx;
      (try
         Occlum_sgx.Enclave.eaug enclave ~addr:d_base ~len:data_len
           ~perm:Mem.perm_rw
       with e ->
         (* all-or-nothing: without this, running out of EPC between
            the two EAUGs would strand the code range's pages until
            enclave teardown *)
         Occlum_sgx.Enclave.eremove_pages enclave ~addr:c_base ~len:code_len;
         raise e);
      slot.mapped <- [ (c_base, code_len); (d_base, data_len) ];
      Mem.write_bytes_priv mem ~addr:c_base b.code;
      Mem.write_bytes_priv mem ~addr:d_base b.data
  | None ->
      (* a previous SIP may have run in this slot (SGX1 only — EAUG
         pages arrive zeroed): every byte past the image must read zero,
         and a page already holding its image bytes (the same binary
         respawned here) is left alone, keeping its JIT translations *)
      Mem.install mem ~addr:c_base ~len:slot.code_size b.code;
      Mem.install mem ~addr:d_base ~len:slot.data_size b.data);
  b.img

(* The labelled-entry rule (paper §6) for every transfer the LibOS makes
   into a SIP's code on its behalf — a gate's return, a signal handler, a
   thread entry: [addr + 8] lies in the domain's code and, when
   [labelled], [addr] opens with its cfi_label. It builds no closure,
   tuple or option, since the gate's return check runs on every syscall
   completion. *)
let entry_ok ~labelled mem (img : image) addr =
  let c0 = Domain_mgr.c_base img.slot in
  addr >= c0
  && addr + 8 <= c0 + img.slot.code_size
  && ((not labelled) || Int64.equal (Mem.read_u64_priv mem addr) img.label_value)

(* Paper §6: before the main gate returns to the SIP, the LibOS checks
   that the return address on the SIP's stack lies in its data region
   and names a cfi_label of the SIP's own domain. The gate pops that
   address and jumps to it with no cfi_guard of its own, so this check
   is what keeps a verified binary from reaching an arbitrary address
   through the gate. *)
let return_target_ok mem (img : image) (cpu : Cpu.t) =
  let sp = Int64.to_int (Cpu.get cpu Reg.sp) in
  sp >= Int64.to_int img.bnd0.lower
  && sp + 7 <= Int64.to_int img.bnd0.upper
  && entry_ok ~labelled:true mem img (Int64.to_int (Mem.read_u64_priv mem sp))

(* Apply the image to a CPU about to run the SIP's initial thread. *)
let init_cpu (img : image) (cpu : Cpu.t) =
  Bytes.fill cpu.regs 0 (Bytes.length cpu.regs) '\x00';
  cpu.pc <- img.entry_pc;
  Cpu.set cpu Reg.sp (Int64.of_int img.init_sp);
  Cpu.set cpu R.code_base (Int64.of_int (Domain_mgr.c_base img.slot));
  Cpu.set cpu R.data_base (Int64.of_int (Domain_mgr.d_base img.slot));
  (* trampoline address via "auxv" — handed to _start in r10 *)
  Cpu.set cpu R.ret_scratch
    (Int64.of_int (Domain_mgr.c_base img.slot + main_gate_off));
  Cpu.set_bnd cpu Reg.bnd0 img.bnd0;
  Cpu.set_bnd cpu Reg.bnd1 img.bnd1
