(* The Occlum ELF loader (§6). Beyond a classic loader's jobs it:
   1. admits only binaries verified AND signed by the Occlum verifier;
   2. rewrites the last four bytes of every cfi_label to the new SIP's
      domain id;
   3. injects the trampoline — the only way out of the MMDSFI sandbox —
      into the loader-reserved head of the code region and passes its
      address to the program (register r10, stored by _start);
   4. initializes the MPX bound registers for the domain's layout. *)

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

(* Patch every cfi_label's id field. *)
let patch_labels code domain_id =
  List.iter (patch_at code domain_id) (label_offsets code)

(* A binary that passed admission: parsed, its signature checked (unless
   the caller waived it, as Linux mode does) and its labels found. The
   type is abstract outside this module, so [load] never sees bytes that
   [admit] did not check. *)
type checked = { c_oelf : Occlum_oelf.Oelf.t; labels : int array }

let admit ~require_signature binary =
  let oelf = Occlum_oelf.Oelf.of_string binary in
  if require_signature && not (Occlum_verifier.Signer.check oelf) then
    fail "binary is not signed by the Occlum verifier";
  { c_oelf = oelf; labels = Array.of_list (label_offsets oelf.code) }

let checked_oelf c = c.c_oelf

(* [dynamic] carries the SGX2 enclave when pages are committed lazily
   (EDMM): the loader EAUGs exactly the pages this binary needs, so no
   scrubbing is required (fresh pages arrive zeroed) and the SIP's reach
   ends at its own last mapped page. *)
let load ?dynamic mem (slot : Domain_mgr.slot) (checked : checked) ~args =
  let oelf = checked.c_oelf in
  if Bytes.length oelf.code > slot.code_size then
    fail "code too large for the domain (%d > %d)" (Bytes.length oelf.code)
      slot.code_size;
  if oelf.data_region_size > slot.data_size then
    fail "data region too large for the domain (%d > %d)" oelf.data_region_size
      slot.data_size;
  let c_base = Domain_mgr.c_base slot and d_base = Domain_mgr.d_base slot in
  let domain_id = slot.id in
  let mapped_data_size =
    match dynamic with
    | None -> slot.data_size
    | Some enclave ->
        let code_len =
          Occlum_util.Bytes_util.round_up (max 4096 (Bytes.length oelf.code)) 4096
        in
        let data_len =
          Occlum_util.Bytes_util.round_up oelf.data_region_size 4096
        in
        Occlum_sgx.Enclave.eaug enclave ~addr:c_base ~len:code_len
          ~perm:Mem.perm_rwx;
        (try
           Occlum_sgx.Enclave.eaug enclave ~addr:d_base ~len:data_len
             ~perm:Mem.perm_rw
         with e ->
           (* all-or-nothing: without this, running out of EPC between
              the two EAUGs would strand the code range's pages until
              enclave teardown *)
           Occlum_sgx.Enclave.eremove_pages enclave ~addr:c_base
             ~len:code_len;
           raise e);
        slot.mapped <- [ (c_base, code_len); (d_base, data_len) ];
        data_len
  in
  (* scrub: a previous SIP may have run in this slot (SGX1 only — EAUG
     pages arrive zeroed); only the pages it, or this slot's last load,
     wrote hold anything *)
  if dynamic = None then begin
    Mem.scrub mem ~addr:c_base ~len:slot.code_size;
    Mem.scrub mem ~addr:d_base ~len:slot.data_size
  end;
  (* code image, with domain ids patched into the labels *)
  let code = Bytes.copy oelf.code in
  Array.iter (patch_at code domain_id) checked.labels;
  Mem.write_bytes_priv mem ~addr:c_base code;
  (* the trampoline overwrites the loader-reserved head *)
  Mem.fill_priv mem ~addr:c_base ~len:Occlum_oelf.Oelf.trampoline_reserved '\x00';
  let main_gate_seq =
    encode_seq
      [
        Insn.Cfi_label (Int32.of_int domain_id);
        Insn.Syscall_gate;
        Insn.Pop R.ret_scratch;
        Insn.Jmp_reg R.ret_scratch;
      ]
  in
  let sigreturn_seq =
    encode_seq [ Insn.Cfi_label (Int32.of_int domain_id); Insn.Syscall_gate ]
  in
  Mem.write_bytes_priv mem ~addr:(c_base + main_gate_off) main_gate_seq;
  Mem.write_bytes_priv mem ~addr:(c_base + sigreturn_gate_off) sigreturn_seq;
  Mem.write_bytes_priv mem ~addr:(c_base + thread_exit_gate_off) sigreturn_seq;
  (* data image + argv *)
  Mem.write_bytes_priv mem ~addr:d_base oelf.data;
  let arg_page =
    Mem.read_bytes_priv mem ~addr:d_base ~len:Occlum_oelf.Oelf.guard_size
  in
  Occlum_toolchain.Layout.write_args arg_page ~data_base:d_base args;
  Mem.write_bytes_priv mem ~addr:d_base arg_page;
  let label_size = 8 in
  {
    slot;
    oelf;
    entry_pc = c_base + oelf.entry;
    init_sp = d_base + oelf.data_region_size - 16;
    bnd0 = { Cpu.lower = Int64.of_int d_base;
             upper = Int64.of_int (d_base + mapped_data_size - 1) };
    bnd1 = (let v = cfi_label_value domain_id in { Cpu.lower = v; upper = v });
    main_gate = c_base + main_gate_off + label_size;
    sigreturn_gate = c_base + sigreturn_gate_off + label_size;
    thread_exit_gate = c_base + thread_exit_gate_off + label_size;
    label_value = cfi_label_value domain_id;
  }

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
