(* Variable-length binary encoding of OASM instructions.

   Two properties the rest of the system depends on:

   1. cfi_label nonexistence (paper §4.2, property 3): the byte 0xF4
      opens a cfi_label and appears in NO other instruction's encoding.
      Opcode bytes are all < 0xF4, register/flag bytes are < 0x10, and
      immediate/displacement payloads are escaped: a payload byte 0xF4 is
      stored as 0xF3 with a bit set in a trailing fixup byte (itself
      always < 0x10). A byte-by-byte scan for the 4-byte magic therefore
      finds exactly the cfi_labels in any toolchain-produced binary.

   2. Variable length: different instructions have different sizes, so a
      jump into the middle of an instruction either decodes differently
      or fails to decode — precisely the hazard Stage-1 complete
      disassembly (Algorithm 1) must and does handle. *)

let cfi_magic = "\xF4\x1A\xBE\x11"

type error = Truncated | Bad_opcode of int | Bad_operand of string

let error_to_string = function
  | Truncated -> "truncated instruction"
  | Bad_opcode b -> Printf.sprintf "bad opcode 0x%02x" b
  | Bad_operand msg -> Printf.sprintf "bad operand: %s" msg

exception Decode_error of error

(* --- encoding helpers -------------------------------------------------- *)

let put_esc buf v n_bytes =
  (* Store [n_bytes] little-endian bytes of [v], escaping 0xF4, followed
     by ceil(n_bytes/4) fixup nibble bytes. *)
  let stored = Bytes.create n_bytes in
  let fix = Array.make ((n_bytes + 3) / 4) 0 in
  for i = 0 to n_bytes - 1 do
    let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
    if b = 0xF4 then begin
      Bytes.set stored i '\xF3';
      fix.(i / 4) <- fix.(i / 4) lor (1 lsl (i mod 4))
    end
    else Bytes.set stored i (Char.chr b)
  done;
  Buffer.add_bytes buf stored;
  Array.iter (fun f -> Buffer.add_char buf (Char.chr f)) fix

let put_esc32 buf v = put_esc buf (Int64.of_int v) 4
let put_esc64 buf v = put_esc buf v 8

let opcode_nop = 0x10
let opcode_mov_imm = 0x11
let opcode_mov_reg = 0x12
let opcode_load = 0x13
let opcode_store = 0x14
let opcode_push = 0x15
let opcode_pop = 0x16
let opcode_lea = 0x17
let opcode_alu_rr = 0x18
let opcode_alu_ri = 0x19
let opcode_cmp_rr = 0x1A
let opcode_cmp_ri = 0x1B
let opcode_jmp = 0x20
let opcode_jcc = 0x21
let opcode_call = 0x22
let opcode_jmp_reg = 0x23
let opcode_call_reg = 0x24
let opcode_jmp_mem = 0x25
let opcode_call_mem = 0x26
let opcode_ret = 0x27
let opcode_ret_imm = 0x28
let opcode_syscall_gate = 0x29
let opcode_hlt = 0x2A
let opcode_bndcl = 0x30
let opcode_bndcu = 0x31
let opcode_bndmk = 0x32
let opcode_bndmov = 0x33
let opcode_eexit = 0x40
let opcode_emodpe = 0x41
let opcode_eaccept = 0x42
let opcode_xrstor = 0x43
let opcode_wrfsbase = 0x44
let opcode_wrgsbase = 0x45
let opcode_vscatter = 0x50
let no_index = 0x1E

let alu_code : Insn.alu_op -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Divu -> 3 | Remu -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9

let alu_of_code = function
  | 0 -> Some Insn.Add | 1 -> Some Insn.Sub | 2 -> Some Insn.Mul
  | 3 -> Some Insn.Divu | 4 -> Some Insn.Remu | 5 -> Some Insn.And
  | 6 -> Some Insn.Or | 7 -> Some Insn.Xor | 8 -> Some Insn.Shl
  | 9 -> Some Insn.Shr | _ -> None

let cond_code : Insn.cond -> int = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let cond_of_code = function
  | 0 -> Some Insn.Eq | 1 -> Some Insn.Ne | 2 -> Some Insn.Lt
  | 3 -> Some Insn.Le | 4 -> Some Insn.Gt | 5 -> Some Insn.Ge | _ -> None

let put_mem buf (m : Insn.mem) =
  match m with
  | Sib { base; index; scale; disp } ->
      if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
        invalid_arg "Codec: scale must be 1/2/4/8";
      Buffer.add_char buf '\x00';
      Buffer.add_char buf (Char.chr (Reg.to_int base));
      Buffer.add_char buf
        (Char.chr (match index with None -> no_index | Some r -> Reg.to_int r));
      Buffer.add_char buf (Char.chr scale);
      put_esc32 buf disp
  | Rip_rel disp ->
      Buffer.add_char buf '\x01';
      put_esc32 buf disp
  | Abs addr ->
      Buffer.add_char buf '\x02';
      put_esc64 buf addr

let put_reg buf r = Buffer.add_char buf (Char.chr (Reg.to_int r))
let put_bnd buf b = Buffer.add_char buf (Char.chr (Reg.bnd_to_int b))

let check_size size =
  if size <> 1 && size <> 8 then invalid_arg "Codec: access size must be 1 or 8"

let encode_into buf (i : Insn.t) =
  let op c = Buffer.add_char buf (Char.chr c) in
  match i with
  | Nop -> op opcode_nop
  | Mov_imm (r, v) ->
      op opcode_mov_imm;
      put_reg buf r;
      put_esc64 buf v
  | Mov_reg (d, s) ->
      op opcode_mov_reg;
      put_reg buf d;
      put_reg buf s
  | Load { dst; src; size } ->
      check_size size;
      op opcode_load;
      put_reg buf dst;
      op size;
      put_mem buf src
  | Store { dst; src; size } ->
      check_size size;
      op opcode_store;
      put_reg buf src;
      op size;
      put_mem buf dst
  | Push r ->
      op opcode_push;
      put_reg buf r
  | Pop r ->
      op opcode_pop;
      put_reg buf r
  | Lea (r, m) ->
      op opcode_lea;
      put_reg buf r;
      put_mem buf m
  | Alu (o, d, O_reg s) ->
      op opcode_alu_rr;
      op (alu_code o);
      put_reg buf d;
      put_reg buf s
  | Alu (o, d, O_imm v) ->
      op opcode_alu_ri;
      op (alu_code o);
      put_reg buf d;
      put_esc64 buf v
  | Cmp (a, O_reg b) ->
      op opcode_cmp_rr;
      put_reg buf a;
      put_reg buf b
  | Cmp (a, O_imm v) ->
      op opcode_cmp_ri;
      put_reg buf a;
      put_esc64 buf v
  | Jmp rel ->
      op opcode_jmp;
      put_esc32 buf rel
  | Jcc (c, rel) ->
      op opcode_jcc;
      op (cond_code c);
      put_esc32 buf rel
  | Call rel ->
      op opcode_call;
      put_esc32 buf rel
  | Jmp_reg r ->
      op opcode_jmp_reg;
      put_reg buf r
  | Call_reg r ->
      op opcode_call_reg;
      put_reg buf r
  | Jmp_mem m ->
      op opcode_jmp_mem;
      put_mem buf m
  | Call_mem m ->
      op opcode_call_mem;
      put_mem buf m
  | Ret -> op opcode_ret
  | Ret_imm n ->
      op opcode_ret_imm;
      put_esc32 buf n
  | Syscall_gate -> op opcode_syscall_gate
  | Hlt -> op opcode_hlt
  | Bndcl (b, ea) ->
      op opcode_bndcl;
      put_bnd buf b;
      (match ea with
      | Ea_reg r ->
          op 0;
          put_reg buf r
      | Ea_mem m ->
          op 1;
          put_mem buf m)
  | Bndcu (b, ea) ->
      op opcode_bndcu;
      put_bnd buf b;
      (match ea with
      | Ea_reg r ->
          op 0;
          put_reg buf r
      | Ea_mem m ->
          op 1;
          put_mem buf m)
  | Bndmk (b, m) ->
      op opcode_bndmk;
      put_bnd buf b;
      put_mem buf m
  | Bndmov (d, s) ->
      op opcode_bndmov;
      put_bnd buf d;
      put_bnd buf s
  | Cfi_label id ->
      if Int32.compare id 0l < 0 || Int32.compare id 0x10000l >= 0 then
        invalid_arg "Codec: cfi_label domain id must be in [0, 65536)";
      Buffer.add_string buf cfi_magic;
      Buffer.add_char buf (Char.chr (Int32.to_int id land 0xFF));
      Buffer.add_char buf (Char.chr ((Int32.to_int id lsr 8) land 0xFF));
      Buffer.add_char buf '\x00';
      Buffer.add_char buf '\x00'
  | Eexit -> op opcode_eexit
  | Emodpe -> op opcode_emodpe
  | Eaccept -> op opcode_eaccept
  | Xrstor -> op opcode_xrstor
  | Wrfsbase r ->
      op opcode_wrfsbase;
      put_reg buf r
  | Wrgsbase r ->
      op opcode_wrgsbase;
      put_reg buf r
  | Vscatter { base; index; scale; src } ->
      op opcode_vscatter;
      put_reg buf base;
      put_reg buf index;
      op scale;
      put_reg buf src

let encode i =
  let buf = Buffer.create 16 in
  encode_into buf i;
  Buffer.contents buf

let length i = String.length (encode i)

(* --- decoding ----------------------------------------------------------- *)

type cursor = { data : Bytes.t; limit : int; mutable pos : int }

let byte cur =
  if cur.pos >= cur.limit then raise (Decode_error Truncated);
  let b = Char.code (Bytes.get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  b

let get_reg cur =
  let b = byte cur in
  if b >= Reg.count then raise (Decode_error (Bad_operand "register"));
  Reg.of_int b

let get_bnd cur =
  let b = byte cur in
  if b >= Reg.bnd_count then raise (Decode_error (Bad_operand "bound register"));
  Reg.bnd_of_int b

let get_esc cur n_bytes =
  let stored = Array.init n_bytes (fun _ -> byte cur) in
  let n_fix = (n_bytes + 3) / 4 in
  let fix = Array.init n_fix (fun _ -> byte cur) in
  Array.iter
    (fun f -> if f > 0x0F then raise (Decode_error (Bad_operand "fixup byte")))
    fix;
  let v = ref 0L in
  for i = n_bytes - 1 downto 0 do
    let b =
      if fix.(i / 4) land (1 lsl (i mod 4)) <> 0 then
        if stored.(i) = 0xF3 then 0xF4
        else raise (Decode_error (Bad_operand "fixup applied to non-escape byte"))
      else stored.(i)
    in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let get_esc32 cur =
  let v = get_esc cur 4 in
  (* sign-extend from 32 bits *)
  Int64.to_int (Int64.shift_right (Int64.shift_left v 32) 32)

let get_esc64 cur = get_esc cur 8

let get_mem cur : Insn.mem =
  match byte cur with
  | 0 ->
      let base = get_reg cur in
      let index_byte = byte cur in
      let index =
        if index_byte = no_index then None
        else if index_byte < Reg.count then Some (Reg.of_int index_byte)
        else raise (Decode_error (Bad_operand "index register"))
      in
      let scale = byte cur in
      if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
        raise (Decode_error (Bad_operand "scale"));
      let disp = get_esc32 cur in
      Sib { base; index; scale; disp }
  | 1 -> Rip_rel (get_esc32 cur)
  | 2 -> Abs (get_esc64 cur)
  | _ -> raise (Decode_error (Bad_operand "memory operand kind"))

let get_size cur =
  let s = byte cur in
  if s <> 1 && s <> 8 then raise (Decode_error (Bad_operand "access size"));
  s

let get_ea cur : Insn.ea =
  match byte cur with
  | 0 -> Ea_reg (get_reg cur)
  | 1 -> Ea_mem (get_mem cur)
  | _ -> raise (Decode_error (Bad_operand "effective-address kind"))

let decode_cursor cur : Insn.t =
  let opcode = byte cur in
  if opcode = 0xF4 then begin
    (* cfi_label: the remaining three magic bytes must match exactly. *)
    let m1 = byte cur and m2 = byte cur and m3 = byte cur in
    if m1 <> 0x1A || m2 <> 0xBE || m3 <> 0x11 then
      raise (Decode_error (Bad_opcode 0xF4));
    let b0 = byte cur and b1 = byte cur and b2 = byte cur and b3 = byte cur in
    if b2 <> 0 || b3 <> 0 then
      raise (Decode_error (Bad_operand "cfi_label domain id"));
    Cfi_label (Int32.of_int (b0 lor (b1 lsl 8)))
  end
  else if opcode = opcode_nop then Nop
  else if opcode = opcode_mov_imm then
    let r = get_reg cur in
    Mov_imm (r, get_esc64 cur)
  else if opcode = opcode_mov_reg then
    let d = get_reg cur in
    Mov_reg (d, get_reg cur)
  else if opcode = opcode_load then
    let dst = get_reg cur in
    let size = get_size cur in
    Load { dst; src = get_mem cur; size }
  else if opcode = opcode_store then
    let src = get_reg cur in
    let size = get_size cur in
    Store { dst = get_mem cur; src; size }
  else if opcode = opcode_push then Push (get_reg cur)
  else if opcode = opcode_pop then Pop (get_reg cur)
  else if opcode = opcode_lea then
    let r = get_reg cur in
    Lea (r, get_mem cur)
  else if opcode = opcode_alu_rr then
    let o = byte cur in
    match alu_of_code o with
    | None -> raise (Decode_error (Bad_operand "alu op"))
    | Some o ->
        let d = get_reg cur in
        Alu (o, d, O_reg (get_reg cur))
  else if opcode = opcode_alu_ri then
    let o = byte cur in
    match alu_of_code o with
    | None -> raise (Decode_error (Bad_operand "alu op"))
    | Some o ->
        let d = get_reg cur in
        Alu (o, d, O_imm (get_esc64 cur))
  else if opcode = opcode_cmp_rr then
    let a = get_reg cur in
    Cmp (a, O_reg (get_reg cur))
  else if opcode = opcode_cmp_ri then
    let a = get_reg cur in
    Cmp (a, O_imm (get_esc64 cur))
  else if opcode = opcode_jmp then Jmp (get_esc32 cur)
  else if opcode = opcode_jcc then
    let c = byte cur in
    match cond_of_code c with
    | None -> raise (Decode_error (Bad_operand "condition"))
    | Some c -> Jcc (c, get_esc32 cur)
  else if opcode = opcode_call then Call (get_esc32 cur)
  else if opcode = opcode_jmp_reg then Jmp_reg (get_reg cur)
  else if opcode = opcode_call_reg then Call_reg (get_reg cur)
  else if opcode = opcode_jmp_mem then Jmp_mem (get_mem cur)
  else if opcode = opcode_call_mem then Call_mem (get_mem cur)
  else if opcode = opcode_ret then Ret
  else if opcode = opcode_ret_imm then Ret_imm (get_esc32 cur)
  else if opcode = opcode_syscall_gate then Syscall_gate
  else if opcode = opcode_hlt then Hlt
  else if opcode = opcode_bndcl then
    let b = get_bnd cur in
    Bndcl (b, get_ea cur)
  else if opcode = opcode_bndcu then
    let b = get_bnd cur in
    Bndcu (b, get_ea cur)
  else if opcode = opcode_bndmk then
    let b = get_bnd cur in
    Bndmk (b, get_mem cur)
  else if opcode = opcode_bndmov then
    let d = get_bnd cur in
    Bndmov (d, get_bnd cur)
  else if opcode = opcode_eexit then Eexit
  else if opcode = opcode_emodpe then Emodpe
  else if opcode = opcode_eaccept then Eaccept
  else if opcode = opcode_xrstor then Xrstor
  else if opcode = opcode_wrfsbase then Wrfsbase (get_reg cur)
  else if opcode = opcode_wrgsbase then Wrgsbase (get_reg cur)
  else if opcode = opcode_vscatter then
    let base = get_reg cur in
    let index = get_reg cur in
    let scale = byte cur in
    if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
      raise (Decode_error (Bad_operand "scale"));
    Vscatter { base; index; scale; src = get_reg cur }
  else raise (Decode_error (Bad_opcode opcode))

let decode data ~pos ~limit =
  if pos < 0 || pos >= limit || limit > Bytes.length data then Error Truncated
  else
    let cur = { data; limit; pos } in
    match decode_cursor cur with
    | i -> Ok (i, cur.pos - pos)
    | exception Decode_error e -> Error e

(* Encode a whole program and return (bytes, offsets of each instruction). *)
let encode_program insns =
  let buf = Buffer.create 1024 in
  let offsets =
    List.map
      (fun i ->
        let off = Buffer.length buf in
        encode_into buf i;
        off)
      insns
  in
  (Buffer.to_bytes buf, offsets)
