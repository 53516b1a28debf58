(* OELF: the executable format produced by the Occlum toolchain, checked
   and signed by the verifier, and loaded by the LibOS.

   Layout contract (mirrors §4.1/§6):
   - the code image is loaded at the base of the domain's C region; its
     first [trampoline_reserved] bytes are left empty by the linker and
     overwritten by the loader with the LibOS syscall trampoline;
   - the data image is loaded at the base of the D region, which is
     separated from C by an unmapped 4 KiB guard page (and followed by
     another); the linker and loader agree on that gap;
   - inside D: offset 0 holds the trampoline-pointer slot, the argv area
     follows, then globals, heap, and the stack at the top. *)

let magic = "OELF1\n"
let trampoline_reserved = 64
let guard_size = 4096

type t = {
  code : Bytes.t; (* code image; [0, trampoline_reserved) is loader-owned *)
  data : Bytes.t; (* initialized data image (header + argv + globals) *)
  data_region_size : int; (* full D size: data image + heap + stack *)
  heap_start : int;       (* offset in D where the heap zone begins *)
  stack_size : int;       (* stack lives at the top of D *)
  entry : int;            (* code offset of _start *)
  symbols : (string * int) list; (* function name -> code offset *)
  secret_ranges : (int * int) list;
      (* D-relative (offset, length) of data declared secret by the
         toolchain; the constant-time checker's taint sources. Covered
         by the signature so the annotation cannot be stripped. *)
  signature : string option;     (* verifier HMAC over signing_payload *)
}

let heap_zone t = (t.heap_start, t.data_region_size - t.stack_size)

(* The loader maps the code image into a page-rounded C region; D begins
   one guard page after it. Verifier and loader must agree on this. *)
let code_region_size t =
  Occlum_util.Bytes_util.round_up (Bytes.length t.code) 4096

let d_begin_rel t = code_region_size t + guard_size

(* Everything the signature covers: any bit-flip in code, data or layout
   invalidates it. *)
let signing_payload t =
  let b = Buffer.create (Bytes.length t.code + Bytes.length t.data + 256) in
  Buffer.add_string b magic;
  Buffer.add_string b
    (Printf.sprintf "code=%d;data=%d;dsize=%d;heap=%d;stack=%d;entry=%d;"
       (Bytes.length t.code) (Bytes.length t.data) t.data_region_size
       t.heap_start t.stack_size t.entry);
  List.iter (fun (n, off) -> Buffer.add_string b (Printf.sprintf "%s@%d;" n off)) t.symbols;
  List.iter
    (fun (off, len) ->
      Buffer.add_string b (Printf.sprintf "secret@%d+%d;" off len))
    t.secret_ranges;
  Buffer.add_bytes b t.code;
  Buffer.add_bytes b t.data;
  Buffer.contents b

let size t = Bytes.length t.code + Bytes.length t.data

let find_symbol t name = List.assoc_opt name t.symbols

(* --- serialization ----------------------------------------------------- *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let add_blob b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let to_string t =
  let b = Buffer.create (size t + 512) in
  Buffer.add_string b magic;
  add_u32 b t.data_region_size;
  add_u32 b t.heap_start;
  add_u32 b t.stack_size;
  add_u32 b t.entry;
  add_blob b (Bytes.to_string t.code);
  add_blob b (Bytes.to_string t.data);
  add_u32 b (List.length t.symbols);
  List.iter
    (fun (n, off) ->
      add_blob b n;
      add_u32 b off)
    t.symbols;
  add_u32 b (List.length t.secret_ranges);
  List.iter
    (fun (off, len) ->
      add_u32 b off;
      add_u32 b len)
    t.secret_ranges;
  (match t.signature with
  | None -> add_u32 b 0
  | Some s -> add_blob b s);
  Buffer.contents b

exception Malformed of string

let of_string s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Malformed "truncated");
    let p = !pos in
    pos := !pos + n;
    p
  in
  let u32 () =
    let p = need 4 in
    let v = Int32.to_int (String.get_int32_le s p) in
    if v < 0 then raise (Malformed "negative length");
    v
  in
  let blob () =
    let n = u32 () in
    let p = need n in
    String.sub s p n
  in
  let m = String.sub s (need (String.length magic)) (String.length magic) in
  if m <> magic then raise (Malformed "bad magic");
  let data_region_size = u32 () in
  let heap_start = u32 () in
  let stack_size = u32 () in
  let entry = u32 () in
  let code = Bytes.of_string (blob ()) in
  let data = Bytes.of_string (blob ()) in
  let nsyms = u32 () in
  let symbols = List.init nsyms (fun _ ->
      let n = blob () in
      let off = u32 () in
      (n, off))
  in
  let nsecrets = u32 () in
  let secret_ranges = List.init nsecrets (fun _ ->
      let off = u32 () in
      let len = u32 () in
      (off, len))
  in
  let sig_len_probe = blob () in
  let signature = if sig_len_probe = "" then None else Some sig_len_probe in
  if !pos <> String.length s then raise (Malformed "trailing bytes");
  { code; data; data_region_size; heap_start; stack_size; entry; symbols;
    secret_ranges; signature }
