(* Small byte-level helpers shared by the encoder, the binary format and
   the file system. *)

let hex_of_string s =
  let b = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let round_up n align =
  if align <= 0 then invalid_arg "round_up: align must be positive";
  (n + align - 1) / align * align

(* Find all occurrences of [needle] in [hay], including overlapping ones.
   Used by the verifier's byte-by-byte cfi_label scan (Algorithm 1, line 2)
   and the loader's label patching. [Bytes.index_from] jumps straight to
   each occurrence of the needle's first byte; only there is the rest
   compared. *)
let find_all ~needle hay =
  let nl = String.length needle and hl = Bytes.length hay in
  if nl = 0 then invalid_arg "find_all: empty needle";
  let first = String.unsafe_get needle 0 and last = hl - nl in
  let rec rest i j =
    j = nl || (Bytes.unsafe_get hay (i + j) = String.unsafe_get needle j && rest i (j + 1))
  in
  let rec scan from acc =
    if from > last then List.rev acc
    else
      match Bytes.index_from hay from first with
      | exception Not_found -> List.rev acc
      | i when i > last -> List.rev acc
      | i -> scan (i + 1) (if rest i 1 then i :: acc else acc)
  in
  scan 0 []

(* Does [needle] occur anywhere in [hay]? *)
let contains ~needle hay = find_all ~needle hay <> []

let take_prefix n s = String.sub s 0 (min n (String.length s))

(* constant-time comparison: accumulate the xor of all byte pairs *)
let equal_ct a b =
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0
