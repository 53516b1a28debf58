(* A ChaCha20-style stream cipher (RFC 8439 core, 20 rounds). This is the
   cost driver for everything the paper encrypts: SEFS blocks, EIP
   process-state transfer, and EIP inter-enclave IPC messages. Encryption
   is XOR with the keystream, so [encrypt] is its own inverse.

   Like {!Sha256}, the state lives in native ints masked to 32 bits to
   avoid Int32 boxing on the hot path. [encrypt_sub] parses the key and
   nonce once per call, keeps the 16 state words in local variables
   through the rounds (local refs compile to registers or stack slots),
   and XORs each full 64-byte block into the data a 32-bit word at a
   time. No state is shared between calls. *)

let mask = 0xFFFFFFFF

let sigma0 = 0x61707865
let sigma1 = 0x3320646e
let sigma2 = 0x79622d32
let sigma3 = 0x6b206574

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* [b.[p .. p+3]] ^= the little-endian bytes of the 32-bit word [w];
   the caller guarantees the span is in bounds. *)
let[@inline] xor_word b p w =
  let w = Int32.of_int w in
  let w = if Sys.big_endian then swap32 w else w in
  set32u b p (Int32.logxor (get32u b p) w)

let le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let key_size = 32
let nonce_size = 12

let check_sizes key nonce =
  if String.length key <> key_size then invalid_arg "Cipher: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Cipher: nonce must be 12 bytes"

let encrypt_sub ~key ~nonce data off len =
  check_sizes key nonce;
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Cipher.encrypt_sub";
  let k0 = le32 key 0 and k1 = le32 key 4 and k2 = le32 key 8 in
  let k3 = le32 key 12 and k4 = le32 key 16 and k5 = le32 key 20 in
  let k6 = le32 key 24 and k7 = le32 key 28 in
  let n0 = le32 nonce 0 and n1 = le32 nonce 4 and n2 = le32 nonce 8 in
  (* a partial tail block's keystream lands here, then is XORed bytewise *)
  let ks = Bytes.create (if len land 63 = 0 then 0 else 64) in
  let counter = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    let ctr = !counter land mask in
    let x0 = ref sigma0 and x1 = ref sigma1 and x2 = ref sigma2 in
    let x3 = ref sigma3 and x4 = ref k0 and x5 = ref k1 and x6 = ref k2 in
    let x7 = ref k3 and x8 = ref k4 and x9 = ref k5 and x10 = ref k6 in
    let x11 = ref k7 and x12 = ref ctr and x13 = ref n0 and x14 = ref n1 in
    let x15 = ref n2 in
    for _double_round = 1 to 10 do
      (* columns *)
      x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 16;
      x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 12;
      x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 8;
      x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 7;
      x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 16;
      x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 12;
      x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 8;
      x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 7;
      x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 16;
      x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 12;
      x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 8;
      x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 7;
      x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 16;
      x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 12;
      x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 8;
      x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 7;
      (* diagonals *)
      x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 16;
      x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 12;
      x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 8;
      x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 7;
      x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 16;
      x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 12;
      x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 8;
      x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 7;
      x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 16;
      x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 12;
      x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 8;
      x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 7;
      x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 16;
      x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 12;
      x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 8;
      x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 7
    done;
    let n = min 64 (len - !pos) in
    (* a full block is XORed in place; a tail block goes through [ks] *)
    let dst = if n = 64 then data else ks in
    let p = if n = 64 then off + !pos else 0 in
    if n < 64 then Bytes.fill ks 0 64 '\000';
    xor_word dst p (!x0 + sigma0);
    xor_word dst (p + 4) (!x1 + sigma1);
    xor_word dst (p + 8) (!x2 + sigma2);
    xor_word dst (p + 12) (!x3 + sigma3);
    xor_word dst (p + 16) (!x4 + k0);
    xor_word dst (p + 20) (!x5 + k1);
    xor_word dst (p + 24) (!x6 + k2);
    xor_word dst (p + 28) (!x7 + k3);
    xor_word dst (p + 32) (!x8 + k4);
    xor_word dst (p + 36) (!x9 + k5);
    xor_word dst (p + 40) (!x10 + k6);
    xor_word dst (p + 44) (!x11 + k7);
    xor_word dst (p + 48) (!x12 + ctr);
    xor_word dst (p + 52) (!x13 + n0);
    xor_word dst (p + 56) (!x14 + n1);
    xor_word dst (p + 60) (!x15 + n2);
    if n < 64 then begin
      let base = off + !pos in
      for idx = 0 to n - 1 do
        Bytes.unsafe_set data (base + idx)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get data (base + idx))
              lxor Char.code (Bytes.unsafe_get ks idx)))
      done
    end;
    incr counter;
    pos := !pos + n
  done

let encrypt_bytes ~key ~nonce data =
  encrypt_sub ~key ~nonce data 0 (Bytes.length data)

let encrypt ~key ~nonce data =
  let b = Bytes.of_string data in
  encrypt_bytes ~key ~nonce b;
  Bytes.unsafe_to_string b

let derive_nonce tag index =
  (* Deterministic 12-byte nonce from a context tag and a block index. *)
  let d = Sha256.digest (Printf.sprintf "%s:%d" tag index) in
  String.sub d 0 nonce_size
