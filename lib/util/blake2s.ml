(* BLAKE2s-256 (RFC 7693): the MAC of {!Seal}, which SEFS, the cluster
   channels and the EPC pager seal through. Keyed BLAKE2s is a PRF on
   its own, so a tag is one pass over the message with no HMAC wrapper.

   The words are held as {!Cipher} holds ChaCha's: each 32-bit word sits
   in the high half of an [int64] whose low 32 bits stay zero, so a
   64-bit add wraps mod 2^32 with no mask and a rotation is three
   shifts and an or. [compress] keeps the 16 working words in local
   [int64] refs and the 16 message words in local [int64]s, which
   ocamlopt keeps unboxed in registers or stack slots; its 10 rounds are
   unrolled with each message word named, so a block allocates nothing.
   The chaining value stays in its buffer and is read again for the
   final XOR, which keeps it out of the registers the rounds need.
   Message and chaining words are loaded and stored as little-endian
   64-bit pairs (byte-swapped on big-endian hosts).

   A {!key} keeps the chaining value after its key block, so a tag
   starts from that midstate and compresses only the message. The one
   exception is the empty message, whose last block is the key block
   itself: [finalize] then compresses the key block as final. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external ( +: ) : int64 -> int64 -> int64 = "%int64_add"
external ( ^: ) : int64 -> int64 -> int64 = "%int64_xor"

let high = 0xFFFFFFFF_00000000L

(* [rotr x n] for a high-placed [x]: the low bits of the right shift
   drop out through the left shift, so no mask is needed *)
let[@inline] rotr x n =
  Int64.logor
    (Int64.shift_left (Int64.shift_right_logical x (32 + n)) 32)
    (Int64.shift_left x (32 - n))

(* the little-endian 64-bit word of [b] at [p]; its low half is the
   first 32-bit word, its high half the second *)
let[@inline] le64 b p =
  let w = get64u b p in
  if Sys.big_endian then swap64 w else w

let[@inline] set_le64 b p w = set64u b p (if Sys.big_endian then swap64 w else w)

(* the high-placed words [lo], [hi] as one 64-bit word whose
   little-endian bytes are theirs *)
let[@inline] pack lo hi = Int64.logor hi (Int64.shift_right_logical lo 32)

(* the IV (SHA-256's initial hash), high-placed *)
let iv0 = 0x6a09e667_00000000L
let iv1 = 0xbb67ae85_00000000L
let iv2 = 0x3c6ef372_00000000L
let iv3 = 0xa54ff53a_00000000L
let iv4 = 0x510e527f_00000000L
let iv5 = 0x9b05688c_00000000L
let iv6 = 0x1f83d9ab_00000000L
let iv7 = 0x5be0cd19_00000000L

let block_size = 64
let digest_size = 32

(* Compress the 64 bytes of [m] at [off] into the chaining value [h] (8
   little-endian words); [t] counts the message bytes up to the end of
   this block, and [final] marks the last block. *)
let compress h m off t final =
  let w = le64 h 0 in
  let v0 = ref (Int64.shift_left w 32) and v1 = ref (Int64.logand w high) in
  let w = le64 h 8 in
  let v2 = ref (Int64.shift_left w 32) and v3 = ref (Int64.logand w high) in
  let w = le64 h 16 in
  let v4 = ref (Int64.shift_left w 32) and v5 = ref (Int64.logand w high) in
  let w = le64 h 24 in
  let v6 = ref (Int64.shift_left w 32) and v7 = ref (Int64.logand w high) in
  let w = le64 m off in
  let m0 = Int64.shift_left w 32 and m1 = Int64.logand w high in
  let w = le64 m (off + 8) in
  let m2 = Int64.shift_left w 32 and m3 = Int64.logand w high in
  let w = le64 m (off + 16) in
  let m4 = Int64.shift_left w 32 and m5 = Int64.logand w high in
  let w = le64 m (off + 24) in
  let m6 = Int64.shift_left w 32 and m7 = Int64.logand w high in
  let w = le64 m (off + 32) in
  let m8 = Int64.shift_left w 32 and m9 = Int64.logand w high in
  let w = le64 m (off + 40) in
  let m10 = Int64.shift_left w 32 and m11 = Int64.logand w high in
  let w = le64 m (off + 48) in
  let m12 = Int64.shift_left w 32 and m13 = Int64.logand w high in
  let w = le64 m (off + 56) in
  let m14 = Int64.shift_left w 32 and m15 = Int64.logand w high in
  let v8 = ref iv0 and v9 = ref iv1 and v10 = ref iv2 and v11 = ref iv3 in
  let v12 = ref (iv4 ^: Int64.shift_left (Int64.of_int t) 32) in
  let v13 = ref (iv5 ^: Int64.shift_left (Int64.of_int (t lsr 32)) 32) in
  let v14 = ref (if final then Int64.logxor iv6 high else iv6) in
  let v15 = ref iv7 in
  (* round 0 *)
  v0 := !v0 +: !v4 +: m0; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m1; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m2; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m3; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m4; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m5; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m7; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m8; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m9; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m10; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m11; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m12; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m13; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m14; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m15; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 1 *)
  v0 := !v0 +: !v4 +: m14; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m10; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m4; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m8; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m9; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m15; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m13; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m1; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m12; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m0; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m2; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m11; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m7; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m5; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m3; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 2 *)
  v0 := !v0 +: !v4 +: m11; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m8; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m12; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m0; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m5; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m2; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m15; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m13; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m10; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m14; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m3; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m6; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m7; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m1; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m9; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m4; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 3 *)
  v0 := !v0 +: !v4 +: m7; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m9; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m3; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m1; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m13; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m12; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m11; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m14; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m2; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m6; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m5; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m10; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m4; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m0; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m15; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m8; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 4 *)
  v0 := !v0 +: !v4 +: m9; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m0; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m5; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m7; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m2; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m4; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m10; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m15; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m14; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m1; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m11; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m12; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m6; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m8; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m3; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m13; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 5 *)
  v0 := !v0 +: !v4 +: m2; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m12; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m6; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m10; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m0; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m11; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m8; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m3; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m4; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m13; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m7; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m5; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m15; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m14; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m1; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m9; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 6 *)
  v0 := !v0 +: !v4 +: m12; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m5; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m1; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m15; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m14; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m13; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m4; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m10; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m0; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m7; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m6; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m3; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m9; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m2; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m8; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m11; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 7 *)
  v0 := !v0 +: !v4 +: m13; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m11; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m7; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m14; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m12; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m1; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m3; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m9; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m5; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m0; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m15; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m4; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m8; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m6; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m2; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m10; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 8 *)
  v0 := !v0 +: !v4 +: m6; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m15; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m14; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m9; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m11; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m3; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m0; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m8; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m12; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m2; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m13; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m7; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m1; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m4; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m10; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m5; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* round 9 *)
  v0 := !v0 +: !v4 +: m10; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 12;
  v0 := !v0 +: !v4 +: m2; v12 := rotr (!v12 ^: !v0) 8;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 7;
  v1 := !v1 +: !v5 +: m8; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 12;
  v1 := !v1 +: !v5 +: m4; v13 := rotr (!v13 ^: !v1) 8;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 7;
  v2 := !v2 +: !v6 +: m7; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 12;
  v2 := !v2 +: !v6 +: m6; v14 := rotr (!v14 ^: !v2) 8;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 7;
  v3 := !v3 +: !v7 +: m1; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 12;
  v3 := !v3 +: !v7 +: m5; v15 := rotr (!v15 ^: !v3) 8;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 7;
  v0 := !v0 +: !v5 +: m15; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 12;
  v0 := !v0 +: !v5 +: m11; v15 := rotr (!v15 ^: !v0) 8;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 7;
  v1 := !v1 +: !v6 +: m9; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 12;
  v1 := !v1 +: !v6 +: m14; v12 := rotr (!v12 ^: !v1) 8;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 7;
  v2 := !v2 +: !v7 +: m3; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 12;
  v2 := !v2 +: !v7 +: m12; v13 := rotr (!v13 ^: !v2) 8;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 7;
  v3 := !v3 +: !v4 +: m13; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 12;
  v3 := !v3 +: !v4 +: m0; v14 := rotr (!v14 ^: !v3) 8;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 7;
  (* [h] still holds the input chaining value: XOR the two halves in *)
  set_le64 h 0 (le64 h 0 ^: pack (!v0 ^: !v8) (!v1 ^: !v9));
  set_le64 h 8 (le64 h 8 ^: pack (!v2 ^: !v10) (!v3 ^: !v11));
  set_le64 h 16 (le64 h 16 ^: pack (!v4 ^: !v12) (!v5 ^: !v13));
  set_le64 h 24 (le64 h 24 ^: pack (!v6 ^: !v14) (!v7 ^: !v15))

(* A key: the IV with the parameter block XORed in, the key zero-padded
   to a block (empty when unkeyed), and the chaining value after that
   block. *)
type key = { h0 : Bytes.t; block : Bytes.t; mid : Bytes.t }

(* [h0] for a key of [kk] bytes: parameter word 0 is the digest size,
   the key length, fanout 1 and depth 1 *)
let h0_of kk =
  let h = Bytes.create digest_size in
  let p0 = 0x01010000 lor (kk lsl 8) lor digest_size in
  set_le64 h 0 (pack (iv0 ^: Int64.shift_left (Int64.of_int p0) 32) iv1);
  set_le64 h 8 (pack iv2 iv3);
  set_le64 h 16 (pack iv4 iv5);
  set_le64 h 24 (pack iv6 iv7);
  h

let unkeyed =
  let h0 = h0_of 0 in
  { h0; block = Bytes.empty; mid = h0 }

let key k =
  let kk = String.length k in
  if kk < 1 || kk > digest_size then invalid_arg "Blake2s.key: 1 to 32 bytes";
  let h0 = h0_of kk in
  let block = Bytes.make block_size '\000' in
  Bytes.blit_string k 0 block 0 kk;
  let mid = Bytes.copy h0 in
  compress mid block 0 block_size false;
  { h0; block; mid }

type ctx = {
  key : key;
  h : Bytes.t;
  buf : Bytes.t;  (* the last, not yet compressed, 1-64 bytes *)
  mutable buf_len : int;
  mutable t : int;  (* bytes compressed, key block included *)
}

let start key =
  { key; h = Bytes.copy key.mid; buf = Bytes.create block_size; buf_len = 0;
    t = Bytes.length key.block }

(* A block is compressed only once more input follows it, since the last
   block must be compressed as final. *)
let feed_bytes c b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Blake2s.feed_bytes";
  let off = ref off and len = ref len in
  if c.buf_len > 0 && !len > block_size - c.buf_len then begin
    let fill = block_size - c.buf_len in
    Bytes.blit b !off c.buf c.buf_len fill;
    c.t <- c.t + block_size;
    compress c.h c.buf 0 c.t false;
    c.buf_len <- 0;
    off := !off + fill;
    len := !len - fill
  end;
  while !len > block_size do
    c.t <- c.t + block_size;
    compress c.h b !off c.t false;
    off := !off + block_size;
    len := !len - block_size
  done;
  Bytes.blit b !off c.buf c.buf_len !len;
  c.buf_len <- c.buf_len + !len

let feed c s = feed_bytes c (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize c =
  if c.buf_len = 0 && Bytes.length c.key.block > 0 then begin
    (* a keyed empty message: the key block is the last block *)
    Bytes.blit c.key.h0 0 c.h 0 digest_size;
    Bytes.blit c.key.block 0 c.buf 0 block_size;
    c.buf_len <- block_size;
    c.t <- 0
  end;
  Bytes.fill c.buf c.buf_len (block_size - c.buf_len) '\000';
  compress c.h c.buf 0 (c.t + c.buf_len) true;
  Bytes.to_string c.h

let mac key parts =
  let c = start key in
  List.iter (feed c) parts;
  finalize c

let digest s = mac unkeyed [ s ]
