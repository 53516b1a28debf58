(* BLAKE2b-256 (RFC 7693): the MAC of {!Seal}, which SEFS, the cluster
   channels and the EPC pager seal through. Keyed BLAKE2b is a PRF on
   its own, so a tag is one pass over the message with no HMAC wrapper.

   BLAKE2b works on 64-bit words, which OCaml holds natively in an
   [int64]: an add wraps with no mask, and a rotation is two shifts and
   an or. [compress] keeps the 16 working words in local [int64] refs
   and the 16 message words in local [int64]s, which ocamlopt keeps
   unboxed in registers or stack slots; its 12 rounds are unrolled with
   each message word named, so a block allocates nothing. The chaining
   value stays in its buffer and is read again for the final XOR, which
   keeps it out of the registers the rounds need. Words are loaded and
   stored little-endian (byte-swapped on big-endian hosts).

   A {!key} keeps the chaining value after its key block, so a tag
   starts from that midstate and compresses only the message. The one
   exception is the empty message, whose last block is the key block
   itself: [finalize] then compresses the key block as final. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external ( +: ) : int64 -> int64 -> int64 = "%int64_add"
external ( ^: ) : int64 -> int64 -> int64 = "%int64_xor"

let[@inline] rotr x n =
  Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

(* the little-endian 64-bit word of [b] at [p] *)
let[@inline] le64 b p =
  let w = get64u b p in
  if Sys.big_endian then swap64 w else w

let[@inline] set_le64 b p w = set64u b p (if Sys.big_endian then swap64 w else w)

(* the IV (SHA-512's initial hash) *)
let iv0 = 0x6a09e667f3bcc908L
let iv1 = 0xbb67ae8584caa73bL
let iv2 = 0x3c6ef372fe94f82bL
let iv3 = 0xa54ff53a5f1d36f1L
let iv4 = 0x510e527fade682d1L
let iv5 = 0x9b05688c2b3e6c1fL
let iv6 = 0x1f83d9abfb41bd6bL
let iv7 = 0x5be0cd19137e2179L

let block_size = 128
let state_size = 64
let digest_size = 32

(* Compress the 128 bytes of [m] at [off] into the chaining value [h]
   (8 little-endian words); [t] counts the message bytes up to the end
   of this block, and [final] marks the last block. [t] is a
   non-negative OCaml int, so the high word of RFC 7693's 128-bit
   counter is always zero. *)
let compress h m off t final =
  let v0 = ref (le64 h 0) and v1 = ref (le64 h 8) in
  let v2 = ref (le64 h 16) and v3 = ref (le64 h 24) in
  let v4 = ref (le64 h 32) and v5 = ref (le64 h 40) in
  let v6 = ref (le64 h 48) and v7 = ref (le64 h 56) in
  let m0 = le64 m off and m1 = le64 m (off + 8) in
  let m2 = le64 m (off + 16) and m3 = le64 m (off + 24) in
  let m4 = le64 m (off + 32) and m5 = le64 m (off + 40) in
  let m6 = le64 m (off + 48) and m7 = le64 m (off + 56) in
  let m8 = le64 m (off + 64) and m9 = le64 m (off + 72) in
  let m10 = le64 m (off + 80) and m11 = le64 m (off + 88) in
  let m12 = le64 m (off + 96) and m13 = le64 m (off + 104) in
  let m14 = le64 m (off + 112) and m15 = le64 m (off + 120) in
  let v8 = ref iv0 and v9 = ref iv1 and v10 = ref iv2 and v11 = ref iv3 in
  let v12 = ref (iv4 ^: Int64.of_int t) and v13 = ref iv5 in
  let v14 = ref (if final then Int64.lognot iv6 else iv6) in
  let v15 = ref iv7 in
  (* round 0 *)
  v0 := !v0 +: !v4 +: m0; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m1; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m2; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m3; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m4; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m5; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m7; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m8; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m9; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m10; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m11; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m12; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m13; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m14; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m15; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 1 *)
  v0 := !v0 +: !v4 +: m14; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m10; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m4; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m8; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m9; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m15; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m13; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m1; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m12; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m0; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m2; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m11; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m7; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m5; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m3; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 2 *)
  v0 := !v0 +: !v4 +: m11; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m8; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m12; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m0; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m5; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m2; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m15; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m13; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m10; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m14; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m3; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m6; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m7; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m1; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m9; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m4; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 3 *)
  v0 := !v0 +: !v4 +: m7; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m9; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m3; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m1; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m13; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m12; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m11; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m14; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m2; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m6; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m5; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m10; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m4; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m0; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m15; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m8; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 4 *)
  v0 := !v0 +: !v4 +: m9; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m0; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m5; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m7; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m2; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m4; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m10; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m15; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m14; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m1; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m11; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m12; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m6; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m8; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m3; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m13; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 5 *)
  v0 := !v0 +: !v4 +: m2; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m12; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m6; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m10; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m0; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m11; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m8; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m3; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m4; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m13; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m7; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m5; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m15; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m14; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m1; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m9; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 6 *)
  v0 := !v0 +: !v4 +: m12; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m5; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m1; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m15; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m14; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m13; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m4; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m10; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m0; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m7; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m6; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m3; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m9; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m2; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m8; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m11; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 7 *)
  v0 := !v0 +: !v4 +: m13; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m11; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m7; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m14; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m12; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m1; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m3; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m9; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m5; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m0; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m15; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m4; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m8; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m6; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m2; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m10; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 8 *)
  v0 := !v0 +: !v4 +: m6; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m15; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m14; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m9; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m11; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m3; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m0; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m8; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m12; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m2; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m13; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m7; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m1; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m4; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m10; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m5; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 9 *)
  v0 := !v0 +: !v4 +: m10; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m2; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m8; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m4; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m7; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m6; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m1; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m5; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m15; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m11; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m9; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m14; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m3; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m12; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m13; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m0; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 10 *)
  v0 := !v0 +: !v4 +: m0; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m1; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m2; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m3; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m4; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m5; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m7; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m8; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m9; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m10; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m11; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m12; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m13; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m14; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m15; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* round 11 *)
  v0 := !v0 +: !v4 +: m14; v12 := rotr (!v12 ^: !v0) 32;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 24;
  v0 := !v0 +: !v4 +: m10; v12 := rotr (!v12 ^: !v0) 16;
  v8 := !v8 +: !v12; v4 := rotr (!v4 ^: !v8) 63;
  v1 := !v1 +: !v5 +: m4; v13 := rotr (!v13 ^: !v1) 32;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 24;
  v1 := !v1 +: !v5 +: m8; v13 := rotr (!v13 ^: !v1) 16;
  v9 := !v9 +: !v13; v5 := rotr (!v5 ^: !v9) 63;
  v2 := !v2 +: !v6 +: m9; v14 := rotr (!v14 ^: !v2) 32;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 24;
  v2 := !v2 +: !v6 +: m15; v14 := rotr (!v14 ^: !v2) 16;
  v10 := !v10 +: !v14; v6 := rotr (!v6 ^: !v10) 63;
  v3 := !v3 +: !v7 +: m13; v15 := rotr (!v15 ^: !v3) 32;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 24;
  v3 := !v3 +: !v7 +: m6; v15 := rotr (!v15 ^: !v3) 16;
  v11 := !v11 +: !v15; v7 := rotr (!v7 ^: !v11) 63;
  v0 := !v0 +: !v5 +: m1; v15 := rotr (!v15 ^: !v0) 32;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 24;
  v0 := !v0 +: !v5 +: m12; v15 := rotr (!v15 ^: !v0) 16;
  v10 := !v10 +: !v15; v5 := rotr (!v5 ^: !v10) 63;
  v1 := !v1 +: !v6 +: m0; v12 := rotr (!v12 ^: !v1) 32;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 24;
  v1 := !v1 +: !v6 +: m2; v12 := rotr (!v12 ^: !v1) 16;
  v11 := !v11 +: !v12; v6 := rotr (!v6 ^: !v11) 63;
  v2 := !v2 +: !v7 +: m11; v13 := rotr (!v13 ^: !v2) 32;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 24;
  v2 := !v2 +: !v7 +: m7; v13 := rotr (!v13 ^: !v2) 16;
  v8 := !v8 +: !v13; v7 := rotr (!v7 ^: !v8) 63;
  v3 := !v3 +: !v4 +: m5; v14 := rotr (!v14 ^: !v3) 32;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 24;
  v3 := !v3 +: !v4 +: m3; v14 := rotr (!v14 ^: !v3) 16;
  v9 := !v9 +: !v14; v4 := rotr (!v4 ^: !v9) 63;
  (* [h] still holds the input chaining value: XOR the two halves in *)
  set_le64 h 0 (le64 h 0 ^: !v0 ^: !v8);
  set_le64 h 8 (le64 h 8 ^: !v1 ^: !v9);
  set_le64 h 16 (le64 h 16 ^: !v2 ^: !v10);
  set_le64 h 24 (le64 h 24 ^: !v3 ^: !v11);
  set_le64 h 32 (le64 h 32 ^: !v4 ^: !v12);
  set_le64 h 40 (le64 h 40 ^: !v5 ^: !v13);
  set_le64 h 48 (le64 h 48 ^: !v6 ^: !v14);
  set_le64 h 56 (le64 h 56 ^: !v7 ^: !v15)

(* A key: the digest length, the IV with the parameter block XORed in,
   the key zero-padded to a block (empty when unkeyed), and the chaining
   value after that block. *)
type key = { nn : int; h0 : Bytes.t; block : Bytes.t; mid : Bytes.t }

(* [h0] for a digest of [nn] bytes under a key of [kk] bytes: parameter
   word 0 is the digest length, the key length, fanout 1 and depth 1 *)
let h0_of ~nn kk =
  let h = Bytes.create state_size in
  let p0 = 0x01010000 lor (kk lsl 8) lor nn in
  set_le64 h 0 (iv0 ^: Int64.of_int p0);
  set_le64 h 8 iv1;
  set_le64 h 16 iv2;
  set_le64 h 24 iv3;
  set_le64 h 32 iv4;
  set_le64 h 40 iv5;
  set_le64 h 48 iv6;
  set_le64 h 56 iv7;
  h

let key k =
  let kk = String.length k in
  if kk < 1 || kk > state_size then invalid_arg "Blake2b.key: 1 to 64 bytes";
  let h0 = h0_of ~nn:digest_size kk in
  let block = Bytes.make block_size '\000' in
  Bytes.blit_string k 0 block 0 kk;
  let mid = Bytes.copy h0 in
  compress mid block 0 block_size false;
  { nn = digest_size; h0; block; mid }

type ctx = {
  key : key;
  h : Bytes.t;
  buf : Bytes.t;  (* the last, not yet compressed, 1-128 bytes *)
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
    invalid_arg "Blake2b.feed_bytes";
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
    Bytes.blit c.key.h0 0 c.h 0 state_size;
    Bytes.blit c.key.block 0 c.buf 0 block_size;
    c.buf_len <- block_size;
    c.t <- 0
  end;
  Bytes.fill c.buf c.buf_len (block_size - c.buf_len) '\000';
  compress c.h c.buf 0 (c.t + c.buf_len) true;
  Bytes.sub_string c.h 0 c.key.nn

let mac key parts =
  let c = start key in
  List.iter (feed c) parts;
  finalize c

let digest512 s =
  let h0 = h0_of ~nn:state_size 0 in
  mac { nn = state_size; h0; block = Bytes.empty; mid = h0 } [ s ]
