(* A ChaCha20-style stream cipher (RFC 8439 core, 20 rounds). This is the
   cost driver for everything the paper encrypts: SEFS blocks, EIP
   process-state transfer, and EIP inter-enclave IPC messages. Encryption
   is XOR with the keystream, so [encrypt] is its own inverse.

   Each 32-bit state word sits in the high half of an [int64] whose low
   32 bits stay zero. A 64-bit add then wraps mod 2^32 with no mask, and
   a rotation is two shifts, a mask and an or, with none of the tag
   fix-ups native ints need. [encrypt_sub] parses the key and nonce once
   per call, and also runs the first round's column quarter-rounds 1-3
   once per call, since they never read the block counter. Per block the
   16 words live in local [int64] refs, which ocamlopt keeps unboxed in
   registers or stack slots, so a block allocates nothing; its keystream
   is XORed into the data as eight little-endian 64-bit words. No state
   is shared between calls. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* the words of "expand 32-byte k", high-placed *)
let sigma0 = 0x61707865_00000000L
let sigma1 = 0x3320646e_00000000L
let sigma2 = 0x79622d32_00000000L
let sigma3 = 0x6b206574_00000000L

let high = 0xFFFFFFFF_00000000L

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n)
    (Int64.logand (Int64.shift_right_logical x (32 - n)) high)

(* [b.[p .. p+7]] ^= the little-endian bytes of the word pair [lo], [hi]
   (both high-placed); the caller guarantees the span is in bounds. *)
let[@inline] xor_pair b p lo hi =
  let w = Int64.logor hi (Int64.shift_right_logical lo 32) in
  let w = if Sys.big_endian then swap64 w else w in
  set64u b p (Int64.logxor (get64u b p) w)

(* the little-endian 32-bit word of [s] at [off], high-placed *)
let[@inline] word s off =
  Int64.shift_left
    (Int64.of_int
       (Char.code s.[off]
       lor (Char.code s.[off + 1] lsl 8)
       lor (Char.code s.[off + 2] lsl 16)
       lor (Char.code s.[off + 3] lsl 24)))
    32

let key_size = 32
let nonce_size = 12

let check_sizes key nonce =
  if String.length key <> key_size then invalid_arg "Cipher: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Cipher: nonce must be 12 bytes"

let encrypt_sub ~key ~nonce data off len =
  check_sizes key nonce;
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Cipher.encrypt_sub";
  let k0 = word key 0 and k1 = word key 4 and k2 = word key 8 in
  let k3 = word key 12 and k4 = word key 16 and k5 = word key 20 in
  let k6 = word key 24 and k7 = word key 28 in
  let n0 = word nonce 0 and n1 = word nonce 4 and n2 = word nonce 8 in
  (* round 1's column quarter-rounds 1-3 read no counter: run them once *)
  let x1 = ref sigma1 and x5 = ref k1 and x9 = ref k5 and x13 = ref n0 in
  let x2 = ref sigma2 and x6 = ref k2 and x10 = ref k6 and x14 = ref n1 in
  let x3 = ref sigma3 and x7 = ref k3 and x11 = ref k7 and x15 = ref n2 in
  x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 16;
  x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 12;
  x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 8;
  x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 7;
  x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 16;
  x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 12;
  x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 8;
  x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 7;
  x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 16;
  x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 12;
  x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 8;
  x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 7;
  let c1 = !x1 and c2 = !x2 and c3 = !x3 and c5 = !x5 and c6 = !x6 in
  let c7 = !x7 and c9 = !x9 and c10 = !x10 and c11 = !x11 in
  let c13 = !x13 and c14 = !x14 and c15 = !x15 in
  (* a partial tail block's keystream lands here, then is XORed bytewise *)
  let ks = if len land 63 = 0 then Bytes.empty else Bytes.create 64 in
  let counter = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    let ctr = Int64.shift_left (Int64.of_int !counter) 32 in
    let x0 = ref sigma0 and x4 = ref k0 and x8 = ref k4 and x12 = ref ctr in
    let x1 = ref c1 and x5 = ref c5 and x9 = ref c9 and x13 = ref c13 in
    let x2 = ref c2 and x6 = ref c6 and x10 = ref c10 and x14 = ref c14 in
    let x3 = ref c3 and x7 = ref c7 and x11 = ref c11 and x15 = ref c15 in
    for double_round = 1 to 10 do
      (* columns; round 1's columns 1-3 ran before the loop *)
      x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 16;
      x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 12;
      x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 8;
      x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 7;
      if double_round > 1 then begin
        x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 16;
        x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 12;
        x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 8;
        x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 7;
        x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 16;
        x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 12;
        x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 8;
        x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 7;
        x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 16;
        x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 12;
        x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 8;
        x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 7
      end;
      (* diagonals *)
      x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 16;
      x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 12;
      x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 8;
      x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 7;
      x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 16;
      x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 12;
      x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 8;
      x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 7;
      x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 16;
      x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 12;
      x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 8;
      x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 7;
      x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 16;
      x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 12;
      x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 8;
      x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 7
    done;
    let n = min 64 (len - !pos) in
    (* a full block is XORed in place; a tail block goes through [ks] *)
    let dst = if n = 64 then data else ks in
    let p = if n = 64 then off + !pos else 0 in
    if n < 64 then Bytes.fill ks 0 64 '\000';
    xor_pair dst p (Int64.add !x0 sigma0) (Int64.add !x1 sigma1);
    xor_pair dst (p + 8) (Int64.add !x2 sigma2) (Int64.add !x3 sigma3);
    xor_pair dst (p + 16) (Int64.add !x4 k0) (Int64.add !x5 k1);
    xor_pair dst (p + 24) (Int64.add !x6 k2) (Int64.add !x7 k3);
    xor_pair dst (p + 32) (Int64.add !x8 k4) (Int64.add !x9 k5);
    xor_pair dst (p + 40) (Int64.add !x10 k6) (Int64.add !x11 k7);
    xor_pair dst (p + 48) (Int64.add !x12 ctr) (Int64.add !x13 n0);
    xor_pair dst (p + 56) (Int64.add !x14 n1) (Int64.add !x15 n2);
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
  let d = Sha256.digest (String.concat "" [ tag; ":"; string_of_int index ]) in
  String.sub d 0 nonce_size
