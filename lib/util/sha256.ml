(* SHA-256 implemented from FIPS 180-4. Used for enclave measurement
   (EEXTEND hashes every enclave page) and as the compression function of
   every HMAC: binary signatures, SEFS blocks, channel frames and EPC
   pages.

   The arithmetic uses native ints holding 32-bit values: OCaml Int32
   values are boxed and an Int32-based implementation is an order of
   magnitude slower, which would distort every enclave-creation
   benchmark. [compress] is written for word speed:
   - each big-endian message word is one 32-bit load plus a byte swap;
   - a rotation reads the doubled word [x lor (x lsl 32)]: for
     0 < n < 32 its bits n..n+31 are [rotr x n], and all of them sit
     below bit 63, so one shift per rotation suffices;
   - addition mod 2^32 reads only low bits, so intermediate sums carry
     garbage above bit 31 and are masked only where a value is stored;
   - the 64 rounds are unrolled by 8 with rotating variable roles, so a
     round updates two working variables instead of moving eight.

   No state is shared between contexts: the message schedule lives in
   [ctx], so contexts on different domains hash concurrently. *)

let mask = 0xFFFFFFFF

type ctx = {
  h : int array; (* 8 words of chaining state, 32-bit values in ints *)
  w : int array; (* the 64-word message schedule of the block in flight *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message length in bytes *)
}

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy ctx =
  {
    h = Array.copy ctx.h;
    w = Array.make 64 0;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
  }

(* The big-endian word at [b.[p .. p+3]]; the caller guarantees the span
   is in bounds. *)
let[@inline] be32 b p =
  let x = get32u b p in
  Int32.to_int (if Sys.big_endian then x else swap32 x) land mask

(* The functions below take 32-bit values and return sums whose bits above
   31 are garbage; only their low 32 bits are meaningful. *)
let[@inline] dbl x = x lor (x lsl 32)

let[@inline] sigma0 x =
  let d = dbl x in
  (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] sigma1 x =
  let d = dbl x in
  (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

let[@inline] big_sigma0 x =
  let d = dbl x in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] big_sigma1 x =
  let d = dbl x in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

(* [t1] of round [i] on working variables [e f g h]. [e] arrives last in
   a round, so its terms are added last, [big_sigma1] the longest. *)
let[@inline] t1 w i e f g h =
  h + Array.unsafe_get k i + Array.unsafe_get w i + ch e f g + big_sigma1 e

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (be32 block (off + (i * 4)))
  done;
  (* [w.(i - 2)] is the newest input, so its term is added last *)
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
        + sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 7)
        + sigma1 (Array.unsafe_get w (i - 2)))
       land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  (* Round [i] on roles (a b c d e f g h) adds t1 into d and makes h the
     new a; round [i+1] then runs on (h a b c d e f g). *)
  for j = 0 to 7 do
    let i = j * 8 in
    let t = t1 w i !e !f !g !hh in
    d := (!d + t) land mask;
    hh := (t + big_sigma0 !a + maj !a !b !c) land mask;
    let t = t1 w (i + 1) !d !e !f !g in
    c := (!c + t) land mask;
    g := (t + big_sigma0 !hh + maj !hh !a !b) land mask;
    let t = t1 w (i + 2) !c !d !e !f in
    b := (!b + t) land mask;
    f := (t + big_sigma0 !g + maj !g !hh !a) land mask;
    let t = t1 w (i + 3) !b !c !d !e in
    a := (!a + t) land mask;
    e := (t + big_sigma0 !f + maj !f !g !hh) land mask;
    let t = t1 w (i + 4) !a !b !c !d in
    hh := (!hh + t) land mask;
    d := (t + big_sigma0 !e + maj !e !f !g) land mask;
    let t = t1 w (i + 5) !hh !a !b !c in
    g := (!g + t) land mask;
    c := (t + big_sigma0 !d + maj !d !e !f) land mask;
    let t = t1 w (i + 6) !g !hh !a !b in
    f := (!f + t) land mask;
    b := (t + big_sigma0 !c + maj !c !d !e) land mask;
    let t = t1 w (i + 7) !f !g !hh !a in
    e := (!e + t) land mask;
    a := (t + big_sigma0 !b + maj !b !c !d) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx data off len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  if ctx.buf_len > 0 then begin
    let need = min (64 - ctx.buf_len) !len in
    Bytes.blit data !off ctx.buf ctx.buf_len need;
    ctx.buf_len <- ctx.buf_len + need;
    off := !off + need;
    len := !len - need;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress ctx data !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit data !off ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Pad in place: 0x80, zeros, then the 64-bit big-endian bit length in
   the last 8 bytes of the final block (a second block when fewer than 9
   bytes are left). *)
let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (64 - n - 1) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (56 - n - 1) '\x00';
  Bytes.set_int64_be buf 56 (Int64.shift_left (Int64.of_int ctx.total) 3);
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for idx = 0 to 7 do
    Bytes.set_int32_be out (idx * 4) (Int32.of_int ctx.h.(idx))
  done;
  Bytes.unsafe_to_string out

let digest_bytes data off len =
  let ctx = init () in
  feed_bytes ctx data off len;
  finalize ctx

let digest s = digest_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let to_hex d =
  let b = Buffer.create (String.length d * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b
