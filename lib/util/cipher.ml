(* A ChaCha20-style stream cipher (RFC 8439 core, 20 rounds). This is the
   cost driver for everything the paper encrypts: SEFS blocks, EIP
   process-state transfer, and EIP inter-enclave IPC messages. Encryption
   is XOR with the keystream, so [encrypt] is its own inverse.

   Like {!Sha256}, the state lives in native ints masked to 32 bits to
   avoid Int32 boxing on the hot path. *)

let mask = 0xFFFFFFFF

let sigma0 = 0x61707865
let sigma1 = 0x3320646e
let sigma2 = 0x79622d32
let sigma3 = 0x6b206574

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let[@inline] quarter st a b c d =
  let ga = Array.unsafe_get st a and gb = Array.unsafe_get st b in
  let gc = Array.unsafe_get st c and gd = Array.unsafe_get st d in
  let ga = (ga + gb) land mask in
  let gd = rotl (gd lxor ga) 16 in
  let gc = (gc + gd) land mask in
  let gb = rotl (gb lxor gc) 12 in
  let ga = (ga + gb) land mask in
  let gd = rotl (gd lxor ga) 8 in
  let gc = (gc + gd) land mask in
  let gb = rotl (gb lxor gc) 7 in
  Array.unsafe_set st a ga;
  Array.unsafe_set st b gb;
  Array.unsafe_set st c gc;
  Array.unsafe_set st d gd

let le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let init = Array.make 16 0
let st = Array.make 16 0

let block ~key ~nonce ~counter out =
  init.(0) <- sigma0;
  init.(1) <- sigma1;
  init.(2) <- sigma2;
  init.(3) <- sigma3;
  for idx = 0 to 7 do
    init.(4 + idx) <- le32 key (idx * 4)
  done;
  init.(12) <- counter land mask;
  for idx = 0 to 2 do
    init.(13 + idx) <- le32 nonce (idx * 4)
  done;
  Array.blit init 0 st 0 16;
  for _round = 1 to 10 do
    quarter st 0 4 8 12;
    quarter st 1 5 9 13;
    quarter st 2 6 10 14;
    quarter st 3 7 11 15;
    quarter st 0 5 10 15;
    quarter st 1 6 11 12;
    quarter st 2 7 8 13;
    quarter st 3 4 9 14
  done;
  for idx = 0 to 15 do
    let v = (st.(idx) + init.(idx)) land mask in
    Bytes.unsafe_set out (idx * 4) (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set out ((idx * 4) + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set out ((idx * 4) + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set out ((idx * 4) + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  done

let key_size = 32
let nonce_size = 12

let check_sizes key nonce =
  if String.length key <> key_size then invalid_arg "Cipher: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Cipher: nonce must be 12 bytes"

let encrypt_sub ~key ~nonce data off len =
  check_sizes key nonce;
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Cipher.encrypt_sub";
  let ks = Bytes.create 64 in
  let counter = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    block ~key ~nonce ~counter:!counter ks;
    incr counter;
    let n = min 64 (len - !pos) in
    let base = off + !pos in
    for idx = 0 to n - 1 do
      Bytes.unsafe_set data (base + idx)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get data (base + idx))
            lxor Char.code (Bytes.unsafe_get ks idx)))
    done;
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
