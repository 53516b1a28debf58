(* Unit and property tests for occlum_util: crypto primitives against
   published vectors, PRNG determinism, byte helpers. *)

open Occlum_util

let check = Alcotest.check Alcotest.string

let test_sha256_vectors () =
  check "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.to_hex (Sha256.digest ""));
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.digest "abc"));
  check "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.to_hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  (* a million 'a's, streamed in odd chunks *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.feed ctx chunk;
    fed := !fed + 997
  done;
  Sha256.feed ctx (String.make (1_000_000 - !fed) 'a');
  check "million-a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_streaming_equals_oneshot () =
  let data = String.init 10_000 (fun k -> Char.chr (k mod 251)) in
  let ctx = Sha256.init () in
  String.iteri (fun _ _ -> ()) data;
  let rec feed_pieces off =
    if off < String.length data then begin
      let n = min ((off mod 67) + 1) (String.length data - off) in
      Sha256.feed ctx (String.sub data off n);
      feed_pieces (off + n)
    end
  in
  feed_pieces 0;
  check "streamed" (Sha256.to_hex (Sha256.digest data))
    (Sha256.to_hex (Sha256.finalize ctx))

(* A digest of digests over every message of length 0 .. 1,100 cut from
   one byte pattern, which crosses the 55/56/64-byte padding edges and
   multi-block tails. Pinned from Python's hashlib:
     pat = bytes((i * 7 + 13) & 0xff for i in range(1101))
     sha256(b"".join(sha256(pat[:n]).digest() for n in range(1101))) *)
let test_sha256_digest_of_digests () =
  let pat = String.init 1101 (fun i -> Char.chr ((i * 7 + 13) land 0xff)) in
  let all = Sha256.init () in
  for n = 0 to 1100 do
    Sha256.feed all (Sha256.digest (String.sub pat 0 n))
  done;
  check "digest of digests"
    "ef8cbabcb5df3a6ba3237ede5afbdb9fc650bd1edfd4a09f0b09c39dbf0dba16"
    (Sha256.to_hex (Sha256.finalize all))

(* Contexts share no state: two domains hashing different inputs at once
   get the digests a sequential run gets. *)
let test_sha256_reentrant () =
  let input k = String.init (300 + k) (fun i -> Char.chr ((i * k) land 0xff)) in
  let run k () =
    let msg = input k and want = Sha256.digest (input k) in
    let ok = ref true in
    for _ = 1 to 1000 do
      if not (String.equal (Sha256.digest msg) want) then ok := false
    done;
    !ok
  in
  let d1 = Domain.spawn (run 3) and d2 = Domain.spawn (run 5) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 digests" true ok1;
  Alcotest.(check bool) "domain 2 digests" true ok2

let hmac_hex key msg = Sha256.to_hex (Hmac.mac (Hmac.key key) [ msg ])

let test_hmac () =
  check "rfc-ish"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (hmac_hex "key" "The quick brown fox jumps over the lazy dog");
  let k1 = Hmac.key "k1" in
  let tag = Hmac.mac k1 [ "hello" ] in
  Alcotest.(check bool) "verify ok" true (Hmac.verify k1 ~tag [ "hello" ]);
  Alcotest.(check bool) "bad key" false (Hmac.verify (Hmac.key "k2") ~tag [ "hello" ]);
  Alcotest.(check bool) "bad msg" false (Hmac.verify k1 ~tag [ "hellO" ]);
  Alcotest.(check bool) "bad tag" false
    (Hmac.verify k1 ~tag:(String.make 32 'x') [ "hello" ]);
  (* long keys are hashed down *)
  let long = Hmac.key (String.make 200 'K') in
  let tag2 = Hmac.mac long [ "m" ] in
  Alcotest.(check bool) "long key" true (Hmac.verify long ~tag:tag2 [ "m" ])

(* RFC 4231 test cases 1-7; the tags were recomputed with Python's
   hmac/hashlib (case 5 is the full tag, whose first 16 bytes are the
   RFC's truncated value). Cases 6 and 7 use a 131-byte key. *)
let test_hmac_rfc4231 () =
  let cases =
    [
      ( String.make 20 '\x0b', "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe", "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa', String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( String.make 20 '\x0c', "Test With Truncation",
        "a3b6167473100ee06e0c796c2955552bfa6f7c0a6a8aef8b93f860aab0cd20c5" );
      ( String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( String.make 131 '\xaa',
        "This is a test using a larger than block-size key and a larger than \
         block-size data. The key needs to be hashed before being used by the \
         HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ]
  in
  List.iteri
    (fun i (key, msg, want) ->
      check (Printf.sprintf "rfc4231 case %d" (i + 1)) want (hmac_hex key msg))
    cases

let test_chacha_vector () =
  (* RFC 8439 §2.4.2, adjusted for our counter starting at 0 *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plain =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one \
     tip for the future, sunscreen would be it."
  in
  let padded = Bytes.of_string (String.make 64 '\x00' ^ plain) in
  Cipher.encrypt_bytes ~key ~nonce padded;
  let c = Bytes.sub_string padded 64 (String.length plain) in
  check "rfc8439 2.4.2 ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
     f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
     07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
     5af90bbf74a35be6b40b8eedf2785e42874d"
    (Bytes_util.hex_of_string c)

let test_chacha_block_vector () =
  (* RFC 8439 §2.3.2: the keystream block at counter 1 is bytes 64..127
     of the keystream, which is what encrypting zeros yields *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let ks = Cipher.encrypt ~key ~nonce (String.make 128 '\x00') in
  check "rfc8439 2.3.2 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Bytes_util.hex_of_string (String.sub ks 64 64))

let test_cipher_roundtrip () =
  let key = Sha256.digest "k" and nonce = Cipher.derive_nonce "t" 7 in
  let data = String.init 3000 (fun k -> Char.chr ((k * 31) mod 256)) in
  let enc = Cipher.encrypt ~key ~nonce data in
  Alcotest.(check bool) "changed" true (enc <> data);
  check "roundtrip" data (Cipher.encrypt ~key ~nonce enc)

let test_cipher_sizes () =
  Alcotest.check_raises "bad key" (Invalid_argument "Cipher: key must be 32 bytes")
    (fun () -> ignore (Cipher.encrypt ~key:"short" ~nonce:(String.make 12 'n') "x"));
  Alcotest.check_raises "bad nonce"
    (Invalid_argument "Cipher: nonce must be 12 bytes") (fun () ->
      ignore (Cipher.encrypt ~key:(String.make 32 'k') ~nonce:"n" "x"))

let test_prng () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "deterministic" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "seed matters" true
    (Prng.next_int64 (Prng.create 42) <> Prng.next_int64 c);
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int a 0))

let test_bytes_util () =
  Alcotest.(check (list int)) "find_all overlapping" [ 0; 1; 2 ]
    (Bytes_util.find_all ~needle:"aa" (Bytes.of_string "aaaa"));
  Alcotest.(check (list int)) "find_all none" []
    (Bytes_util.find_all ~needle:"xyz" (Bytes.of_string "aaaa"));
  Alcotest.(check int) "round_up" 8192 (Bytes_util.round_up 4097 4096);
  Alcotest.(check int) "round_up exact" 4096 (Bytes_util.round_up 4096 4096);
  Alcotest.(check bool) "contains" true
    (Bytes_util.contains ~needle:"bc" (Bytes.of_string "abcd"));
  Alcotest.(check string) "take_prefix" "ab" (Bytes_util.take_prefix 2 "abcd");
  Alcotest.(check string) "take_prefix short" "ab" (Bytes_util.take_prefix 9 "ab")

let prop_find_all_correct =
  QCheck.Test.make ~name:"find_all finds exactly the occurrences" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 3)) (string_of_size (Gen.int_range 0 60)))
    (fun (needle, hay) ->
      QCheck.assume (String.length needle > 0);
      let hits = Bytes_util.find_all ~needle (Bytes.of_string hay) in
      let nl = String.length needle in
      List.for_all (fun off -> String.sub hay off nl = needle) hits
      && List.length hits
         = List.length
             (List.filter
                (fun off ->
                  off + nl <= String.length hay && String.sub hay off nl = needle)
                (List.init (max 0 (String.length hay)) Fun.id)))

(* The scan that [find_all] replaced: compare the needle at every
   position. [find_all] must return exactly its list. *)
let naive_find_all ~needle hay =
  let nl = String.length needle in
  List.filter
    (fun i -> Bytes.sub_string hay i nl = needle)
    (List.init (max 0 (Bytes.length hay - nl + 1)) Fun.id)

(* Differential against the naive scan over a three-letter alphabet (so
   first-byte hits, partial matches and overlaps are common), needles up
   to the cfi_label magic's length and longer than the haystack. *)
let prop_find_all_differential =
  let alpha = QCheck.Gen.oneofl [ 'a'; 'b'; '\x00' ] in
  QCheck.Test.make ~name:"find_all = naive scan (randomized differential)"
    ~count:1000
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 1 5) alpha)
        (string_gen_of_size (Gen.int_range 0 200) alpha))
    (fun (needle, hay) ->
      let hay = Bytes.of_string hay in
      Bytes_util.find_all ~needle hay = naive_find_all ~needle hay)

let prop_cipher_involution =
  QCheck.Test.make ~name:"cipher is an involution" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun data ->
      let key = Occlum_util.Sha256.digest "prop" in
      let nonce = Cipher.derive_nonce "prop" 1 in
      Cipher.encrypt ~key ~nonce (Cipher.encrypt ~key ~nonce data) = data)

(* [encrypt_sub] on a span at an odd offset equals [encrypt] of that
   substring (keystream from block 0 whatever the offset), leaves the
   bytes around the span alone, and undoes itself. *)
let prop_cipher_sub_equals_encrypt =
  QCheck.Test.make ~name:"encrypt_sub at odd offsets = encrypt of the span"
    ~count:200
    QCheck.(triple (int_range 0 300) (int_range 0 9) small_nat)
    (fun (len, pad, seed) ->
      let off = (2 * pad) + 1 in
      let buf =
        Bytes.init (off + len + 3) (fun k -> Char.chr ((k * 7 + seed) land 0xFF))
      in
      let orig = Bytes.to_string buf in
      let key = Sha256.digest (string_of_int seed) in
      let nonce = Cipher.derive_nonce "sub" seed in
      Cipher.encrypt_sub ~key ~nonce buf off len;
      let want = Cipher.encrypt ~key ~nonce (String.sub orig off len) in
      let once = Bytes.to_string buf in
      Cipher.encrypt_sub ~key ~nonce buf off len;
      String.sub once off len = want
      && String.sub once 0 off = String.sub orig 0 off
      && String.sub once (off + len) 3 = String.sub orig (off + len) 3
      && Bytes.to_string buf = orig)

(* --- an independent oracle for the cipher kernel ----------------------- *)

(* The previous [Cipher.encrypt_sub], kept verbatim as a reference: the
   state in native ints masked to 32 bits, the keystream XORed a 32-bit
   word at a time. The current kernel must match it byte for byte. *)
module Ref_chacha = struct
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
end

(* Random keys, nonces, offsets and data; lengths 0-300 (every tail
   length) and several multi-block ones, tail or none. *)
let arb_kernel_case =
  let open QCheck.Gen in
  let len =
    frequency
      [ (6, int_range 0 300);
        (1, oneofl [ 511; 512; 513; 1024; 4095; 4096; 4097; 9000 ]) ]
  in
  QCheck.make
    ~print:(fun (key, nonce, off, len, seed) ->
      Printf.sprintf "key=%s nonce=%s off=%d len=%d seed=%d"
        (Bytes_util.hex_of_string key) (Bytes_util.hex_of_string nonce) off len
        seed)
    (map
       (fun ((key, nonce), (off, len, seed)) -> (key, nonce, off, len, seed))
       (pair
          (pair (string_size (return 32)) (string_size (return 12)))
          (triple (int_range 0 9) len nat)))

let prop_cipher_matches_reference =
  QCheck.Test.make ~name:"encrypt_sub = the 32-bit reference kernel"
    ~count:300 arb_kernel_case (fun (key, nonce, off, len, seed) ->
      let st = Random.State.make [| seed |] in
      let buf =
        Bytes.init (off + len + 3) (fun _ -> Char.chr (Random.State.bits st land 0xff))
      in
      let want = Bytes.copy buf in
      Cipher.encrypt_sub ~key ~nonce buf off len;
      Ref_chacha.encrypt_sub ~key ~nonce want off len;
      Bytes.equal buf want)

(* A block keeps its 16 state words in unboxed [int64] refs. Should an
   edit let one escape, ocamlopt boxes it and every round allocates: the
   64 blocks of a 4 KiB call would then cost thousands of words. *)
let test_cipher_allocation () =
  let key = Sha256.digest "alloc" and nonce = Cipher.derive_nonce "alloc" 0 in
  let page = Bytes.make 4096 'a' in
  Cipher.encrypt_sub ~key ~nonce page 0 4096;
  let before = Gc.minor_words () in
  Cipher.encrypt_sub ~key ~nonce page 0 4096;
  let words = Gc.minor_words () -. before in
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "4 KiB allocated %.0f words, at most 4" words)
        true (words <= 4.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* Parts are MAC'd as their concatenation, whatever the split. *)
let prop_hmac_parts =
  QCheck.Test.make ~name:"hmac of parts = hmac of their concatenation"
    ~count:300
    QCheck.(
      pair (string_of_size (Gen.int_range 0 100))
        (small_list (string_of_size (Gen.int_range 0 150))))
    (fun (secret, parts) ->
      let key = Hmac.key secret in
      String.equal (Hmac.mac key parts) (Hmac.mac key [ String.concat "" parts ]))

(* --- BLAKE2b --------------------------------------------------------------- *)

(* RFC 7693 Appendix A: BLAKE2b-512("abc"). The last row of SIGMA
   drives only round 9 of the 12, and a wrong row still gets most output
   words right, so the whole digest is compared. *)
let test_blake2b_rfc7693 () =
  check "abc"
    ("ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
   ^ "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")
    (Sha256.to_hex (Blake2b.digest512 "abc"))

(* Keyed BLAKE2b-256 (digest length 32, not a truncated BLAKE2b-512)
   around the block edges, pinned from Python's hashlib:
     pat = bytes((i * 7 + 13) & 0xff for i in range(n))
     key = bytes(i + 1 for i in range(k))
     hashlib.blake2b(pat, key=key, digest_size=32).hexdigest() *)
let blake2b_pat n = String.init n (fun i -> Char.chr ((i * 7 + 13) land 0xff))
let blake2b_key k = String.init k (fun i -> Char.chr (i + 1))

let test_blake2b_vectors () =
  let cases =
    [
      (1, 0, "39baa6ec1392eb910204adfac63cbd8561c2a78c0834d9a2fe5e549bbc80bd5f");
      (1, 1, "34ba9b0c62285edfe96c0bc241e8f6f445773e6ac4bf878dec76cc43da004ac3");
      (1, 127, "b90ead6b2e51957522257b513e8596a62cd50f9cab75a27a31b1fabf97e5eaac");
      (1, 128, "2537814b740ddfcec6d1ecb4c76964d17a47d185949b23c892f1fa3def5ce5a5");
      (1, 129, "b9ea80a227cfc33c9065732ed7b7b937d1856d3549594165c6bfb4cfebf4dfb0");
      (1, 256, "4aea17ce69efca75cbd779ec1cd4b82e8b3d4a48cae5d2bf65f81225d4ce8588");
      (1, 4096, "d5624e0a0e3cb0023709ee01b6fc4ed3125dcf7d1dd74732deca3b0a0129a044");
      (32, 0, "6689399b55d2c998473a55fa741f5c0bd91c49e7d15cc211482a37d75a9d95a0");
      (32, 1, "2a54dbdf3945511ee6a34ce1a7a4324fae1bab7bc04843a2220ba13ce505baee");
      (32, 127, "335e8c6369cc89fbdb2ba24da848fc61af8b2a648f31027293fa83c54a2db77c");
      (32, 128, "f5f2e1ac82f43a7d075a7748ea6ef878bd69f3d912e5bc9a4d5138a750ac87d8");
      (32, 129, "1e43afef36bf932132482a038359c0d2bfa5af9a1ef3c93da5d67535d7106ea9");
      (32, 256, "494ca6a85dc2cf5092543cfdde69a827dbd55c5784aa11ea3bc8b861df633226");
      (32, 4096, "91bd247e0e3bd66dfe4d86714bc83d025d3a68e42fec1a420e435769b1c61fc3");
      (64, 0, "dc16561bf530a35b294666542bec29bc08d7b0845172e5e4742e182d5808211f");
      (64, 1, "2352b3653827bcb6596c4a22de844eab7718a3dead9bba10e4a52befb9adbc29");
      (64, 127, "01ee027334dbbebe09f1f16d0460b751148cac69a6bb0ada5f530755adc6aa14");
      (64, 128, "a1fbcc836b0cd4328e8e7c3ab5595201bffb1a6b3b2e927c3a84beacecd495b6");
      (64, 129, "2f131c6f0686d9a44249960ec8ea8a43540a5945adc9a5387136dc49ce1f113e");
      (64, 256, "792ca225783d99af438b17ff6b191134ecaa1f8d7be32709478643d8c89dc1d8");
      (64, 4096, "acb41089355e45b90100a874d25c8bef6bb899ac675b55ce50eaeb4dad79c0c0");
    ]
  in
  List.iter
    (fun (k, n, want) ->
      check (Printf.sprintf "key %d, length %d" k n) want
        (Sha256.to_hex (Blake2b.mac (Blake2b.key (blake2b_key k)) [ blake2b_pat n ])))
    cases

(* A keyed empty message is the one whose last block is the key block;
   every spelling of it gives the pinned tag, and a prepared key stays
   usable after it. *)
let test_blake2b_keyed_empty () =
  let k = Blake2b.key (blake2b_key 32) in
  let want = "6689399b55d2c998473a55fa741f5c0bd91c49e7d15cc211482a37d75a9d95a0" in
  check "no parts" want (Sha256.to_hex (Blake2b.mac k []));
  check "empty parts" want (Sha256.to_hex (Blake2b.mac k [ ""; "" ]));
  let c = Blake2b.start k in
  Blake2b.feed_bytes c (Bytes.of_string "xyz") 1 0;
  check "empty span" want (Sha256.to_hex (Blake2b.finalize c));
  check "key reused" "2a54dbdf3945511ee6a34ce1a7a4324fae1bab7bc04843a2220ba13ce505baee"
    (Sha256.to_hex (Blake2b.mac k [ blake2b_pat 1 ]));
  Alcotest.check_raises "empty key" (Invalid_argument "Blake2b.key: 1 to 64 bytes")
    (fun () -> ignore (Blake2b.key ""));
  Alcotest.check_raises "65-byte key" (Invalid_argument "Blake2b.key: 1 to 64 bytes")
    (fun () -> ignore (Blake2b.key (String.make 65 'k')))

(* Feeding a message in random pieces, as strings or as spans of a
   larger buffer, gives the one-shot tag. *)
let prop_blake2b_splits =
  QCheck.Test.make ~name:"blake2b: any split of the input = one shot"
    ~count:300
    QCheck.(
      triple (int_range 1 64)
        (string_of_size (Gen.int_range 0 700))
        (small_list small_nat))
    (fun (kl, msg, cuts) ->
      let k = Blake2b.key (blake2b_key kl) in
      let c = Blake2b.start k in
      let framed = Bytes.of_string ("<<" ^ msg ^ ">") in
      let pos = ref 0 in
      List.iter
        (fun cut ->
          let n = min cut (String.length msg - !pos) in
          if n mod 2 = 0 then Blake2b.feed c (String.sub msg !pos n)
          else Blake2b.feed_bytes c framed (2 + !pos) n;
          pos := !pos + n)
        cuts;
      Blake2b.feed c (String.sub msg !pos (String.length msg - !pos));
      String.equal (Blake2b.finalize c) (Blake2b.mac k [ msg ]))

(* A block keeps its working words in unboxed [int64] refs and its
   message words in unboxed locals. Should an edit let one escape,
   ocamlopt boxes it: the 32 blocks of a 4 KiB tag would then cost
   thousands of words, against the few dozen of one context and its
   tag. *)
let test_blake2b_allocation () =
  let k = Blake2b.key (String.make 32 'k') in
  let page = String.make 4096 'p' and label = "blk:7:1" in
  ignore (Blake2b.mac k [ label; page ]);
  let before = Gc.minor_words () in
  ignore (Blake2b.mac k [ label; page ]);
  let words = Gc.minor_words () -. before in
  match Sys.backend_type with
  | Sys.Native ->
      Alcotest.(check bool)
        (Printf.sprintf "4 KiB tag allocated %.0f words, at most 64" words)
        true (words <= 64.)
  | Sys.Bytecode | Sys.Other _ -> ()

(* --- the sealing construction ----------------------------------------- *)

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let arb_sealing =
  QCheck.(
    quad (string_of_size (Gen.int_range 0 40))
      (string_of_size (Gen.int_range 1 30))
      (string_of_size (Gen.int_range 1 300))
      (int_range 0 100_000))

let prop_seal_roundtrip =
  QCheck.Test.make ~name:"seal: open_ (seal x) = Some x" ~count:300 arb_sealing
    (fun (secret, label, x, n) ->
      let k = Seal.keys ~domain:"test" secret in
      let nonce = Cipher.derive_nonce label n in
      let b = Bytes.of_string ("<" ^ x ^ ">") in
      let cipher, tag = Seal.seal k ~label ~nonce ~pos:1 ~len:(String.length x) b in
      Bytes.to_string b = "<" ^ x ^ ">"
      && Seal.open_ k ~label ~nonce ~tag cipher = Some (Bytes.of_string x))

(* [open_] at a span of a larger string (a channel frame's ciphertext
   after its header) = [open_] of that span copied out. *)
let prop_seal_open_span =
  QCheck.Test.make ~name:"seal: open_ ~pos ~len = open_ of the span"
    ~count:300 arb_sealing (fun (secret, label, x, n) ->
      let k = Seal.keys ~domain:"test" secret in
      let nonce = Cipher.derive_nonce label n in
      let cipher, tag = Seal.seal k ~label ~nonce (Bytes.of_string x) in
      let pre = String.make (n mod 50) 'h' and post = String.make (n mod 7) 't' in
      let framed = pre ^ cipher ^ post in
      let pos = String.length pre and len = String.length cipher in
      let at_span ?(tag = tag) () = Seal.open_ k ~label ~nonce ~tag ~pos ~len framed in
      at_span () = Some (Bytes.of_string x)
      && at_span () = Seal.open_ k ~label ~nonce ~tag cipher
      && at_span ~tag:(flip_bit tag n) () = None
      && (post = "" || Seal.open_ k ~label ~nonce ~tag ~pos framed = None))

let prop_seal_tamper =
  QCheck.Test.make
    ~name:"seal: a flipped bit or another domain's keys opens to None"
    ~count:300 arb_sealing (fun (secret, label, x, bit) ->
      let k = Seal.keys ~domain:"test" secret in
      let nonce = Cipher.derive_nonce label 0 in
      let cipher, tag = Seal.seal k ~label ~nonce (Bytes.of_string x) in
      let opens ?(k = k) ?(label = label) ?(tag = tag) cipher =
        Seal.open_ k ~label ~nonce ~tag cipher <> None
      in
      opens cipher
      && (not (opens (flip_bit cipher bit)))
      && (not (opens ~tag:(flip_bit tag bit) cipher))
      && (not (opens ~label:(flip_bit label bit) cipher))
      && not (opens ~k:(Seal.keys ~domain:"other" secret) cipher))

(* The tag's input: the label's length as a little-endian 64-bit word,
   the label, then the ciphertext. *)
let tag_input label cipher =
  let n = Bytes.create 8 in
  Bytes.set_int64_le n 0 (Int64.of_int (String.length label));
  [ Bytes.to_string n; label; cipher ]

(* Channels once used their session key for both the cipher and the
   MAC; every domain now gets two unrelated subkeys. *)
let prop_seal_key_split =
  QCheck.Test.make ~name:"seal: a channel's cipher key is not its MAC secret"
    ~count:200 QCheck.(string_of_size (Gen.return 32)) (fun session ->
      let k = Seal.keys ~domain:"chan" session in
      let cipher_key = Sha256.digest ("chan-data:" ^ session) in
      let mac_secret = Sha256.digest ("chan-mac:" ^ session) in
      let nonce = String.make 12 'n' in
      let cipher, tag = Seal.seal k ~label:"l" ~nonce (Bytes.of_string "payload") in
      let tag_under secret = Blake2b.mac (Blake2b.key secret) (tag_input "l" cipher) in
      cipher = Cipher.encrypt ~key:cipher_key ~nonce "payload"
      && cipher <> Cipher.encrypt ~key:session ~nonce "payload"
      && cipher_key <> mac_secret
      && tag = tag_under mac_secret
      && tag <> tag_under cipher_key
      && tag <> tag_under session)

(* The tag binds the label's length, so moving the boundary between
   label and ciphertext breaks it: the tag of (blk:3:12, C) does not
   open (blk:3:1, 2 ^ C). *)
let prop_seal_prefix_free =
  QCheck.Test.make
    ~name:"seal: (label, cipher) pairs with one concatenation differ"
    ~count:300
    QCheck.(
      triple (string_of_size (Gen.int_range 0 30))
        (string_of_size (Gen.int_range 0 100))
        small_nat)
    (fun (label, x, cut) ->
      let k = Seal.keys ~domain:"test" "secret" in
      let nonce = String.make 12 'n' in
      let cipher, tag = Seal.seal k ~label ~nonce (Bytes.of_string x) in
      let joined = label ^ cipher in
      let cut = cut mod (String.length joined + 1) in
      QCheck.assume (cut <> String.length label);
      let label' = String.sub joined 0 cut in
      let cipher' = String.sub joined cut (String.length joined - cut) in
      Seal.open_ k ~label:label' ~nonce ~tag cipher' = None
      && snd (Seal.seal k ~label:label' ~nonce (Bytes.of_string x)) <> tag)

(* SEFS images, sealed EPC pages and channel frames stay byte-identical
   only while the derivation does. The ciphertexts and tags were
   recomputed in Python, with an RFC 8439 ChaCha20 (counter 0) under
   sha256(b"<domain>-data:<secret>") and
     hashlib.blake2b(len(label).to_bytes(8, "little") + label + cipher,
                     key=hashlib.sha256(b"<domain>-mac:<secret>").digest(),
                     digest_size=32) *)
let test_seal_derivation () =
  let k = Seal.keys ~domain:"sefs" "vol-key" in
  let nonce = Cipher.derive_nonce "vol0:blk:3" 1 in
  let cipher, tag = Seal.seal k ~label:"blk:3:1" ~nonce (Bytes.of_string "data") in
  check "ciphertext"
    (Cipher.encrypt ~key:(Sha256.digest "sefs-data:vol-key") ~nonce "data") cipher;
  check "tag"
    (Blake2b.mac (Blake2b.key (Sha256.digest "sefs-mac:vol-key"))
       (tag_input "blk:3:1" cipher))
    tag;
  check "pinned ciphertext" "7a566501" (Sha256.to_hex cipher);
  check "pinned tag" "c0c485ea83d285797b6e6e9ffa1ad841bc0025cc007569c2feea6739de41fb97"
    (Sha256.to_hex tag);
  (* the channel domain, under a session of 32 's' bytes *)
  let k = Seal.keys ~domain:"chan" (String.make 32 's') in
  let cipher, tag =
    Seal.seal k ~label:"l" ~nonce:(String.make 12 'n') (Bytes.of_string "payload")
  in
  check "pinned channel ciphertext" "c37f5e2534c7f7" (Sha256.to_hex cipher);
  check "pinned channel tag"
    "003fcd7f106285b28464c480cb1e14e3c4c4f923d5ffe5e779678e5d26e6cee4"
    (Sha256.to_hex tag)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming_equals_oneshot;
    Alcotest.test_case "hmac" `Quick test_hmac;
    Alcotest.test_case "chacha vector" `Quick test_chacha_vector;
    Alcotest.test_case "chacha block vector" `Quick test_chacha_block_vector;
    Alcotest.test_case "cipher roundtrip" `Quick test_cipher_roundtrip;
    Alcotest.test_case "cipher arg checks" `Quick test_cipher_sizes;
    Alcotest.test_case "prng" `Quick test_prng;
    Alcotest.test_case "bytes_util" `Quick test_bytes_util;
    QCheck_alcotest.to_alcotest prop_find_all_correct;
    QCheck_alcotest.to_alcotest prop_find_all_differential;
    QCheck_alcotest.to_alcotest prop_cipher_involution;
    QCheck_alcotest.to_alcotest prop_cipher_sub_equals_encrypt;
    Alcotest.test_case "sha256 digest of digests" `Quick test_sha256_digest_of_digests;
    Alcotest.test_case "sha256 reentrant across domains" `Quick test_sha256_reentrant;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
    QCheck_alcotest.to_alcotest prop_hmac_parts;
    Alcotest.test_case "seal key derivation" `Quick test_seal_derivation;
    QCheck_alcotest.to_alcotest prop_seal_roundtrip;
    QCheck_alcotest.to_alcotest prop_seal_tamper;
    QCheck_alcotest.to_alcotest prop_seal_key_split;
    QCheck_alcotest.to_alcotest prop_seal_open_span;
    QCheck_alcotest.to_alcotest prop_cipher_matches_reference;
    Alcotest.test_case "cipher allocates nothing per block" `Quick
      test_cipher_allocation;
    Alcotest.test_case "blake2b rfc7693" `Quick test_blake2b_rfc7693;
    Alcotest.test_case "blake2b vectors" `Quick test_blake2b_vectors;
    Alcotest.test_case "blake2b keyed empty message" `Quick
      test_blake2b_keyed_empty;
    QCheck_alcotest.to_alcotest prop_blake2b_splits;
    Alcotest.test_case "blake2b allocates nothing per block" `Quick
      test_blake2b_allocation;
    QCheck_alcotest.to_alcotest prop_seal_prefix_free;
  ]
