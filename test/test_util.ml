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

let test_hmac () =
  check "rfc-ish"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Sha256.to_hex
       (Hmac.mac ~key:"key" "The quick brown fox jumps over the lazy dog"));
  let tag = Hmac.mac ~key:"k1" "hello" in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key:"k1" ~tag "hello");
  Alcotest.(check bool) "bad key" false (Hmac.verify ~key:"k2" ~tag "hello");
  Alcotest.(check bool) "bad msg" false (Hmac.verify ~key:"k1" ~tag "hellO");
  Alcotest.(check bool) "bad tag" false
    (Hmac.verify ~key:"k1" ~tag:(String.make 32 'x') "hello");
  (* long keys are hashed down *)
  let tag2 = Hmac.mac ~key:(String.make 200 'K') "m" in
  Alcotest.(check bool) "long key" true
    (Hmac.verify ~key:(String.make 200 'K') ~tag:tag2 "m")

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
  ]
