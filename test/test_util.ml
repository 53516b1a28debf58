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
      let tag_under secret = Hmac.mac (Hmac.key secret) [ "l"; cipher ] in
      cipher = Cipher.encrypt ~key:cipher_key ~nonce "payload"
      && cipher <> Cipher.encrypt ~key:session ~nonce "payload"
      && cipher_key <> mac_secret
      && tag = tag_under mac_secret
      && tag <> tag_under cipher_key
      && tag <> tag_under session)

(* SEFS images and sealed EPC pages stay byte-identical only while the
   derivation does. *)
let test_seal_derivation () =
  let k = Seal.keys ~domain:"sefs" "vol-key" in
  let nonce = Cipher.derive_nonce "vol0:blk:3" 1 in
  let cipher, tag = Seal.seal k ~label:"blk:3:1" ~nonce (Bytes.of_string "data") in
  check "ciphertext"
    (Cipher.encrypt ~key:(Sha256.digest "sefs-data:vol-key") ~nonce "data") cipher;
  check "tag"
    (Hmac.mac (Hmac.key (Sha256.digest "sefs-mac:vol-key")) [ "blk:3:1"; cipher ])
    tag

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
  ]
