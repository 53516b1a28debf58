(* Encrypt-then-MAC under two subkeys of one secret. The domain string
   keeps the keys of different users of one secret apart. *)

type keys = { data : string; mac : Blake2b.key }

let keys ~domain secret =
  { data = Sha256.digest (domain ^ "-data:" ^ secret);
    mac = Blake2b.key (Sha256.digest (domain ^ "-mac:" ^ secret)) }

(* The tag of [label] and the [len] bytes of [s] at [pos]. The label's
   length goes first, so no two (label, ciphertext) pairs share an
   encoding. *)
let mac k ~label s pos len =
  let c = Blake2b.start k.mac in
  let n = Bytes.create 8 in
  Bytes.set_int64_le n 0 (Int64.of_int (String.length label));
  Blake2b.feed_bytes c n 0 8;
  Blake2b.feed c label;
  Blake2b.feed_bytes c (Bytes.unsafe_of_string s) pos len;
  Blake2b.finalize c

let seal k ~label ~nonce ?(pos = 0) ?len b =
  let len = match len with Some n -> n | None -> Bytes.length b - pos in
  let buf = Bytes.sub b pos len in
  Cipher.encrypt_bytes ~key:k.data ~nonce buf;
  let cipher = Bytes.unsafe_to_string buf in
  (cipher, mac k ~label cipher 0 len)

let open_ k ~label ~nonce ~tag ?(pos = 0) ?len cipher =
  let len = match len with Some n -> n | None -> String.length cipher - pos in
  if not (Bytes_util.equal_ct tag (mac k ~label cipher pos len)) then None
  else begin
    let buf = Bytes.create len in
    Bytes.blit_string cipher pos buf 0 len;
    Cipher.encrypt_bytes ~key:k.data ~nonce buf;
    Some buf
  end
