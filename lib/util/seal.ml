(* Encrypt-then-MAC under two subkeys of one secret. The domain string
   keeps the keys of different users of one secret apart. *)

type keys = { data : string; mac : Hmac.key }

let keys ~domain secret =
  { data = Sha256.digest (domain ^ "-data:" ^ secret);
    mac = Hmac.key (Sha256.digest (domain ^ "-mac:" ^ secret)) }

let seal k ~label ~nonce ?(pos = 0) ?len b =
  let len = match len with Some n -> n | None -> Bytes.length b - pos in
  let buf = Bytes.sub b pos len in
  Cipher.encrypt_bytes ~key:k.data ~nonce buf;
  let cipher = Bytes.unsafe_to_string buf in
  (cipher, Hmac.mac k.mac [ label; cipher ])

let open_ k ~label ~nonce ~tag cipher =
  if not (Hmac.verify k.mac ~tag [ label; cipher ]) then None
  else begin
    let buf = Bytes.of_string cipher in
    Cipher.encrypt_bytes ~key:k.data ~nonce buf;
    Some buf
  end
