(* HMAC-SHA-256 (RFC 2104). The Occlum verifier signs accepted binaries
   with an HMAC; the LibOS loader recomputes it before loading. It is
   the tag of {!Seal}, which SEFS, channels and the EPC pager use.

   Every caller MACs under a fixed key, so [key] absorbs the padded key
   XOR ipad and XOR opad once and keeps the two midstates. A tag then
   costs two context copies plus the message and one outer block; the
   message arrives as a list of parts fed in order, so a caller never
   concatenates a label onto a ciphertext to MAC them. *)

let block_size = 64

type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let key k =
  let k = if String.length k > block_size then Sha256.digest k else k in
  let pad x =
    let b = Bytes.make block_size (Char.chr x) in
    String.iteri
      (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor x)))
      k;
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx b 0 block_size;
    ctx
  in
  { inner = pad 0x36; outer = pad 0x5c }

let mac key parts =
  let inner = Sha256.copy key.inner in
  List.iter (Sha256.feed inner) parts;
  let outer = Sha256.copy key.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let verify key ~tag parts =
  let expected = mac key parts in
  (* constant-time comparison: accumulate the xor of all byte pairs *)
  String.length tag = String.length expected
  &&
  let acc = ref 0 in
  String.iteri
    (fun i c -> acc := !acc lor (Char.code c lxor Char.code expected.[i]))
    tag;
  !acc = 0
