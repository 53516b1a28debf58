(* OELF binary format: serialization roundtrips, malformed input
   rejection, signing-payload sensitivity, and signing of verified
   binaries. *)

open Occlum_oelf

let sample () =
  {
    Oelf.code = Bytes.of_string (String.make 100 'c');
    data = Bytes.of_string (String.make 50 'd');
    data_region_size = 8192;
    heap_start = 4096;
    stack_size = 2048;
    entry = 64;
    symbols = [ ("_start", 64); ("f_main", 80) ];
    secret_ranges = [ (4096, 32) ];
    signature = None;
  }

let test_roundtrip () =
  let o = sample () in
  let o' = Oelf.of_string (Oelf.to_string o) in
  Alcotest.(check bool) "equal" true (o = o');
  let signed = { o with signature = Some (String.make 32 's') } in
  let signed' = Oelf.of_string (Oelf.to_string signed) in
  Alcotest.(check bool) "signed equal" true (signed = signed')

let test_malformed () =
  let reject s =
    match Oelf.of_string s with
    | exception Oelf.Malformed _ -> ()
    | _ -> Alcotest.fail "expected Malformed"
  in
  reject "";
  reject "NOTELF\x00\x00\x00\x00";
  reject (String.sub (Oelf.to_string (sample ())) 0 20);
  (* trailing bytes *)
  reject (Oelf.to_string (sample ()) ^ "junk")

let test_signing_payload_sensitivity () =
  let o = sample () in
  let p0 = Oelf.signing_payload o in
  let mutations =
    [
      { o with Oelf.code = Bytes.of_string (String.make 100 'C') };
      { o with Oelf.data = Bytes.of_string (String.make 50 'D') };
      { o with Oelf.entry = 72 };
      { o with Oelf.data_region_size = 4096 };
      { o with Oelf.stack_size = 1024 };
      { o with Oelf.heap_start = 2048 };
      { o with Oelf.symbols = [ ("_start", 64) ] };
      { o with Oelf.secret_ranges = [] };
      { o with Oelf.secret_ranges = [ (4096, 64) ] };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "payload differs" true (Oelf.signing_payload m <> p0))
    mutations;
  (* the signature itself is excluded from the payload *)
  Alcotest.(check string) "signature excluded" p0
    (Oelf.signing_payload { o with Oelf.signature = Some "sig" })

let test_layout_helpers () =
  let o = sample () in
  Alcotest.(check int) "code region rounds up" 4096 (Oelf.code_region_size o);
  Alcotest.(check int) "d begins after code+guard" (4096 + 4096)
    (Oelf.d_begin_rel o);
  Alcotest.(check (pair int int)) "heap zone" (4096, 8192 - 2048) (Oelf.heap_zone o);
  Alcotest.(check (option int)) "symbol" (Some 80) (Oelf.find_symbol o "f_main");
  Alcotest.(check (option int)) "missing symbol" None (Oelf.find_symbol o "nope")

(* A small binary that passes the verifier: only an acceptance can be
   signed. *)
let verified () =
  let open Occlum_toolchain in
  let prog = Runtime.program [ Ast.func "main" [] [ Ast.Return (Ast.i 0) ] ] in
  let o = Compile.compile_exn ~config:Codegen.sfi prog in
  match Occlum_verifier.Verify.verify o with
  | Ok a -> (o, a)
  | Error _ -> Alcotest.fail "the sample program must verify"

let test_signer () =
  let o, accepted = verified () in
  Alcotest.(check bool) "unsigned rejected" false
    (Occlum_verifier.Verify.signature_ok o);
  let signed = Occlum_verifier.Verify.sign accepted in
  Alcotest.(check bool) "signed ok" true
    (Occlum_verifier.Verify.signature_ok signed);
  (* flip a code byte: the signature must break *)
  let tampered = { signed with Oelf.code = Bytes.copy signed.Oelf.code } in
  Bytes.set tampered.Oelf.code 0 'X';
  Alcotest.(check bool) "tamper detected" false
    (Occlum_verifier.Verify.signature_ok tampered)

(* The verifier keeps its own copy of what it verified: flipping a byte
   of the caller's binary after [verify] changes nothing [sign] signs. *)
let test_sign_covers_verified_bytes () =
  let o, accepted = verified () in
  let original = Bytes.copy o.Oelf.code in
  let pos = Oelf.trampoline_reserved in
  Bytes.set o.Oelf.code pos
    (Char.chr (Char.code (Bytes.get o.Oelf.code pos) lxor 0xff));
  let signed = Occlum_verifier.Verify.sign accepted in
  Alcotest.(check bool) "signed the verified bytes" true
    (Bytes.equal signed.Oelf.code original);
  Alcotest.(check bool) "signature checks" true
    (Occlum_verifier.Verify.signature_ok signed);
  Alcotest.(check bool) "signed output re-verifies" true
    (Result.is_ok (Occlum_verifier.Verify.verify signed));
  Alcotest.(check bool) "the caller's flipped bytes carry no signature"
    false
    (Occlum_verifier.Verify.signature_ok
       { o with signature = signed.signature })

let suite =
  [
    Alcotest.test_case "serialize roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "malformed inputs" `Quick test_malformed;
    Alcotest.test_case "signing payload sensitivity" `Quick
      test_signing_payload_sensitivity;
    Alcotest.test_case "layout helpers" `Quick test_layout_helpers;
    Alcotest.test_case "signer" `Quick test_signer;
    Alcotest.test_case "sign covers the verified bytes" `Quick
      test_sign_covers_verified_bytes;
  ]
