(* Signing of verified binaries. The verifier runs outside the enclave
   (it is not runtime TCB — §5), so the LibOS must be able to recognize
   binaries the verifier accepted: the verifier MACs the binary and the
   loader checks the tag before loading. The key stands in for a
   provisioning secret shared between verifier and enclave. *)

let key =
  Occlum_util.Hmac.key (Occlum_util.Sha256.digest "occlum-sim-verifier-signing-key")

let sign (oelf : Occlum_oelf.Oelf.t) =
  {
    oelf with
    signature =
      Some (Occlum_util.Hmac.mac key [ Occlum_oelf.Oelf.signing_payload oelf ]);
  }

let check (oelf : Occlum_oelf.Oelf.t) =
  match oelf.signature with
  | None -> false
  | Some tag ->
      Occlum_util.Hmac.verify key ~tag [ Occlum_oelf.Oelf.signing_payload oelf ]
