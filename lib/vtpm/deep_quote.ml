(* Deep quote: link a guest's vTPM attestation to the hardware root of
   trust.

   A vTPM quote alone proves nothing about the platform — the vTPM is
   software. The deep quote chains two signatures:

     1. the guest's vTPM signs its PCR composite over the verifier's nonce;
     2. the hardware TPM signs the *manager's* PCR composite over
        SHA1(vTPM quote signature), binding (1) to this physical platform
        and this (measured) manager build.

   A verifier holding both public keys and the original nonce checks the
   chain end-to-end. *)

open Vtpm_tpm

type t = {
  vtpm_composite : string;
  vtpm_signature : string;
  vtpm_pubkey : Vtpm_crypto.Rsa.public;
  hw_composite : string;
  hw_signature : string;
  hw_pubkey : Vtpm_crypto.Rsa.public;
}

let hw_pcr_sel = Types.Pcr_selection.of_list [ Manager.manager_pcr ]

let ( let* ) = Result.bind
let to_str what e = Fmt.str "%s: %a" what Client.pp_error e

(* A fresh attestation identity key on the hardware TPM, created under
   the SRK for each deep quote and loaded for the caller to evict. A
   chip whose key slots are full of AIKs whose eviction a busy chip
   refused has them reclaimed. *)
let make_hw_aik mgr : (int * string, string) result =
  let hw = Manager.hw_client mgr in
  let aik_auth = Vtpm_crypto.Sha1.digest ("hw-aik:" ^ mgr.Manager.hw_srk_auth) in
  let srk = Manager.Osap { entity = Types.kh_srk; secret = mgr.Manager.hw_srk_auth } in
  Result.map_error (to_str "aik")
    (Manager.with_hw_session hw srk (fun sess ->
         let* blob, _ =
           Client.create_wrap_key hw sess ~parent:Types.kh_srk ~usage:Types.Signing
             ~key_auth:aik_auth ()
         in
         let* handle =
           Manager.reclaiming_hw hw Manager.Hw_keys (fun () ->
               Client.load_key2 ~continue:false hw sess ~parent:Types.kh_srk ~blob)
         in
         Ok (handle, aik_auth)))

(* Produce a deep quote for a guest.

   [guest_quote] is the guest-side step: the caller supplies the vTPM
   quote it obtained through its own (policy-mediated!) channel, so a
   deep quote cannot be used to bypass the monitor. The AIK is evicted
   after the quote, whether it succeeded or not: the chip holds only
   sixteen loaded keys. *)
let produce mgr ~(vtpm_quote : string * string * Vtpm_crypto.Rsa.public) : (t, string) result =
  let vtpm_composite, vtpm_signature, vtpm_pubkey = vtpm_quote in
  let hw = Manager.hw_client mgr in
  let* aik_handle, aik_auth = make_hw_aik mgr in
  let link_nonce = Vtpm_crypto.Sha1.digest vtpm_signature in
  let quoted =
    Manager.with_hw_session hw (Manager.Oiap aik_auth) (fun sess ->
        Client.quote ~continue:false hw sess ~key:aik_handle ~external_data:link_nonce
          ~pcr_sel:hw_pcr_sel)
  in
  Manager.hw_flush hw aik_handle;
  let* hw_composite, hw_signature, hw_pubkey = Result.map_error (to_str "hw quote") quoted in
  Ok { vtpm_composite; vtpm_signature; vtpm_pubkey; hw_composite; hw_signature; hw_pubkey }

(* Verifier side: [nonce] is the fresh challenge originally sent to the
   guest. Checks both signatures and the linkage. *)
let verify (dq : t) ~(nonce : string) : bool =
  Engine.verify_quote ~pubkey:dq.vtpm_pubkey ~composite:dq.vtpm_composite ~external_data:nonce
    ~signature:dq.vtpm_signature
  && Engine.verify_quote ~pubkey:dq.hw_pubkey ~composite:dq.hw_composite
       ~external_data:(Vtpm_crypto.Sha1.digest dq.vtpm_signature)
       ~signature:dq.hw_signature
