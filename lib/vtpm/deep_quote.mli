(** Deep quote: link a guest's vTPM attestation to the hardware root of
    trust.

    A vTPM quote alone proves nothing about the platform — the vTPM is
    software. The deep quote chains two signatures: the guest's vTPM signs
    its PCR composite over the verifier's nonce; the hardware TPM signs
    the manager's PCR composite over [SHA1(vTPM signature)], binding the
    first quote to this physical platform and measured manager build. *)

type t = {
  vtpm_composite : string;
  vtpm_signature : string;
  vtpm_pubkey : Vtpm_crypto.Rsa.public;
  hw_composite : string;
  hw_signature : string;
  hw_pubkey : Vtpm_crypto.Rsa.public;
}

val hw_pcr_sel : Vtpm_tpm.Types.Pcr_selection.t
(** The hardware PCRs covered: the manager measurement register. *)

val produce : Manager.t -> vtpm_quote:string * string * Vtpm_crypto.Rsa.public -> (t, string) result
(** Wrap a guest-obtained vTPM quote [(composite, signature, pubkey)] in a
    hardware quote under a fresh AIK, evicted again on success and on
    failure. The guest quote is supplied by the caller, so a deep quote
    cannot bypass the monitor. *)

val verify : t -> nonce:string -> bool
(** Verifier side: checks both signatures and the linkage against the
    original challenge [nonce]. *)
