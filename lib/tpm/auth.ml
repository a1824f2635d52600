(* TPM 1.2 authorization sessions.

   OIAP (Object-Independent Authorization Protocol): the session proves
   knowledge of an object's usage secret on each command via
   HMAC-SHA1(secret, paramDigest || nonceEven || nonceOdd || continue).

   OSAP (Object-Specific Authorization Protocol): the session binds to one
   object at setup; commands HMAC with a *shared secret* =
   HMAC(usage_secret, nonceEvenOSAP || nonceOddOSAP), so the usage secret
   itself is never reused per command.

   Rolling nonces give replay protection: nonceEven is regenerated by the
   TPM after every authorized command, and the attack-replay experiment
   relies on this behaviour being faithful. *)

open Vtpm_crypto

type kind = Oiap | Osap of { entity_handle : int; shared_secret : string }

type session = {
  kind : kind;
  mutable nonce_even : string;
}

type t = {
  sessions : (int, session) Hashtbl.t;
  mutable next_handle : int;
  drbg : Drbg.t;
  max_sessions : int;
}

let create ~drbg ?(max_sessions = 8) () =
  { sessions = Hashtbl.create 8; next_handle = 0x02000000; drbg; max_sessions }

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- t.next_handle + 1;
  h

let start_oiap t =
  if Hashtbl.length t.sessions >= t.max_sessions then Error Types.tpm_resources
  else begin
    let h = fresh_handle t in
    let nonce_even = Drbg.generate_nonce t.drbg in
    Hashtbl.replace t.sessions h { kind = Oiap; nonce_even };
    Ok (h, nonce_even)
  end

let start_osap t ~entity_handle ~usage_secret ~nonce_odd_osap =
  if Hashtbl.length t.sessions >= t.max_sessions then Error Types.tpm_resources
  else begin
    let h = fresh_handle t in
    let nonce_even = Drbg.generate_nonce t.drbg in
    let nonce_even_osap = Drbg.generate_nonce t.drbg in
    let shared_secret = Hmac.sha1_mac ~key:usage_secret (nonce_even_osap ^ nonce_odd_osap) in
    Hashtbl.replace t.sessions h
      { kind = Osap { entity_handle; shared_secret }; nonce_even };
    Ok (h, nonce_even, nonce_even_osap)
  end

let find t h =
  match Hashtbl.find_opt t.sessions h with
  | Some s -> Ok s
  | None -> Error Types.tpm_invalid_authhandle

let mem t h = Hashtbl.mem t.sessions h
let handles t = List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.sessions [])
let terminate t h = Hashtbl.remove t.sessions h
let clear t = Hashtbl.reset t.sessions

(* The per-command proof the caller must supply. *)
type proof = { handle : int; nonce_odd : string; continue : bool; hmac : string }

let hmac_input ~param_digest ~nonce_even ~nonce_odd ~continue =
  param_digest ^ nonce_even ^ nonce_odd ^ if continue then "\x01" else "\x00"

let compute_hmac ~key ~param_digest ~nonce_even ~nonce_odd ~continue =
  Hmac.sha1_mac ~key (hmac_input ~param_digest ~nonce_even ~nonce_odd ~continue)

(* Validate a proof against the object's usage secret (OIAP) or the
   session's shared secret (OSAP, which must be bound to [entity_handle]).
   On success the session nonce rolls and the new nonceEven is returned
   for the response; the session dies unless [continue] was set. *)
let verify t ~(proof : proof) ~usage_secret ~entity_handle ~param_digest =
  match find t proof.handle with
  | Error e -> Error e
  | Ok session -> (
      let key =
        match session.kind with
        | Oiap -> Ok usage_secret
        | Osap { entity_handle = bound; shared_secret } ->
            if bound <> entity_handle then Error Types.tpm_auth_conflict else Ok shared_secret
      in
      match key with
      | Error e -> Error e
      | Ok key ->
          let expected =
            compute_hmac ~key ~param_digest ~nonce_even:session.nonce_even
              ~nonce_odd:proof.nonce_odd ~continue:proof.continue
          in
          if not (Hmac.equal_ct expected proof.hmac) then Error Types.tpm_authfail
          else begin
            let fresh = Drbg.generate_nonce t.drbg in
            session.nonce_even <- fresh;
            if not proof.continue then terminate t proof.handle;
            Ok fresh
          end)

(* Client-side helper mirroring [verify]: given the current nonceEven (from
   session setup or the previous response), build a valid proof. Used by
   the vTPM frontend library and by tests. *)
let make_proof ~key ~handle ~nonce_even ~nonce_odd ~continue ~param_digest =
  {
    handle;
    nonce_odd;
    continue;
    hmac = compute_hmac ~key ~param_digest ~nonce_even ~nonce_odd ~continue;
  }
