(* vTPM instance state at rest: plaintext vs sealed.

   Baseline (2006 design): state files protected only by dom0 file
   permissions — our [Plain] format is the raw engine serialization, and
   the dump attack parses it directly.

   Improved: a fresh symmetric key encrypts the state; the key itself is
   sealed by the *hardware* TPM under its SRK, bound to the manager's
   measurement PCR. A stolen state file is useless off-platform (no
   hardware TPM) and on-platform after manager tampering (PCR mismatch). *)

open Vtpm_tpm

type format = Plain | Sealed

let format_name = function Plain -> "plain" | Sealed -> "sealed"

let magic_plain = "VTPMPL1\x00"
let magic_sealed = "VTPMSE1\x00"

let blob_auth_of mgr = Vtpm_crypto.Sha1.digest ("state-blob:" ^ mgr.Manager.hw_srk_auth)

let charge_io_cost mgr ~bytes =
  let kib = float_of_int bytes /. 1024.0 in
  Vtpm_util.Cost.charge mgr.Manager.cost (Vtpm_util.Cost.state_io_per_kib_us *. kib)

let charge_seal_cost mgr ~bytes =
  let kib = float_of_int bytes /. 1024.0 in
  Vtpm_util.Cost.charge mgr.Manager.cost (Vtpm_util.Cost.seal_per_kib_us *. kib);
  Vtpm_util.Cost.charge mgr.Manager.cost Vtpm_util.Cost.hwtpm_srk_op_us

let ( let* ) = Result.bind

let save mgr (inst : Manager.instance) ~(format : format) : (string, string) result =
  let state = Engine.serialize_state inst.Manager.engine in
  charge_io_cost mgr ~bytes:(String.length state);
  match format with
  | Plain -> Ok (magic_plain ^ state)
  | Sealed ->
      let hw = Manager.hw_client mgr in
      let to_str e = Fmt.str "%a" Client.pp_error e in
      let* sym_key =
        Result.map_error to_str (Client.get_random hw ~length:16)
      in
      let* sealed_key =
        Result.map_error to_str
          (Manager.with_hw_session hw (Manager.Oiap mgr.Manager.hw_srk_auth) (fun sess ->
               Client.seal ~continue:false hw sess ~key:Types.kh_srk
                 ~pcr_sel:(Types.Pcr_selection.of_list [ Manager.manager_pcr ])
                 ~blob_auth:(blob_auth_of mgr) ~data:sym_key))
      in
      let xk = Vtpm_crypto.Xtea.key_of_string sym_key in
      let cipher = Vtpm_crypto.Xtea.ctr_transform xk ~nonce:inst.Manager.vtpm_id state in
      let mac = Vtpm_crypto.Hmac.sha256_mac ~key:sym_key cipher in
      charge_seal_cost mgr ~bytes:(String.length state);
      let w = Vtpm_util.Codec.writer () in
      Vtpm_util.Codec.write_bytes w magic_sealed;
      Vtpm_util.Codec.write_u32_int w inst.Manager.vtpm_id;
      Vtpm_util.Codec.write_sized w sealed_key;
      Vtpm_util.Codec.write_sized w cipher;
      Vtpm_util.Codec.write_bytes w mac;
      Ok (Vtpm_util.Codec.contents w)

let detect_format (blob : string) : format option =
  if String.length blob < 8 then None
  else begin
    let m = String.sub blob 0 8 in
    if m = magic_plain then Some Plain else if m = magic_sealed then Some Sealed else None
  end

(* Restore engine state from a saved blob. Sealed blobs require the same
   hardware TPM with an unchanged manager PCR — the off-platform attack
   fails inside [Client.unseal]. *)
let load mgr (blob : string) : (Engine.t * int option, string) result =
  match detect_format blob with
  | None -> Error "unrecognized vTPM state format"
  | Some Plain -> (
      let state = String.sub blob 8 (String.length blob - 8) in
      charge_io_cost mgr ~bytes:(String.length state);
      Result.map (fun e -> (e, None)) (Engine.deserialize_state state))
  | Some Sealed -> (
      match
        let r = Vtpm_util.Codec.reader blob in
        let _magic = Vtpm_util.Codec.read_bytes r 8 in
        let vtpm_id = Vtpm_util.Codec.read_u32_int r in
        let sealed_key = Vtpm_util.Codec.read_sized r in
        let cipher = Vtpm_util.Codec.read_sized r in
        let mac = Vtpm_util.Codec.read_bytes r 32 in
        (vtpm_id, sealed_key, cipher, mac)
      with
      | exception Vtpm_util.Codec.Truncated m -> Error ("truncated sealed state: " ^ m)
      | vtpm_id, sealed_key, cipher, mac ->
          charge_io_cost mgr ~bytes:(String.length cipher);
          let hw = Manager.hw_client mgr in
          let to_str e = Fmt.str "hw TPM unseal failed: %a" Client.pp_error e in
          let* sym_key =
            Result.map_error to_str
              (Manager.with_hw_session hw (Manager.Oiap mgr.Manager.hw_srk_auth) (fun ks ->
                   let blob_session = Manager.Oiap (blob_auth_of mgr) in
                   Manager.with_hw_session ~keep:[ ks.Client.handle ] hw blob_session (fun ds ->
                       Client.unseal hw ~key_session:ks ~data_session:ds ~key:Types.kh_srk
                         ~blob:sealed_key)))
          in
          if not (Vtpm_crypto.Hmac.equal_ct mac (Vtpm_crypto.Hmac.sha256_mac ~key:sym_key cipher))
          then Error "sealed state MAC mismatch"
          else begin
            let xk = Vtpm_crypto.Xtea.key_of_string sym_key in
            let state = Vtpm_crypto.Xtea.ctr_transform xk ~nonce:vtpm_id cipher in
            charge_seal_cost mgr ~bytes:(String.length state);
            Result.map (fun e -> (e, Some vtpm_id)) (Engine.deserialize_state state)
          end)

(* Suspend an instance to a blob and mark it inactive. *)
let suspend mgr (inst : Manager.instance) ~format : (string, string) result =
  let* blob = save mgr inst ~format in
  inst.Manager.state <- Manager.Suspended;
  Ok blob

(* Resume a previously suspended instance in place. *)
let resume mgr (inst : Manager.instance) (blob : string) : (unit, string) result =
  match load mgr blob with
  | Error m -> Error m
  | Ok (engine, _) ->
      (* Replace the engine wholesale; handles/sessions were dropped by
         TPM save semantics. *)
      Manager.install_instance mgr { inst with Manager.engine; state = Manager.Active };
      Ok ()
