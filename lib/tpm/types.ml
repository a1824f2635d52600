(* TPM 1.2 protocol constants and structures (subset).

   Ordinals, tags and return codes follow the TPM Main Specification
   Part 2 (Structures), rev 116, so wire traces produced by the simulated
   stack look like real vTPM traffic and the access-control monitor can be
   written against genuine command ordinals. *)

(* --- Command/response tags ------------------------------------------- *)

let tag_rqu_command = 0x00C1 (* no auth *)
let tag_rqu_auth1_command = 0x00C2 (* one auth session *)
let tag_rsp_command = 0x00C4
let tag_rsp_auth1_command = 0x00C5

(* --- Return codes ------------------------------------------------------ *)

let tpm_success = 0x000
let tpm_authfail = 0x001
let tpm_badindex = 0x002
let tpm_bad_parameter = 0x003
let tpm_deactivated = 0x006
let tpm_disabled = 0x007
let tpm_fail = 0x009
let tpm_bad_ordinal = 0x00A
let tpm_keynotfound = 0x00D
let tpm_nospace = 0x011
let tpm_nosrk = 0x012
let tpm_notsealed_blob = 0x013
let tpm_owner_set = 0x014
let tpm_resources = 0x015
let tpm_invalid_authhandle = 0x01C
let tpm_no_endorsement = 0x01D
let tpm_invalid_keyusage = 0x024
let tpm_wrongpcrval = 0x018
let tpm_bad_locality = 0x026
let tpm_badtag = 0x01E
let tpm_area_locked = 0x03C
let tpm_auth_conflict = 0x03B
let tpm_bad_counter = 0x045
let tpm_retry = 0x800 (* TPM_RETRY: device busy, command may be resubmitted *)

(* --- Ordinals: TPM_ORD values ------------------------------------------ *)

let ord_oiap = 0x0A
let ord_osap = 0x0B
let ord_take_ownership = 0x0D
let ord_extend = 0x14
let ord_pcr_read = 0x15
let ord_quote = 0x16
let ord_seal = 0x17
let ord_unseal = 0x18
let ord_create_wrap_key = 0x1F
let ord_get_random = 0x46
let ord_stir_random = 0x47
let ord_self_test_full = 0x50
let ord_owner_clear = 0x5B
let ord_force_clear = 0x5D
let ord_get_capability = 0x65
let ord_read_pubek = 0x7C
let ord_sign = 0x3C
let ord_startup = 0x99
let ord_save_state = 0x98
let ord_pcr_reset = 0xC8
let ord_nv_define_space = 0xCC
let ord_nv_write_value = 0xCD
let ord_nv_read_value = 0xCF
let ord_flush_specific = 0xBA
let ord_load_key2 = 0x41
let ord_create_counter = 0xDC
let ord_increment_counter = 0xDD
let ord_read_counter = 0xDE
let ord_release_counter = 0xDF

(* Human-readable ordinal name, for audit logs and pretty-printed tables. *)
let ordinal_name = function
  | 0x0A -> "TPM_OIAP"
  | 0x0B -> "TPM_OSAP"
  | 0x0D -> "TPM_TakeOwnership"
  | 0x14 -> "TPM_Extend"
  | 0x15 -> "TPM_PCRRead"
  | 0x16 -> "TPM_Quote"
  | 0x17 -> "TPM_Seal"
  | 0x18 -> "TPM_Unseal"
  | 0x1F -> "TPM_CreateWrapKey"
  | 0x3C -> "TPM_Sign"
  | 0x41 -> "TPM_LoadKey2"
  | 0x46 -> "TPM_GetRandom"
  | 0x47 -> "TPM_StirRandom"
  | 0x50 -> "TPM_SelfTestFull"
  | 0x5B -> "TPM_OwnerClear"
  | 0x5D -> "TPM_ForceClear"
  | 0x65 -> "TPM_GetCapability"
  | 0x7C -> "TPM_ReadPubek"
  | 0x98 -> "TPM_SaveState"
  | 0x99 -> "TPM_Startup"
  | 0xBA -> "TPM_FlushSpecific"
  | 0xC8 -> "TPM_PCR_Reset"
  | 0xCC -> "TPM_NV_DefineSpace"
  | 0xCD -> "TPM_NV_WriteValue"
  | 0xCF -> "TPM_NV_ReadValue"
  | 0xDC -> "TPM_CreateCounter"
  | 0xDD -> "TPM_IncrementCounter"
  | 0xDE -> "TPM_ReadCounter"
  | 0xDF -> "TPM_ReleaseCounter"
  | o -> Printf.sprintf "TPM_ORD_0x%02X" o

(* All ordinals the engine implements, used by policy validation and the
   exhaustive dispatch test. *)
let all_ordinals =
  [
    ord_oiap; ord_osap; ord_take_ownership; ord_extend; ord_pcr_read; ord_quote;
    ord_seal; ord_unseal; ord_create_wrap_key; ord_sign; ord_load_key2;
    ord_get_random; ord_stir_random; ord_self_test_full; ord_owner_clear;
    ord_force_clear; ord_get_capability; ord_read_pubek; ord_save_state;
    ord_startup; ord_flush_specific; ord_pcr_reset; ord_nv_define_space;
    ord_nv_write_value; ord_nv_read_value; ord_create_counter;
    ord_increment_counter; ord_read_counter; ord_release_counter;
  ]

(* --- Well-known handles ------------------------------------------------ *)

let kh_srk = 0x40000000 (* storage root key *)
let kh_ek = 0x40000006 (* endorsement key *)

(* --- Startup types ------------------------------------------------------ *)

type startup_type = St_clear | St_state | St_deactivated

(* --- Key parameters ----------------------------------------------------- *)

type key_usage = Signing | Storage | Identity | Bind | Legacy

let key_usage_to_int = function
  | Signing -> 0x0010
  | Storage -> 0x0011
  | Identity -> 0x0012
  | Bind -> 0x0014
  | Legacy -> 0x0015

let key_usage_of_int = function
  | 0x0010 -> Some Signing
  | 0x0011 -> Some Storage
  | 0x0012 -> Some Identity
  | 0x0014 -> Some Bind
  | 0x0015 -> Some Legacy
  | _ -> None

(* --- PCR selection ------------------------------------------------------ *)

let pcr_count = 24
let digest_size = 20 (* SHA-1 *)

(* A PCR selection is a set of PCR indices; on the wire it is a sized
   bitmap, 3 bytes for a 24-PCR TPM. *)
module Pcr_selection = struct
  type t = int list (* sorted, unique indices *)

  let of_list l =
    let l = List.sort_uniq Stdlib.compare l in
    List.iter
      (fun i -> if i < 0 || i >= pcr_count then invalid_arg "Pcr_selection: index out of range")
      l;
    l

  let to_list t = t
  let mem i t = List.mem i t
  let is_empty t = t = []

  let to_bitmap (t : t) : string =
    let bytes = Bytes.make 3 '\x00' in
    List.iter
      (fun i ->
        let b = Char.code (Bytes.get bytes (i / 8)) in
        Bytes.set bytes (i / 8) (Char.chr (b lor (1 lsl (i mod 8)))))
      t;
    Bytes.unsafe_to_string bytes

  let of_bitmap (s : string) : t =
    let acc = ref [] in
    String.iteri
      (fun byte_i c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          let idx = (byte_i * 8) + bit in
          if c land (1 lsl bit) <> 0 && idx < pcr_count then acc := idx :: !acc
        done)
      s;
    List.rev !acc
end

(* --- Capability areas ---------------------------------------------------- *)

let cap_property = 0x05
let cap_version = 0x06
let cap_handle = 0x14
let rt_key = 0x01 (* TPM_CAP_HANDLE sub-cap: loaded transient keys *)
let rt_auth = 0x02 (* TPM_CAP_HANDLE sub-cap: loaded auth sessions *)
let cap_prop_pcr = 0x101
let cap_prop_manufacturer = 0x103

(* --- NV attributes -------------------------------------------------------- *)

type nv_attrs = {
  nv_owner_write : bool; (* write requires owner auth *)
  nv_owner_read : bool; (* read requires owner auth *)
  nv_write_once : bool; (* locks after first write *)
  nv_read_pcrs : Pcr_selection.t; (* PCR state required to read *)
  nv_write_pcrs : Pcr_selection.t; (* PCR state required to write *)
}

let nv_attrs_default =
  {
    nv_owner_write = false;
    nv_owner_read = false;
    nv_write_once = false;
    nv_read_pcrs = Pcr_selection.of_list [];
    nv_write_pcrs = Pcr_selection.of_list [];
  }
