(* The vTPM transport protocol carried in ring slots.

   Version 2 framing (version 1 had no integrity protection and is no
   longer emitted; its frames are rejected as [`Bad_version]):

   Request frame:  version(u8=2) || crc32(u32) || claimed_instance(u32) || TPM wire request
   Response frame: version(u8=2) || crc32(u32) || status(u8) || payload

   The CRC covers everything after the 5-byte header, so a flipped or
   truncated slot is detected rather than mis-parsed — the property the
   fault-injection experiments lean on: corruption must surface as a
   retriable transport error, never as a wrong answer.

   [claimed_instance] is the field the 2006-era manager trusts to route a
   request — and the field a malicious frontend can set to any value. The
   improved monitor ignores it in favour of the hypervisor-attested sender
   identity; keeping it on the wire lets both managers consume identical
   traffic, so the overhead comparison is apples-to-apples. *)

let version = 2
let header_len = 5 (* version(u8) || crc32(u32) *)

type status = Ok_routed | Denied | Bad_frame

let status_code = function Ok_routed -> 0 | Denied -> 1 | Bad_frame -> 2

let status_of_code = function 0 -> Some Ok_routed | 1 -> Some Denied | 2 -> Some Bad_frame | _ -> None

(* Each frame is built in one allocation: the encoder sizes a single
   buffer for header, prefix and body, writes the prefix and body, then
   stamps version and CRC over the body range. *)
let frame_buffer ~prefix_len body =
  let n = String.length body in
  let b = Bytes.create (header_len + prefix_len + n) in
  Bytes.blit_string body 0 b (header_len + prefix_len) n;
  b

let seal b =
  let crc = Vtpm_util.Crc32.digest_bytes_sub b header_len (Bytes.length b - header_len) in
  Bytes.set_uint8 b 0 version;
  Bytes.set_int32_be b 1 (Int32.of_int crc);
  Bytes.unsafe_to_string b

(* Header check shared by both directions, in place: the CRC is compared
   over the body range of the frame itself. *)
let check (frame : string) : (unit, string) result =
  let len = String.length frame in
  if len < header_len then Error "short vTPM frame"
  else if Char.code frame.[0] <> version then
    Error (Printf.sprintf "unsupported vTPM protocol version %d" (Char.code frame.[0]))
  else if
    Int32.to_int (String.get_int32_be frame 1) land 0xFFFFFFFF
    <> Vtpm_util.Crc32.digest_sub frame header_len (len - header_len)
  then Error "vTPM frame checksum mismatch"
  else Ok ()

let encode_request ~claimed_instance (wire : string) : string =
  let b = frame_buffer ~prefix_len:4 wire in
  Bytes.set_int32_be b header_len (Int32.of_int claimed_instance);
  seal b

let decode_request (fr : string) : (int * string, string) result =
  match check fr with
  | Error e -> Error e
  | Ok () ->
      let len = String.length fr in
      if len - header_len < 4 then Error "short vTPM request body"
      else
        let claimed = Int32.to_int (String.get_int32_be fr header_len) land 0xFFFFFFFF in
        Ok (claimed, String.sub fr (header_len + 4) (len - header_len - 4))

let encode_response (st : status) (payload : string) : string =
  let b = frame_buffer ~prefix_len:1 payload in
  Bytes.set_uint8 b header_len (status_code st);
  seal b

let decode_response (fr : string) : (status * string, string) result =
  match check fr with
  | Error e -> Error e
  | Ok () -> (
      let len = String.length fr in
      if len - header_len < 1 then Error "empty vTPM response body"
      else
        match status_of_code (Char.code fr.[header_len]) with
        | None -> Error "bad vTPM status byte"
        | Some st -> Ok (st, String.sub fr (header_len + 1) (len - header_len - 1)))
