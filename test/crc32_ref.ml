(* Frozen copy of the boxed-Int32 CRC-32 and the two-Buffer vTPM frame
   encoders that the native-int CRC and the single-allocation framing in
   [Vtpm_util.Crc32] and [Vtpm_mgr.Proto] replaced, kept only as a
   differential reference: the framing tests check that the live code
   produces byte-identical frames, so every recorded frame and digest
   stays valid. Not part of the library. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let digest (s : string) : int32 =
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor t.(idx) (Int32.shift_right_logical !crc 8))
    s;
  Int32.logxor !crc 0xFFFFFFFFl

module C = Vtpm_util.Codec

let version = 2

let checksum body = digest body

let frame body =
  let w = C.writer () in
  C.write_u8 w version;
  C.write_u32 w (checksum body);
  C.write_bytes w body;
  C.contents w

let encode_request ~claimed_instance (wire : string) : string =
  let w = C.writer () in
  C.write_u32_int w claimed_instance;
  C.write_bytes w wire;
  frame (C.contents w)

let encode_response (st : Vtpm_mgr.Proto.status) (payload : string) : string =
  let w = C.writer () in
  C.write_u8 w (Vtpm_mgr.Proto.status_code st);
  C.write_bytes w payload;
  frame (C.contents w)
