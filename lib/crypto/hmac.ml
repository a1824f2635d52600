(* HMAC (RFC 2104), generic over a hash function. TPM 1.2 authorization
   sessions (OIAP/OSAP) prove knowledge of a usage secret with HMAC-SHA1
   over a digest of the command parameters.

   The inner and outer hashes stream through a reused per-algorithm
   context: the old path built [ipad ^ msg] and [opad ^ inner] as fresh
   strings, which copied every MACed message (state images included) once
   more than necessary. *)

type impl = SHA1 | SHA256
type hash = { impl : impl; digest : string -> string; block_size : int }

let sha1 : hash = { impl = SHA1; digest = Sha1.digest; block_size = Sha1.block_size }
let sha256 : hash = { impl = SHA256; digest = Sha256.digest; block_size = Sha256.block_size }

let xor_pad key pad_byte block_size =
  let out = Bytes.make block_size (Char.chr pad_byte) in
  String.iteri
    (fun i c -> Bytes.set out i (Char.chr (Char.code c lxor pad_byte)))
    key;
  Bytes.unsafe_to_string out

(* Reused streaming contexts, distinct from the hash modules' one-shot
   scratch contexts (the long-key pre-hash below may call [h.digest] while
   a MAC is in flight). MACs never nest. *)
let stream1 = lazy (Sha1.init ())
let stream256 = lazy (Sha256.init ())

let mac (h : hash) ~key (msg : string) : string =
  let key = if String.length key > h.block_size then h.digest key else key in
  let ipad = xor_pad key 0x36 h.block_size and opad = xor_pad key 0x5c h.block_size in
  match h.impl with
  | SHA1 ->
      let c = Lazy.force stream1 in
      Sha1.reset c;
      Sha1.feed c ipad;
      Sha1.feed c msg;
      let inner = Sha1.finalize c in
      Sha1.reset c;
      Sha1.feed c opad;
      Sha1.feed c inner;
      Sha1.finalize c
  | SHA256 ->
      let c = Lazy.force stream256 in
      Sha256.reset c;
      Sha256.feed c ipad;
      Sha256.feed c msg;
      let inner = Sha256.finalize c in
      Sha256.reset c;
      Sha256.feed c opad;
      Sha256.feed c inner;
      Sha256.finalize c

let sha1_mac ~key msg = mac sha1 ~key msg
let sha256_mac ~key msg = mac sha256 ~key msg

(* Constant-shape comparison: never short-circuits, so the comparison time
   does not leak the position of the first mismatching byte. *)
let equal_ct a b =
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0
