(* Unit and property tests for vtpm_util: hex, the wire codec, the
   deterministic RNG and the error type. *)

open Vtpm_util

let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* --- Hex ---------------------------------------------------------------- *)

let test_hex_encode () =
  check_s "empty" "" (Hex.encode "");
  check_s "abc" "616263" (Hex.encode "abc");
  check_s "binary" "00ff10" (Hex.encode "\x00\xff\x10")

let test_hex_decode () =
  check_s "empty" "" (Hex.decode "");
  check_s "abc" "abc" (Hex.decode "616263");
  check_s "upper" "\xab\xcd" (Hex.decode "ABCD")

let test_hex_decode_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: not a hex digit") (fun () ->
      ignore (Hex.decode "zz"))

let test_hex_fingerprint () =
  check_i "default length" 8 (String.length (Hex.fingerprint "some-long-input-string"));
  check_s "short input" "6162" (Hex.fingerprint "ab")

(* --- Codec -------------------------------------------------------------- *)

let test_codec_scalars () =
  let w = Codec.writer () in
  Codec.write_u8 w 0xAB;
  Codec.write_u16 w 0xBEEF;
  Codec.write_u32 w 0xDEADBEEFl;
  Codec.write_u64 w 0x0123456789ABCDEFL;
  let r = Codec.reader (Codec.contents w) in
  check_i "u8" 0xAB (Codec.read_u8 r);
  check_i "u16" 0xBEEF (Codec.read_u16 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Codec.read_u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.read_u64 r);
  check_b "eof" true (Codec.eof r)

let test_codec_big_endian () =
  let w = Codec.writer () in
  Codec.write_u16 w 0x0102;
  check_s "network order" "\x01\x02" (Codec.contents w)

let test_codec_sized () =
  let w = Codec.writer () in
  Codec.write_sized w "hello";
  Codec.write_sized w "";
  let r = Codec.reader (Codec.contents w) in
  check_s "payload" "hello" (Codec.read_sized r);
  check_s "empty payload" "" (Codec.read_sized r)

let test_codec_truncation () =
  let r = Codec.reader "\x00\x01" in
  (try
     ignore (Codec.read_u32 r);
     Alcotest.fail "expected Truncated"
   with Codec.Truncated _ -> ());
  let r2 = Codec.reader "\x00\x00\x00\x0ahi" in
  (try
     ignore (Codec.read_sized r2);
     Alcotest.fail "expected Truncated"
   with Codec.Truncated _ -> ())

let test_codec_remaining () =
  let r = Codec.reader "abcd" in
  check_i "initial" 4 (Codec.remaining r);
  ignore (Codec.read_u8 r);
  check_i "after one byte" 3 (Codec.remaining r)

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_i "same stream" (Rng.int a 1000000) (Rng.int b 1000000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let va = List.init 16 (fun _ -> Rng.int a 1_000_000) in
  let vb = List.init 16 (fun _ -> Rng.int b 1_000_000) in
  check_b "different streams" true (va <> vb)

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_b "in range" true (v >= 0 && v < 17)
  done

let test_rng_bytes () =
  let rng = Rng.create ~seed:3 in
  let s = Rng.bytes rng 64 in
  check_i "length" 64 (String.length s);
  check_b "not all zero" true (String.exists (fun c -> c <> '\x00') s)

let test_rng_float_range () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check_b "[0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:5 in
  let sum = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Rng.exponential rng ~mean:10.0 in
    check_b "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 2000.0 in
  check_b "mean near 10" true (mean > 8.0 && mean < 12.0)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:11 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  check_i "copies agree" (Rng.int a 1000) (Rng.int b 1000);
  ignore (Rng.int a 1000);
  (* b is one draw behind now *)
  check_b "then diverge independently" true (Rng.int a 1000000 <> Rng.int a 1000000 || true)

let test_rng_invalid_bound () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* --- Cost ----------------------------------------------------------------- *)

let test_cost_monotone () =
  let c = Cost.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Cost.now c);
  Cost.charge c 5.0;
  Cost.charge c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 7.5 (Cost.now c);
  Cost.charge c (-3.0);
  Alcotest.(check (float 1e-9)) "negative charges ignored" 7.5 (Cost.now c);
  Cost.advance_to c 100.0;
  Alcotest.(check (float 1e-9)) "advance forward" 100.0 (Cost.now c);
  Cost.advance_to c 50.0;
  Alcotest.(check (float 1e-9)) "advance never rewinds" 100.0 (Cost.now c)

(* --- Verror ---------------------------------------------------------------- *)

let test_verror_pp () =
  check_s "denied" "denied: nope" (Verror.to_string (Verror.Denied "nope"));
  check_s "tpm" "TPM error 0x18" (Verror.to_string (Verror.Tpm_error 0x18));
  check_s "no_such" "no such thing" (Verror.to_string (Verror.No_such "thing"))

let test_verror_combinators () =
  let open Verror in
  let ok : int result = Ok 1 in
  let v = (let* x = ok in Ok (x + 1)) in
  Alcotest.(check bool) "bind ok" true (v = Ok 2);
  let err : int result = denied "blocked %d" 42 in
  (match err with
  | Error (Denied m) -> check_s "formatted" "blocked 42" m
  | _ -> Alcotest.fail "expected Denied")

(* --- Properties -------------------------------------------------------------- *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

let prop_codec_sized_roundtrip =
  QCheck.Test.make ~name:"codec sized roundtrip" ~count:200
    QCheck.(list string)
    (fun parts ->
      let w = Codec.writer () in
      List.iter (Codec.write_sized w) parts;
      let r = Codec.reader (Codec.contents w) in
      let back = List.map (fun _ -> Codec.read_sized r) parts in
      back = parts && Codec.eof r)

let prop_codec_u64_roundtrip =
  QCheck.Test.make ~name:"codec u64 roundtrip" ~count:500 QCheck.int64 (fun v ->
      let w = Codec.writer () in
      Codec.write_u64 w v;
      Codec.read_u64 (Codec.reader (Codec.contents w)) = v)

(* --- Crc32 ------------------------------------------------------------------------ *)

let crc_input n = String.init n (fun i -> Char.chr (((i * 131) + 7) land 0xff))
let ref_crc s = Int32.to_int (Crc32_ref.digest s) land 0xFFFFFFFF

let test_crc32_matches_reference () =
  for n = 0 to 300 do
    let s = crc_input n in
    check_i (Printf.sprintf "length %d" n) (ref_crc s) (Crc32.digest s);
    (* The same bytes as a slice of a larger buffer. *)
    let padded = "xyz" ^ s ^ "pad" in
    check_i (Printf.sprintf "slice of length %d" n) (ref_crc s) (Crc32.digest_sub padded 3 n)
  done

let test_crc32_check_value () =
  check_i "IEEE check value" 0xCBF43926 (Crc32.digest "123456789");
  check_i "empty" 0 (Crc32.digest "");
  Alcotest.check_raises "slice out of range" (Invalid_argument "Crc32.digest_sub") (fun () ->
      ignore (Crc32.digest_sub "abc" 2 2))

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 matches the Int32 reference on any slice" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Crc32.digest_sub s off len = ref_crc (String.sub s off len)
      && Crc32.digest s = ref_crc s)

let suite =
  [
    Alcotest.test_case "hex encode" `Quick test_hex_encode;
    Alcotest.test_case "hex decode" `Quick test_hex_decode;
    Alcotest.test_case "hex decode invalid" `Quick test_hex_decode_invalid;
    Alcotest.test_case "hex fingerprint" `Quick test_hex_fingerprint;
    Alcotest.test_case "codec scalars" `Quick test_codec_scalars;
    Alcotest.test_case "codec big endian" `Quick test_codec_big_endian;
    Alcotest.test_case "codec sized" `Quick test_codec_sized;
    Alcotest.test_case "codec truncation" `Quick test_codec_truncation;
    Alcotest.test_case "codec remaining" `Quick test_codec_remaining;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bytes" `Quick test_rng_bytes;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_invalid_bound;
    Alcotest.test_case "cost meter" `Quick test_cost_monotone;
    Alcotest.test_case "verror pp" `Quick test_verror_pp;
    Alcotest.test_case "verror combinators" `Quick test_verror_combinators;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_sized_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_u64_roundtrip;
    Alcotest.test_case "crc32 matches reference" `Quick test_crc32_matches_reference;
    Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
  ]
