(* Tests for the crypto substrate: hash vectors from FIPS/RFC documents,
   bignum arithmetic identities (many property-based), RSA and XTEA. *)

open Vtpm_crypto

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- SHA-1 (FIPS 180-4 / RFC 3174 vectors) --------------------------------- *)

let test_sha1_vectors () =
  check_s "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hexdigest "");
  check_s "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hexdigest "abc");
  check_s "448 bits" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_s "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hexdigest (String.make 1_000_000 'a'))

let test_sha1_incremental () =
  let whole = Sha1.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha1.init () in
  Sha1.feed ctx "the quick brown ";
  Sha1.feed ctx "fox jumps over";
  Sha1.feed ctx " the lazy dog";
  check_s "chunked = one-shot" (Vtpm_util.Hex.encode whole) (Vtpm_util.Hex.encode (Sha1.finalize ctx))

let test_sha1_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha1.init () in
      String.iter (fun c -> Sha1.feed ctx (String.make 1 c)) s;
      check_s
        (Printf.sprintf "len %d" n)
        (Vtpm_util.Hex.encode (Sha1.digest s))
        (Vtpm_util.Hex.encode (Sha1.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

(* --- SHA-256 ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_s "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hexdigest "");
  check_s "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hexdigest "abc");
  check_s "448 bits" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_incremental () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let i = ref 0 in
  while !i < String.length data do
    let n = min 37 (String.length data - !i) in
    Sha256.feed ctx (String.sub data !i n);
    i := !i + n
  done;
  check_s "chunked = one-shot"
    (Vtpm_util.Hex.encode (Sha256.digest data))
    (Vtpm_util.Hex.encode (Sha256.finalize ctx))

(* --- HMAC (RFC 2202 / RFC 4231) -------------------------------------------------- *)

let test_hmac_sha1_vectors () =
  check_s "rfc2202 tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Vtpm_util.Hex.encode (Hmac.sha1_mac ~key:(String.make 20 '\x0b') "Hi There"));
  check_s "rfc2202 tc2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Vtpm_util.Hex.encode (Hmac.sha1_mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Key longer than the block size exercises the key-hashing path. *)
  check_s "rfc2202 tc6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Vtpm_util.Hex.encode
       (Hmac.sha1_mac ~key:(String.make 80 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_sha256_vector () =
  check_s "rfc4231 tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Vtpm_util.Hex.encode (Hmac.sha256_mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_equal_ct () =
  check_b "equal" true (Hmac.equal_ct "abc" "abc");
  check_b "different" false (Hmac.equal_ct "abc" "abd");
  check_b "length mismatch" false (Hmac.equal_ct "abc" "abcd");
  check_b "empty" true (Hmac.equal_ct "" "")

(* --- Context reuse (reset + scratch one-shot path) -------------------------------- *)

(* A reset context must behave exactly like a fresh one — the one-shot
   [digest] now reuses a module-level scratch context through this path. *)
let test_sha_ctx_reset_reuse () =
  let ctx1 = Sha1.init () in
  Sha1.feed ctx1 "poison the state";
  ignore (Sha1.finalize ctx1);
  Sha1.reset ctx1;
  Sha1.feed ctx1 "abc";
  check_s "sha1 reset = fresh" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1));
  (* Reset mid-feed, before finalize, discards buffered input too. *)
  Sha1.reset ctx1;
  Sha1.feed ctx1 (String.make 70 'z');
  Sha1.reset ctx1;
  Sha1.feed ctx1 "abc";
  check_s "sha1 reset discards partial input" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1));
  let ctx2 = Sha256.init () in
  Sha256.feed ctx2 (String.make 130 'q');
  ignore (Sha256.finalize ctx2);
  Sha256.reset ctx2;
  Sha256.feed ctx2 "abc";
  check_s "sha256 reset = fresh" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Vtpm_util.Hex.encode (Sha256.finalize ctx2))

(* Interleaved one-shot digests and incremental contexts must not clobber
   each other: [digest] uses a private scratch context. *)
let test_sha_scratch_isolation () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "hello ";
  let _ = Sha256.digest (String.make 200 'w') in
  Sha256.feed ctx "world";
  check_s "incremental unaffected by one-shot"
    (Vtpm_util.Hex.encode (Sha256.digest "hello world"))
    (Vtpm_util.Hex.encode (Sha256.finalize ctx));
  let ctx1 = Sha1.init () in
  Sha1.feed ctx1 "hello ";
  let _ = Sha1.digest "interleaved" in
  Sha1.feed ctx1 "world";
  check_s "sha1 incremental unaffected"
    (Vtpm_util.Hex.encode (Sha1.digest "hello world"))
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1))

(* --- Bignum ------------------------------------------------------------------------ *)

let bn = Bignum.of_int
let bn_int a = Option.get (Bignum.to_int_opt a)

let test_bignum_basics () =
  check_b "zero is zero" true (Bignum.is_zero Bignum.zero);
  check_i "of/to int" 123456789 (bn_int (bn 123456789));
  check_i "num_bits 0" 0 (Bignum.num_bits Bignum.zero);
  check_i "num_bits 1" 1 (Bignum.num_bits Bignum.one);
  check_i "num_bits 255" 8 (Bignum.num_bits (bn 255));
  check_i "num_bits 256" 9 (Bignum.num_bits (bn 256))

let test_bignum_compare () =
  check_i "eq" 0 (Bignum.compare (bn 42) (bn 42));
  check_b "lt" true (Bignum.compare (bn 41) (bn 42) < 0);
  check_b "gt" true (Bignum.compare (bn 43) (bn 42) > 0);
  check_b "wide gt" true (Bignum.compare (Bignum.shift_left Bignum.one 100) (bn max_int) > 0)

let test_bignum_add_sub () =
  let a = bn 0x3FFFFFFF and b = bn 1 in
  check_i "carry across limb" 0x40000000 (bn_int (Bignum.add a b));
  check_i "sub" 0x3FFFFFFF (bn_int (Bignum.sub (bn 0x40000000) (bn 1)));
  Alcotest.check_raises "underflow" (Invalid_argument "Bignum.sub: underflow") (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_mul_div () =
  let a = bn 123456789 and b = bn 987654321 in
  check_i "mul" (123456789 * 987654321) (bn_int (Bignum.mul a b));
  let q, r = Bignum.divmod (bn 1000000007) (bn 97) in
  check_i "quot" (1000000007 / 97) (bn_int q);
  check_i "rem" (1000000007 mod 97) (bn_int r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod (bn 1) Bignum.zero))

let test_bignum_shifts () =
  check_i "shl" (1 lsl 40) (bn_int (Bignum.shift_left Bignum.one 40));
  check_i "shr" 1 (bn_int (Bignum.shift_right (Bignum.shift_left Bignum.one 40) 40));
  check_b "shr to zero" true (Bignum.is_zero (Bignum.shift_right (bn 5) 10))

let test_bignum_test_bit () =
  let v = bn 0b1010 in
  check_b "bit 1" true (Bignum.test_bit v 1);
  check_b "bit 0" false (Bignum.test_bit v 0);
  check_b "bit 3" true (Bignum.test_bit v 3);
  check_b "beyond width" false (Bignum.test_bit v 100)

let test_bignum_mod_pow () =
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = bn 1000000007 in
  check_i "fermat" 1 (bn_int (Bignum.mod_pow ~modulus:p (bn 12345) (bn 1000000006)));
  check_i "2^100 mod p" 976371285 (bn_int (Bignum.mod_pow ~modulus:p (bn 2) (bn 100)));
  check_i "x^0" 1 (bn_int (Bignum.mod_pow ~modulus:p (bn 5) Bignum.zero));
  check_b "mod 1" true (Bignum.is_zero (Bignum.mod_pow ~modulus:Bignum.one (bn 5) (bn 3)))

let test_bignum_mod_inverse () =
  (match Bignum.mod_inverse ~modulus:(bn 97) (bn 31) with
  | Some inv -> check_i "31 * inv = 1 mod 97" 1 (bn_int (Bignum.mod_mul (bn 97) (bn 31) inv))
  | None -> Alcotest.fail "inverse must exist");
  check_b "no inverse when not coprime" true (Bignum.mod_inverse ~modulus:(bn 12) (bn 8) = None)

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_bytes_be "\x01\x02\x03\x04\x05\x06\x07\x08\x09" in
  check_s "roundtrip" "\x01\x02\x03\x04\x05\x06\x07\x08\x09" (Bignum.to_bytes_be v);
  check_s "zero" "\x00" (Bignum.to_bytes_be Bignum.zero);
  check_s "padded" "\x00\x00\x2a" (Bignum.to_bytes_be_padded (bn 42) ~width:3);
  (* Leading zero bytes in the input are dropped canonically on re-encode. *)
  check_s "canonical" "\x2a" (Bignum.to_bytes_be (Bignum.of_bytes_be "\x00\x00\x2a"))

let test_bignum_primality () =
  let rng = Vtpm_util.Rng.create ~seed:17 in
  List.iter
    (fun p -> check_b (Printf.sprintf "%d prime" p) true (Bignum.is_probable_prime rng (bn p)))
    [ 2; 3; 5; 97; 7919; 1000000007; 2147483647 ];
  List.iter
    (fun c -> check_b (Printf.sprintf "%d composite" c) false (Bignum.is_probable_prime rng (bn c)))
    [ 0; 1; 4; 100; 7917; 1000000008; 561 (* Carmichael *); 41041 (* Carmichael *) ]

let test_bignum_random_prime () =
  let rng = Vtpm_util.Rng.create ~seed:23 in
  let p = Bignum.random_prime rng ~bits:64 in
  check_i "exact bit width" 64 (Bignum.num_bits p);
  check_b "is prime" true (Bignum.is_probable_prime rng p)

let test_bignum_gcd () =
  check_i "gcd" 6 (bn_int (Bignum.gcd (bn 48) (bn 18)));
  check_i "gcd coprime" 1 (bn_int (Bignum.gcd (bn 35) (bn 64)));
  check_i "gcd with zero" 42 (bn_int (Bignum.gcd (bn 42) Bignum.zero))

(* Bignum properties, checked against native int arithmetic. *)

let small = QCheck.int_range 0 1_000_000_000

let prop_add_commutes =
  QCheck.Test.make ~name:"bignum add commutes" ~count:300 (QCheck.pair small small)
    (fun (a, b) -> Bignum.equal (Bignum.add (bn a) (bn b)) (Bignum.add (bn b) (bn a)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"bignum add = int add" ~count:300 (QCheck.pair small small)
    (fun (a, b) -> bn_int (Bignum.add (bn a) (bn b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bignum mul = int mul" ~count:300
    (QCheck.pair (QCheck.int_range 0 1_000_000) (QCheck.int_range 0 1_000_000))
    (fun (a, b) -> bn_int (Bignum.mul (bn a) (bn b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:300
    (QCheck.pair small (QCheck.int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.equal (bn a) (Bignum.add (Bignum.mul q (bn b)) r) && Bignum.compare r (bn b) < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bignum bytes roundtrip" ~count:300 small (fun a ->
      bn_int (Bignum.of_bytes_be (Bignum.to_bytes_be (bn a))) = a)

let prop_shift_mul =
  QCheck.Test.make ~name:"shl k = mul 2^k" ~count:200
    (QCheck.pair (QCheck.int_range 0 100000) (QCheck.int_range 0 40))
    (fun (a, k) ->
      Bignum.equal (Bignum.shift_left (bn a) k) (Bignum.mul (bn a) (Bignum.shift_left Bignum.one k)))

(* Large-operand identities: operands built from random byte strings, far
   beyond native int range. *)

let gen_big = QCheck.Gen.(map Bignum.of_bytes_be (string_size (int_range 1 64)))

let prop_big_add_sub_inverse =
  QCheck.Test.make ~name:"big (a+b)-b = a" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_big gen_big))
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_big_divmod_identity =
  QCheck.Test.make ~name:"big a = q*b + r" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_big gen_big))
    (fun (a, b) ->
      if Bignum.is_zero b then true
      else begin
        let q, r = Bignum.divmod a b in
        Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0
      end)

let prop_big_mul_distributes =
  QCheck.Test.make ~name:"big a*(b+c) = a*b + a*c" ~count:150
    (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_big))
    (fun (a, b, c) ->
      Bignum.equal (Bignum.mul a (Bignum.add b c)) (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_big_bytes_roundtrip =
  QCheck.Test.make ~name:"big bytes roundtrip (canonical)" ~count:200 (QCheck.make gen_big)
    (fun a -> Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be a)) a)

let prop_big_modpow_split =
  (* a^(e1+e2) = a^e1 * a^e2 (mod m), with m odd > 1. *)
  QCheck.Test.make ~name:"big modpow exponent additivity" ~count:60
    (QCheck.make
       QCheck.Gen.(
         quad gen_big
           (map Bignum.of_int (int_range 0 1000))
           (map Bignum.of_int (int_range 0 1000))
           (map (fun n -> Bignum.add (Bignum.of_int ((2 * n) + 3)) Bignum.zero) (int_range 1 1_000_000))))
    (fun (a, e1, e2, m) ->
      let lhs = Bignum.mod_pow ~modulus:m a (Bignum.add e1 e2) in
      let rhs = Bignum.mod_mul m (Bignum.mod_pow ~modulus:m a e1) (Bignum.mod_pow ~modulus:m a e2) in
      Bignum.equal lhs rhs)

(* --- RSA ------------------------------------------------------------------------------ *)

let rsa_key = lazy (Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:31))

let test_rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "message" in
  let s = Rsa.sign key ~digest in
  check_i "signature width" (Rsa.modulus_bytes key.pub) (String.length s);
  check_b "verifies" true (Rsa.verify key.pub ~digest ~signature:s);
  check_b "wrong digest" false (Rsa.verify key.pub ~digest:(Sha1.digest "other") ~signature:s)

let test_rsa_signature_tamper () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "message" in
  let s = Bytes.of_string (Rsa.sign key ~digest) in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 1));
  check_b "tampered fails" false (Rsa.verify key.pub ~digest ~signature:(Bytes.to_string s))

let test_rsa_encrypt_decrypt () =
  let key = Lazy.force rsa_key in
  let rng = Vtpm_util.Rng.create ~seed:37 in
  let ct = Rsa.encrypt rng key.pub "hello" in
  check_b "decrypts" true (Rsa.decrypt key ct = Some "hello");
  (* Random padding: two encryptions of the same message differ. *)
  let ct2 = Rsa.encrypt rng key.pub "hello" in
  check_b "probabilistic" true (ct <> ct2);
  check_b "both decrypt" true (Rsa.decrypt key ct2 = Some "hello")

let test_rsa_decrypt_garbage () =
  let key = Lazy.force rsa_key in
  check_b "wrong width" true (Rsa.decrypt key "short" = None);
  let garbage = String.make (Rsa.modulus_bytes key.pub) '\x01' in
  check_b "garbage" true (Rsa.decrypt key garbage = None)

let test_rsa_public_roundtrip () =
  let key = Lazy.force rsa_key in
  match Rsa.public_of_bytes (Rsa.public_to_bytes key.pub) with
  | Some pub ->
      check_b "n" true (Bignum.equal pub.Rsa.n key.pub.Rsa.n);
      check_b "e" true (Bignum.equal pub.Rsa.e key.pub.Rsa.e);
      check_i "bits" key.pub.Rsa.bits pub.Rsa.bits
  | None -> Alcotest.fail "roundtrip failed"

let test_rsa_cross_key () =
  let k1 = Lazy.force rsa_key in
  let k2 = Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:41) in
  let digest = Sha1.digest "m" in
  let s = Rsa.sign k1 ~digest in
  check_b "other key rejects" false (Rsa.verify k2.pub ~digest ~signature:s)

(* --- XTEA ------------------------------------------------------------------------------ *)

let xtea_key = Xtea.key_of_string (String.init 16 Char.chr)

let test_xtea_roundtrip () =
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ct = Xtea.ctr_transform xtea_key ~nonce:5 msg in
      check_s (Printf.sprintf "len %d" n) msg (Xtea.ctr_transform xtea_key ~nonce:5 ct))
    [ 0; 1; 7; 8; 9; 16; 100; 4096 ]

let test_xtea_nonce_matters () =
  let msg = String.make 64 'm' in
  let a = Xtea.ctr_transform xtea_key ~nonce:1 msg in
  let b = Xtea.ctr_transform xtea_key ~nonce:2 msg in
  check_b "distinct streams" true (a <> b)

let test_xtea_key_matters () =
  let msg = String.make 64 'm' in
  let k2 = Xtea.key_of_string (String.make 16 'k') in
  check_b "distinct keys" true
    (Xtea.ctr_transform xtea_key ~nonce:1 msg <> Xtea.ctr_transform k2 ~nonce:1 msg)

let test_xtea_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Xtea.key_of_string: need 16 bytes")
    (fun () -> ignore (Xtea.key_of_string "short"))

let prop_xtea_roundtrip =
  QCheck.Test.make ~name:"xtea ctr roundtrip" ~count:200
    (QCheck.pair QCheck.string QCheck.small_nat)
    (fun (msg, nonce) ->
      Xtea.ctr_transform xtea_key ~nonce (Xtea.ctr_transform xtea_key ~nonce msg) = msg)

(* The repo's cipher is XTEA-shaped but not Needham-Wheeler XTEA (the
   round function swaps XTEA's add and xor); standard XTEA maps this
   block under this key to 497df3d0 72612cb5. Every sealed blob depends
   on the variant, so its output is pinned here. *)
let test_xtea_known_answer () =
  let c0, c1 = Xtea.encrypt_block xtea_key (0x41424344l, 0x45464748l) in
  check_s "repo variant" "2c5219524d857a9b" (Printf.sprintf "%08lx%08lx" c0 c1);
  let ref_key = Xtea_ref.key_of_string (String.init 16 Char.chr) in
  check_b "frozen reference agrees" true
    ((c0, c1) = Xtea_ref.encrypt_block ref_key (0x41424344l, 0x45464748l))

(* The four-block CTR kernel against the frozen scalar cipher it replaced.
   Nonces include negatives and values wider than 32 bits (only the low 32
   bits count); lengths cover 0..100 and both sides of every multiple of
   32 up to 512, where the zero-padded tail takes over. *)
let prop_xtea_matches_reference =
  let gen =
    QCheck.Gen.(
      let nonce =
        oneof
          [
            small_nat;
            map (fun n -> -n - 1) nat;
            map2 (fun hi lo -> (hi lsl 32) lor lo) (int_range 1 0x3fffffff) (int_bound 0xffffffff);
            int;
          ]
      in
      let len =
        oneof
          [ int_range 0 100; map2 (fun k d -> (32 * k) + d) (int_range 1 16) (int_range (-1) 1) ]
      in
      triple (string_size (return 16)) nonce (len >>= fun n -> string_size (return n)))
  in
  QCheck.Test.make ~name:"xtea ctr matches frozen scalar reference" ~count:500
    (QCheck.make
       ~print:(fun (k, nonce, d) ->
         Printf.sprintf "key=%S nonce=%d len=%d" k nonce (String.length d))
       gen)
    (fun (k, nonce, data) ->
      Xtea.ctr_transform (Xtea.key_of_string k) ~nonce data
      = Xtea_ref.ctr_transform (Xtea_ref.key_of_string k) ~nonce data)

(* --- DRBG ------------------------------------------------------------------------------- *)

let test_drbg_deterministic () =
  let a = Drbg.instantiate ~seed:"s" and b = Drbg.instantiate ~seed:"s" in
  check_s "same stream" (Drbg.generate a 48) (Drbg.generate b 48)

let test_drbg_seed_sensitivity () =
  let a = Drbg.instantiate ~seed:"s1" and b = Drbg.instantiate ~seed:"s2" in
  check_b "different" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_ratchets () =
  let d = Drbg.instantiate ~seed:"s" in
  let x = Drbg.generate d 32 in
  let y = Drbg.generate d 32 in
  check_b "outputs differ" true (x <> y)

let test_drbg_reseed () =
  let a = Drbg.instantiate ~seed:"s" and b = Drbg.instantiate ~seed:"s" in
  Drbg.reseed a ~entropy:"fresh";
  check_b "reseed changes stream" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_lengths () =
  let d = Drbg.instantiate ~seed:"s" in
  List.iter (fun n -> check_i (Printf.sprintf "%d bytes" n) n (String.length (Drbg.generate d n)))
    [ 1; 20; 32; 33; 64; 100 ]

(* --- Crypto hot-path differentials (PR 10) ----------------------------------
   The Montgomery/CRT/word-level rewrites must be bit-identical to the
   simple paths they replaced. Each optimized route is tested against its
   slow reference on random inputs, and golden fixtures pin the exact
   signature bytes so a silent change to either route fails loudly. *)

let gen_odd_modulus =
  (* Odd modulus > 1, up to 512 bits: the Montgomery-eligible case. *)
  QCheck.Gen.(
    map
      (fun s ->
        let m = Bignum.of_bytes_be s in
        let m = if Bignum.is_even m then Bignum.add m Bignum.one else m in
        if Bignum.compare m Bignum.one <= 0 then Bignum.of_int 3 else m)
      (string_size (int_range 1 64)))

let prop_montgomery_matches_schoolbook =
  QCheck.Test.make ~name:"montgomery mod_pow == schoolbook" ~count:120
    (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_odd_modulus))
    (fun (base, exp, m) ->
      Bignum.equal
        (Bignum.mod_pow ~modulus:m base exp)
        (Bignum.mod_pow_schoolbook ~modulus:m base exp))

let rsa_key512 = lazy (Rsa.generate ~bits:512 (Vtpm_util.Rng.create ~seed:99))

let prop_crt_sign_matches_plain =
  QCheck.Test.make ~name:"crt sign == no-crt sign" ~count:40
    (QCheck.make QCheck.Gen.(pair bool (string_size (return 20))))
    (fun (big, digest) ->
      let key = Lazy.force (if big then rsa_key512 else rsa_key) in
      Rsa.sign key ~digest = Rsa.sign_no_crt key ~digest)

let feed_in_chunks feed finalize ctx s cuts =
  (* Split [s] at the (sorted, deduped) cut points and stream the pieces. *)
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (String.length s + 1)) cuts) in
  let prev = ref 0 in
  List.iter
    (fun c ->
      if c > !prev then feed ctx s ~off:!prev ~len:(c - !prev);
      prev := max !prev c)
    (cuts @ [ String.length s ]);
  finalize ctx

let prop_sha1_stream_split =
  QCheck.Test.make ~name:"sha1 chunked feed_sub == one-shot" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 4096)) (list_size (int_range 0 8) nat)))
    (fun (s, cuts) ->
      feed_in_chunks Sha1.feed_sub Sha1.finalize (Sha1.init ()) s cuts = Sha1.digest s)

let prop_sha256_stream_split =
  QCheck.Test.make ~name:"sha256 chunked feed_sub == one-shot" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 4096)) (list_size (int_range 0 8) nat)))
    (fun (s, cuts) ->
      feed_in_chunks Sha256.feed_sub Sha256.finalize (Sha256.init ()) s cuts = Sha256.digest s)

let prop_digest_concat =
  QCheck.Test.make ~name:"digest_concat == digest of concatenation" ~count:80
    (QCheck.make QCheck.Gen.(list_size (int_range 0 6) (string_size (int_range 0 200))))
    (fun parts ->
      let whole = String.concat "" parts in
      Sha1.digest_concat parts = Sha1.digest whole
      && Sha256.digest_concat parts = Sha256.digest whole)

let hmac_reference hash block ~key msg =
  (* RFC 2104 by the book, via one-shot digests and staging strings —
     the naive construction the streaming implementation replaced. *)
  let key = if String.length key > block then hash [ key ] else key in
  let pad = key ^ String.make (block - String.length key) '\x00' in
  let xor_with c = String.map (fun k -> Char.chr (Char.code k lxor c)) pad in
  hash [ xor_with 0x5c; hash [ xor_with 0x36; msg ] ]

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"streaming hmac == rfc2104 reference" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 100)) (string_size (int_range 0 500))))
    (fun (key, msg) ->
      Hmac.sha1_mac ~key msg = hmac_reference Sha1.digest_concat 64 ~key msg
      && Hmac.sha256_mac ~key msg = hmac_reference Sha256.digest_concat 64 ~key msg)

let test_rsa_golden_signatures () =
  (* Captured from the pre-overhaul schoolbook signer: the Montgomery/CRT
     path must reproduce these bytes exactly. *)
  let digest = Sha1.digest "message" in
  check_s "sig256"
    "893d15cb879ec3db8976e2dd57d14cc80317e01358a7874376741a639fa91bc6"
    (Vtpm_util.Hex.encode (Rsa.sign (Lazy.force rsa_key) ~digest));
  check_s "sig512"
    "335261ee77eecf99607b44b6e6879aa0762141d68376092087463f23c7750b887b54e23afacf3245f267bbee0e1440139180cd935c8790b30238e5c8d14e760c"
    (Vtpm_util.Hex.encode (Rsa.sign (Lazy.force rsa_key512) ~digest));
  check_s "fp256" "659f4e08e8b8cbf01cefee22049ac78111196f9b"
    (Vtpm_util.Hex.encode (Rsa.fingerprint (Lazy.force rsa_key).Rsa.pub));
  check_s "fp512" "f47113e2efb32fa0522ac0cf30a59acdf9060ae3"
    (Vtpm_util.Hex.encode (Rsa.fingerprint (Lazy.force rsa_key512).Rsa.pub))

let test_rsa_key_codec_versions () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "codec" in
  let expect = Rsa.sign key ~digest in
  (* v2 (current) round trip preserves every CRT component. *)
  (match Rsa.key_of_bytes (Rsa.key_to_bytes key) with
  | None -> Alcotest.fail "v2 decode failed"
  | Some k ->
      check_b "v2 pub n" true (Bignum.equal k.Rsa.pub.Rsa.n key.Rsa.pub.Rsa.n);
      check_b "v2 dp" true (Bignum.equal k.Rsa.dp key.Rsa.dp);
      check_b "v2 dq" true (Bignum.equal k.Rsa.dq key.Rsa.dq);
      check_b "v2 qinv" true (Bignum.equal k.Rsa.qinv key.Rsa.qinv);
      check_s "v2 sig" (Vtpm_util.Hex.encode expect) (Vtpm_util.Hex.encode (Rsa.sign k ~digest)));
  (* v1 (pre-overhaul, no CRT fields) still decodes; the derived fields
     are recomputed so signatures stay identical. *)
  match Rsa.key_of_bytes (Rsa.key_to_bytes_v1 key) with
  | None -> Alcotest.fail "v1 decode failed"
  | Some k ->
      check_b "v1 p" true (Bignum.equal k.Rsa.p key.Rsa.p);
      check_b "v1 qinv recomputed" true (Bignum.equal k.Rsa.qinv key.Rsa.qinv);
      check_s "v1 sig" (Vtpm_util.Hex.encode expect) (Vtpm_util.Hex.encode (Rsa.sign k ~digest))

let test_montgomery_rejects_even () =
  check_b "even modulus rejected" true
    (try
       ignore (Bignum.Montgomery.ctx ~modulus:(Bignum.of_int 10));
       false
     with Invalid_argument _ -> true);
  (* mod_pow itself must still serve even moduli via the schoolbook path. *)
  check_b "mod_pow even fallback" true
    (Bignum.equal
       (Bignum.mod_pow ~modulus:(Bignum.of_int 10) (Bignum.of_int 7) (Bignum.of_int 3))
       (Bignum.of_int 3))

(* --- Fused kernel and linear conversions vs frozen references ----------------
   [Bignum_ref] keeps the two-pass Montgomery kernel and the per-byte
   conversions the live code replaced; every value, byte and exception
   must match. *)

let result_or_exn f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Every padding width from 0 (too narrow for any value) to two past the
   input length, including the widths that raise. *)
let bytes_match_reference s =
  let v = Bignum.of_bytes_be s in
  v = Bignum_ref.of_bytes_be s
  && Bignum.to_bytes_be v = Bignum_ref.to_bytes_be v
  && List.for_all
       (fun width ->
         result_or_exn (fun () -> Bignum.to_bytes_be_padded v ~width)
         = result_or_exn (fun () -> Bignum_ref.to_bytes_be_padded v ~width))
       (List.init (String.length s + 3) Fun.id)

let test_bytes_every_length () =
  for len = 0 to 130 do
    List.iter
      (fun (what, s) ->
        check_b (Printf.sprintf "%s, %d bytes" what len) true (bytes_match_reference s))
      [
        ("all ones", String.make len '\xff');
        ("high bit", String.init len (fun i -> if i = 0 then '\x80' else '\x00'));
        ("leading zero", String.init len (fun i -> if i = 0 then '\x00' else Char.chr (i land 0xff)));
      ]
  done

let prop_bytes_match_reference =
  QCheck.Test.make ~name:"bytes conversions == frozen reference" ~count:400
    (QCheck.make
       QCheck.Gen.(
         int_range 0 130 >>= fun len ->
         int_range 0 len >>= fun zeros ->
         map (fun tail -> String.make zeros '\x00' ^ tail) (string_size (return (len - zeros)))))
    bytes_match_reference

(* Carry-heavy odd moduli 2^(30k) - r with small odd r: every limb but the
   lowest is all ones, so the fused loop's carries run the full width. *)
let gen_carry_heavy =
  QCheck.Gen.(
    int_range 1 18 >>= fun k ->
    int_range 0 0xffff >>= fun r ->
    let m = Bignum.sub (Bignum.shift_left Bignum.one (30 * k)) (Bignum.of_int ((2 * r) + 1)) in
    let edge = [ Bignum.zero; Bignum.one; Bignum.sub m Bignum.one ] in
    let big = map Bignum.of_bytes_be (string_size (int_range 1 ((30 * k / 8) + 2))) in
    let ones = map (fun j -> Bignum.sub (Bignum.shift_left Bignum.one j) Bignum.one) (int_range 1 (30 * k)) in
    triple (oneof [ oneofl edge; big ]) (oneof [ oneofl [ Bignum.zero; Bignum.one ]; ones; big ]) (return m))

let prop_montgomery_matches_reference =
  QCheck.Test.make ~name:"fused montgomery == two-pass reference" ~count:300
    (QCheck.make gen_carry_heavy)
    (fun (base, exp, m) ->
      Bignum.mod_pow ~modulus:m base exp
      = Bignum_ref.Montgomery.mod_pow (Bignum_ref.Montgomery.ctx ~modulus:m) base exp)

(* The attest workload's shape: 16 keys signing round-robin, so no key's
   state survives from its previous signature. *)
let keys16 = lazy (Array.init 16 (fun i -> Rsa.generate ~bits:512 (Vtpm_util.Rng.create ~seed:(1000 + i))))

let sign_reference (key : Rsa.key) ~digest =
  let n = key.Rsa.pub.Rsa.n in
  let m = Bignum_ref.of_bytes_be (Rsa.pad_signature key.Rsa.pub digest) in
  let s = Bignum_ref.Montgomery.mod_pow (Bignum_ref.Montgomery.ctx ~modulus:n) m key.Rsa.d in
  Bignum_ref.to_bytes_be_padded s ~width:(Rsa.modulus_bytes key.Rsa.pub)

let prop_sign_16_keys_round_robin =
  let next = ref 0 in
  QCheck.Test.make ~name:"16-key round-robin sign == no-crt == reference" ~count:64
    (QCheck.make QCheck.Gen.(string_size (return 20)))
    (fun digest ->
      let key = (Lazy.force keys16).(!next land 15) in
      incr next;
      let s = Rsa.sign key ~digest in
      s = Rsa.sign_no_crt key ~digest && s = sign_reference key ~digest)

let suite =
  [
    Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
    Alcotest.test_case "sha1 incremental" `Quick test_sha1_incremental;
    Alcotest.test_case "sha1 block boundaries" `Quick test_sha1_block_boundaries;
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac-sha1 vectors" `Quick test_hmac_sha1_vectors;
    Alcotest.test_case "hmac-sha256 vector" `Quick test_hmac_sha256_vector;
    Alcotest.test_case "hmac equal_ct" `Quick test_hmac_equal_ct;
    Alcotest.test_case "sha ctx reset/reuse" `Quick test_sha_ctx_reset_reuse;
    Alcotest.test_case "sha scratch isolation" `Quick test_sha_scratch_isolation;
    Alcotest.test_case "bignum basics" `Quick test_bignum_basics;
    Alcotest.test_case "bignum compare" `Quick test_bignum_compare;
    Alcotest.test_case "bignum add/sub" `Quick test_bignum_add_sub;
    Alcotest.test_case "bignum mul/div" `Quick test_bignum_mul_div;
    Alcotest.test_case "bignum shifts" `Quick test_bignum_shifts;
    Alcotest.test_case "bignum test_bit" `Quick test_bignum_test_bit;
    Alcotest.test_case "bignum mod_pow" `Quick test_bignum_mod_pow;
    Alcotest.test_case "bignum mod_inverse" `Quick test_bignum_mod_inverse;
    Alcotest.test_case "bignum bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
    Alcotest.test_case "bignum primality" `Quick test_bignum_primality;
    Alcotest.test_case "bignum random prime" `Quick test_bignum_random_prime;
    Alcotest.test_case "bignum gcd" `Quick test_bignum_gcd;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_identity;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_shift_mul;
    QCheck_alcotest.to_alcotest prop_big_add_sub_inverse;
    QCheck_alcotest.to_alcotest prop_big_divmod_identity;
    QCheck_alcotest.to_alcotest prop_big_mul_distributes;
    QCheck_alcotest.to_alcotest prop_big_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_big_modpow_split;
    Alcotest.test_case "rsa sign/verify" `Quick test_rsa_sign_verify;
    Alcotest.test_case "rsa signature tamper" `Quick test_rsa_signature_tamper;
    Alcotest.test_case "rsa encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
    Alcotest.test_case "rsa decrypt garbage" `Quick test_rsa_decrypt_garbage;
    Alcotest.test_case "rsa public roundtrip" `Quick test_rsa_public_roundtrip;
    Alcotest.test_case "rsa cross key" `Quick test_rsa_cross_key;
    Alcotest.test_case "xtea roundtrip" `Quick test_xtea_roundtrip;
    Alcotest.test_case "xtea nonce matters" `Quick test_xtea_nonce_matters;
    Alcotest.test_case "xtea key matters" `Quick test_xtea_key_matters;
    Alcotest.test_case "xtea bad key" `Quick test_xtea_bad_key;
    QCheck_alcotest.to_alcotest prop_xtea_roundtrip;
    Alcotest.test_case "xtea known answer (repo variant)" `Quick test_xtea_known_answer;
    QCheck_alcotest.to_alcotest prop_xtea_matches_reference;
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg seed sensitivity" `Quick test_drbg_seed_sensitivity;
    Alcotest.test_case "drbg ratchets" `Quick test_drbg_ratchets;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "drbg lengths" `Quick test_drbg_lengths;
    QCheck_alcotest.to_alcotest prop_montgomery_matches_schoolbook;
    QCheck_alcotest.to_alcotest prop_crt_sign_matches_plain;
    QCheck_alcotest.to_alcotest prop_sha1_stream_split;
    QCheck_alcotest.to_alcotest prop_sha256_stream_split;
    QCheck_alcotest.to_alcotest prop_digest_concat;
    QCheck_alcotest.to_alcotest prop_hmac_matches_reference;
    Alcotest.test_case "rsa golden signatures" `Quick test_rsa_golden_signatures;
    Alcotest.test_case "rsa key codec versions" `Quick test_rsa_key_codec_versions;
    Alcotest.test_case "montgomery rejects even modulus" `Quick test_montgomery_rejects_even;
    Alcotest.test_case "bytes == reference, lengths 0..130" `Quick test_bytes_every_length;
    QCheck_alcotest.to_alcotest prop_bytes_match_reference;
    QCheck_alcotest.to_alcotest prop_montgomery_matches_reference;
    QCheck_alcotest.to_alcotest prop_sign_16_keys_round_robin;
  ]
