(* RSA over [Bignum], as the TPM 1.2 key hierarchy needs: storage keys wrap
   child-key blobs, signing keys produce quotes. Padding follows the shape
   of PKCS#1 v1.5 (type 01 for signatures, type 02 for encryption); the
   security parameter defaults to 512-bit moduli so key generation and
   signing stay fast inside tests and benchmarks — the monitor under study
   is agnostic to key size.

   Raw textbook exponentiation is never exposed; all entry points pad. *)

type public = { n : Bignum.t; e : Bignum.t; bits : int }

type key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  (* CRT precomputation: dp = d mod (p-1), dq = d mod (q-1),
     qinv = q^-1 mod p. Derived from (d, p, q), never serialized in legacy
     blobs; [of_parts] recomputes them on import. *)
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
  (* Montgomery contexts for p, q and n, built once per key so signing
     pays no R^2 setup. Never serialized. *)
  ctx_p : Bignum.Montgomery.ctx;
  ctx_q : Bignum.Montgomery.ctx;
  ctx_n : Bignum.Montgomery.ctx;
}

let default_e = Bignum.of_int 65537
let modulus_bytes pub = (pub.bits + 7) / 8

(* Raises [Invalid_argument] when p, q or n is even or <= 1. *)
let make ~pub ~d ~p ~q ~dp ~dq ~qinv : key =
  let ctx modulus = Bignum.Montgomery.ctx ~modulus in
  { pub; d; p; q; dp; dq; qinv; ctx_p = ctx p; ctx_q = ctx q; ctx_n = ctx pub.n }

let of_parts ~pub ~d ~p ~q : key =
  let dp = Bignum.rem d (Bignum.sub p Bignum.one) in
  let dq = Bignum.rem d (Bignum.sub q Bignum.one) in
  match Bignum.mod_inverse ~modulus:p q with
  | Some qinv -> make ~pub ~d ~p ~q ~dp ~dq ~qinv
  | None -> invalid_arg "Rsa.of_parts: p and q share a factor"

let generate ?(bits = 512) (rng : Vtpm_util.Rng.t) : key =
  if bits < 128 || bits mod 2 <> 0 then invalid_arg "Rsa.generate: bad modulus size";
  let half = bits / 2 in
  let rec attempt () =
    let p = Bignum.random_prime rng ~bits:half in
    let q = Bignum.random_prime rng ~bits:half in
    if Bignum.equal p q then attempt ()
    else begin
      let n = Bignum.mul p q in
      if Bignum.num_bits n <> bits then attempt ()
      else begin
        let phi = Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one) in
        match Bignum.mod_inverse ~modulus:phi default_e with
        | None -> attempt ()
        (* The CRT fields consume no RNG, so seeded key material is
           unchanged from the pre-CRT generator. *)
        | Some d -> of_parts ~pub:{ n; e = default_e; bits } ~d ~p ~q
      end
    end
  in
  attempt ()

(* --- PKCS#1 v1.5 style padding --------------------------------------- *)

let pad_signature pub digest =
  let k = modulus_bytes pub in
  let dl = String.length digest in
  if dl + 11 > k then invalid_arg "Rsa: digest too long for modulus";
  (* 00 01 FF..FF 00 digest *)
  "\x00\x01" ^ String.make (k - dl - 3) '\xff' ^ "\x00" ^ digest

let pad_encrypt rng pub msg =
  let k = modulus_bytes pub in
  let ml = String.length msg in
  if ml + 11 > k then invalid_arg "Rsa: message too long for modulus";
  let ps = Bytes.create (k - ml - 3) in
  for i = 0 to Bytes.length ps - 1 do
    (* nonzero random padding *)
    Bytes.set ps i (Char.chr (1 + Vtpm_util.Rng.int rng 255))
  done;
  "\x00\x02" ^ Bytes.unsafe_to_string ps ^ "\x00" ^ msg

let unpad_encrypt (s : string) =
  let k = String.length s in
  if k < 11 || s.[0] <> '\x00' || s.[1] <> '\x02' then None
  else begin
    match String.index_from_opt s 2 '\x00' with
    | Some sep when sep >= 10 -> Some (String.sub s (sep + 1) (k - sep - 1))
    | _ -> None
  end

(* --- Core operations --------------------------------------------------- *)

(* x^d mod n the slow way: one full-width exponentiation. Kept as the CRT
   fallback and for the differential tests. *)
let private_op_plain (key : key) (x : Bignum.t) : Bignum.t =
  Bignum.Montgomery.mod_pow key.ctx_n x key.d

(* x^d mod n via CRT: two half-width exponentiations (each ~4x cheaper than
   full-width, so ~4x total including Garner recombination). Before
   releasing the result we check it against the public exponent: a fault in
   either half-exponentiation would otherwise let an attacker factor n from
   a single bad signature (Boneh–DeMillo–Lipton), so on mismatch we discard
   the CRT value and redo the operation the plain way. *)
let private_op (key : key) (x : Bignum.t) : Bignum.t =
  let m1 = Bignum.Montgomery.mod_pow key.ctx_p x key.dp in
  let m2 = Bignum.Montgomery.mod_pow key.ctx_q x key.dq in
  (* Garner: s = m2 + q * (qinv * (m1 - m2) mod p). *)
  let diff =
    if Bignum.compare m1 m2 >= 0 then Bignum.rem (Bignum.sub m1 m2) key.p
    else begin
      let r = Bignum.rem (Bignum.sub m2 m1) key.p in
      if Bignum.is_zero r then Bignum.zero else Bignum.sub key.p r
    end
  in
  let h = Bignum.mod_mul key.p key.qinv diff in
  let s = Bignum.add m2 (Bignum.mul h key.q) in
  let x_mod_n = Bignum.rem x key.pub.n in
  if Bignum.equal (Bignum.Montgomery.mod_pow key.ctx_n s key.pub.e) x_mod_n then s
  else private_op_plain key x

let sign (key : key) ~(digest : string) : string =
  let em = pad_signature key.pub digest in
  let m = Bignum.of_bytes_be em in
  let s = private_op key m in
  Bignum.to_bytes_be_padded s ~width:(modulus_bytes key.pub)

(* [sign] via the non-CRT exponentiation: the differential property tests
   pin the CRT signatures against this, and the benchmarks use it to record
   the before/after ratio. *)
let sign_no_crt (key : key) ~(digest : string) : string =
  let em = pad_signature key.pub digest in
  let m = Bignum.of_bytes_be em in
  let s = private_op_plain key m in
  Bignum.to_bytes_be_padded s ~width:(modulus_bytes key.pub)

let verify (pub : public) ~(digest : string) ~(signature : string) : bool =
  if String.length signature <> modulus_bytes pub then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let em = Bignum.mod_pow ~modulus:pub.n s pub.e in
      let expected = pad_signature pub digest in
      Hmac.equal_ct (Bignum.to_bytes_be_padded em ~width:(modulus_bytes pub)) expected
    end
  end

let encrypt rng (pub : public) (msg : string) : string =
  let em = pad_encrypt rng pub msg in
  let m = Bignum.of_bytes_be em in
  let c = Bignum.mod_pow ~modulus:pub.n m pub.e in
  Bignum.to_bytes_be_padded c ~width:(modulus_bytes pub)

let decrypt (key : key) (cipher : string) : string option =
  if String.length cipher <> modulus_bytes key.pub then None
  else begin
    let c = Bignum.of_bytes_be cipher in
    if Bignum.compare c key.pub.n >= 0 then None
    else begin
      let m = private_op key c in
      unpad_encrypt (Bignum.to_bytes_be_padded m ~width:(modulus_bytes key.pub))
    end
  end

(* --- Wire form (for storing public keys in TPM key blobs) -------------- *)

let public_to_bytes (pub : public) : string =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_u16 w pub.bits;
  Vtpm_util.Codec.write_sized w (Bignum.to_bytes_be pub.n);
  Vtpm_util.Codec.write_sized w (Bignum.to_bytes_be pub.e);
  Vtpm_util.Codec.contents w

let public_of_bytes (s : string) : public option =
  match
    let r = Vtpm_util.Codec.reader s in
    let bits = Vtpm_util.Codec.read_u16 r in
    let n = Bignum.of_bytes_be (Vtpm_util.Codec.read_sized r) in
    let e = Bignum.of_bytes_be (Vtpm_util.Codec.read_sized r) in
    { n; e; bits }
  with
  | pub -> Some pub
  | exception Vtpm_util.Codec.Truncated _ -> None

(* Versioned private-key codec. Version 1 is the pre-CRT shape
   (pub, d, p, q) as written before the CRT fields existed — those blobs
   still parse, with [of_parts] recomputing dp/dq/qinv on import. Version 2
   appends the three CRT values so import skips the two modular reductions
   and the inverse. The keystore's TPM-wire key material keeps its own
   legacy layout (byte-identical blobs feed the simulated I/O costs); this
   codec is for envelopes that carry a whole private key. *)
let key_version = 2

(* The exact bytes a pre-CRT writer produced; exported so the back-compat
   tests exercise the v1 read path against the genuine old layout. *)
let key_to_bytes_v1 (key : key) : string =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_u8 w 1;
  Vtpm_util.Codec.write_sized w (public_to_bytes key.pub);
  List.iter
    (fun v -> Vtpm_util.Codec.write_sized w (Bignum.to_bytes_be v))
    [ key.d; key.p; key.q ];
  Vtpm_util.Codec.contents w

let key_to_bytes (key : key) : string =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_u8 w key_version;
  Vtpm_util.Codec.write_sized w (public_to_bytes key.pub);
  List.iter
    (fun v -> Vtpm_util.Codec.write_sized w (Bignum.to_bytes_be v))
    [ key.d; key.p; key.q; key.dp; key.dq; key.qinv ];
  Vtpm_util.Codec.contents w

let key_of_bytes (s : string) : key option =
  match
    let r = Vtpm_util.Codec.reader s in
    let version = Vtpm_util.Codec.read_u8 r in
    let pub = public_of_bytes (Vtpm_util.Codec.read_sized r) in
    let big () = Bignum.of_bytes_be (Vtpm_util.Codec.read_sized r) in
    match (version, pub) with
    | 1, Some pub ->
        let d = big () in
        let p = big () in
        let q = big () in
        Some (of_parts ~pub ~d ~p ~q)
    | 2, Some pub ->
        let d = big () in
        let p = big () in
        let q = big () in
        let dp = big () in
        let dq = big () in
        let qinv = big () in
        Some (make ~pub ~d ~p ~q ~dp ~dq ~qinv)
    | _ -> None
  with
  | v -> v
  | exception Vtpm_util.Codec.Truncated _ -> None
  | exception Invalid_argument _ -> None
  | exception Division_by_zero -> None

(* Stable fingerprint of a public key, used as key handle material. *)
let fingerprint (pub : public) : string = Sha1.digest (public_to_bytes pub)
