(** RSA over {!Bignum}, as the TPM 1.2 key hierarchy needs: storage keys
    wrap child-key blobs, signing keys produce quotes.

    Padding follows PKCS#1 v1.5 (block type 01 for signatures, 02 for
    encryption). Default modulus size is 512 bits so key generation and
    signing stay fast inside tests and benchmarks — the access-control
    monitor under study is agnostic to key size. Raw textbook
    exponentiation is never exposed. *)

type public = { n : Bignum.t; e : Bignum.t; bits : int }

type key = private {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** d mod (p-1) *)
  dq : Bignum.t;  (** d mod (q-1) *)
  qinv : Bignum.t;  (** q{^ -1} mod p *)
  ctx_p : Bignum.Montgomery.ctx;
  ctx_q : Bignum.Montgomery.ctx;
  ctx_n : Bignum.Montgomery.ctx;  (** Montgomery contexts, never serialized *)
}
(** Private keys carry the CRT precomputation and one Montgomery context
    per modulus; build them through {!generate}, {!of_parts} or
    {!key_of_bytes} so the derived fields stay consistent with (d, p, q). *)

val default_e : Bignum.t
(** 65537. *)

val modulus_bytes : public -> int

val generate : ?bits:int -> Vtpm_util.Rng.t -> key
(** Fresh key with an exact [bits]-bit modulus (default 512). Seeded key
    material is unchanged from the pre-CRT generator (the CRT fields
    consume no RNG).
    @raise Invalid_argument for odd or tiny sizes. *)

val of_parts : pub:public -> d:Bignum.t -> p:Bignum.t -> q:Bignum.t -> key
(** Rebuild a key from its legacy components, recomputing dp/dq/qinv.
    @raise Invalid_argument when p and q are not coprime, or p, q or n is
    even or <= 1 (corrupt blob). *)

(** {1 Signatures} *)

val sign : key -> digest:string -> string
(** PKCS#1 v1.5 signature over [digest]; output is [modulus_bytes] wide.
    Signs via CRT (two half-width exponentiations + Garner recombination),
    verifies the result against the public exponent before release — a
    faulty CRT signature would let an attacker factor the modulus
    (Boneh–DeMillo–Lipton), so a mismatch falls back to the plain
    exponentiation. Signatures are bit-identical to the pre-CRT path. *)

val sign_no_crt : key -> digest:string -> string
(** [sign] through one full-width exponentiation; for differential tests
    and before/after benchmarks. *)

val verify : public -> digest:string -> signature:string -> bool
(** Constant-shape comparison of the recovered encoding. *)

(** {1 Encryption} *)

val encrypt : Vtpm_util.Rng.t -> public -> string -> string
(** Probabilistic (random nonzero padding). *)

val decrypt : key -> string -> string option
(** [None] on wrong width, range or padding. *)

(** {1 Wire form} *)

val public_to_bytes : public -> string
val public_of_bytes : string -> public option

val key_to_bytes : key -> string
(** Versioned private-key codec, current version 2 (with CRT fields). *)

val key_of_bytes : string -> key option
(** Reads version 2 blobs and pre-CRT version 1 blobs (recomputing the CRT
    fields via {!of_parts}); [None] on truncation, unknown version or
    inconsistent components. *)

val key_to_bytes_v1 : key -> string
(** The exact pre-CRT (version 1) encoding, kept so back-compat tests can
    exercise {!key_of_bytes} against the genuine old layout. *)

val fingerprint : public -> string
(** Stable SHA-1 of the wire form, used as key-handle material. *)

(** {1 Padding internals, exposed for tests} *)

val pad_signature : public -> string -> string
val pad_encrypt : Vtpm_util.Rng.t -> public -> string -> string
val unpad_encrypt : string -> string option
