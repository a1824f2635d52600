(** Arbitrary-precision natural numbers.

    The build environment has no bignum library (no zarith), and the vTPM
    key hierarchy needs RSA, so the repo carries its own naturals:
    little-endian limbs in base 2^30, chosen so a limb product plus
    carries stays inside OCaml's 63-bit native [int]. Only naturals are
    provided; the one signed computation (extended Euclid) tracks signs
    internally in {!mod_inverse}. *)

type t = int array
(** Little-endian limbs, no trailing zero limb; zero is [[||]]. The
    representation is exposed for the serializers; treat it as read-only
    and build values only through this module. *)

val zero : t
val one : t
val two : t
val is_zero : t -> bool
val is_even : t -> bool

val of_int : int -> t
(** @raise Invalid_argument on negatives. *)

val to_int_opt : t -> int option
(** [None] when the value exceeds native [int] range. *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument on underflow (requires [a >= b]). *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [(q, r)] with [a = q*b + r] and [r < b].
    @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t
val gcd : t -> t -> t

(** {1 Bits} *)

val num_bits : t -> int
val test_bit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Modular arithmetic} *)

val mod_add : t -> t -> t -> t
(** [mod_add m a b] is [(a + b) mod m]. *)

val mod_mul : t -> t -> t -> t
(** [mod_mul m a b] is [(a * b) mod m]. *)

val mod_pow : modulus:t -> t -> t -> t
(** [mod_pow ~modulus base exp]. Odd moduli (every RSA modulus and prime
    factor) go through Montgomery REDC with sliding-window exponentiation,
    building a fresh {!Montgomery.ctx} per call; even moduli fall back to
    {!mod_pow_schoolbook}. Both paths return bit-identical results. *)

val mod_pow_schoolbook : modulus:t -> t -> t -> t
(** Reference square-and-multiply via {!mod_mul} (one full division per
    product). Exported for the differential property tests and the
    before/after micro-benchmarks. *)

(** Montgomery arithmetic for odd moduli: build a {!Montgomery.ctx} once
    per modulus and amortize its setup (one division for R{^2} mod m)
    across exponentiations. [Rsa.key] stores one per prime factor and
    one for the modulus. *)
module Montgomery : sig
  type ctx
  (** Plain immutable data (no closures), so values that embed a context
      compare structurally. *)

  val ctx : modulus:t -> ctx
  (** @raise Invalid_argument when the modulus is even or <= 1. *)

  val mod_pow : ctx -> t -> t -> t
  (** Sliding-window exponentiation over an odd-powers table, entering and
      leaving Montgomery form internally. *)
end

val mod_inverse : modulus:t -> t -> t option
(** Multiplicative inverse; [None] when not coprime with the modulus. *)

(** {1 Byte-string conversion (big-endian, as in TPM key blobs)} *)

val of_bytes_be : string -> t

val to_bytes_be : t -> string
(** Minimal-width encoding; zero encodes as a single zero byte. *)

val to_bytes_be_padded : t -> width:int -> string
(** Fixed-width encoding, left-padded with zeros.
    @raise Invalid_argument when the value needs more than [width] bytes. *)

val to_hex : t -> string

(** {1 Randomness and primality} *)

val random_bits : Vtpm_util.Rng.t -> bits:int -> t
(** Uniform with exactly [bits] bits (top bit forced). *)

val random_range : Vtpm_util.Rng.t -> lo:t -> hi:t -> t
(** Uniform in [\[lo, hi)] by rejection sampling. *)

val small_primes : int list

val is_probable_prime : ?rounds:int -> Vtpm_util.Rng.t -> t -> bool
(** Miller–Rabin with trial division by {!small_primes} first; [rounds]
    defaults to 16. *)

val random_prime : Vtpm_util.Rng.t -> bits:int -> t
(** Random probable prime of exactly [bits] bits. *)
