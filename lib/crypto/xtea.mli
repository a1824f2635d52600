(** An XTEA-shaped block cipher in counter mode.

    The symmetric primitive for sealing vTPM state at rest: small,
    dependency-free and adequate for the simulation — the behaviour under
    study is that state dumps become useless without the sealed key, which
    any stream cipher preserves. 64-bit block, 128-bit key.

    Not Needham–Wheeler XTEA: the round function adds where XTEA XORs
    and vice versa (see the implementation header), so published XTEA
    test vectors do not apply. The variant is frozen by a known-answer
    test because every sealed blob depends on it. *)

type key
(** A key with its round constants precomputed. *)

val key_of_string : string -> key
(** @raise Invalid_argument unless exactly 16 bytes. *)

val encrypt_block : key -> int32 * int32 -> int32 * int32
(** Raw 64-bit block encryption (exposed for tests). *)

val ctr_transform : key -> nonce:int -> string -> string
(** Counter-mode keystream XOR; encryption and decryption are the same
    operation. Only the low 32 bits of [nonce] are used. Never reuse a
    (key, nonce) pair for distinct messages. *)
