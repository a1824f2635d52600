(** CRC-32 (IEEE 802.3), the frame-integrity checksum of the vTPM
    transport protocol. Catches accidental corruption (bit flips,
    truncation); it is not a MAC and offers no adversarial integrity.

    Results are native ints in [0, 2{^32}). *)

val digest : string -> int

val digest_sub : string -> int -> int -> int
(** [digest_sub s off len] is the CRC of [String.sub s off len], computed
    in place. Raises [Invalid_argument] on an out-of-range slice. *)

val digest_bytes_sub : bytes -> int -> int -> int
(** {!digest_sub} over a byte buffer, for encoders that checksum a frame
    before freezing it into a string. *)
