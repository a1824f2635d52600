(** HMAC (RFC 2104) over SHA-1 and SHA-256.

    TPM 1.2 authorization sessions (OIAP/OSAP) prove knowledge of a usage
    secret with HMAC-SHA1 over a digest of the command parameters. *)

val sha1_mac : key:string -> string -> string
(** [sha1_mac ~key msg] is HMAC-SHA1 over [msg]; keys longer than the
    hash block are pre-hashed per the RFC. The inner and outer hashes
    stream through a reused context — the message is never copied into
    an [ipad ^ msg] staging string. *)

val sha256_mac : key:string -> string -> string
(** As {!sha1_mac}, with SHA-256. *)

val equal_ct : string -> string -> bool
(** Constant-shape comparison: never short-circuits, so timing does not
    leak the position of the first mismatching byte. Use for all MAC and
    credential comparisons. *)
