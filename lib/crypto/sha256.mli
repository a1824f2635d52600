(** SHA-256 (FIPS 180-4).

    Used for the hash-chained audit log and the state-sealing MAC, where a
    longer digest than TPM 1.2's SHA-1 is appropriate. *)

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes. *)

val digest : string -> string

val digest_concat : string list -> string
(** Digest of the concatenation of the parts, without materializing it:
    one context walk. Merkle leaf/node hashing is the heavy caller. *)

val hexdigest : string -> string

(** {1 Incremental interface} *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to its freshly-initialized state, reusing its
    buffers — lets hot paths hash repeatedly without allocating. *)

val feed : ctx -> string -> unit
(** Full blocks are compressed straight from the input string; only a
    partial-block tail is copied into the context. *)

val feed_sub : ctx -> string -> off:int -> len:int -> unit
(** [feed] restricted to a substring, without allocating it.
    @raise Invalid_argument when the range is out of bounds. *)

val feed_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit
(** Zero-copy feed from a scratch buffer; the buffer is only read during
    the call and may be reused afterwards. *)

val finalize : ctx -> string

val finalize_into : ctx -> Bytes.t -> off:int -> unit
(** [finalize] writing the 32-byte digest into [dst] at [off] instead of
    allocating it.
    @raise Invalid_argument when the range is out of bounds. *)
