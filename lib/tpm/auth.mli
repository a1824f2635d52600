(** TPM 1.2 authorization sessions.

    OIAP proves knowledge of an object's usage secret per command; OSAP
    binds to one entity at setup and HMACs with a derived shared secret.
    Rolling nonces ([nonceEven] regenerated after every authorized
    command) give replay protection — the replay experiments depend on
    this behaviour being faithful. *)

type kind = Oiap | Osap of { entity_handle : int; shared_secret : string }

type session = {
  kind : kind;
  mutable nonce_even : string;
}

type t

val create : drbg:Vtpm_crypto.Drbg.t -> ?max_sessions:int -> unit -> t

val start_oiap : t -> (int * string, int) result
(** Fresh session: [(handle, nonceEven)] or [TPM_RESOURCES]. *)

val start_osap :
  t ->
  entity_handle:int ->
  usage_secret:string ->
  nonce_odd_osap:string ->
  (int * string * string, int) result
(** [(handle, nonceEven, nonceEvenOSAP)]; the shared secret is
    [HMAC(usage_secret, nonceEvenOSAP || nonceOddOSAP)]. *)

val find : t -> int -> (session, int) result
val mem : t -> int -> bool

val handles : t -> int list
(** Loaded session handles, ascending. *)

val terminate : t -> int -> unit
val clear : t -> unit

type proof = { handle : int; nonce_odd : string; continue : bool; hmac : string }
(** The per-command authorization trailer. *)

val compute_hmac :
  key:string -> param_digest:string -> nonce_even:string -> nonce_odd:string -> continue:bool -> string

val verify :
  t ->
  proof:proof ->
  usage_secret:string ->
  entity_handle:int ->
  param_digest:string ->
  (string, int) result
(** Validate a proof; on success rolls the session nonce and returns the
    fresh [nonceEven] for the response. The session terminates unless
    [proof.continue] was set. OSAP sessions additionally require
    [entity_handle] to match the binding. *)

val make_proof :
  key:string ->
  handle:int ->
  nonce_even:string ->
  nonce_odd:string ->
  continue:bool ->
  param_digest:string ->
  proof
(** Client-side mirror of {!verify}. *)
