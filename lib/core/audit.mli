(** Hash-chained audit log.

    Every monitor decision appends an entry whose hash covers the previous
    entry's hash, so truncation or in-place tampering of a dumped log is
    detectable given the latest head — which {!Anchor} can pin in
    hardware-TPM NV. *)

type entry = {
  seq : int;
  time_us : float;  (** simulated time of the decision *)
  subject : string;
  operation : string;  (** ordinal name or management op *)
  instance : int option;
  allowed : bool;
  reason : string;
  prev_hash : string;
  hash : string;
}

type t

val genesis : string
(** Chain anchor of an empty log. *)

val create : cost:Vtpm_util.Cost.t -> t
(** Unbounded retention until {!set_max_entries}. *)

val set_max_entries : t -> int option -> unit
(** Cap retention: once exceeded, the log rotates — the newest half of
    the cap is kept and the dropped prefix's chain anchor is recorded in
    {!base}, so the retained window remains verifiable and the head
    unchanged. [None] retains everything. Rotates immediately if already
    over the cap. The retained window lives in slots sized from the cap;
    an uncapped log doubles its slots as it grows. *)

val append :
  ?tag:string ->
  t ->
  subject:string ->
  operation:string ->
  instance:int option ->
  allowed:bool ->
  reason:string ->
  unit
(** Record one decision. The entry's reason is [reason ^ tag]: [tag]
    (default [""]) is stored and hashed as a separate piece, so a caller
    can pass a reason and a suffix it built once without concatenating
    them per entry. The log keeps the strings it is given, so callers on
    the hot path should pass long-lived ones. *)

val length : t -> int
(** Entries ever appended (monotonic across rotation). *)

val retained_entries : t -> int
(** Entries currently held — bounded by the retention cap. *)

val rotations : t -> int
val dropped : t -> int

val head : t -> string
(** Hash of the newest entry ({!genesis} when empty). *)

val base : t -> string
(** Chain anchor of the oldest retained entry: {!genesis} for a
    never-rotated log; pass it to {!verify_chain} after rotation. *)

val entries : t -> entry list
(** Oldest retained first, built on demand. *)

val entry_digest :
  seq:int ->
  time_us:float ->
  subject:string ->
  operation:string ->
  instance:int option ->
  allowed:bool ->
  reason:string ->
  prev_hash:string ->
  string
(** The per-entry chain digest: SHA-256 over a binary length-delimited
    encoding of the fields (no [Printf], no hex round-trips). Exposed for
    benchmarks; {!append} and {!verify_chain} compute the same digest with
    a context they reuse across entries. *)

val verify_chain : ?expected_head:string -> ?base:string -> entry list -> (unit, int) result
(** Recompute the chain over an exported (oldest-first) list, anchored at
    [base] (default {!genesis}; a rotated log's recorded {!base}).
    [Error seq] marks the first bad link; [Error (-1)] means the chain is
    internally consistent but does not end at [expected_head] (truncated
    or stale). *)

(** {1 Export / import}

    A line-oriented on-disk form; {!verify_chain} applies to imported
    lists exactly as to live ones. *)

val export : t -> string
val import : string -> (entry list, string) result

val pp_entry : Format.formatter -> entry -> unit
