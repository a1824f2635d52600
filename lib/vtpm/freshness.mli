(** Monotonic freshness counters for vTPM state blobs — the rollback
    defense for checkpoints and migration streams.

    Each instance lineage (identified by its EK fingerprint, stable
    across hosts and serialization) carries a monotonic counter. Exports
    stamp a counter strictly above everything this host has issued or
    accepted for the lineage; imports refuse any blob whose counter is
    not strictly newer than the last value accepted. The last-seen table
    can itself be anchored in the hardware TPM (a {!Hw_anchor} slot, the
    audit-anchor construction) so a crashed destination reloading an old
    table fails closed. *)

type t

type router = {
  rt_commit : data:string -> (int, Vtpm_util.Verror.t) result;
      (** synchronous anchored commit of the table digest *)
  rt_read : unit -> (string, Vtpm_util.Verror.t) result;
      (** read back the anchored digest *)
  rt_available : unit -> bool;
      (** false while the anchoring service holds the hardware TPM down;
          admissions fail closed *)
}
(** The path an anchored tracker's hardware traffic takes.
    {!anchor_setup} installs single-attempt {!Hw_anchor.commit} /
    {!Hw_anchor.read} (always available); [Vtpm_access.Anchor.attach_freshness]
    swaps in the journaled, breaker-guarded service. Closures because
    [lib/vtpm] cannot depend on [lib/core]. *)

val create : Manager.t -> t

val set_router : t -> router -> unit
(** Replace the anchored tracker's router.
    @raise Invalid_argument before {!anchor_setup}. *)

val anchor_slot : t -> Hw_anchor.slot option
(** The table's anchor slot once {!anchor_setup} ran. *)

val lineage : Vtpm_tpm.Engine.t -> string
(** The engine's lineage identity: its EK fingerprint. *)

val issue : t -> lineage:string -> int
(** Stamp a fresh counter: strictly above the lineage's issue and
    last-seen high-water marks. *)

val stamp_checkpoint : t -> lineage:string -> int
(** {!issue}, and also move the lineage's restore floor: only the latest
    checkpoint passes {!check_restore} afterwards. Kept separate from
    plain issues so a migration export doesn't strand the latest
    checkpoint as stale after an aborted handshake. *)

val admit : t -> lineage:string -> counter:int -> (unit, string) result
(** Import-side admission: strictly newer than last-seen, else an error
    naming the rollback. Success records the counter and, when anchored,
    commits the table digest to the hardware TPM. On an anchored tracker
    the live table must match the hardware digest first — a tracker whose
    table was discarded after a stale reload refuses every import until
    an up-to-date table is loaded. With a {!router} attached, admissions
    also fail closed while the anchoring service reports the hardware TPM
    down: freshness commits are never deferred. *)

val check_restore : t -> lineage:string -> counter:int -> (unit, string) result
(** Checkpoint-restore admission: at least the lineage's restore floor
    (the latest checkpoint is legal; a captured older one is not). *)

val issued_hwm : t -> lineage:string -> int
val last_seen : t -> lineage:string -> int
val accepted : t -> int
val rejected : t -> int

(** {1 Hardware anchoring of the last-seen table} *)

val anchored : t -> bool

val anchor_setup : t -> (unit, Vtpm_util.Verror.t) result
(** Define the anchor slot (label ["freshness"], NV index 0x1A0E,
    distinct from the audit slot's), install the direct router, and
    commit the current table digest so the anchor invariant holds from
    setup onward. Errors are typed: transient device trouble is
    [Unavailable], TPM codes keep their identity. *)

val anchor_commit : t -> (int, Vtpm_util.Verror.t) result
(** Commit the current table digest through the {!router}; returns the
    hardware counter. *)

val anchor_verify : t -> (unit, Vtpm_util.Verror.t) result
(** Compare the live table against the anchored digest. A mismatch is an
    [Integrity] error (rollback/stale — never retryable); device trouble
    is [Unavailable]. *)

val table_digest : t -> string

(** {1 Table persistence} *)

val save_table : t -> string

val load_table : t -> string -> (unit, string) result
(** Replace the tables from a saved blob. When anchored, the reloaded
    table must match the hardware anchor; a stale copy is discarded and
    the load fails closed. *)
