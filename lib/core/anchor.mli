(** Hardware-TPM anchoring: the audit slot, and the crash-consistent
    service that is the single funnel for every anchor that touches the
    physical chip (audit heads, and the freshness table via
    {!attach_freshness}).

    A hash-chained log alone cannot prove it was not truncated; the head
    must live where the adversary cannot rewrite it. {!setup} defines
    the audit slot, a {!Vtpm_mgr.Hw_anchor} slot: an owner-write NV
    space holding the head and a monotonic counter bumped on every
    commit so missing commits are detectable.

    Errors are typed ({!Vtpm_util.Verror.t}): transient chip trouble is
    [Unavailable]/[Timeout] (retryable by contract), a head or chain
    mismatch is [Integrity] (never retryable), TPM result codes keep
    their identity as [Tpm_error].

    An anchor commit is two hardware ops (NV write, counter bump); power
    loss between them leaves a torn anchor that verify would misread as
    tampering. The service write-ahead-journals each commit into the
    manager checkpoint store so {!recover} can finish or repair it
    idempotently after any crash — the invariant is
    [counter >= acknowledged commits] (over-counting from a re-issued
    bump is safe; under-counting never happens).

    Each hardware op runs under a simulated-clock deadline with bounded,
    seeded retry (exponential backoff + jitter), retrying only faults
    {!Vtpm_tpm.Client.transient} classifies as such. A circuit breaker
    trips to [Down] after consecutive exhausted commits; while down,
    deferrable traffic (audit heads) queues under a bounded-staleness
    contract and non-deferrable traffic (freshness) fails closed.
    Recovery drains the backlog as one Merkle-batched commit per slot,
    keeping a per-entry inclusion proof so any queued digest remains
    individually verifiable against the anchored root. *)

type health = Healthy | Degraded | Down

type config = {
  op_deadline_us : float;
  max_attempts : int;
  backoff_base_us : float;
  backoff_cap_us : float;
  jitter : float;
  failure_threshold : int;
  cooldown_us : float;
  clean_streak : int;
  max_deferred : int;
  max_staleness_us : float;
}

val default_config : config

type outcome =
  | Committed of int  (** synchronous commit; the hardware counter value *)
  | Deferred of int  (** queued while down; the queue depth *)

type repair_report = {
  rp_inflight : int;  (** journal entries found *)
  rp_completed : int;  (** both halves had landed; nothing to do *)
  rp_repaired : int;  (** torn commits finished on the chip *)
}

type crash_point = Before_nv_write | After_nv_write | After_journal_update | After_increment

exception Power_loss of crash_point
(** Raised by a scheduled {!set_power_loss_at} drill: the chip has been
    power-cycled and the commit abandoned exactly as a real cut would. *)

type stats = {
  st_queue_dropped : int;
  st_retries : int;
  st_stalls : int;  (** responses past the per-op deadline *)
  st_breaker_opens : int;
  st_repairs : int;  (** torn commits repaired *)
  st_catchup_batches : int;
  st_catchup_entries : int;
  st_staleness_breaches : int;
  st_last_recovery_us : float;
}

type service

val create : ?cfg:config -> ckpt:Vtpm_mgr.Checkpoint.t -> Vtpm_mgr.Manager.t -> service
(** Loads any journal/queue a previous incarnation persisted in [ckpt];
    call {!recover} afterwards to repair in-flight commits. *)

val set_audit : service -> Audit.t option -> unit
(** Where unanchored-window markers (open/close/staleness-breach) are
    appended. *)

val attach_freshness : service -> Vtpm_mgr.Freshness.t -> (unit, Vtpm_util.Verror.t) result
(** Swap this service in as the anchored freshness tracker's router:
    synchronous commits only (never deferred) and fail-closed admission
    while the breaker is open. The tracker must be anchored already. *)

(** {1 The audit slot} *)

val setup : Vtpm_mgr.Manager.t -> (Vtpm_mgr.Hw_anchor.slot, Vtpm_util.Verror.t) result
(** One-time: define the audit slot (label ["audit"], NV index 0x1A0D,
    a 32-byte SHA-256 head) and create its counter. *)

val verify :
  Vtpm_mgr.Hw_anchor.slot ->
  Vtpm_mgr.Manager.t ->
  ?svc:service ->
  ?base:string ->
  Audit.entry list ->
  (unit, Vtpm_util.Verror.t) result
(** The exported log must be chain-intact from [base] (default
    {!Audit.genesis}) and end at the head the slot anchors — directly,
    or (with [svc]) as a proven leaf of the Merkle-batch root a catch-up
    commit anchored. Catches both tampering and truncation. The anchor
    read is single-attempt and charges no simulated time. For the
    retained window of a rotated log, pass the log's recorded
    {!Audit.base} (or use {!verify_log}). *)

val verify_log :
  Vtpm_mgr.Hw_anchor.slot ->
  Vtpm_mgr.Manager.t ->
  ?svc:service ->
  Audit.t ->
  (unit, Vtpm_util.Verror.t) result
(** {!verify} applied to a live log with its own {!Audit.base} — stays
    valid across retention rotation, which moves the window's start but
    never the anchored head. *)

(** {1 Commits} *)

val commit :
  service -> Vtpm_mgr.Hw_anchor.slot -> data:string -> (outcome, Vtpm_util.Verror.t) result
(** Anchor [data] in the slot; a down (or transiently failing) chip
    defers the digest into the bounded queue. For cumulative digests
    such as audit heads. *)

val commit_sync :
  service -> Vtpm_mgr.Hw_anchor.slot -> data:string -> (int, Vtpm_util.Verror.t) result
(** Never defers: returns the counter value, or the typed error
    ([Unavailable] while the breaker is open). *)

val read_slot :
  service -> Vtpm_mgr.Hw_anchor.slot -> (string * int, Vtpm_util.Verror.t) result
(** Anchored bytes and counter value, under the same fault discipline. *)

val proof_for : service -> label:string -> data:string -> (string * Merkle.proof) option
(** After a Merkle-batched catch-up: [(root, proof)] showing [data] was
    included in the batch anchored for [label]'s slot. *)

(** {1 Fault-domain lifecycle} *)

val recover : service -> (repair_report, Vtpm_util.Verror.t) result
(** Replay the write-ahead journal: finish or repair every in-flight
    commit. Idempotent; on error the journal keeps the unrepaired
    entries for the next attempt. *)

val tick : service -> unit
(** Drive breaker recovery: once the cooldown has elapsed, probe the
    chip, {!recover} in-flight commits, and drain the deferred queue as
    Merkle-batched commits. A no-op unless the breaker is open. Commits
    also attempt this opportunistically. *)

val health : service -> health
val available : service -> bool
(** [health svc <> Down] — the freshness fail-closed predicate. *)

val inflight : service -> int
(** Journaled commits not yet acknowledged complete. *)

val queue_depth : service -> int
val stats : service -> stats

(** {1 Drill hooks (tests and experiments)} *)

val set_power_loss_at : service -> crash_point option -> unit
(** One-shot: the next commit reaching the point power-cycles the chip
    and dies with {!Power_loss}. *)

val force_down : service -> unit
(** Trip the breaker as if the failure threshold had just been crossed. *)
