(** The improved reference monitor — the paper's contribution.

    Sits between the vTPM backend and the manager. For every request it:

    + derives the subject from the hypervisor-attested sender (never from
      the claimed instance number in the frame);
    + resolves the target instance from the binding table;
    + evaluates the policy — decision cache for unguarded rules,
      PCR-backed measurement gate for guarded ones;
    + optionally applies a per-subject rate limit;
    + appends a hash-chained audit record;
    + only then lets the manager execute the command.

    Management operations (state save/restore, migration, rebinding,
    audit export) are mediated by the same policy under the caller's dom0
    process identity, authenticated by a registered credential. *)

type stats = {
  mutable lookups : int;
  mutable cache_hits : int;
  mutable rules_scanned : int;
  mutable allowed : int;
  mutable denied : int;
  mutable gate_checks : int;
  mutable throttled : int;
  mutable overloaded : int;  (** submissions rejected at queue admission *)
  mutable shed : int;  (** queued requests dropped past their deadline *)
  mutable batches : int;  (** multi-request drains served by the driver *)
  mutable batched_requests : int;  (** requests served inside those drains *)
  mutable transport_tampers : int;
      (** ring/grant integrity violations detected by the driver *)
}

type cached = { c_verdict : Policy.verdict; c_gen : int }
(** A cached verdict; [c_gen] is the per-subject measurement generation
    it depended on, or [-1] when measurement-independent. *)

type charge = Linear_charge | Index_charge
(** The price of a policy decision in simulated time and [rules_scanned];
    evaluation always goes through the compiled index. [Linear_charge]
    is the paper's Figure 2 model: a rule-scan step per rule a
    first-match scan examines ([linear_scanned]). [Index_charge] is
    {!Vtpm_util.Cost.monitor_index_lookup_us} plus a step per candidate. *)

type t = {
  xen : Vtpm_xen.Hypervisor.t;
  mgr : Vtpm_mgr.Manager.t;
  mutable index : Policy.index;
  mutable policy_has_guards : bool;
  mutable charge : charge;
  bindings : Binding.t;
  audit : Audit.t;
  credentials : Subject.Credentials.t;
  cache : (int * string * int, cached) Hashtbl.t;
  cached_keys : (int * string, (int, unit) Hashtbl.t) Hashtbl.t;
  generations : (int * string, int) Hashtbl.t;
  mutable cache_enabled : bool;
  mutable guard_cache_enabled : bool;
  mutable audit_enabled : bool;
  mutable quota : Quota.t option;
  group_quotas : (int, Quota.t) Hashtbl.t;
  names : (Vtpm_xen.Domain.domid, string) Hashtbl.t;
  batch_reasons : (int, string) Hashtbl.t;
  mutable supervisor : Vtpm_mgr.Supervisor.t option;
  mutable freshness : Vtpm_mgr.Freshness.t option;
  stats : stats;
}

val create :
  xen:Vtpm_xen.Hypervisor.t -> mgr:Vtpm_mgr.Manager.t -> ?policy:Policy.t -> ?charge:charge ->
  unit -> t
(** [policy] defaults to {!Policy.default_improved}, [charge] to
    [Linear_charge] (the seed cost model). *)

(** {1 Configuration} *)

val set_policy : t -> ?charge:charge -> Policy.t -> unit
(** Compiles and installs a new policy, priced at [charge] (default: the
    current one), and invalidates the decision cache. *)

val set_cache_enabled : t -> bool -> unit
val set_audit_enabled : t -> bool -> unit

val set_guard_cache_enabled : t -> bool -> unit
(** Opt-in: serve guarded policies from the decision cache, tagging each
    gate-dependent entry with the subject's measurement generation.
    Entries go stale — and are re-evaluated — exactly when the generation
    advances: PCR extend, rebind, policy reload, or an explicit
    {!bump_measurement}. Off by default: the seed semantics (guarded
    policy means no caching at all) are preserved. *)

val guard_cache_enabled : t -> bool

val bump_measurement : t -> Subject.t -> unit
(** Advance the subject's measurement generation, invalidating every
    cached decision that consulted the measurement gate for it. The
    monitor calls this itself on PCR-mutating commands and on rebind;
    call it directly for measurement events it cannot observe (e.g. a
    kernel swap before re-attestation). *)

val set_quota : t -> rate_per_s:float -> burst:float -> unit
(** Enable token-bucket rate limiting for all mediated requests. *)

val clear_quota : t -> unit

val set_group_quota : t -> group_id:int -> rate_per_s:float -> burst:float -> unit
(** Token-bucket rate limiting scoped to one vTPM group (sharded hosts):
    the group's members share a single bucket, admitted under a synthetic
    per-group subject, so one tenant's flood can exhaust only its own
    group's tokens. Checked after the per-subject quota; refusals audit
    as ["group-rate-limited"]. No buckets installed = seed behaviour. *)

val clear_group_quota : t -> group_id:int -> unit

val set_supervisor : t -> Vtpm_mgr.Supervisor.t -> unit
(** Route execution through a supervisor: circuit breaker, quarantine +
    checkpoint restart, degraded read-only service. Supervision events
    ("quarantine", "breaker-open", "degraded-read", ...) land in the
    audit log under their own reasons. *)

val clear_supervisor : t -> unit

val set_freshness : t -> Vtpm_mgr.Freshness.t option -> unit
(** Opt-in rollback defense for migration streams: exports stamp
    monotonic counters into the protected envelope, imports refuse
    anything not strictly newer than last-seen (legacy v1 envelopes
    included — downgrade defense), and refusals land in the audit log as
    denials. [None] (the default) keeps the seed stream format. *)

val enable_freshness : t -> (Vtpm_mgr.Freshness.t, string) result
(** Create a freshness tracker over the manager, anchor its last-seen
    table in the hardware TPM, and install it. *)

val set_audit_cap : t -> int option -> unit
(** Bound the audit log's retention ({!Audit.set_max_entries}) so long
    flood runs don't grow memory without limit. *)

val wire_backpressure : t -> Vtpm_mgr.Driver.backend -> unit
(** Hook the driver's admission-control and batching events into the
    audit log: rejections appear under reason "overloaded", deadline
    sheds under "shed-deadline", multi-request batch drains as allowed
    "batch-drain:n" entries — all counted in {!stats}. *)

val wire_transport_guard : t -> Vtpm_mgr.Driver.backend -> unit
(** Turn on the driver's transport-integrity validation
    ({!Vtpm_mgr.Driver.set_validate_transport}) and route every detected
    violation — remapped or revoked ring grant, corrupted producer index,
    injected frame — into the audit log as a ["transport-tamper"] denial
    against the affected frontend, counted in {!stats}. *)

val forget_subject : t -> Subject.t -> unit
(** Teardown when a domain is destroyed: drop the subject's quota bucket,
    cached decisions (via the per-subject key index — no whole-table
    fold) and measurement generation. *)

val enable_tamper_detection : t -> unit
(** Watch the vTPM device subtree in XenStore: any rewrite of an
    [instance] node that diverges from the binding table raises a
    [tamper-alert] audit entry — the re-pointing attack becomes evidence
    instead of merely failing. *)

val disable_tamper_detection : t -> unit

val register_process : t -> process:string -> token:string -> unit
(** Register a dom0 process credential for the management interface. *)

(** {1 Observability} *)

val stats : t -> stats
val reset_stats : t -> unit

val lane_stats : t -> (int * float) array
(** Per execution lane of the manager's pool: commands executed and busy
    microseconds, in lane order. *)

val shard_stats : t -> (int * string * int * (int * float) array) list
(** Per vTPM group when the manager is sharded: (group id, label,
    members, per-lane stats of the shard's pool), ordered by group id;
    empty on unsharded hosts. *)

(** {1 Decision core (exposed for benchmarks)} *)

val decide :
  t -> subject:Subject.t -> ordinal:int -> binding:Binding.binding option ->
  Policy.verdict * string
(** The policy step alone: verdict plus the audit reason. Only engine
    ordinals ({!Vtpm_tpm.Types.all_ordinals}) get cached verdicts. *)

(** {1 The wire-request router} *)

val router : t -> Vtpm_mgr.Driver.router
(** Install into a {!Vtpm_mgr.Driver.backend}. *)

(** {1 Management interface} *)

type management_op =
  | Save_instance of { vtpm_id : int }
  | Restore_instance of { blob : string }
  | Migrate_out of { vtpm_id : int; dest_key : Vtpm_crypto.Rsa.public option }
  | Migrate_in of { stream : string }
  | Migrate_receive of { stream : string }
      (** import quarantined ([Suspended]): the handshake's destination
          half — never live until the source commits *)
  | Migrate_activate of { vtpm_id : int }
  | Migrate_abort of { vtpm_id : int }
  | Rebind of { vtpm_id : int; new_domid : Vtpm_xen.Domain.domid }
  | Export_audit

val management_op_name : management_op -> string

type management_result =
  | M_blob of string
  | M_instance of int
  | M_audit of Audit.entry list
  | M_unit

val management :
  t -> process:string -> token:string -> management_op -> (management_result, string) result
(** Credential gate first, then Admin-class policy, then the operation.
    All state leaving through here is sealed; migration streams are
    protected. *)
