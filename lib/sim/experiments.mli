(** The reproduced evaluation (see DESIGN.md, "Reconstructed
    evaluation"). {!registry} declares every table and figure once: its
    printed text, its JSON record and its named checks.
    [bench/main.exe], the [seed figures frozen] test and CI all iterate
    it, and EXPERIMENTS.md records the output. Latencies are simulated
    microseconds — deterministic and machine-independent.

    The functions below the registry are the parts that tests drive at
    their own scale. *)

(** {1 The figure registry} *)

type result = {
  text : string list;
      (** the printed blocks, in order; each is followed by a newline *)
  checks : (string * bool) list;
      (** named invariants; the bench fails if any is false. The text
          prints them where the section always has (see {!check_lines}). *)
  record : (string * Json.t) list;
      (** deterministic fields of the section's JSON record; [[]] writes
          none *)
  host : (string * Json.t) list;  (** host-time values, kept out of [record] *)
}

type entry = { name : string; run : unit -> result }

val registry : entry list
(** Every table and figure, in bench order, at its default arguments. *)

val check_lines : label:string -> width:int -> (string * bool) list -> string
(** ["<label> check <name padded to width> PASS|FAIL"], one line per
    check, without a final newline. *)

(** {1 Parts driven by tests} *)

type table1_row = {
  op : Tenant.op;
  baseline_us : float;
  improved_us : float;
  overhead_pct : float;
}

val table1 : ?reps:int -> unit -> table1_row list * string
(** Per-command latency, baseline vs improved. *)

val inflate_state : Tenant.t -> kib:int -> unit
(** Grow a tenant's vTPM state by [kib] KiB of NV data (for the size
    sweeps). *)

val fig1 :
  ?vm_counts:int list -> ?total_ops:int -> unit -> (string * (float * float) list) list * string
(** Aggregate throughput vs number of VMs. A constant total op count with
    a shared workload seed isolates per-VM effects from sampling noise. *)

val fig8 :
  ?vm_counts:int list -> ?lane_counts:int list -> ?total_ops:int -> unit ->
  (string * (float * float) list) list * string
(** Aggregate throughput vs number of VMs at N execution lanes (improved
    mode, Figure 1's seeds and op budget). The 1-lane series reproduces
    Figure 1's improved series bit-for-bit; higher lane counts scale
    until the serial per-request residue (ring, monitor, audit)
    saturates. *)

val fig2 :
  ?rule_counts:int list ->
  ?reps:int ->
  ?include_compiled:bool ->
  unit ->
  (string * (float * float) list) list * string
(** Per-request latency vs policy size, decision cache on/off.
    [include_compiled] (default false, keeping the default rendering
    bit-identical to the seed) adds a cache-off series evaluated through
    the compiled policy index — near-flat in policy size. *)

val fig9 :
  ?vm_counts:int list ->
  ?rules:int ->
  ?lanes:int ->
  ?total_ops:int ->
  unit ->
  (string * (float * float) list) list * string
(** Aggregate throughput vs number of VMs at a fixed lane count under a
    large {e guarded} synthetic policy — the worst case for the seed
    monitor, which both scans every rule and refuses to cache guarded
    decisions. Series: [linear] (seed behaviour), [indexed] (compiled
    policy index), [indexed+gen-cache] (index plus the generation-tagged
    decision cache, invalidated only when a measurement changes). *)

val fig4 : ?state_kibs:int list -> unit -> (string * (float * float) list) list * string
(** Migration time vs state size, plaintext vs protected. *)

(** {1 Recovery evaluation (fault injection; no counterpart in the paper)} *)

type table4_row = {
  mode : string;
  fault_rate : float;  (** per-decision rate, every fault class *)
  requests : int;
  succeeded : int;
  success_pct : float;
  mean_attempts : float;
  recovered : int;  (** successes that needed at least one retry *)
  rec_p50_us : float;  (** end-to-end latency of recovered requests *)
  rec_p99_us : float;
  restarts : int;  (** manager-domain restarts *)
  reconnects : int;  (** frontend reconnection handshakes *)
  injected : int;  (** faults actually fired *)
}

val run_fault_workload :
  ?lanes:int ->
  self_heal:bool -> fault_rate:float -> requests:int -> seed:int -> unit -> table4_row
(** One workload run under uniform per-class fault injection: fail-fast
    ([self_heal:false]) or retry + reconnect + checkpointed restart.
    [lanes] (default 1) sizes the manager's execution-lane pool. *)

type crash_drill = {
  extends_acked : int;
  drill_restarts : int;
  drill_reconnects : int;
  state_preserved : bool;  (** post-recovery PCR equals last acknowledged *)
}

val crash_drill : ?extends:int -> ?crash_rate:float -> seed:int -> unit -> crash_drill
(** Crash-consistency drill: only [Manager_crash] injected, PCR-extend
    traffic, checkpoint/restore across each crash; [state_preserved]
    compares the recovered PCR against the last acknowledged value. *)

(** {1 Overload evaluation (flood containment; no counterpart in the paper)} *)

type flood_config =
  | Naive  (** unbounded FIFO, no rate limit *)
  | Quota_only  (** token bucket at service time only *)
  | Full_stack  (** bounded queues + deadline shed + quota + supervisor *)

type table5_row = {
  config : string;
  flood_x : int;  (** attacker rate as a multiple of one victim's *)
  victim_sent : int;
  victim_good : int;  (** served OK within the deadline *)
  victim_goodput_pct : float;
  victim_p99_us : float;  (** over victim requests actually served *)
  attacker_served : int;  (** attacker commands that executed *)
  attacker_rejected : int;  (** admission rejections + quota denials *)
  flood_shed : int;  (** queued entries dropped past their deadline *)
}

val flood_run :
  config:flood_config -> flood_x:int -> ?victims:int -> ?victim_period_us:float ->
  ?victim_ops:int -> ?deadline_us:float -> ?lanes:int -> ?batch:int ->
  seed:int -> unit -> table5_row
(** One discrete-event flood run: [victims] well-behaved guests at a
    steady mixed rate, one attacker flooding extends at [flood_x] times a
    victim's rate, all multiplexed through the shared backend in global
    arrival order. [lanes] (default 1) sizes the manager's execution-lane
    pool; [batch] (default 1) bounds the driver's per-round batch drain —
    the defaults reproduce the serial PR 3 behaviour bit-for-bit. *)

type wedge_drill = {
  wd_requests : int;
  wd_wedges : int;  (** injected instance hangs *)
  wd_quarantines : int;
  wd_restarts : int;  (** checkpoint restores of the live instance *)
  wd_breaker_opens : int;
  wd_degraded_reads : int;  (** reads served from the shadow while degraded *)
  wd_degraded_rejects : int;  (** mutations refused while degraded *)
  wd_served_ok : int;
  wd_state_preserved : bool;  (** final PCR equals the last acknowledged extend *)
}

val wedge_drill : ?requests:int -> ?wedge_rate:float -> seed:int -> unit -> wedge_drill
(** Wedged-instance drill on the supervised monitor path: only
    [Wedged_instance] injected; checks quarantine + checkpoint restart,
    degraded read-only service, and that recovery loses no acknowledged
    extend. *)

(** {1 Hardware-TPM fault domain (Table 8 / Figure 12; no counterpart in
    the paper)} *)

type table8_row = {
  t8_boundary : string;
  t8_crashes : int;
  t8_repaired : int;  (** repairs that needed hardware work *)
  t8_completed : int;  (** both halves had already landed *)
  t8_torn : int;  (** journal residue or verify failure after recovery — must be 0 *)
  t8_verify_ok : bool;
}

val torn_commit_drill :
  ?crashes:int -> seed:int -> Vtpm_access.Anchor.crash_point * string -> table8_row
(** Power loss injected at one commit boundary, [crashes] times, each
    followed by a service restart over the durable journal and a full
    repair + anchored verification. *)

val crash_boundaries : (Vtpm_access.Anchor.crash_point * string) list

type anchor_storm = {
  as_commits : int;  (** anchor commits attempted under the storm *)
  as_committed : int;
  as_deferred : int;
  as_hard_errors : int;  (** non-transient failures leaked to callers — must be 0 *)
  as_breaker_opens : int;
  as_retries : int;
  as_stalls : int;
  as_power_cycles : int;
  as_repairs : int;
  as_catchup_batches : int;
  as_catchup_entries : int;
  as_recovery_us : float;  (** down-window length of the last recovery *)
  as_torn : int;  (** journal residue + verify failures at the end — must be 0 *)
  as_verify_ok : bool;
}

val anchor_storm : ?flood_x:int -> ?commits:int -> ?seed:int -> unit -> anchor_storm
(** [flood_x * commits] anchor commits through the service under seeded
    hardware faults (busy, stall, power loss, NV rot, reset), then the
    injector disarmed and the breaker recovered: the backlog must catch
    up, the journal drain, and the anchor verify — zero torn anchors. *)

val fig13 :
  ?vm_counts:int list ->
  ?rules:int ->
  ?fixed_lanes:int ->
  ?total_ops:int ->
  unit ->
  (string * (float * float) list) list * string
(** Lane placement and manager sharding at scale: fig9's best
    configuration (guarded policy, index + gen-cache) re-run with
    fixed-hash placement at the seed's 8 lanes, least-loaded placement
    at one lane per VM, and group-per-tenant manager shards whose
    private frontends absorb the per-request serial residue. The
    fixed-hash series flatlines; least-loaded placement or sharding must
    clear 3x its 64-VM throughput, with the sharded curve still rising
    at 256 VMs. *)

type table9_row = {
  t9_config : string;
  t9_flood_x : int;
  t9_victim_sent : int;
  t9_victim_good : int;  (** served OK within the deadline *)
  t9_victim_goodput_pct : float;
  t9_victim_p99_us : float;
  t9_attacker_served : int;
  t9_attacker_rejected : int;  (** group-quota denials at service time *)
}

val shard_drill :
  sharded:bool ->
  flood_x:int ->
  ?victims:int ->
  ?victim_period_us:float ->
  ?victim_ops:int ->
  ?deadline_us:float ->
  ?group_quota_rate:float ->
  seed:int ->
  unit ->
  table9_row
(** One tenant floods its own vTPM at [flood_x] times a victim's rate
    with no admission control. Unsharded, the flood serializes on the
    global meter and victim goodput collapses; sharded, it is confined
    to the noisy group's own lanes and frontend, leaving the quiet
    group's goodput at 100%. [group_quota_rate] additionally installs a
    per-group token bucket on the noisy group. *)

val fig14 :
  ?vm_counts:int list ->
  ?rules:int ->
  ?total_ops:int ->
  unit ->
  (string * (float * float) list) list * string
(** Quote-path throughput before/after the crypto overhaul: the
    attestation-heavy mix on fig13's best host (guarded policy, index +
    gen-cache, group shards) priced under each {!Vtpm_util.Cost.quote_profile}.
    The 2010-model series reproduces the paper-era ceiling; the measured
    schoolbook and Montgomery/CRT series re-cost TPM_Quote from this
    container's Bechamel medians, so the gap between the last two curves
    is the signature speedup's end-to-end effect. Each series builds its
    hosts with its profile ({!Workload.make_host_with_tenants}
    [?quote_profile]). *)
