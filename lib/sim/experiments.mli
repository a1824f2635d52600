(** The reproduced evaluation: one function per table/figure (see
    DESIGN.md, "Reconstructed evaluation"). Each returns raw data plus a
    rendered text block; [bench/main.exe] prints them and EXPERIMENTS.md
    records them. Latencies are simulated microseconds — deterministic
    and machine-independent. *)

type table1_row = {
  op : Tenant.op;
  baseline_us : float;
  improved_us : float;
  overhead_pct : float;
}

val table1 : ?reps:int -> unit -> table1_row list * string
(** Per-command latency, baseline vs improved. *)

type table3_row = { operation : string; baseline_us : float; improved_us : float }

val inflate_state : Tenant.t -> kib:int -> unit
(** Grow a tenant's vTPM state by [kib] KiB of NV data (for the size
    sweeps). *)

val table3 : ?state_kib:int -> unit -> table3_row list * string
(** Lifecycle costs: create+attach, state save, state resume. *)

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

val fig3 : ?ops_per_tenant:int -> unit -> (string * Metrics.summary) list * string
(** Mixed-workload latency distribution, both modes. *)

val fig4 : ?state_kibs:int list -> unit -> (string * (float * float) list) list * string
(** Migration time vs state size, plaintext vs protected. *)

val fig5 : ?reps:int -> unit -> (string * float) list * string
(** Ablation: which monitor feature (cache, audit) costs what on a cheap
    command, against the no-monitor baseline. *)

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

val table4 :
  ?fault_rates:float list -> ?requests:int -> unit ->
  (table4_row list * crash_drill) * string
(** Request survival, retry cost and recovery latency vs fault rate, both
    transport modes, plus the crash drill. *)

val fig6 :
  ?fault_rates:float list -> ?requests:int -> unit ->
  (string * (float * float) list) list * string
(** Success-rate curves vs fault rate, fail-fast vs self-healing. (The
    monitor ablation already occupies Figure 5, so recovery is Figure 6.) *)

(** {1 Overload evaluation (flood containment; no counterpart in the paper)} *)

type flood_config =
  | Naive  (** unbounded FIFO, no rate limit *)
  | Quota_only  (** token bucket at service time only *)
  | Full_stack  (** bounded queues + deadline shed + quota + supervisor *)

val flood_config_name : flood_config -> string

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

val table5 : ?flood_x:int -> ?victim_ops:int -> unit -> table5_row list * string
(** Victim goodput, tail latency and attacker containment under a fixed
    flood multiple, all three configurations. *)

val fig7 :
  ?flood_xs:int list -> ?victim_ops:int -> unit ->
  (string * (float * float) list) list * string
(** Victim goodput vs flood multiple per configuration: the naive stack
    collapses, quota-only degrades, the full stack holds. *)

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

val render_wedge_drill : wedge_drill -> string

(** {1 Live migration under load (Table 6 / Figure 10; no counterpart in
    the paper)} *)

type migration_drill = {
  md_flood_x : int;
  md_migrated : bool;  (** the steady "no-migration" series sets this false *)
  md_attempts : int;  (** handshake attempts, including the injected failures *)
  md_failed_attempts : int;
  md_drained : int;  (** in-flight requests served under the final drain *)
  md_migrant_sent : int;
  md_migrant_good : int;  (** across both hosts *)
  md_migrant_goodput_pct : float;
  md_victim_goodput_pct : float;
  md_lost_in_flight : int;  (** conservation residue on the source; must be 0 *)
  md_bypass_windows : int;  (** policy-bypass observations; must be 0 *)
  md_quarantine_held : bool;  (** dest copy never live before the source committed *)
  md_fresh_monotone : bool;  (** counters strictly increased across exports *)
  md_replay_blocked : bool;  (** committed stream refused on re-import *)
  md_replay_audited : bool;  (** ...and the refusal left a denial at the dest *)
  md_anchor_src_ok : bool;  (** audit anchor chain verifies on the source *)
  md_anchor_dst_ok : bool;  (** ...and on the destination *)
}

val migration_drill :
  ?migrate:bool -> ?flood_x:int -> ?victims:int -> ?victim_period_us:float ->
  ?migrant_ops:int -> ?deadline_us:float -> ?lanes:int -> ?wedge_rate:float ->
  seed:int -> unit -> migration_drill
(** Two-host drill: the source carries the full overload stack plus
    freshness and an audit anchor under a [flood_x] attacker flood and
    seeded wedge faults; the migrant's vTPM live-migrates mid-run through
    a corrupted-stream attempt, a destination-crash attempt, and a clean
    commit, with its remaining traffic served by the destination. The
    record carries the drill's invariants: request conservation, zero
    bypass windows, destination quarantine, freshness monotonicity,
    replay refusal + audit, and anchor-chain verification on both
    hosts. *)

val render_migration_drill : migration_drill -> string

val table6 : ?flood_x:int -> unit -> migration_drill * string
(** The drill's invariants as a table at a fixed flood multiple. *)

val fig10 :
  ?flood_xs:int list -> ?migrant_ops:int -> unit ->
  (string * (float * float) list) list * string
(** Migrant goodput vs flood multiple, steady vs live-migration series:
    the migration costs a bounded goodput dip, never a lost request. *)

val table7 : ?traces:int -> ?seed:int -> unit -> Vtpm_attacks.Fuzz.soak * string
(** Adversary matrix under the interleaving fuzzer's soak: per-kind
    attempts/blocked/wins plus the invariant summary. Zero wins and zero
    bundle violations are the pass condition. *)

val fig11 :
  ?attack_fracs:float list -> ?traces:int -> ?seed:int -> unit ->
  (string * (float * float) list) list * string * (float * Vtpm_attacks.Fuzz.soak) list
(** Legitimate goodput and tamper detections vs the fraction of attack
    ops per schedule; also returns the raw per-point soaks so callers
    (bench) can check the invariant bundle held at every point. *)

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

val table8 :
  ?crashes:int -> ?flood_x:int -> ?seed:int -> unit ->
  table8_row list * anchor_storm * string
(** The boundary drill over every crash point plus the fault storm, as
    one table. *)

type fig12_point = {
  f12_batch : int;
  f12_naive_us : float;  (** simulated time for one commit per entry *)
  f12_merkle_us : float;  (** simulated time for the batched catch-up *)
  f12_speedup : float;
  f12_proofs_ok : bool;  (** sampled inclusion proofs verify against the root *)
}

val fig12 : ?batches:int list -> ?seed:int -> unit -> fig12_point list * string
(** Backlog catch-up throughput: naive per-entry commits vs one
    Merkle-batched commit anchoring the whole backlog with per-entry
    inclusion proofs. The batched path must be at least an order of
    magnitude faster from modest backlog sizes on. *)

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

val table9 : ?flood_x:int -> ?victim_ops:int -> unit -> table9_row list * string
(** The cross-group flood drill: single-manager vs sharded vs sharded
    with a noisy-group quota, as one table. *)

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
