(* The improved reference monitor — the paper's contribution.

   Sits between the vTPM backend and the manager. For every request it:

   1. derives the subject from the hypervisor-attested sender (never from
      the claimed instance number in the frame);
   2. resolves the target instance from the binding table;
   3. evaluates the policy (with a decision cache for unguarded rules and
      a PCR-backed measurement gate for guarded ones);
   4. appends a hash-chained audit record;
   5. only then lets the manager execute the command.

   Management operations (state save/restore, migration, rebinding, audit
   export) are mediated by the same policy using the subject's dom0
   process identity, authenticated by a registered credential. *)

open Vtpm_xen

type stats = {
  mutable lookups : int;
  mutable cache_hits : int;
  mutable rules_scanned : int;
  mutable allowed : int;
  mutable denied : int;
  mutable gate_checks : int;
  mutable throttled : int;
  mutable overloaded : int; (* submissions rejected at queue admission *)
  mutable shed : int; (* queued requests dropped past their deadline *)
  mutable batches : int; (* multi-request drains served by the driver *)
  mutable batched_requests : int; (* requests served inside those drains *)
  mutable transport_tampers : int; (* ring/grant integrity violations detected *)
}

(* A cached verdict. [gen] is the per-subject measurement generation the
   decision depended on, or -1 when it is measurement-independent (no
   guard was consulted) and thus valid forever. *)
type cached = { c_verdict : Policy.verdict; c_gen : int }

(* What a policy decision charges to simulated time. Evaluation always
   goes through the compiled index; this picks only the price. *)
type charge = Linear_charge | Index_charge

type t = {
  xen : Hypervisor.t;
  mgr : Vtpm_mgr.Manager.t;
  mutable index : Policy.index; (* the compiled policy: the only evaluator *)
  mutable policy_has_guards : bool;
  mutable charge : charge;
  bindings : Binding.t;
  audit : Audit.t;
  credentials : Subject.Credentials.t;
  cache : (int * string * int, cached) Hashtbl.t;
  cached_keys : (int * string, (int, unit) Hashtbl.t) Hashtbl.t;
      (* subject -> ordinals present in [cache]; lets teardown evict
         without folding over the whole table *)
  generations : (int * string, int) Hashtbl.t;
      (* subject -> measurement generation (absent = 0) *)
  mutable cache_enabled : bool;
  mutable guard_cache_enabled : bool;
      (* opt-in: generation-tagged caching for guarded policies *)
  mutable audit_enabled : bool;
  mutable quota : Quota.t option; (* None: no rate limiting *)
  group_quotas : (int, Quota.t) Hashtbl.t;
      (* per-vTPM-group token buckets: a grouped tenant's burst drains
         only its own bucket; empty = no group limiting (seed behavior) *)
  names : (Domain.domid, string) Hashtbl.t;
      (* guest -> its audit subject string, built once; see [subject_name] *)
  batch_reasons : (int, string) Hashtbl.t; (* n -> "batch-drain:<n>" *)
  mutable supervisor : Vtpm_mgr.Supervisor.t option;
      (* None: requests execute directly on the manager *)
  mutable freshness : Vtpm_mgr.Freshness.t option;
      (* None: migration streams carry no rollback counters (seed
         behavior); Some: v2 envelopes only, strictly-newer admission *)
  stats : stats;
}

let create ~(xen : Hypervisor.t) ~(mgr : Vtpm_mgr.Manager.t) ?(policy = Policy.default_improved)
    ?(charge = Linear_charge) () =
  let cost = xen.Hypervisor.cost in
  {
    xen;
    mgr;
    index = Policy.compile policy;
    policy_has_guards = Policy.has_guards policy;
    charge;
    bindings = Binding.create ~cost;
    audit = Audit.create ~cost;
    credentials = Subject.Credentials.create ();
    cache = Hashtbl.create 256;
    cached_keys = Hashtbl.create 64;
    generations = Hashtbl.create 64;
    cache_enabled = true;
    guard_cache_enabled = false;
    audit_enabled = true;
    quota = None;
    group_quotas = Hashtbl.create 8;
    names = Hashtbl.create 16;
    batch_reasons = Hashtbl.create 8;
    supervisor = None;
    freshness = None;
    stats =
      {
        lookups = 0;
        cache_hits = 0;
        rules_scanned = 0;
        allowed = 0;
        denied = 0;
        gate_checks = 0;
        throttled = 0;
        overloaded = 0;
        shed = 0;
        batches = 0;
        batched_requests = 0;
        transport_tampers = 0;
      };
  }

let reset_cache t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.cached_keys;
  Hashtbl.reset t.generations

let set_policy t ?(charge = t.charge) policy =
  t.index <- Policy.compile policy;
  t.charge <- charge;
  t.policy_has_guards <- Policy.has_guards policy;
  (* A policy reload invalidates everything: cached verdicts, the key
     index and measurement generations. *)
  reset_cache t

let set_cache_enabled t v =
  t.cache_enabled <- v;
  if not v then reset_cache t

(* Opt-in: serve guarded policies from the cache too, tagging each entry
   with the subject's measurement generation at evaluation time. Entries
   go stale — and are re-evaluated — exactly when the generation is
   bumped (PCR extend, rebind, policy reload, or an explicit
   [bump_measurement]). Off by default: the seed semantics (guarded
   policy => no caching at all) are preserved bit-for-bit. *)
let set_guard_cache_enabled t v =
  t.guard_cache_enabled <- v;
  if not v then reset_cache t

let guard_cache_enabled t = t.guard_cache_enabled

let generation_of t sk = Option.value ~default:0 (Hashtbl.find_opt t.generations sk)

(* Advance [subject]'s measurement generation: every cached decision that
   consulted the measurement gate for this subject goes stale. Called on
   PCR extend and rebind; exposed for external measurement events the
   monitor cannot observe (e.g. a kernel swap before re-attestation). *)
let bump_measurement t (subject : Subject.t) =
  let sk = Subject.cache_key subject in
  Hashtbl.replace t.generations sk (generation_of t sk + 1)

let set_audit_enabled t v = t.audit_enabled <- v

(* Enable token-bucket rate limiting for all mediated requests. *)
let set_quota t ~rate_per_s ~burst =
  t.quota <- Some (Quota.create ~rate_per_s ~burst ~cost:t.xen.Hypervisor.cost ())

let clear_quota t = t.quota <- None

(* Route execution through a supervisor (circuit breaker, quarantine,
   degraded read-only service). Its lifecycle events land in the audit
   log under their own reasons, the read-only predicate is our command
   classification, and recovery actions are the "allowed" entries. *)
let set_supervisor t (sup : Vtpm_mgr.Supervisor.t) =
  t.supervisor <- Some sup;
  Vtpm_mgr.Supervisor.set_on_event sup (fun ~vtpm_id ev ->
      if t.audit_enabled then
        let allowed =
          match ev with
          | Vtpm_mgr.Supervisor.Restart | Vtpm_mgr.Supervisor.Breaker_close
          | Vtpm_mgr.Supervisor.Degraded_read | Vtpm_mgr.Supervisor.Migration_hold
          | Vtpm_mgr.Supervisor.Migration_commit | Vtpm_mgr.Supervisor.Migration_abort ->
              true
          | _ -> false
        in
        Audit.append t.audit ~subject:"supervisor" ~operation:"supervise"
          ~instance:(Some vtpm_id) ~allowed
          ~reason:(Vtpm_mgr.Supervisor.event_name ev))

let clear_supervisor t = t.supervisor <- None

(* Opt-in rollback defense for migration streams. With a freshness
   tracker installed, exports stamp monotonic counters into the protected
   envelope and imports refuse anything not strictly newer than last-seen
   (legacy v1 envelopes included — downgrade defense). Off by default:
   the seed's stream format and cost sequence stay bit-identical. *)
let set_freshness t f = t.freshness <- f

(* Convenience: create a tracker over the manager and anchor its
   last-seen table in the hardware TPM. *)
let enable_freshness t : (Vtpm_mgr.Freshness.t, string) result =
  let f = Vtpm_mgr.Freshness.create t.mgr in
  match Vtpm_mgr.Freshness.anchor_setup f with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok () ->
      t.freshness <- Some f;
      Ok f

let set_audit_cap t cap = Audit.set_max_entries t.audit cap

(* Audit strings the log keeps in its slots. A fresh copy per entry
   would be garbage that outlives the minor heap, so a guest's subject
   name is built once per domid (dropped by [forget_subject]) and each
   batch size's reason once per monitor. *)
let subject_name t (subject : Subject.t) =
  match subject with
  | Subject.Guest d -> (
      match Hashtbl.find t.names d with
      | name -> name
      | exception Not_found ->
          let name = Subject.to_string subject in
          Hashtbl.replace t.names d name;
          name)
  | Subject.Dom0_process _ -> Subject.to_string subject

let batch_reason t n =
  match Hashtbl.find t.batch_reasons n with
  | reason -> reason
  | exception Not_found ->
      let reason = "batch-drain:" ^ string_of_int n in
      Hashtbl.replace t.batch_reasons n reason;
      reason

(* Hook the driver's admission-control events into the audit log, so
   shedding and overload rejection appear under their own reasons next to
   policy denials and rate limiting. *)
let wire_backpressure t (backend : Vtpm_mgr.Driver.backend) =
  Vtpm_mgr.Driver.set_on_backpressure backend (fun bp domid ->
      let reason, op =
        match bp with
        | Vtpm_mgr.Driver.Rejected -> ("overloaded", "queue-admission")
        | Vtpm_mgr.Driver.Shed -> ("shed-deadline", "queue-service")
      in
      (match bp with
      | Vtpm_mgr.Driver.Rejected -> t.stats.overloaded <- t.stats.overloaded + 1
      | Vtpm_mgr.Driver.Shed -> t.stats.shed <- t.stats.shed + 1);
      if t.audit_enabled then
        Audit.append t.audit ~subject:(subject_name t (Subject.Guest domid)) ~operation:op
          ~instance:None ~allowed:false ~reason);
  (* Batch drains are a service event, not a violation: record them as
     allowed entries so the audit trail shows where ring round-trips were
     amortised. *)
  Vtpm_mgr.Driver.set_on_batch backend (fun domid n ->
      t.stats.batches <- t.stats.batches + 1;
      t.stats.batched_requests <- t.stats.batched_requests + n;
      if t.audit_enabled then
        Audit.append t.audit
          ~subject:(subject_name t (Subject.Guest domid))
          ~operation:"queue-service" ~instance:None ~allowed:true ~reason:(batch_reason t n))

(* Turn on the driver's transport-integrity validation and route every
   detected violation (remapped or revoked ring grant, corrupted producer
   index, injected frame) into the audit log as a denial against the
   affected frontend. The encrypted-VM-era defense: the backend stops
   trusting what dom0-side tools can rewrite. *)
let wire_transport_guard t (backend : Vtpm_mgr.Driver.backend) =
  Vtpm_mgr.Driver.set_validate_transport backend true;
  Vtpm_mgr.Driver.set_on_transport_tamper backend (fun domid reason ->
      t.stats.transport_tampers <- t.stats.transport_tampers + 1;
      if t.audit_enabled then
        Audit.append t.audit
          ~subject:(subject_name t (Subject.Guest domid))
          ~operation:"transport-tamper" ~instance:None ~allowed:false ~reason)

(* Subject teardown: drop the quota bucket, cached decisions, the
   measurement generation and the audit name when a domain is destroyed,
   so per-subject state never outlives its owner. The per-subject key
   index makes this O(cached ordinals) instead of a fold over the whole
   table. *)
let forget_subject t (subject : Subject.t) =
  (match t.quota with Some q -> Quota.forget q subject | None -> ());
  let ((kind, skey) as sk) = Subject.cache_key subject in
  (match Hashtbl.find_opt t.cached_keys sk with
  | Some ordinals ->
      Hashtbl.iter (fun ordinal () -> Hashtbl.remove t.cache (kind, skey, ordinal)) ordinals;
      Hashtbl.remove t.cached_keys sk
  | None -> ());
  Hashtbl.remove t.generations sk;
  match subject with Subject.Guest d -> Hashtbl.remove t.names d | Subject.Dom0_process _ -> ()

let stats t = t.stats

(* Per-lane view of the manager's execution pool: (commands, busy us) in
   lane order. *)
let lane_stats t = Vtpm_mgr.Manager.lane_stats t.mgr

(* Per-shard view when the manager is sharded: one entry per vTPM group. *)
let shard_stats t = Vtpm_mgr.Manager.shard_stats t.mgr

let reset_stats t =
  let s = t.stats in
  s.lookups <- 0;
  s.cache_hits <- 0;
  s.rules_scanned <- 0;
  s.allowed <- 0;
  s.denied <- 0;
  s.gate_checks <- 0;
  s.throttled <- 0;
  s.overloaded <- 0;
  s.shed <- 0;
  s.batches <- 0;
  s.batched_requests <- 0;
  s.transport_tampers <- 0

(* The measurement gate: the guest's *current* kernel digest must match
   the reference recorded when the vTPM was bound. *)
let measured_ok t ~(subject : Subject.t) ~(binding : Binding.binding option) () =
  t.stats.gate_checks <- t.stats.gate_checks + 1;
  Vtpm_util.Cost.charge t.xen.Hypervisor.cost Vtpm_util.Cost.monitor_measure_gate_us;
  match (subject, binding) with
  | Subject.Dom0_process _, _ -> true (* gates constrain guests *)
  | Subject.Guest d, Some b -> (
      match Hypervisor.find_domain t.xen d with
      | Ok dom -> String.equal dom.Domain.kernel_digest b.Binding.reference_measurement
      | Error _ -> false)
  | Subject.Guest _, None -> false

(* Only ordinals the engine implements get cached verdicts: a guest
   cycling junk ordinals must not grow the cache. *)
let cacheable_ordinal ordinal = List.mem ordinal Vtpm_tpm.Types.all_ordinals

(* Policy check with decision cache. Returns the verdict and the reason
   string for the audit trail. *)
let decide t ~(subject : Subject.t) ~(ordinal : int) ~(binding : Binding.binding option) :
    Policy.verdict * string =
  let s = t.stats in
  s.lookups <- s.lookups + 1;
  let ((kind, skey) as sk) = Subject.cache_key subject in
  let key = (kind, skey, ordinal) in
  let cacheable = t.cache_enabled && ((not t.policy_has_guards) || t.guard_cache_enabled) in
  let hit =
    if cacheable then
      match Hashtbl.find_opt t.cache key with
      | Some c when c.c_gen < 0 || c.c_gen = generation_of t sk -> Some c.c_verdict
      | _ -> None (* absent, or stale generation: re-evaluate *)
    else None
  in
  match hit with
  | Some verdict ->
      s.cache_hits <- s.cache_hits + 1;
      Vtpm_util.Cost.charge t.xen.Hypervisor.cost Vtpm_util.Cost.monitor_lookup_us;
      (verdict, "cached")
  | None ->
      let label = Subject.label ~xen:t.xen subject in
      let d =
        Policy.eval_indexed t.index ~subject ~label ~ordinal
          ~measured_ok:(measured_ok t ~subject ~binding)
      in
      let scanned, index_us =
        match t.charge with
        | Linear_charge -> (d.Policy.linear_scanned, 0.0)
        | Index_charge -> (d.Policy.scanned, Vtpm_util.Cost.monitor_index_lookup_us)
      in
      s.rules_scanned <- s.rules_scanned + scanned;
      Vtpm_util.Cost.charge t.xen.Hypervisor.cost
        (Vtpm_util.Cost.monitor_lookup_us +. index_us
        +. (Vtpm_util.Cost.monitor_rule_scan_us *. float_of_int scanned));
      if cacheable && cacheable_ordinal ordinal then begin
        (* Measurement-independent decisions cache forever (gen -1);
           gate-dependent ones are tagged with the generation they saw. *)
        let gen = if d.Policy.needs_measurement then generation_of t sk else -1 in
        Hashtbl.replace t.cache key { c_verdict = d.Policy.verdict; c_gen = gen };
        let ordinals =
          match Hashtbl.find_opt t.cached_keys sk with
          | Some set -> set
          | None ->
              let set = Hashtbl.create 8 in
              Hashtbl.replace t.cached_keys sk set;
              set
        in
        Hashtbl.replace ordinals ordinal ()
      end;
      (d.Policy.verdict, d.Policy.reason)

let audit_and_count ?tag t ~subject ~operation ~instance ~allowed ~reason =
  let s = t.stats in
  if allowed then s.allowed <- s.allowed + 1 else s.denied <- s.denied + 1;
  if t.audit_enabled then
    Audit.append ?tag t.audit ~subject:(subject_name t subject) ~operation ~instance ~allowed
      ~reason

(* --- XenStore tamper detection ------------------------------------------

   The improved monitor is *immune* to device-node rewrites (it routes on
   the attested sender), but silent immunity hides an ongoing attack. A
   XenStore watch on the vTPM device subtree compares every write against
   the binding table and raises an audit alert on divergence, so the
   re-pointing attempt itself becomes evidence. *)

let watch_token = "vtpm-monitor-tamper-watch"

let enable_tamper_detection t =
  Xenstore.watch t.xen.Hypervisor.store ~token:watch_token ~path:"/local/domain"
    (fun path ->
      (* Only instance nodes are authoritative-shadowed state. *)
      match String.split_on_char '/' path with
      | [ ""; "local"; "domain"; domid_str; "device"; "vtpm"; "0"; "instance" ] -> (
          match int_of_string_opt domid_str with
          | None -> ()
          | Some domid -> (
              let node_value =
                Result.value ~default:"?"
                  (Xenstore.read t.xen.Hypervisor.store ~caller:Hypervisor.dom0_id path)
              in
              match Binding.lookup_domid t.bindings domid with
              | Some b when string_of_int b.Binding.vtpm_id <> node_value ->
                  Audit.append t.audit ~subject:"xenstore"
                    ~operation:"tamper-alert"
                    ~instance:(Some b.Binding.vtpm_id) ~allowed:false
                    ~reason:
                      (Printf.sprintf "instance node of domain %d rewritten to %s (bound: %d)"
                         domid node_value b.Binding.vtpm_id)
              | _ -> ()))
      | _ -> ())

let disable_tamper_detection t =
  Xenstore.unwatch t.xen.Hypervisor.store ~token:watch_token

(* Rate-limit check, applied after the policy allows. *)
let quota_ok t subject =
  match t.quota with
  | None -> true
  | Some q ->
      let ok = Quota.admit q subject in
      if not ok then t.stats.throttled <- t.stats.throttled + 1;
      ok

let set_group_quota t ~group_id ~rate_per_s ~burst =
  Hashtbl.replace t.group_quotas group_id
    (Quota.create ~rate_per_s ~burst ~cost:t.xen.Hypervisor.cost ())

let clear_group_quota t ~group_id = Hashtbl.remove t.group_quotas group_id

(* Group rate-limit check: the routed instance's whole group shares one
   bucket, admitted under a synthetic per-group subject so tenants never
   drain each other's tokens. An empty table (the default) changes
   nothing. *)
let group_quota_ok t vtpm_id =
  Hashtbl.length t.group_quotas = 0
  ||
  let gid =
    match Vtpm_mgr.Manager.find t.mgr vtpm_id with
    | Ok inst -> inst.Vtpm_mgr.Manager.group_id
    | Error _ -> 0
  in
  gid = 0
  ||
  match Hashtbl.find_opt t.group_quotas gid with
  | None -> true
  | Some q ->
      let ok = Quota.admit q (Subject.Dom0_process (Printf.sprintf "group-%d" gid)) in
      if not ok then t.stats.throttled <- t.stats.throttled + 1;
      ok

(* Sharded hosts tag every audited wire decision with the routed
   instance's group, giving each tenant a filterable audit stream. The
   empty suffix on unsharded hosts keeps seed audit lines byte-identical.
   The log stores the suffix beside the reason ({!Audit.append}'s [tag]),
   so neither string is rebuilt per request. *)
let group_suffix t vtpm_id =
  match Vtpm_mgr.Manager.shards t.mgr with
  | None -> ""
  | Some _ -> (
      match Vtpm_mgr.Manager.find t.mgr vtpm_id with
      | Error _ -> ""
      | Ok inst -> (
          match Vtpm_mgr.Manager.shard_of t.mgr inst with
          | None -> ""
          | Some s -> s.Vtpm_mgr.Group.audit_tag))

(* --- The wire-request router (installed into the vTPM backend) ----------- *)

let router t : Vtpm_mgr.Driver.router =
 fun ~sender ~claimed_instance ~wire ->
  let subject = Subject.Guest sender in
  match Binding.lookup_domid t.bindings sender with
  | None ->
      audit_and_count t ~subject ~operation:"unbound-request" ~instance:None ~allowed:false
        ~reason:"no vTPM binding";
      Error "no vTPM bound to requesting domain"
  | Some b -> (
      match Vtpm_tpm.Wire.peek_header wire with
      | None ->
          audit_and_count t ~subject ~operation:"malformed" ~instance:(Some b.Binding.vtpm_id)
            ~allowed:false ~reason:"short frame";
          Error "malformed TPM request"
      | Some { Vtpm_tpm.Wire.ordinal; _ } -> (
          let op_name = Vtpm_tpm.Types.ordinal_name ordinal in
          (* A claimed id that disagrees with the binding is noise at best,
             an attack at worst; route by binding either way and log. *)
          let mismatch = claimed_instance <> b.Binding.vtpm_id in
          let gtag = group_suffix t b.Binding.vtpm_id in
          match decide t ~subject ~ordinal ~binding:(Some b) with
          | Policy.Deny, reason ->
              audit_and_count ~tag:gtag t ~subject ~operation:op_name
                ~instance:(Some b.Binding.vtpm_id) ~allowed:false ~reason;
              Error (Printf.sprintf "policy denied %s (%s)" op_name reason)
          | Policy.Allow, _ when not (quota_ok t subject) ->
              audit_and_count ~tag:gtag t ~subject ~operation:op_name
                ~instance:(Some b.Binding.vtpm_id) ~allowed:false ~reason:"rate-limited";
              Error (Printf.sprintf "rate limit exceeded for %s" (subject_name t subject))
          | Policy.Allow, _ when not (group_quota_ok t b.Binding.vtpm_id) ->
              audit_and_count ~tag:gtag t ~subject ~operation:op_name
                ~instance:(Some b.Binding.vtpm_id) ~allowed:false ~reason:"group-rate-limited";
              Error (Printf.sprintf "group rate limit exceeded for %s" (subject_name t subject))
          | Policy.Allow, reason -> (
              let reason = if mismatch then reason ^ ";claimed-id-mismatch" else reason in
              audit_and_count ~tag:gtag t ~subject ~operation:op_name
                ~instance:(Some b.Binding.vtpm_id) ~allowed:true ~reason;
              (* A PCR-mutating command changes what the measurement gate
                 will see: advance the sender's generation so tagged
                 cache entries are re-evaluated. *)
              if ordinal = Vtpm_tpm.Types.ord_extend || ordinal = Vtpm_tpm.Types.ord_pcr_reset
              then bump_measurement t subject;
              match t.supervisor with
              | Some sup -> (
                  match Vtpm_mgr.Supervisor.execute sup ~vtpm_id:b.Binding.vtpm_id ~wire with
                  | Ok resp -> Ok resp
                  | Error e -> Error (Vtpm_util.Verror.to_string e))
              | None -> (
                  match Vtpm_mgr.Manager.find t.mgr b.Binding.vtpm_id with
                  | Error e -> Error (Vtpm_util.Verror.to_string e)
                  | Ok inst -> (
                      match Vtpm_mgr.Manager.execute_wire t.mgr inst ~wire with
                      | Ok resp -> Ok resp
                      | Error e -> Error (Vtpm_util.Verror.to_string e))))))

(* --- Management interface -------------------------------------------------- *)

type management_op =
  | Save_instance of { vtpm_id : int }
  | Restore_instance of { blob : string }
  | Migrate_out of { vtpm_id : int; dest_key : Vtpm_crypto.Rsa.public option }
  | Migrate_in of { stream : string }
  | Migrate_receive of { stream : string }
  | Migrate_activate of { vtpm_id : int }
  | Migrate_abort of { vtpm_id : int }
  | Rebind of { vtpm_id : int; new_domid : Domain.domid }
  | Export_audit

let management_op_name = function
  | Save_instance _ -> "mgmt:save"
  | Restore_instance _ -> "mgmt:restore"
  | Migrate_out _ -> "mgmt:migrate-out"
  | Migrate_in _ -> "mgmt:migrate-in"
  | Migrate_receive _ -> "mgmt:migrate-receive"
  | Migrate_activate _ -> "mgmt:migrate-activate"
  | Migrate_abort _ -> "mgmt:migrate-abort"
  | Rebind _ -> "mgmt:rebind"
  | Export_audit -> "mgmt:export-audit"

type management_result =
  | M_blob of string
  | M_instance of int
  | M_audit of Audit.entry list
  | M_unit

let register_process t ~process ~token = Subject.Credentials.register t.credentials ~process ~token

(* All management operations are policed as Admin-class commands under the
   caller's dom0 process identity; the credential gate comes first. *)
let management t ~(process : string) ~(token : string) (op : management_op) :
    (management_result, string) result =
  let subject = Subject.Dom0_process process in
  let op_name = management_op_name op in
  if not (Subject.Credentials.verify t.credentials ~process ~token) then begin
    audit_and_count t ~subject ~operation:op_name ~instance:None ~allowed:false
      ~reason:"bad credential";
    Error "management credential rejected"
  end
  else begin
    (* Map the op onto the Admin class for policy purposes. *)
    let ordinal = Vtpm_tpm.Types.ord_save_state in
    match decide t ~subject ~ordinal ~binding:None with
    | Policy.Deny, reason ->
        audit_and_count t ~subject ~operation:op_name ~instance:None ~allowed:false ~reason;
        Error (Printf.sprintf "policy denied %s (%s)" op_name reason)
    | Policy.Allow, reason -> (
        audit_and_count t ~subject ~operation:op_name ~instance:None ~allowed:true ~reason;
        match op with
        | Save_instance { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst ->
                Result.map
                  (fun b -> M_blob b)
                  (Vtpm_mgr.Stateproc.save t.mgr inst ~format:Vtpm_mgr.Stateproc.Sealed))
        | Restore_instance { blob } -> (
            match Vtpm_mgr.Stateproc.load t.mgr blob with
            | Error e -> Error e
            | Ok (engine, _) ->
                let inst = Vtpm_mgr.Manager.adopt_instance t.mgr engine in
                Ok (M_instance inst.Vtpm_mgr.Manager.vtpm_id))
        | Migrate_out { vtpm_id; dest_key } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst -> (
                match
                  Vtpm_mgr.Migration.export t.mgr ?fresh:t.freshness inst
                    ~mode:Vtpm_mgr.Migration.Protected ~dest_key
                with
                | Error e ->
                    audit_and_count t ~subject ~operation:op_name ~instance:(Some vtpm_id)
                      ~allowed:false ~reason:("export-rejected: " ^ e);
                    Error e
                | Ok stream ->
                    Vtpm_mgr.Migration.finalize_source t.mgr inst;
                    (match Binding.lookup_instance t.bindings vtpm_id with
                    | Some b -> Binding.unbind t.bindings ~domid:b.Binding.domid
                    | None -> ());
                    Ok (M_blob stream)))
        | Migrate_in { stream } -> (
            match Vtpm_mgr.Migration.import t.mgr ?fresh:t.freshness stream with
            | Ok i -> Ok (M_instance i.Vtpm_mgr.Manager.vtpm_id)
            | Error e ->
                (* A refused stream (MAC, downgrade, stale counter) is an
                   attack surface event, not a mere failure: audit it as a
                   denial so rollback/replay attempts leave evidence. *)
                audit_and_count t ~subject ~operation:op_name ~instance:None ~allowed:false
                  ~reason:("import-rejected: " ^ e);
                Error e)
        | Migrate_receive { stream } -> (
            match Vtpm_mgr.Migration.receive t.mgr ?fresh:t.freshness stream with
            | Ok i -> Ok (M_instance i.Vtpm_mgr.Manager.vtpm_id)
            | Error e ->
                audit_and_count t ~subject ~operation:op_name ~instance:None ~allowed:false
                  ~reason:("import-rejected: " ^ e);
                Error e)
        | Migrate_activate { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst when inst.Vtpm_mgr.Manager.state <> Vtpm_mgr.Manager.Suspended ->
                Error (Printf.sprintf "vTPM %d is not a quarantined import" vtpm_id)
            | Ok inst ->
                Vtpm_mgr.Migration.activate inst;
                Ok M_unit)
        | Migrate_abort { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst when inst.Vtpm_mgr.Manager.state <> Vtpm_mgr.Manager.Suspended ->
                Error (Printf.sprintf "vTPM %d is not a quarantined import" vtpm_id)
            | Ok inst ->
                Vtpm_mgr.Migration.abort_import t.mgr inst;
                Ok M_unit)
        | Rebind { vtpm_id; new_domid } -> (
            (match Binding.lookup_instance t.bindings vtpm_id with
            | Some b ->
                Binding.unbind t.bindings ~domid:b.Binding.domid;
                (* The old subject's gate decisions referred to the now
                   dropped binding. *)
                bump_measurement t (Subject.Guest b.Binding.domid)
            | None -> ());
            match Hypervisor.find_domain t.xen new_domid with
            | Error e -> Error e
            | Ok dom -> (
                match
                  Binding.bind t.bindings ~vtpm_id ~domid:new_domid
                    ~reference_measurement:dom.Domain.kernel_digest
                with
                | Ok _ ->
                    (* The new subject now gates against a fresh reference
                       measurement. *)
                    bump_measurement t (Subject.Guest new_domid);
                    Ok M_unit
                | Error e -> Error (Vtpm_util.Verror.to_string e)))
        | Export_audit -> Ok (M_audit (Audit.entries t.audit)))
  end
