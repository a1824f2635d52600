(* Per-instance supervision: health checks, quarantine, checkpoint
   restart, circuit breaking and graceful degradation.

   The supervisor wraps the manager's execution path. Every request (and
   every periodic probe on the simulated clock) is a health observation:
   a wedged instance counts toward a per-instance circuit breaker, while
   TPM-level errors and malformed requests stay the client's problem and
   leave the breaker alone. Lifecycle states are not health signals
   either: a suspended instance (save/migration) answers with its
   conflict untouched, and a missing instance means destruction — never
   an excuse to restore it from a checkpoint.

   When consecutive failures reach the threshold the breaker opens and the
   instance is quarantined: the supervisor refreshes a read-only shadow
   engine from the last checkpoint, then restores the live instance in
   place from that same checkpoint. While the breaker is open, read-only
   commands (per the injected [is_read_only] predicate) are served from
   the shadow at normal command cost; mutating commands are rejected with
   [Verror.Overloaded] carrying a retry-after hint. After the cooldown the
   breaker half-opens: the next request is a probe — success closes the
   breaker, failure re-trips it. An instance that keeps crash-looping past
   [max_restarts] restarts is permanently isolated and never consumes
   backend capacity again.

   Successful mutating commands write through to the checkpoint store, so
   the shadow (and any later restart) always reflects the last
   acknowledged request. Wedge faults themselves come from the injector's
   [Wedged_instance] class, drawn only here — existing transport fault
   plans never shift. *)

open Vtpm_tpm

type health = Healthy | Degraded | Quarantined | Migrating | Isolated

let health_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"
  | Migrating -> "migrating"
  | Isolated -> "isolated"

type breaker = Closed | Open of { until_us : float } | Half_open

type event =
  | Wedge_detected
  | Quarantine
  | Restart
  | Isolate
  | Breaker_open
  | Breaker_half_open
  | Breaker_close
  | Degraded_read
  | Degraded_reject
  | Migration_hold
  | Migration_commit
  | Migration_abort

let event_name = function
  | Wedge_detected -> "wedged"
  | Quarantine -> "quarantine"
  | Restart -> "restart"
  | Isolate -> "isolate"
  | Breaker_open -> "breaker-open"
  | Breaker_half_open -> "breaker-half-open"
  | Breaker_close -> "breaker-close"
  | Degraded_read -> "degraded-read"
  | Degraded_reject -> "degraded-reject"
  | Migration_hold -> "migration-hold"
  | Migration_commit -> "migration-commit"
  | Migration_abort -> "migration-abort"

type config = {
  failure_threshold : int; (* consecutive infra failures that trip the breaker *)
  open_cooldown_us : float; (* Open -> Half_open delay on the simulated clock *)
  max_restarts : int; (* checkpoint restarts before permanent isolation *)
  probe_interval_us : float; (* health-check cadence for [tick] *)
  is_read_only : int -> bool; (* ordinals servable from the shadow when degraded *)
}

(* Conservative built-in read-only set; the access-control layer overrides
   this with its command classification (Command_class.is_read_only). *)
let builtin_read_only ordinal =
  List.mem ordinal
    [
      Types.ord_pcr_read;
      Types.ord_quote;
      Types.ord_get_capability;
      Types.ord_read_pubek;
      Types.ord_nv_read_value;
      Types.ord_read_counter;
      Types.ord_self_test_full;
    ]

let default_config =
  {
    failure_threshold = 3;
    open_cooldown_us = 50_000.0;
    max_restarts = 5;
    probe_interval_us = 10_000.0;
    is_read_only = builtin_read_only;
  }

type entry = {
  vtpm_id : int;
  mutable health : health;
  mutable breaker : breaker;
  mutable consecutive_failures : int;
  mutable restarts : int;
  mutable shadow : Engine.t option;
  mutable last_probe_us : float;
  mutable wedges : int;
  mutable degraded_reads : int;
  mutable degraded_rejects : int;
}

type t = {
  mgr : Manager.t;
  ckpt : Checkpoint.t;
  faults : Vtpm_xen.Faults.t;
  cfg : config;
  entries : (int, entry) Hashtbl.t;
  mutable on_event : vtpm_id:int -> event -> unit;
  mutable breaker_opens : int;
  mutable quarantines : int;
  mutable isolations : int;
}

let create ?(cfg = default_config) ~mgr ~ckpt ~faults () =
  {
    mgr;
    ckpt;
    faults;
    cfg;
    entries = Hashtbl.create 16;
    on_event = (fun ~vtpm_id:_ _ -> ());
    breaker_opens = 0;
    quarantines = 0;
    isolations = 0;
  }

let set_on_event t f = t.on_event <- f

let entry t vtpm_id =
  match Hashtbl.find_opt t.entries vtpm_id with
  | Some e -> e
  | None ->
      let e =
        {
          vtpm_id;
          health = Healthy;
          breaker = Closed;
          consecutive_failures = 0;
          restarts = 0;
          shadow = None;
          last_probe_us = Vtpm_util.Cost.now t.mgr.Manager.cost;
          wedges = 0;
          degraded_reads = 0;
          degraded_rejects = 0;
        }
      in
      Hashtbl.replace t.entries vtpm_id e;
      e

let health t vtpm_id = (entry t vtpm_id).health

let forget t ~vtpm_id =
  Hashtbl.remove t.entries vtpm_id;
  Checkpoint.forget t.ckpt ~vtpm_id

let breaker_opens t = t.breaker_opens
let quarantines t = t.quarantines
let isolations t = t.isolations

let emit t (e : entry) ev = t.on_event ~vtpm_id:e.vtpm_id ev

(* The injected fault: the instance silently hangs. Drawn per execution
   and per probe, from the shared plan stream (the draw happens even when
   the wedge cannot land, so other instances' plans never shift). A
   suspended instance is not running and cannot wedge — clobbering
   Suspended here would silently undo a save/migration. *)
let maybe_wedge t (e : entry) =
  if Vtpm_xen.Faults.fire t.faults Vtpm_xen.Faults.Wedged_instance then
    match Manager.find t.mgr e.vtpm_id with
    | Ok inst when inst.Manager.state <> Manager.Suspended ->
        Manager.wedge inst;
        e.wedges <- e.wedges + 1;
        emit t e Wedge_detected
    | Ok _ | Error _ -> ()

let retry_after t (e : entry) =
  match e.breaker with
  | Open { until_us } ->
      Float.max 1.0 (until_us -. Vtpm_util.Cost.now t.mgr.Manager.cost)
  | _ -> t.cfg.open_cooldown_us

(* Degraded service while the breaker is open (or a half-open probe is in
   flight): read-only commands run on the shadow replica at normal command
   cost; everything else is rejected with a retry-after hint. *)
let degraded_service t (e : entry) ~wire =
  match Wire.decode_request wire with
  | exception Wire.Malformed m -> Vtpm_util.Verror.bad_request "%s" m
  | req -> (
      let ordinal = Cmd.ordinal req in
      match e.shadow with
      | Some shadow when t.cfg.is_read_only ordinal ->
          e.degraded_reads <- e.degraded_reads + 1;
          emit t e Degraded_read;
          (* The shadow read occupies the instance's execution lane, like
             the live command it stands in for (with one lane this is a
             plain global charge). *)
          Manager.charge_lane t.mgr ~vtpm_id:e.vtpm_id (Manager.command_cost t.mgr ordinal);
          Ok (Wire.encode_response (Engine.execute shadow ~locality:0 req))
      | _ ->
          e.degraded_rejects <- e.degraded_rejects + 1;
          emit t e Degraded_reject;
          Vtpm_util.Verror.overloaded ~retry_after_us:(retry_after t e)
            "vTPM %d degraded (%s); retry later" e.vtpm_id (health_name e.health))

(* Quarantine + checkpoint restart, entered when the breaker trips. The
   shadow is refreshed first so reads keep flowing even if the restore
   itself fails; repeated restarts escalate to permanent isolation. *)
let quarantine_and_restart t (e : entry) =
  e.health <- Quarantined;
  t.quarantines <- t.quarantines + 1;
  emit t e Quarantine;
  e.restarts <- e.restarts + 1;
  if e.restarts > t.cfg.max_restarts then begin
    e.health <- Isolated;
    t.isolations <- t.isolations + 1;
    emit t e Isolate
  end
  else begin
    (* With several execution lanes, the recovery I/O (shadow reload +
       checkpoint restore) occupies only the victim's lane: co-tenants on
       other lanes keep executing while this instance restarts. With one
       lane the redirect is skipped and the cost lands on the global
       meter exactly as before. *)
    let run_recovery () =
      (match Checkpoint.shadow_engine t.ckpt ~vtpm_id:e.vtpm_id with
      | Ok shadow -> e.shadow <- Some shadow
      | Error _ -> ());
      match Checkpoint.restore_instance t.ckpt ~vtpm_id:e.vtpm_id with
      | Ok () ->
          e.health <- Degraded;
          emit t e Restart
      | Error _ -> () (* stays Quarantined; the next trip retries *)
    in
    if Manager.parallel_for t.mgr ~vtpm_id:e.vtpm_id then begin
      let cost = t.mgr.Manager.cost in
      let spent = ref 0.0 in
      Vtpm_util.Cost.with_redirect cost (fun us -> spent := !spent +. us) run_recovery;
      if !spent > 0.0 then Manager.charge_lane t.mgr ~vtpm_id:e.vtpm_id !spent
    end
    else run_recovery ()
  end

(* An infrastructure failure (a wedged instance). Below the threshold the
   caller sees the raw error; at the threshold the breaker opens, recovery
   runs, and the triggering request falls through to degraded service —
   unless recovery just escalated to permanent isolation, in which case
   the caller gets the same terminal answer every later request will. *)
let record_failure t (e : entry) ~wire err =
  e.consecutive_failures <- e.consecutive_failures + 1;
  if e.consecutive_failures < t.cfg.failure_threshold && e.breaker = Closed then Error err
  else begin
    e.breaker <-
      Open
        {
          until_us = Vtpm_util.Cost.now t.mgr.Manager.cost +. t.cfg.open_cooldown_us;
        };
    t.breaker_opens <- t.breaker_opens + 1;
    emit t e Breaker_open;
    quarantine_and_restart t e;
    if e.health = Isolated then
      Vtpm_util.Verror.denied "vTPM %d permanently isolated after %d restarts"
        e.vtpm_id e.restarts
    else degraded_service t e ~wire
  end

let record_success t (e : entry) =
  e.consecutive_failures <- 0;
  (match e.breaker with
  | Closed -> ()
  | Open _ | Half_open ->
      e.breaker <- Closed;
      emit t e Breaker_close);
  if e.health <> Healthy && e.health <> Isolated && e.health <> Migrating then
    e.health <- Healthy

(* --- Migration hold ---------------------------------------------------------

   While the source half of a migration handshake is in flight the
   instance is treated exactly like a quarantined one: the live copy is
   suspended (by [Migration.migrate]) and this entry serves read-only
   commands from the checkpoint shadow, rejecting mutations — never
   executing on a half-migrated instance. A committed migration drops
   the entry and its checkpoint (the instance now lives elsewhere); an
   aborted one returns the entry to [Healthy] as the source resumes. *)

let begin_migration t ~vtpm_id =
  let e = entry t vtpm_id in
  (match Checkpoint.shadow_engine t.ckpt ~vtpm_id with
  | Ok shadow -> e.shadow <- Some shadow
  | Error _ -> ());
  e.health <- Migrating;
  emit t e Migration_hold

let end_migration t ~vtpm_id ~committed =
  let e = entry t vtpm_id in
  if committed then begin
    emit t e Migration_commit;
    forget t ~vtpm_id
  end
  else begin
    if e.health = Migrating then e.health <- Healthy;
    emit t e Migration_abort
  end

(* One attempt on the live instance. Success resets the breaker and
   writes through to the checkpoint (mutations only need it, but a
   write-through on every success keeps the rule simple and the shadow
   fresh). Only a wedged instance counts toward the breaker: a missing
   instance means destruction (a lifecycle event — restoring from the
   checkpoint here would resurrect it; manager-crash recovery is the
   host's job via Checkpoint.restore_all), and a suspended instance was
   parked deliberately for save/migration — its conflict is the caller's
   answer, not a health signal. *)
let try_live t (e : entry) ~wire =
  match Manager.find t.mgr e.vtpm_id with
  | Error err ->
      e.consecutive_failures <- 0;
      Error err
  | Ok inst when inst.Manager.state = Manager.Suspended ->
      Manager.execute_wire t.mgr inst ~wire
  | Ok inst -> (
      match Manager.execute_wire t.mgr inst ~wire with
      | Ok resp ->
          record_success t e;
          ignore (Checkpoint.checkpoint t.ckpt inst);
          Ok resp
      | Error (Vtpm_util.Verror.Conflict _ as err) ->
          (* Suspended was handled above, so a conflict here means Wedged. *)
          record_failure t e ~wire err
      | Error err ->
          (* TPM-level / client errors: not a health signal *)
          e.consecutive_failures <- 0;
          Error err)

let execute t ~vtpm_id ~wire : (string, Vtpm_util.Verror.t) result =
  let e = entry t vtpm_id in
  match e.health with
  | Isolated ->
      Vtpm_util.Verror.denied "vTPM %d permanently isolated after %d restarts"
        vtpm_id e.restarts
  | Migrating ->
      (* The live copy is suspended for the handshake; serve reads from
         the shadow, reject mutations — no policy-bypass window. *)
      degraded_service t e ~wire
  | _ -> (
      maybe_wedge t e;
      let now = Vtpm_util.Cost.now t.mgr.Manager.cost in
      match e.breaker with
      | Open { until_us } when now < until_us -> degraded_service t e ~wire
      | Open _ ->
          e.breaker <- Half_open;
          emit t e Breaker_half_open;
          try_live t e ~wire
      | Half_open | Closed -> try_live t e ~wire)

(* Periodic health check on the simulated clock: probe each instance that
   is due with a GetCapability round. A probe is an ordinary execution as
   far as the breaker is concerned, so wedges are detected (and recovery
   starts) even on an idle instance. Suspended instances are skipped —
   they are parked on purpose and probing one would read its planned
   conflict as ill health (the stale probe timestamp means the first
   probe after resume fires promptly). *)
let probe_wire = Wire.encode_request (Cmd.Get_capability { cap = 0x6; sub = 0x110 })

let tick t =
  let now = Vtpm_util.Cost.now t.mgr.Manager.cost in
  List.iter
    (fun (inst : Manager.instance) ->
      let e = entry t inst.Manager.vtpm_id in
      if
        e.health <> Isolated && e.health <> Migrating
        && inst.Manager.state <> Manager.Suspended
        && now -. e.last_probe_us >= t.cfg.probe_interval_us
      then begin
        e.last_probe_us <- now;
        maybe_wedge t e;
        match e.breaker with
        | Open { until_us } when now < until_us -> ()
        | Open _ ->
            e.breaker <- Half_open;
            emit t e Breaker_half_open;
            ignore (try_live t e ~wire:probe_wire)
        | Half_open | Closed -> ignore (try_live t e ~wire:probe_wire)
      end)
    (Manager.instances t.mgr)
