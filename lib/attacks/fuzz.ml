(* Adversarial interleaving fuzzer.

   The Table 2 battery proves each adversary loses in isolation; this
   module checks they keep losing when interleaved — random schedules of
   legitimate vTPM traffic and encrypted-VM-era attacks (frame forgery,
   ring replay, producer-index corruption, grant remap/revoke, rogue
   management calls, migration-stream tampering) driven against the full
   improved stack with every concurrency feature on: execution lanes,
   batched pumping, the compiled policy index and guard cache, the
   supervisor, freshness-protected migration and a rotating anchored
   audit log.

   A trace is a list of (tag, arg) integer pairs so QCheck can shrink a
   failing schedule to a minimal reproducer, and so traces serialize to
   a trivial line format for deterministic replay. After every trace an
   invariant bundle must hold:

   - the victim's PCR agrees with a shadow model fed only by its own
     served extends (no replayed or injected extend ever executes);
   - the bystander's PCR never moves and its reads never leak the
     victim's value (no policy-bypass window);
   - every admitted request is accounted for: served or shed, never
     silently lost, and the victim link heals after the last tamper;
   - the audit chain verifies against its hardware anchor, across
     retention rotation;
   - tampered migration streams are refused, the refusal is audited at
     the destination, and the source resumes Active. *)

open Vtpm_access
open Vtpm_xen

(* --- Traces ------------------------------------------------------------------- *)

type trace = (int * int) list

type op =
  | Victim_read
  | Victim_extend of int
  | Bystander_read
  | Pump
  | Forge
  | Inject of int
  | Index_corrupt of int
  | Grant_remap of int
  | Grant_revoke
  | Rogue_mgmt
  | Migration_bitflip of int
  | Anchor_commit
  | Hw_fault of int

let op_tags = 13

(* Total decode: any integer pair is a valid op, so shrinking never
   leaves the domain. Two tags map to the victim read so legitimate
   traffic keeps a reasonable share of random schedules. *)
let decode (tag, arg) : op =
  let norm n m = ((n mod m) + m) mod m in
  let arg = norm arg 1_000_003 in
  match norm tag op_tags with
  | 0 | 1 -> Victim_read
  | 2 -> Victim_extend arg
  | 3 -> Bystander_read
  | 4 -> Pump
  | 5 -> Forge
  | 6 -> Inject arg
  | 7 -> Index_corrupt arg
  | 8 -> Grant_remap arg
  | 9 -> Grant_revoke
  | 10 -> if arg land 1 = 0 then Rogue_mgmt else Migration_bitflip arg
  | 11 -> Anchor_commit
  | _ -> Hw_fault arg

(* Hardware-TPM fault classes a schedule can arm as one-shots. *)
let hw_classes =
  [| Faults.Hw_busy; Faults.Hw_stall; Faults.Hw_power_loss; Faults.Hw_nv_corrupt; Faults.Hw_reset |]

let hw_class k = hw_classes.(((k mod Array.length hw_classes) + Array.length hw_classes) mod Array.length hw_classes)

let describe pair =
  match decode pair with
  | Victim_read -> "victim:pcr-read"
  | Victim_extend k -> Printf.sprintf "victim:extend(%d)" k
  | Bystander_read -> "bystander:pcr-read"
  | Pump -> "backend:pump-batch"
  | Forge -> "attack:forge-claimed-instance"
  | Inject k -> Printf.sprintf "attack:inject-replay(%d)" k
  | Index_corrupt k -> Printf.sprintf "attack:corrupt-req-prod(+%d)" (1 + (k mod 3))
  | Grant_remap k -> Printf.sprintf "attack:grant-remap(frame=%d)" (60_000 + (k mod 512))
  | Grant_revoke -> "attack:grant-force-revoke"
  | Rogue_mgmt -> "attack:rogue-management"
  | Migration_bitflip k -> Printf.sprintf "attack:migration-bitflip(%d)" k
  | Anchor_commit -> "anchor:commit-head"
  | Hw_fault k -> Printf.sprintf "attack:hw-fault(%s)" (Faults.class_name (hw_class k))

let is_attack pair =
  match decode pair with
  | Victim_read | Victim_extend _ | Bystander_read | Pump | Anchor_commit -> false
  | Forge | Inject _ | Index_corrupt _ | Grant_remap _ | Grant_revoke | Rogue_mgmt
  | Migration_bitflip _ | Hw_fault _ ->
      true

(* --- Reports ------------------------------------------------------------------- *)

type report = {
  ops : int;
  submitted : int;
  served_ok : int;  (** pumped entries whose exchange completed *)
  served_failed : int;  (** pumped entries failed in-flight (audited transport denials) *)
  rejected : int;  (** refused at queue admission *)
  attack_ops : int;
  bypasses : int;  (** adversary wins observed — must be 0 *)
  tampers : int;  (** transport violations detected and audited *)
  migrations : int;
  rotations : int;  (** audit retention rotations survived *)
  attempts_by_kind : (string * int) list;  (** attack attempts per adversary, sorted *)
  wins_by_kind : (string * int) list;  (** adversary wins per kind — must be [] *)
  violations : string list;  (** empty iff the invariant bundle held *)
}

let ok r = r.violations = []

let pp_report ppf r =
  Format.fprintf ppf
    "ops=%d submitted=%d served=%d(+%d failed) rejected=%d attacks=%d bypasses=%d tampers=%d \
     migrations=%d rotations=%d violations=%d"
    r.ops r.submitted r.served_ok r.served_failed r.rejected r.attack_ops r.bypasses r.tampers
    r.migrations r.rotations (List.length r.violations)

(* --- The run ------------------------------------------------------------------- *)

let zeros = String.make Vtpm_crypto.Sha1.digest_size '\000'

let flip_bit s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  Bytes.to_string b

let max_migrations_per_trace = 2

let run_trace ?(seed = 7) (trace : trace) : report =
  let open Vtpm_mgr in
  (* Full stack on: this is the configuration every prior PR added,
     running simultaneously. *)
  let host =
    Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 ~charge:Monitor.Index_charge ()
  in
  let m = Host.monitor_exn host in
  let backend = host.Host.backend in
  Manager.set_lanes host.Host.mgr 4;
  Monitor.set_guard_cache_enabled m true;
  (* Small retention cap so long traces force a rotation under the
     anchor. *)
  Monitor.set_audit_cap m (Some 24);
  (* Deadline far beyond any trace: admission stays bounded but nothing
     is shed by age, so the request-conservation ledger is exact. *)
  Driver.set_overload backend (Some { Driver.queue_capacity = 8; deadline_us = 1.0e12 });
  Monitor.wire_backpressure m backend;
  backend.Driver.resilience <- Some Driver.default_resilience;
  Driver.set_batch backend 4;
  let fresh =
    match Monitor.enable_freshness m with
    | Ok f -> f
    | Error e -> invalid_arg ("fuzz: freshness: " ^ e)
  in
  let ckpt = Checkpoint.create ~fresh host.Host.mgr in
  let sup =
    Supervisor.create
      ~cfg:{ Supervisor.default_config with is_read_only = Command_class.is_read_only }
      ~mgr:host.Host.mgr ~ckpt ~faults:host.Host.xen.Hypervisor.faults ()
  in
  Monitor.set_supervisor m sup;
  let anchor =
    match Anchor.setup host.Host.mgr with
    | Ok a -> a
    | Error e -> invalid_arg ("fuzz: anchor: " ^ Vtpm_util.Verror.to_string e)
  in
  (* Hardware-TPM fault domain: a schedule-only injector (all rates zero,
     so the seeded plan never draws) armed by [Hw_fault] ops, and the
     anchoring service funnelling both the audit anchor and the freshness
     table through journaled, breaker-guarded commits. *)
  let hw_faults = Faults.create ~seed:(seed + 101) () in
  Manager.set_hw_faults host.Host.mgr (Some hw_faults);
  let svc = Anchor.create ~ckpt host.Host.mgr in
  Anchor.set_audit svc (Some m.Monitor.audit);
  (match Anchor.attach_freshness svc fresh with
  | Ok () -> ()
  | Error e -> invalid_arg ("fuzz: anchor-svc: " ^ Vtpm_util.Verror.to_string e));
  let victim = Host.create_guest_exn host ~name:"victim" ~label:"tenant_victim" () in
  let other = Host.create_guest_exn host ~name:"bystander" ~label:"tenant_bystander" () in
  (* The destination host is only built when a trace actually migrates
     (its RSA endpoint key is the expensive part). *)
  let dest = ref None in
  let force_dest () =
    match !dest with
    | Some d -> d
    | None ->
        let dh = Host.create ~mode:Host.Improved_mode ~seed:(seed + 7919) ~rsa_bits:256 () in
        let dm = Host.monitor_exn dh in
        (match Monitor.enable_freshness dm with
        | Ok _ -> ()
        | Error e -> invalid_arg ("fuzz: dest freshness: " ^ e));
        let danchor =
          match Anchor.setup dh.Host.mgr with
          | Ok a -> a
          | Error e -> invalid_arg ("fuzz: dest anchor: " ^ Vtpm_util.Verror.to_string e)
        in
        let key = Migration.bind_pubkey dh.Host.mgr in
        let d = (dh, danchor, key) in
        dest := Some d;
        d
  in
  (* Ledgers. *)
  let ops = ref 0
  and submitted = ref 0
  and served_ok = ref 0
  and served_failed = ref 0
  and rejected = ref 0
  and attack_ops = ref 0
  and bypasses = ref 0
  and migrations = ref 0
  and dest_receives = ref 0
  and victim_reads_ok = ref 0 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> if not (List.mem s !violations) then violations := s :: !violations) fmt
  in
  (* Per-adversary ledgers for the matrix tables. *)
  let kind_attempts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let kind_wins : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let win kind = incr bypasses; bump kind_wins kind in
  (* Shadow model: the victim's PCR 10 as it must read if and only if
     its own served extends executed, in order, exactly once. *)
  let shadow = ref zeros in
  (* Submission metadata, FIFO per frontend like the driver's queues:
     [Some digest] for an extend, [None] for a read. *)
  let victim_meta : string option Queue.t = Queue.create () in
  let other_meta : string option Queue.t = Queue.create () in
  let read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 10 }) in
  let extend_wire digest = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Extend { pcr = 10; digest }) in
  let submit (g : Host.guest) q meta ~wire =
    match Driver.submit backend g.Host.conn ~wire () with
    | Ok () ->
        incr submitted;
        Queue.push meta q
    | Error _ -> incr rejected
  in
  let on_served (s : Driver.serviced) =
    let q =
      if s.Driver.s_domid = victim.Host.domid then victim_meta
      else if s.Driver.s_domid = other.Host.domid then other_meta
      else Queue.create ()
    in
    let meta =
      if Queue.is_empty q then begin
        violation "serviced entry with no submission record (domid %d)" s.Driver.s_domid;
        None
      end
      else Queue.pop q
    in
    match s.Driver.s_outcome with
    | Error _ -> incr served_failed
    | Ok o -> (
        incr served_ok;
        match o.Driver.status with
        | Proto.Denied | Proto.Bad_frame -> ()
        | Proto.Ok_routed -> (
            match Vtpm_tpm.Wire.decode_response o.Driver.payload with
            | exception Vtpm_tpm.Wire.Malformed e ->
                violation "malformed response on a served request: %s" e
            | resp ->
                if resp.Vtpm_tpm.Cmd.rc = 0 then begin
                  match (meta, resp.Vtpm_tpm.Cmd.body) with
                  | Some digest, Vtpm_tpm.Cmd.R_extend _
                    when s.Driver.s_domid = victim.Host.domid ->
                      shadow := Vtpm_crypto.Sha1.digest (!shadow ^ digest)
                  | None, Vtpm_tpm.Cmd.R_pcr_value v when s.Driver.s_domid = victim.Host.domid ->
                      incr victim_reads_ok;
                      if not (String.equal v !shadow) then
                        violation "victim read served a stale or forged PCR value"
                  | None, Vtpm_tpm.Cmd.R_pcr_value v when s.Driver.s_domid = other.Host.domid ->
                      if not (String.equal v zeros) then begin
                        win "cross-instance-leak";
                        violation "bystander read returned a non-zero PCR (cross-instance leak)"
                      end
                  | _ -> ()
                end))
  in
  let pump_round () =
    match Driver.pump_batch backend with
    | `Idle -> 0
    | `Served l ->
        List.iter on_served l;
        List.length l
  in
  let rec pump_all n =
    let k = pump_round () in
    if k = 0 then n else pump_all (n + k)
  in
  (* Pop and classify attack residue left in a ring's response slots —
     the adversary reading back what its forged/injected frame earned. *)
  let drain_ring_responses ring ~on_tpm_ok =
    let rec go () =
      match Ring.pop_response ring with
      | None -> ()
      | Some (s : Ring.slot) ->
          (match Proto.decode_response s.Ring.payload with
          | Ok (Proto.Ok_routed, payload) -> (
              match Vtpm_tpm.Wire.decode_response payload with
              | exception Vtpm_tpm.Wire.Malformed _ -> ()
              | resp -> if resp.Vtpm_tpm.Cmd.rc = 0 then on_tpm_ok resp.Vtpm_tpm.Cmd.body)
          | Ok ((Proto.Denied | Proto.Bad_frame), _) | Error _ -> ());
          go ()
    in
    go ()
  in
  let rogue_mgmt () =
    bump kind_attempts "rogue-management";
    match
      Host.management host ~process:"rogue-tool" ~token:"not-a-credential"
        (Monitor.Save_instance { vtpm_id = victim.Host.vtpm_id })
    with
    | Ok _ ->
        win "rogue-management";
        violation "unauthenticated dom0 process obtained vTPM state"
    | Error _ -> ()
  in
  let run_op = function
    | Victim_read -> submit victim victim_meta None ~wire:read_wire
    | Victim_extend k ->
        let digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "fz-measure-%d" k) in
        submit victim victim_meta (Some digest) ~wire:(extend_wire digest)
    | Bystander_read -> submit other other_meta None ~wire:read_wire
    | Pump -> ignore (pump_round ())
    | Forge -> (
        (* A1-style: the bystander stamps the victim's instance number
           into its own frame. Bypass iff the response carries the
           victim's (non-trivial) PCR value. *)
        bump kind_attempts "forge-claimed-instance";
        match
          Ring.push_request other.Host.conn.Driver.ring
            (Proto.encode_request ~claimed_instance:victim.Host.vtpm_id read_wire)
        with
        | Error _ -> ()
        | Ok _id ->
            ignore (Driver.process_pending backend);
            drain_ring_responses other.Host.conn.Driver.ring ~on_tpm_ok:(fun body ->
                match body with
                | Vtpm_tpm.Cmd.R_pcr_value v
                  when String.equal v !shadow && not (String.equal !shadow zeros) ->
                    win "forge-claimed-instance";
                    violation "forged frame read the victim PCR (claimed-instance routing honoured)"
                | _ -> ()))
    | Inject k -> (
        (* A12-style replay: a captured extend frame re-injected into the
           victim ring by a dom0 mapping. Bypass iff it executes. *)
        bump kind_attempts "inject-replay";
        let digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "injected-%d" k) in
        let frame =
          Proto.encode_request ~claimed_instance:victim.Host.vtpm_id (extend_wire digest)
        in
        match Ring.inject_request victim.Host.conn.Driver.ring ~pusher:Hypervisor.dom0_id frame with
        | Error _ -> ()
        | Ok _id ->
            ignore (Driver.process_pending backend);
            drain_ring_responses victim.Host.conn.Driver.ring ~on_tpm_ok:(fun body ->
                match body with
                | Vtpm_tpm.Cmd.R_extend _ ->
                    win "inject-replay";
                    violation "injected (replayed) extend frame was executed"
                | _ -> ()))
    | Index_corrupt k ->
        bump kind_attempts "corrupt-req-prod";
        Ring.corrupt_req_prod victim.Host.conn.Driver.ring ~delta:(1 + (k mod 3))
    | Grant_remap k ->
        bump kind_attempts "grant-remap";
        ignore
          (Hypervisor.remap_grant host.Host.xen ~caller:Hypervisor.dom0_id
             ~owner:victim.Host.domid ~gref:victim.Host.conn.Driver.gref
             ~frame:(60_000 + (k mod 512)))
    | Grant_revoke ->
        bump kind_attempts "grant-force-revoke";
        ignore
          (Hypervisor.force_revoke_grant host.Host.xen ~caller:Hypervisor.dom0_id
             ~owner:victim.Host.domid ~gref:victim.Host.conn.Driver.gref)
    | Rogue_mgmt -> rogue_mgmt ()
    | Migration_bitflip k ->
        (* Bounded per trace: each attempt costs an RSA exchange. Excess
           draws degrade to the rogue-management probe. *)
        if !migrations >= max_migrations_per_trace then rogue_mgmt ()
        else begin
          bump kind_attempts "migration-bitflip";
          let dh, _danchor, dest_key = force_dest () in
          incr migrations;
          (* In-flight load caught in the drain window must survive the
             failed handshake. *)
          submit victim victim_meta None ~wire:read_wire;
          let transfer stream =
            (* Only streams that actually reach the destination can be
               refused there — an export killed at the source by an
               exhausted hardware-TPM fault budget never produces one. *)
            incr dest_receives;
            let len = String.length stream in
            let pos = len - 6 - (k mod 24) in
            let tampered = if pos >= 0 && pos < len then flip_bit stream pos else stream in
            match
              Host.management dh ~process:Host.manager_process ~token:(Host.manager_token dh)
                (Monitor.Migrate_receive { stream = tampered })
            with
            | Ok _ -> Ok ()
            | Error e -> Error e
          in
          match
            Migration.migrate ~src:host.Host.mgr ~fresh ~sup
              ~drain:(fun () -> pump_all 0)
              ~vtpm_id:victim.Host.vtpm_id ~dest_key ~transfer ()
          with
          | Ok _ ->
              win "migration-bitflip";
              violation "tampered migration stream accepted by the destination"
          | Error _ -> (
              match Manager.find host.Host.mgr victim.Host.vtpm_id with
              | Ok inst when inst.Manager.state = Manager.Active -> ()
              | Ok _ -> violation "source instance not Active after a failed migration"
              | Error e ->
                  violation "source instance lost after a failed migration: %s"
                    (Vtpm_util.Verror.to_string e))
        end
    | Anchor_commit -> (
        (* Legitimate anchor traffic through the service: under an armed
           hardware fault it may defer (bounded staleness), but a hard
           error means the fault discipline leaked a transient. *)
        match Anchor.commit svc anchor ~data:(Audit.head m.Monitor.audit) with
        | Ok (Anchor.Committed _ | Anchor.Deferred _) -> ()
        | Error e ->
            violation "anchor commit through the service failed hard: %s"
              (Vtpm_util.Verror.to_string e))
    | Hw_fault k ->
        let cls = hw_class k in
        bump kind_attempts (Faults.class_name cls);
        Faults.schedule hw_faults cls
  in
  List.iter
    (fun pair ->
      incr ops;
      if is_attack pair then incr attack_ops;
      run_op (decode pair))
    trace;
  (* --- Invariant bundle -------------------------------------------------- *)
  ignore (pump_all 0);
  ignore (Driver.process_pending backend);
  (* The victim link must heal: a trace may end mid-tamper, and the
     resilient pump has to bring the frontend back to verified service.
     The healing read doubles as the end-to-end PCR check (validated
     against the shadow in [on_served]). *)
  let healed = ref false in
  let rounds = ref 0 in
  while (not !healed) && !rounds < 4 do
    incr rounds;
    let before = !victim_reads_ok in
    submit victim victim_meta None ~wire:read_wire;
    ignore (pump_all 0);
    if !victim_reads_ok > before then healed := true
  done;
  if not !healed then
    violation "victim link did not heal: no successful read in %d post-trace rounds" !rounds;
  (* Ground truth, bypassing the transport: the engines themselves. *)
  (match Manager.find host.Host.mgr victim.Host.vtpm_id with
  | Error e -> violation "victim instance lost: %s" (Vtpm_util.Verror.to_string e)
  | Ok inst -> (
      match Vtpm_tpm.Engine.pcr_value inst.Manager.engine 10 with
      | Error rc -> violation "ground-truth PCR read failed: rc=%d" rc
      | Ok v ->
          if not (String.equal v !shadow) then
            violation "engine PCR 10 diverged from the shadow model"));
  (match Manager.find host.Host.mgr other.Host.vtpm_id with
  | Error e -> violation "bystander instance lost: %s" (Vtpm_util.Verror.to_string e)
  | Ok inst -> (
      match Vtpm_tpm.Engine.pcr_value inst.Manager.engine 10 with
      | Ok v when not (String.equal v zeros) -> violation "bystander engine PCR 10 moved"
      | Ok _ | Error _ -> ()));
  (* Request conservation: everything admitted was served or (never,
     with this deadline) shed — nothing silently lost. *)
  let qleft = Driver.queued_total backend in
  if qleft <> 0 then violation "queued work left after the final drain: %d" qleft;
  let shed = Driver.shed_count backend in
  if !submitted <> !served_ok + !served_failed + shed + qleft then
    violation "requests lost: submitted=%d served=%d failed=%d shed=%d queued=%d" !submitted
      !served_ok !served_failed shed qleft;
  if Driver.rejected_count backend <> !rejected then
    violation "rejection ledger mismatch: driver=%d observed=%d"
      (Driver.rejected_count backend) !rejected;
  (* Every detected tamper must have been audited (the monitor's counter
     is bumped by the audit hook itself). *)
  let stats = Monitor.stats m in
  if stats.Monitor.transport_tampers <> Driver.transport_tamper_count backend then
    violation "transport tampers detected (%d) but audited (%d) diverge"
      (Driver.transport_tamper_count backend)
      stats.Monitor.transport_tampers;
  (* Hardware fault storm over: pending one-shots are cleared and the
     anchoring service must climb out of Down and drain its backlog. *)
  Faults.clear_schedules hw_faults;
  let recovery_rounds = ref 0 in
  while Anchor.health svc = Anchor.Down && !recovery_rounds < 8 do
    incr recovery_rounds;
    Vtpm_util.Cost.charge host.Host.mgr.Manager.cost Anchor.default_config.Anchor.cooldown_us;
    Anchor.tick svc
  done;
  if Anchor.health svc = Anchor.Down then
    violation "anchor service still down after faults cleared (%d recovery rounds)" !recovery_rounds;
  (* Audit integrity, across rotation, against the hardware anchor. *)
  let audit = m.Monitor.audit in
  (match
     Audit.verify_chain ~expected_head:(Audit.head audit) ~base:(Audit.base audit)
       (Audit.entries audit)
   with
  | Ok () -> ()
  | Error i -> violation "source audit chain broken at entry %d" i);
  (match Anchor.commit svc anchor ~data:(Audit.head audit) with
  | Error e -> violation "anchor commit failed: %s" (Vtpm_util.Verror.to_string e)
  | Ok (Anchor.Deferred _) -> violation "final anchor commit deferred after recovery"
  | Ok (Anchor.Committed _) -> (
      match Anchor.verify_log anchor host.Host.mgr ~svc audit with
      | Ok () -> ()
      | Error e -> violation "anchored audit verification failed: %s" (Vtpm_util.Verror.to_string e)));
  if Anchor.inflight svc <> 0 then
    violation "write-ahead journal not empty after the final commit: %d in flight"
      (Anchor.inflight svc);
  if Anchor.queue_depth svc <> 0 then
    violation "deferred anchors left after recovery: %d" (Anchor.queue_depth svc);
  (* Destination-side invariants, when a migration was attempted. *)
  (match !dest with
  | None -> ()
  | Some (dh, danchor, _key) ->
      let dm = Host.monitor_exn dh in
      let daudit = dm.Monitor.audit in
      (match
         Audit.verify_chain ~expected_head:(Audit.head daudit) ~base:(Audit.base daudit)
           (Audit.entries daudit)
       with
      | Ok () -> ()
      | Error i -> violation "destination audit chain broken at entry %d" i);
      (match Vtpm_mgr.Hw_anchor.commit dh.Host.mgr danchor ~data:(Audit.head daudit) with
      | Error e -> violation "destination anchor commit failed: %s" (Vtpm_util.Verror.to_string e)
      | Ok _ -> (
          match Anchor.verify_log danchor dh.Host.mgr daudit with
          | Ok () -> ()
          | Error e -> violation "destination anchored audit verification failed: %s" (Vtpm_util.Verror.to_string e)));
      let denied_receives =
        List.length
          (List.filter
             (fun (e : Audit.entry) ->
               (not e.Audit.allowed) && String.equal e.Audit.operation "mgmt:migrate-receive")
             (Audit.entries daudit))
      in
      if denied_receives < !dest_receives then
        violation "migration refusals not all audited at the destination (%d of %d)"
          denied_receives !dest_receives);
  {
    ops = !ops;
    submitted = !submitted;
    served_ok = !served_ok;
    served_failed = !served_failed;
    rejected = !rejected;
    attack_ops = !attack_ops;
    bypasses = !bypasses;
    tampers = stats.Monitor.transport_tampers;
    migrations = !migrations;
    rotations = Audit.rotations audit;
    attempts_by_kind =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kind_attempts []);
    wins_by_kind = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kind_wins []);
    violations = List.rev !violations;
  }

(* --- Deterministic trace generation + soaks ------------------------------------- *)

(* [attack_frac] fixes the per-op probability of drawing an attack tag
   (the fig11 x-axis); without it tags are uniform over the full space. *)
let gen_trace ?attack_frac ~seed ~index () : trace =
  let st = Random.State.make [| 0x5eed; seed; index |] in
  let len = 6 + Random.State.int st 30 in
  List.init len (fun _ ->
      let tag =
        match attack_frac with
        | None -> Random.State.int st 1000
        | Some f ->
            if Random.State.float st 1.0 < f then
              match Random.State.int st 7 with 6 -> 12 | k -> 5 + k
            else match Random.State.int st 6 with 5 -> 11 | k -> k
      in
      (tag, Random.State.int st 1000))

type soak = {
  sk_traces : int;
  sk_ops : int;
  sk_submitted : int;
  sk_served : int;
  sk_served_ok : int;
  sk_attacks : int;
  sk_bypasses : int;
  sk_tampers : int;
  sk_migrations : int;
  sk_rotations : int;
  sk_attempts_by_kind : (string * int) list;
  sk_wins_by_kind : (string * int) list;
  sk_failures : (int * string list) list;
}

let merge_assoc a b =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    a b
  |> List.sort compare

let soak ?(seed = 7) ?attack_frac ~traces () : soak =
  let acc =
    ref
      {
        sk_traces = traces;
        sk_ops = 0;
        sk_submitted = 0;
        sk_served = 0;
        sk_served_ok = 0;
        sk_attacks = 0;
        sk_bypasses = 0;
        sk_tampers = 0;
        sk_migrations = 0;
        sk_rotations = 0;
        sk_attempts_by_kind = [];
        sk_wins_by_kind = [];
        sk_failures = [];
      }
  in
  for i = 0 to traces - 1 do
    let r = run_trace ~seed:(seed + i) (gen_trace ?attack_frac ~seed ~index:i ()) in
    let a = !acc in
    acc :=
      {
        a with
        sk_ops = a.sk_ops + r.ops;
        sk_submitted = a.sk_submitted + r.submitted;
        sk_served = a.sk_served + r.served_ok + r.served_failed;
        sk_served_ok = a.sk_served_ok + r.served_ok;
        sk_attacks = a.sk_attacks + r.attack_ops;
        sk_bypasses = a.sk_bypasses + r.bypasses;
        sk_tampers = a.sk_tampers + r.tampers;
        sk_migrations = a.sk_migrations + r.migrations;
        sk_rotations = a.sk_rotations + r.rotations;
        sk_attempts_by_kind = merge_assoc a.sk_attempts_by_kind r.attempts_by_kind;
        sk_wins_by_kind = merge_assoc a.sk_wins_by_kind r.wins_by_kind;
        sk_failures =
          (if ok r then a.sk_failures else (i, r.violations) :: a.sk_failures);
      }
  done;
  let a = !acc in
  { a with sk_failures = List.rev a.sk_failures }

(* --- Serialization: deterministic replay artifacts ------------------------------ *)

let trace_header = "vtpm-fuzz-trace v1"

let trace_to_string (t : trace) =
  let b = Buffer.create (32 + (12 * List.length t)) in
  Buffer.add_string b trace_header;
  Buffer.add_char b '\n';
  List.iter
    (fun pair ->
      let tag, arg = pair in
      Buffer.add_string b (Printf.sprintf "%d %d  # %s\n" tag arg (describe pair)))
    t;
  Buffer.contents b

let trace_of_string s : (trace, string) result =
  match String.split_on_char '\n' s with
  | [] -> Error "empty trace"
  | header :: rest ->
      if not (String.equal (String.trim header) trace_header) then
        Error ("unknown trace header: " ^ String.trim header)
      else
        let strip_comment line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | line :: tl -> (
              let line = String.trim (strip_comment line) in
              if String.equal line "" then go acc tl
              else
                match
                  String.split_on_char ' ' line |> List.filter (fun x -> not (String.equal x ""))
                with
                | [ a; b ] -> (
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some x, Some y -> go ((x, y) :: acc) tl
                    | _ -> Error ("bad trace line: " ^ line))
                | _ -> Error ("bad trace line: " ^ line))
        in
        go [] rest

let save_trace path (t : trace) =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (trace_to_string t))

let load_trace path : (trace, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> trace_of_string s
  | exception Sys_error e -> Error e

let replay ?seed path : (report, string) result =
  Result.map (run_trace ?seed) (load_trace path)

(* --- QCheck surface ------------------------------------------------------------- *)

let arb_trace : trace QCheck.arbitrary =
  QCheck.(list_of_size Gen.(int_range 4 36) (pair (int_bound 999) (int_bound 999)))
