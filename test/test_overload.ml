(* Tests for the overload-robustness stack: quota edge cases, bounded
   audit retention, driver backpressure (bounded queues, deadline sheds,
   round-robin service), the per-instance supervisor (breaker, quarantine,
   checkpoint restart, degraded service, isolation), and the flood /
   wedge-drill acceptance numbers. *)

open Vtpm_access
open Vtpm_mgr
module Experiments = Vtpm_sim.Experiments

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* --- Quota edges --------------------------------------------------------------- *)

let subj d = Subject.Guest d

let test_quota_zero_rate () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:0.0 ~burst:2.0 ~cost () in
  check_b "burst 1" true (Quota.admit q (subj 1));
  check_b "burst 2" true (Quota.admit q (subj 1));
  check_b "exhausted" false (Quota.admit q (subj 1));
  (* A zero-rate bucket never refills, however much time passes. *)
  Vtpm_util.Cost.charge cost 3_600_000_000.0;
  check_b "still exhausted" false (Quota.admit q (subj 1));
  check_b "other subject unaffected" true (Quota.admit q (subj 2))

let test_quota_refill_across_time_jumps () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:10.0 ~burst:5.0 ~cost () in
  for i = 1 to 5 do
    check_b (Printf.sprintf "burst %d" i) true (Quota.admit q (subj 1))
  done;
  check_b "drained" false (Quota.admit q (subj 1));
  (* 200 ms at 10/s refills exactly 2 tokens. *)
  Vtpm_util.Cost.charge cost 200_000.0;
  check_b "refill 1" true (Quota.admit q (subj 1));
  check_b "refill 2" true (Quota.admit q (subj 1));
  check_b "no third" false (Quota.admit q (subj 1));
  (* A huge jump caps at the burst, not rate * dt. *)
  Vtpm_util.Cost.charge cost 1_000_000_000.0;
  check_b "capped at burst" true (Quota.remaining q (subj 1) <= 5.0 +. 1e-9);
  for i = 1 to 5 do
    check_b (Printf.sprintf "recapped %d" i) true (Quota.admit q (subj 1))
  done;
  check_b "capped drained" false (Quota.admit q (subj 1))

let test_quota_remaining_monotone () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:50.0 ~burst:10.0 ~cost () in
  (* With no time passing, [remaining] strictly decreases per admit and
     never goes negative. *)
  let prev = ref (Quota.remaining q (subj 3)) in
  for _ = 1 to 12 do
    ignore (Quota.admit q (subj 3));
    let r = Quota.remaining q (subj 3) in
    check_b "non-increasing" true (r <= !prev);
    check_b "non-negative" true (r >= 0.0);
    prev := r
  done

let test_quota_forget_teardown () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~cost () in
  ignore (Quota.admit q (subj 1));
  ignore (Quota.admit q (subj 2));
  check_i "two buckets" 2 (Quota.tracked q);
  Quota.forget q (subj 1);
  check_i "one bucket" 1 (Quota.tracked q);
  Quota.forget q (subj 1);
  check_i "forget idempotent" 1 (Quota.tracked q)

(* --- Audit rotation ------------------------------------------------------------ *)

let fill_audit a n =
  for i = 1 to n do
    Audit.append a ~subject:"g" ~operation:(Printf.sprintf "op%d" i) ~instance:None
      ~allowed:true ~reason:"ok"
  done

let test_audit_rotation_bounds_retention () =
  let cost = Vtpm_util.Cost.create () in
  let a = Audit.create ~cost in
  Audit.set_max_entries a (Some 8);
  fill_audit a 100;
  check_i "length counts everything" 100 (Audit.length a);
  check_b "retention bounded" true (Audit.retained_entries a <= 8);
  check_b "rotated" true (Audit.rotations a > 0);
  check_i "dropped accounts" (100 - Audit.retained_entries a) (Audit.dropped a)

let test_audit_rotation_keeps_chain_valid () =
  let cost = Vtpm_util.Cost.create () in
  let a = Audit.create ~cost in
  fill_audit a 20;
  let head_before = Audit.head a in
  Audit.set_max_entries a (Some 6);
  check_s "head survives rotation" head_before (Audit.head a);
  check_b "base moved off genesis" true (Audit.base a <> Audit.genesis);
  let retained = Audit.entries a in
  check_b "retained window verifies against base" true
    (Audit.verify_chain ~expected_head:(Audit.head a) ~base:(Audit.base a) retained
    = Ok ());
  check_b "genesis anchor no longer verifies" true
    (Audit.verify_chain ~expected_head:(Audit.head a) retained <> Ok ())

let test_audit_uncapped_unchanged () =
  let cost = Vtpm_util.Cost.create () in
  let a = Audit.create ~cost in
  fill_audit a 50;
  check_i "no rotation uncapped" 0 (Audit.rotations a);
  check_i "everything retained" 50 (Audit.retained_entries a);
  check_s "base is genesis" Audit.genesis (Audit.base a);
  check_b "full chain verifies" true
    (Audit.verify_chain ~expected_head:(Audit.head a) (Audit.entries a) = Ok ())

(* --- Driver backpressure -------------------------------------------------------- *)

(* Two-guest improved host; returns (host, g1, g2). *)
let two_guest_host ?(seed = 5) () =
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let g1 = Host.create_guest_exn host ~name:"a" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"b" ~label:"tenant_01" () in
  (host, g1, g2)

let read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 4 })

let test_naive_queue_unbounded () =
  let host, g1, _ = two_guest_host () in
  let b = host.Host.backend in
  for _ = 1 to 50 do
    match Driver.submit b g1.Host.conn ~wire:read_wire () with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "naive submit must not reject"
  done;
  check_i "all queued" 50 (Driver.queued_depth b ~fe_domid:g1.Host.domid);
  check_i "nothing shed" 0 (Driver.shed_count b);
  check_i "nothing rejected" 0 (Driver.rejected_count b)

let test_capacity_rejection_with_retry_hint () =
  let host, g1, _ = two_guest_host () in
  let b = host.Host.backend in
  Driver.set_overload b (Some { Driver.queue_capacity = 2; deadline_us = 5_000.0 });
  check_b "1st" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  check_b "2nd" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  (match Driver.submit b g1.Host.conn ~wire:read_wire () with
  | Error (Vtpm_util.Verror.Overloaded { retry_after_us; _ }) ->
      check_b "positive retry hint" true (retry_after_us > 0.0);
      check_b "hint bounded by deadline" true (retry_after_us <= 5_000.0)
  | Ok () -> Alcotest.fail "3rd submit must be rejected"
  | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e));
  check_i "rejection counted" 1 (Driver.rejected_count b);
  check_i "depth unchanged" 2 (Driver.queued_depth b ~fe_domid:g1.Host.domid)

let test_deadline_shed_oldest_first () =
  let host, g1, _ = two_guest_host () in
  let b = host.Host.backend in
  let cost = Host.cost host in
  Driver.set_overload b (Some { Driver.queue_capacity = 8; deadline_us = 1_000.0 });
  let sheds = ref [] in
  Driver.set_on_backpressure b (fun bp domid ->
      if bp = Driver.Shed then sheds := domid :: !sheds);
  check_b "queued" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  Vtpm_util.Cost.charge cost 2_000.0;
  (* The stale entry is shed at the next admission, freeing the slot. *)
  check_b "fresh entry admitted" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  check_i "one shed" 1 (Driver.shed_count b);
  check_b "shed attributed to the frontend" true (!sheds = [ g1.Host.domid ]);
  check_i "only the fresh entry queued" 1 (Driver.queued_depth b ~fe_domid:g1.Host.domid)

let pump_domids b n =
  List.filter_map
    (fun () -> match Driver.pump_one b with `Served s -> Some s.Driver.s_domid | `Idle -> None)
    (List.init n (fun _ -> ()))

let test_pump_round_robin_under_policy () =
  let host, g1, g2 = two_guest_host () in
  let b = host.Host.backend in
  Driver.set_overload b (Some { Driver.queue_capacity = 8; deadline_us = 1_000_000.0 });
  (* g2 floods first; g1 submits later. Round-robin still alternates. *)
  for _ = 1 to 3 do
    check_b "g2 queued" true (Driver.submit b g2.Host.conn ~wire:read_wire () = Ok ())
  done;
  for _ = 1 to 2 do
    check_b "g1 queued" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ())
  done;
  let order = pump_domids b 5 in
  check_b "alternates frontends" true
    (order
    = [ g1.Host.domid; g2.Host.domid; g1.Host.domid; g2.Host.domid; g2.Host.domid ])

let test_pump_arrival_order_naive () =
  let host, g1, g2 = two_guest_host () in
  let b = host.Host.backend in
  let cost = Host.cost host in
  let t = Vtpm_util.Cost.now cost in
  (* Backdated arrivals decide the order, not submission order. *)
  check_b "late" true
    (Driver.submit b g1.Host.conn ~wire:read_wire ~arrival_us:(t +. 50.0) () = Ok ());
  check_b "early" true
    (Driver.submit b g2.Host.conn ~wire:read_wire ~arrival_us:(t +. 10.0) () = Ok ());
  let order = pump_domids b 2 in
  check_b "earliest arrival first" true (order = [ g2.Host.domid; g1.Host.domid ])

(* [queued_total] is a counter kept by every push and pop; after any
   sequence of submits (with sheds and rejections under a policy), pumps,
   forgets and clock advances it equals the fold over the queues. *)
type queue_op = Submit of bool | Pump | Forget of bool | Wait of float

let prop_queued_total_matches_fold =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun g -> Submit g) bool);
          (3, return Pump);
          (1, map (fun g -> Forget g) bool);
          (2, map (fun us -> Wait us) (float_bound_inclusive 4_000.0));
        ])
  in
  let print_op = function
    | Submit g -> Printf.sprintf "submit %b" g
    | Pump -> "pump"
    | Forget g -> Printf.sprintf "forget %b" g
    | Wait us -> Printf.sprintf "wait %g" us
  in
  QCheck.Test.make ~name:"driver: queued_total == fold over queues" ~count:25
    (QCheck.make
       ~print:(fun (policy, batch, ops) ->
         Printf.sprintf "policy=%b batch=%d: %s" policy batch
           (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(triple bool (int_range 1 3) (list_size (int_range 1 60) op_gen)))
    (fun (policy, batch, ops) ->
      let host, g1, g2 = two_guest_host () in
      let b = host.Host.backend in
      if policy then
        Driver.set_overload b (Some { Driver.queue_capacity = 3; deadline_us = 5_000.0 });
      Driver.set_batch b batch;
      let guest g = if g then g1 else g2 in
      List.for_all
        (fun op ->
          (match op with
          | Submit g -> ignore (Driver.submit b (guest g).Host.conn ~wire:read_wire ())
          | Pump -> ignore (Driver.pump_batch b)
          | Forget g -> Driver.forget_domain b ~fe_domid:(guest g).Host.domid
          | Wait us -> Vtpm_util.Cost.charge (Host.cost host) us);
          Driver.queued_total b
          = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) b.Driver.queues 0)
        ops)

let test_destroy_guest_drops_queue_and_quota () =
  let host, g1, g2 = two_guest_host () in
  let b = host.Host.backend in
  let m = Host.monitor_exn host in
  Monitor.set_quota m ~rate_per_s:100.0 ~burst:10.0;
  (* Create the guest's bucket and queue entry, then tear the guest down. *)
  let client = Host.guest_client host g1 in
  (match Vtpm_tpm.Client.pcr_read client ~pcr:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pcr read should succeed");
  check_b "queued work pending" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  let tracked_before =
    match m.Monitor.quota with Some q -> Quota.tracked q | None -> 0
  in
  check_b "bucket exists" true (tracked_before >= 1);
  (match Host.destroy_guest host g1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "destroy: %s" e);
  check_i "queue dropped" 0 (Driver.queued_depth b ~fe_domid:g1.Host.domid);
  (match m.Monitor.quota with
  | Some q -> check_i "bucket dropped" (tracked_before - 1) (Quota.tracked q)
  | None -> Alcotest.fail "quota vanished");
  (* The co-tenant is untouched. *)
  let client2 = Host.guest_client host g2 in
  check_b "co-tenant still served" true
    (match Vtpm_tpm.Client.pcr_read client2 ~pcr:0 with Ok _ -> true | Error _ -> false)

(* --- Supervisor ----------------------------------------------------------------- *)

let extend_wire k =
  Vtpm_tpm.Wire.encode_request
    (Vtpm_tpm.Cmd.Extend { pcr = 7; digest = Vtpm_crypto.Sha1.digest (string_of_int k) })

let pcr7_read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 7 })

(* Host + supervised instance with the wedge fault at [rate]. *)
let supervised_fixture ?(seed = 23) ?(rate = 0.0) ?(cfg = Supervisor.default_config) () =
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let g = Host.create_guest_exn host ~name:"sup" ~label:"tenant_00" () in
  let faults =
    Vtpm_xen.Faults.create ~seed ~rates:[ (Vtpm_xen.Faults.Wedged_instance, rate) ] ()
  in
  Vtpm_xen.Hypervisor.set_faults host.Host.xen faults;
  let ckpt = Checkpoint.create host.Host.mgr in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> Alcotest.fail e);
  let sup = Supervisor.create ~cfg ~mgr:host.Host.mgr ~ckpt ~faults () in
  (host, g, sup, faults)

let wedge_cfg ?(max_restarts = 10) () =
  {
    Supervisor.failure_threshold = 1;
    open_cooldown_us = 10_000.0;
    max_restarts;
    probe_interval_us = 5_000.0;
    is_read_only = Command_class.is_read_only;
  }

let test_breaker_trip_quarantine_restore () =
  let host, g, sup, faults = supervised_fixture ~rate:1.0 ~cfg:(wedge_cfg ()) () in
  let events = ref [] in
  Supervisor.set_on_event sup (fun ~vtpm_id:_ e -> events := e :: !events);
  (* The wedge fires on the first request; threshold 1 trips the breaker,
     quarantines, restores from checkpoint — and the read is still served,
     from the shadow. *)
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "degraded read failed: %s" (Vtpm_util.Verror.to_string e));
  check_i "breaker open" 1 (Supervisor.breaker_opens sup);
  check_i "quarantined" 1 (Supervisor.quarantines sup);
  check_b "degraded health" true (Supervisor.health sup g.Host.vtpm_id = Supervisor.Degraded);
  check_b "events include quarantine" true (List.mem Supervisor.Quarantine !events);
  check_b "events include restart" true (List.mem Supervisor.Restart !events);
  (* Disarm now: at rate 1.0 every further request would re-wedge the
     freshly restored instance. *)
  Vtpm_xen.Faults.disarm faults;
  (* Mutations are refused while the breaker is open. *)
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:(extend_wire 1) with
  | Error (Vtpm_util.Verror.Overloaded { retry_after_us; _ }) ->
      check_b "retry hint" true (retry_after_us > 0.0)
  | Ok _ -> Alcotest.fail "extend must be rejected while degraded"
  | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e));
  let e = Supervisor.entry sup g.Host.vtpm_id in
  check_b "degraded read counted" true (e.Supervisor.degraded_reads >= 1);
  check_b "degraded reject counted" true (e.Supervisor.degraded_rejects >= 1);
  (* Wait out the cooldown: the half-open probe closes the breaker and
     service returns to normal, mutations included. *)
  Vtpm_util.Cost.charge (Host.cost host) 20_000.0;
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:(extend_wire 2) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-recovery extend: %s" (Vtpm_util.Verror.to_string e));
  check_b "healthy again" true (Supervisor.health sup g.Host.vtpm_id = Supervisor.Healthy);
  check_b "breaker closed event" true (List.mem Supervisor.Breaker_close !events)

let test_isolation_after_restart_budget () =
  let _host, g, sup, _faults = supervised_fixture ~rate:1.0 ~cfg:(wedge_cfg ~max_restarts:0 ()) () in
  (* Restart budget 0: the first quarantine escalates straight to
     permanent isolation — and the triggering request already gets the
     terminal answer, not a one-off degraded response. *)
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Error (Vtpm_util.Verror.Denied _) -> ()
  | Ok _ -> Alcotest.fail "triggering request must see the isolation error"
  | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e));
  check_b "isolated" true (Supervisor.health sup g.Host.vtpm_id = Supervisor.Isolated);
  check_i "isolation counted" 1 (Supervisor.isolations sup);
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Error (Vtpm_util.Verror.Denied _) -> ()
  | Ok _ -> Alcotest.fail "isolated instance must not serve"
  | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e))

let pcr_of_response wire =
  match Vtpm_tpm.Wire.decode_response wire with
  | { Vtpm_tpm.Cmd.rc = 0; body = Vtpm_tpm.Cmd.R_extend { new_value }; _ } -> new_value
  | { Vtpm_tpm.Cmd.rc = 0; body = Vtpm_tpm.Cmd.R_pcr_value v; _ } -> v
  | { Vtpm_tpm.Cmd.rc; _ } -> Alcotest.failf "unexpected TPM response (rc %d)" rc

let test_write_through_preserves_acked_state () =
  let host, g, sup, faults = supervised_fixture ~rate:0.0 ~cfg:(wedge_cfg ()) () in
  (* Ack two extends with the supervisor healthy... *)
  let acked = ref "" in
  for k = 1 to 2 do
    match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:(extend_wire k) with
    | Ok resp -> acked := pcr_of_response resp
    | Error e -> Alcotest.failf "extend: %s" (Vtpm_util.Verror.to_string e)
  done;
  (* ...then wedge, quarantine, restore — the shadow read and the restored
     instance must both reflect the last acknowledged extend. *)
  Vtpm_xen.Faults.set_rate faults Vtpm_xen.Faults.Wedged_instance 1.0;
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Ok resp -> check_s "shadow read = last acked" !acked (pcr_of_response resp)
  | Error e -> Alcotest.failf "degraded read: %s" (Vtpm_util.Verror.to_string e));
  Vtpm_xen.Faults.disarm faults;
  Vtpm_util.Cost.charge (Host.cost host) 20_000.0;
  match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Ok resp -> check_s "restored read = last acked" !acked (pcr_of_response resp)
  | Error e -> Alcotest.failf "recovered read: %s" (Vtpm_util.Verror.to_string e)

let test_read_only_classifications_agree () =
  (* The supervisor's built-in fallback must agree with the access layer's
     command classification — degraded mode must not serve a mutation. *)
  for ordinal = 0 to 0x200 do
    check_b
      (Printf.sprintf "ordinal 0x%x" ordinal)
      (Command_class.is_read_only ordinal)
      (Supervisor.builtin_read_only ordinal)
  done

let test_supervisor_forget () =
  let _host, g, sup, _faults = supervised_fixture ~rate:0.0 () in
  ignore (Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire);
  Supervisor.forget sup ~vtpm_id:g.Host.vtpm_id;
  (* A fresh entry appears on next contact: counters reset, healthy. *)
  let e = Supervisor.entry sup g.Host.vtpm_id in
  check_b "fresh after forget" true
    (e.Supervisor.health = Supervisor.Healthy && e.Supervisor.restarts = 0)

let test_suspended_is_not_a_health_failure () =
  (* Wedge probability 1.0: if suspension read as ill health, the first
     contact would trip the breaker and the checkpoint restore would
     force the parked instance back to Active. *)
  let host, g, sup, _faults = supervised_fixture ~rate:1.0 ~cfg:(wedge_cfg ()) () in
  (match Host.suspend_vtpm host g with Ok () -> () | Error e -> Alcotest.fail e);
  (* Requests surface the suspension conflict untouched... *)
  (match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
  | Error (Vtpm_util.Verror.Conflict _) -> ()
  | Ok _ -> Alcotest.fail "suspended instance must not serve"
  | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e));
  (* ...and idle probes skip the parked instance. *)
  Vtpm_util.Cost.charge (Host.cost host) 50_000.0;
  Supervisor.tick sup;
  check_i "no breaker trip" 0 (Supervisor.breaker_opens sup);
  check_i "no quarantine" 0 (Supervisor.quarantines sup);
  check_b "entry stays healthy" true (Supervisor.health sup g.Host.vtpm_id = Supervisor.Healthy);
  match Manager.find host.Host.mgr g.Host.vtpm_id with
  | Ok inst -> check_b "still suspended" true (inst.Manager.state = Manager.Suspended)
  | Error e -> Alcotest.fail (Vtpm_util.Verror.to_string e)

let test_restore_refuses_suspended () =
  let host, g, _sup, _faults = supervised_fixture () in
  let ckpt = Checkpoint.create host.Host.mgr in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> Alcotest.fail e);
  (match Host.suspend_vtpm host g with Ok () -> () | Error e -> Alcotest.fail e);
  (* The saved blob is authoritative while suspended; a checkpoint restore
     would roll acknowledged state back. *)
  (match Checkpoint.restore_instance ckpt ~vtpm_id:g.Host.vtpm_id with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "restore must refuse a suspended instance");
  (match Manager.find host.Host.mgr g.Host.vtpm_id with
  | Ok inst -> check_b "still suspended" true (inst.Manager.state = Manager.Suspended)
  | Error e -> Alcotest.fail (Vtpm_util.Verror.to_string e));
  (* After resume the instance is live again and restore applies as usual. *)
  (match Host.resume_vtpm host g with Ok () -> () | Error e -> Alcotest.fail e);
  check_b "restore ok after resume" true
    (Checkpoint.restore_instance ckpt ~vtpm_id:g.Host.vtpm_id = Ok ())

let test_destroyed_instance_not_resurrected () =
  let host, g, sup, _faults = supervised_fixture ~cfg:(wedge_cfg ()) () in
  (* A teardown path that skips Supervisor.forget: the instance is gone
     from the manager but its checkpoint lingers. Repeated requests must
     keep failing with No_such (threshold 1 would trip on the first
     counted failure) — never restore the instance from the stale
     checkpoint. *)
  Manager.destroy_instance host.Host.mgr g.Host.vtpm_id;
  for _ = 1 to 5 do
    match Supervisor.execute sup ~vtpm_id:g.Host.vtpm_id ~wire:pcr7_read_wire with
    | Error (Vtpm_util.Verror.No_such _) -> ()
    | Ok _ -> Alcotest.fail "destroyed instance must not serve"
    | Error e -> Alcotest.failf "wrong error: %s" (Vtpm_util.Verror.to_string e)
  done;
  check_i "no breaker trip" 0 (Supervisor.breaker_opens sup);
  check_i "no quarantine" 0 (Supervisor.quarantines sup);
  check_b "not resurrected" true (Result.is_error (Manager.find host.Host.mgr g.Host.vtpm_id))

(* --- Monitor integration: audit reasons ----------------------------------------- *)

let audit_reasons m =
  List.map (fun (e : Audit.entry) -> e.Audit.reason) (Audit.entries m.Monitor.audit)

let test_audit_reasons_overloaded_and_shed () =
  let host, g1, _ = two_guest_host () in
  let b = host.Host.backend in
  let m = Host.monitor_exn host in
  Driver.set_overload b (Some { Driver.queue_capacity = 1; deadline_us = 1_000.0 });
  Monitor.wire_backpressure m b;
  check_b "fits" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  check_b "rejected" true (Driver.submit b g1.Host.conn ~wire:read_wire () <> Ok ());
  Vtpm_util.Cost.charge (Host.cost host) 2_000.0;
  check_b "resubmit after shed" true (Driver.submit b g1.Host.conn ~wire:read_wire () = Ok ());
  let reasons = audit_reasons m in
  check_b "overloaded audited" true (List.mem "overloaded" reasons);
  check_b "shed audited" true (List.mem "shed-deadline" reasons);
  check_i "stats overloaded" 1 (Monitor.stats m).Monitor.overloaded;
  check_i "stats shed" 1 (Monitor.stats m).Monitor.shed

let test_audit_reasons_supervision () =
  let host, g, sup, _faults = supervised_fixture ~rate:1.0 ~cfg:(wedge_cfg ()) () in
  let m = Host.monitor_exn host in
  Monitor.set_supervisor m sup;
  (* Route a guest request through the monitor: the wedge fires on the
     supervised path and the events land in the audit log. *)
  let client = Host.guest_client host g in
  ignore (Vtpm_tpm.Client.pcr_read client ~pcr:7);
  let reasons = audit_reasons m in
  check_b "quarantine audited" true (List.mem "quarantine" reasons);
  check_b "breaker-open audited" true (List.mem "breaker-open" reasons);
  check_b "degraded read audited" true (List.mem "degraded-read" reasons)

(* --- Flood and wedge-drill acceptance -------------------------------------------- *)

let test_flood_full_stack_holds () =
  let r =
    Experiments.flood_run ~config:Experiments.Full_stack ~flood_x:10 ~victim_ops:60 ~seed:61 ()
  in
  check_b
    (Printf.sprintf "full stack goodput %.1f%% >= 90%%" r.Experiments.victim_goodput_pct)
    true
    (r.Experiments.victim_goodput_pct >= 90.0);
  check_b "attacker contained" true (r.Experiments.attacker_rejected > 0)

let test_flood_naive_collapses () =
  let r =
    Experiments.flood_run ~config:Experiments.Naive ~flood_x:10 ~victim_ops:60 ~seed:61 ()
  in
  check_b
    (Printf.sprintf "naive goodput %.1f%% < 50%%" r.Experiments.victim_goodput_pct)
    true
    (r.Experiments.victim_goodput_pct < 50.0);
  check_i "attacker unthrottled" 600 r.Experiments.attacker_served

let test_flood_deterministic () =
  let run () =
    Experiments.flood_run ~config:Experiments.Full_stack ~flood_x:5 ~victim_ops:40 ~seed:17 ()
  in
  check_b "same seed same row" true (run () = run ())

let test_wedge_drill_recovers () =
  let d = Experiments.wedge_drill ~requests:100 ~seed:97 () in
  check_b "wedges injected" true (d.Experiments.wd_wedges > 0);
  check_b "quarantines happened" true (d.Experiments.wd_quarantines > 0);
  check_b "restarts happened" true (d.Experiments.wd_restarts > 0);
  check_b "reads served while degraded" true (d.Experiments.wd_degraded_reads > 0);
  check_b "mutations refused while degraded" true (d.Experiments.wd_degraded_rejects > 0);
  check_b "no acked extend lost" true d.Experiments.wd_state_preserved;
  check_b "deterministic" true (Experiments.wedge_drill ~requests:100 ~seed:97 () = d)

let suite =
  [
    Alcotest.test_case "quota: zero-rate bucket" `Quick test_quota_zero_rate;
    Alcotest.test_case "quota: refill across time jumps" `Quick test_quota_refill_across_time_jumps;
    Alcotest.test_case "quota: remaining monotone" `Quick test_quota_remaining_monotone;
    Alcotest.test_case "quota: forget drops buckets" `Quick test_quota_forget_teardown;
    Alcotest.test_case "audit: rotation bounds retention" `Quick test_audit_rotation_bounds_retention;
    Alcotest.test_case "audit: rotation keeps chain valid" `Quick test_audit_rotation_keeps_chain_valid;
    Alcotest.test_case "audit: uncapped log unchanged" `Quick test_audit_uncapped_unchanged;
    Alcotest.test_case "driver: naive queue unbounded" `Quick test_naive_queue_unbounded;
    Alcotest.test_case "driver: capacity rejection + retry hint" `Quick
      test_capacity_rejection_with_retry_hint;
    Alcotest.test_case "driver: deadline shed oldest first" `Quick test_deadline_shed_oldest_first;
    Alcotest.test_case "driver: round-robin service under policy" `Quick
      test_pump_round_robin_under_policy;
    Alcotest.test_case "driver: arrival order naive" `Quick test_pump_arrival_order_naive;
    QCheck_alcotest.to_alcotest prop_queued_total_matches_fold;
    Alcotest.test_case "teardown: destroy guest drops queue + quota" `Quick
      test_destroy_guest_drops_queue_and_quota;
    Alcotest.test_case "supervisor: trip, quarantine, restore, close" `Quick
      test_breaker_trip_quarantine_restore;
    Alcotest.test_case "supervisor: isolation after restart budget" `Quick
      test_isolation_after_restart_budget;
    Alcotest.test_case "supervisor: write-through preserves acked state" `Quick
      test_write_through_preserves_acked_state;
    Alcotest.test_case "supervisor: read-only classifications agree" `Quick
      test_read_only_classifications_agree;
    Alcotest.test_case "supervisor: forget resets entry" `Quick test_supervisor_forget;
    Alcotest.test_case "supervisor: suspended is not a health failure" `Quick
      test_suspended_is_not_a_health_failure;
    Alcotest.test_case "checkpoint: restore refuses suspended" `Quick
      test_restore_refuses_suspended;
    Alcotest.test_case "supervisor: destroyed instance stays destroyed" `Quick
      test_destroyed_instance_not_resurrected;
    Alcotest.test_case "monitor: overload + shed audit reasons" `Quick
      test_audit_reasons_overloaded_and_shed;
    Alcotest.test_case "monitor: supervision audit reasons" `Quick test_audit_reasons_supervision;
    Alcotest.test_case "flood: full stack holds at 10x" `Slow test_flood_full_stack_holds;
    Alcotest.test_case "flood: naive collapses at 10x" `Slow test_flood_naive_collapses;
    Alcotest.test_case "flood: deterministic" `Slow test_flood_deterministic;
    Alcotest.test_case "wedge drill: quarantine + degraded service + recovery" `Slow
      test_wedge_drill_recovers;
  ]
