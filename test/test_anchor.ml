(* Tests for hardware anchoring: the crash-consistent service and its
   Merkle batching (the tree itself, torn-commit repair at every crash
   boundary, retry under injected chip faults, breaker-driven deferral
   with bounded staleness, Merkle catch-up with inclusion proofs, the
   freshness fail-closed contract), and the single-attempt path it
   shares its hardware ops with. *)

open Vtpm_access
open Vtpm_mgr

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let sha s = Vtpm_crypto.Sha256.digest s
let verr = Vtpm_util.Verror.to_string

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec at i = i + n <= l && (String.equal (String.sub s i n) needle || at (i + 1)) in
  at 0

let rig ?cfg ~seed () =
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let mgr = host.Host.mgr in
  let ckpt = Checkpoint.create mgr in
  let slot =
    match Anchor.setup mgr with
    | Ok a -> a
    | Error e -> Alcotest.failf "anchor setup: %s" (verr e)
  in
  let svc = Anchor.create ?cfg ~ckpt mgr in
  Anchor.set_audit svc (Some m.Monitor.audit);
  (host, m, mgr, ckpt, slot, svc)

let commit_ok ?(what = "commit") svc slot data =
  match Anchor.commit_sync svc slot ~data with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: %s" what (verr e)

(* --- Merkle tree ----------------------------------------------------------------- *)

let test_merkle_root_and_combines () =
  check_s "single leaf root is the leaf hash" (Merkle.leaf_hash "a") (Merkle.root [ "a" ]);
  check_i "combines 1" 0 (Merkle.combines 1);
  check_i "combines 2" 1 (Merkle.combines 2);
  check_i "combines 7" 6 (Merkle.combines 7);
  check_s "two-leaf root combines the leaf hashes"
    (Merkle.node_hash (Merkle.leaf_hash "a") (Merkle.leaf_hash "b"))
    (Merkle.root [ "a"; "b" ]);
  (* Domain separation: bytes that spell out an inner node's input can
     never hash to the inner node when presented as a leaf. *)
  check_b "leaf and node domains separated" true
    (Merkle.leaf_hash (Merkle.leaf_hash "a" ^ Merkle.leaf_hash "b")
    <> Merkle.node_hash (Merkle.leaf_hash "a") (Merkle.leaf_hash "b"));
  match Merkle.root [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty root accepted"

let test_merkle_proofs_every_size () =
  for n = 1 to 9 do
    let leaves = List.init n (Printf.sprintf "leaf-%d-%d" n) in
    let root = Merkle.root leaves in
    let proofs = Merkle.all_proofs leaves in
    check_i "one proof per leaf" n (Array.length proofs);
    List.iteri
      (fun i leaf ->
        check_b "all_proofs agrees with proof" true (proofs.(i) = Merkle.proof leaves ~index:i);
        check_b "inclusion proof verifies" true (Merkle.verify ~root ~leaf proofs.(i));
        check_b "wrong leaf rejected" true
          (not (Merkle.verify ~root ~leaf:"evil" proofs.(i)));
        check_b "wrong root rejected" true
          (not (Merkle.verify ~root:(sha "not-the-root") ~leaf proofs.(i))))
      leaves
  done;
  match Merkle.proof [ "a" ] ~index:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range proof accepted"

(* --- Plain commits through the service -------------------------------------------- *)

let test_commit_sync_and_read () =
  let _host, _m, _mgr, _ckpt, slot, svc = rig ~seed:5 () in
  let d1 = sha "head-1" and d2 = sha "head-2" in
  let c1 = commit_ok ~what:"first" svc slot d1 in
  let c2 = commit_ok ~what:"second" svc slot d2 in
  check_b "counter advances" true (c2 > c1);
  (match Anchor.read_slot svc slot with
  | Ok (bytes, c) ->
      check_s "latest head anchored" d2 bytes;
      check_i "read counter matches" c2 c
  | Error e -> Alcotest.failf "read_slot: %s" (verr e));
  check_b "healthy" true (Anchor.health svc = Anchor.Healthy);
  check_i "journal empty after clean commits" 0 (Anchor.inflight svc);
  check_i "nothing deferred" 0 (Anchor.queue_depth svc)

(* --- Torn-commit repair at every crash boundary ------------------------------------ *)

let boundaries =
  Anchor.
    [
      (Before_nv_write, "before-nv-write");
      (After_nv_write, "after-nv-write");
      (After_journal_update, "after-journal-update");
      (After_increment, "after-increment");
    ]

let test_torn_commit_repair () =
  List.iter
    (fun (point, name) ->
      let _host, _m, mgr, ckpt, slot, svc = rig ~seed:7 () in
      let c0 = commit_ok ~what:(name ^ ": baseline") svc slot (sha ("baseline-" ^ name)) in
      let torn = sha ("torn-" ^ name) in
      Anchor.set_power_loss_at svc (Some point);
      (match Anchor.commit_sync svc slot ~data:torn with
      | exception Anchor.Power_loss p ->
          check_b (name ^ ": cut at the scheduled point") true (p = point)
      | Ok _ | Error _ -> Alcotest.failf "%s: drill did not cut the power" name);
      (* Restart: a fresh service incarnation over the same checkpoint
         store must see the journaled intent and finish it forward. *)
      let svc2 = Anchor.create ~ckpt mgr in
      check_i (name ^ ": journal survives restart") 1 (Anchor.inflight svc2);
      (match Anchor.recover svc2 with
      | Ok r ->
          check_i (name ^ ": one in-flight intent") 1 r.Anchor.rp_inflight;
          check_i (name ^ ": accounted for") 1 (r.Anchor.rp_repaired + r.Anchor.rp_completed)
      | Error e -> Alcotest.failf "%s: recover: %s" name (verr e));
      check_i (name ^ ": journal clean after repair") 0 (Anchor.inflight svc2);
      match Anchor.read_slot svc2 slot with
      | Ok (bytes, c) ->
          check_s (name ^ ": torn head finished forward") torn bytes;
          check_b (name ^ ": counter never undercounts") true (c > c0)
      | Error e -> Alcotest.failf "%s: read after repair: %s" name (verr e))
    boundaries

let test_recover_is_idempotent () =
  let _host, _m, mgr, ckpt, slot, svc = rig ~seed:19 () in
  Anchor.set_power_loss_at svc (Some Anchor.After_nv_write);
  (try ignore (Anchor.commit_sync svc slot ~data:(sha "idem"))
   with Anchor.Power_loss _ -> ());
  let svc2 = Anchor.create ~ckpt mgr in
  (match Anchor.recover svc2 with
  | Ok r -> check_i "first pass repairs" 1 r.Anchor.rp_inflight
  | Error e -> Alcotest.failf "recover: %s" (verr e));
  let counter_after =
    match Anchor.read_slot svc2 slot with
    | Ok (_, c) -> c
    | Error e -> Alcotest.failf "read: %s" (verr e)
  in
  (match Anchor.recover svc2 with
  | Ok r -> check_i "second pass finds nothing" 0 r.Anchor.rp_inflight
  | Error e -> Alcotest.failf "recover again: %s" (verr e));
  match Anchor.read_slot svc2 slot with
  | Ok (_, c) -> check_i "idempotent: counter untouched" counter_after c
  | Error e -> Alcotest.failf "read again: %s" (verr e)

(* --- Retry under injected chip faults ---------------------------------------------- *)

let test_transient_faults_ride_retry () =
  let _host, _m, mgr, _ckpt, slot, svc = rig ~seed:9 () in
  let f = Vtpm_xen.Faults.create ~seed:41 () in
  Manager.set_hw_faults mgr (Some f);
  Vtpm_xen.Faults.schedule f Vtpm_xen.Faults.Hw_busy;
  ignore (commit_ok ~what:"busy" svc slot (sha "rides-busy"));
  Vtpm_xen.Faults.schedule f Vtpm_xen.Faults.Hw_reset;
  ignore (commit_ok ~what:"reset" svc slot (sha "rides-reset"));
  let st = Anchor.stats svc in
  check_b "retries recorded" true (st.Anchor.st_retries > 0);
  check_b "service never went down" true (Anchor.available svc);
  check_i "journal clean" 0 (Anchor.inflight svc)

(* --- Breaker, deferral, Merkle catch-up -------------------------------------------- *)

let test_breaker_defers_and_catches_up () =
  let _host, m, mgr, _ckpt, slot, svc = rig ~seed:11 () in
  ignore (commit_ok ~what:"baseline" svc slot (sha "baseline"));
  Anchor.force_down svc;
  check_b "down" true (Anchor.health svc = Anchor.Down);
  check_b "not available" true (not (Anchor.available svc));
  (match Anchor.commit_sync svc slot ~data:(sha "no-defer") with
  | Error (Vtpm_util.Verror.Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "non-deferrable commit succeeded while down"
  | Error e -> Alcotest.failf "wrong error while down: %s" (verr e));
  let leaves = List.init 5 (fun i -> sha (Printf.sprintf "deferred-%d" i)) in
  List.iteri
    (fun i d ->
      match Anchor.commit svc slot ~data:d with
      | Ok (Anchor.Deferred depth) -> check_i "queue depth grows" (i + 1) depth
      | Ok (Anchor.Committed _) -> Alcotest.fail "committed while down"
      | Error e -> Alcotest.failf "defer: %s" (verr e))
    leaves;
  check_i "queue holds the backlog" 5 (Anchor.queue_depth svc);
  (* Cooldown elapses on the simulated clock; one tick probes the chip,
     replays the journal and drains the backlog as one Merkle batch. *)
  Vtpm_util.Cost.charge mgr.Manager.cost
    (Anchor.default_config.Anchor.cooldown_us +. 1.0);
  Anchor.tick svc;
  check_b "degraded after recovery" true (Anchor.health svc = Anchor.Degraded);
  check_i "queue drained" 0 (Anchor.queue_depth svc);
  let st = Anchor.stats svc in
  check_b "breaker open counted" true (st.Anchor.st_breaker_opens >= 1);
  check_i "one catch-up batch" 1 st.Anchor.st_catchup_batches;
  check_i "every deferred entry batched" 5 st.Anchor.st_catchup_entries;
  (* The anchored root proves each deferred digest individually. *)
  (match Anchor.read_slot svc slot with
  | Ok (root, _) ->
      List.iter
        (fun d ->
          match Anchor.proof_for svc ~label:slot.Hw_anchor.label ~data:d with
          | Some (r, p) ->
              check_s "proof root is the anchored root" root r;
              check_b "inclusion proof verifies" true (Merkle.verify ~root:r ~leaf:d p)
          | None -> Alcotest.fail "missing inclusion proof")
        leaves
  | Error e -> Alcotest.failf "read after drain: %s" (verr e));
  (* The unanchored window is audited open and closed. *)
  let reasons = List.map (fun e -> e.Audit.reason) (Audit.entries m.Monitor.audit) in
  check_b "window-open audited" true (List.exists (fun r -> contains r "window-open") reasons);
  check_b "window-close audited" true (List.exists (fun r -> contains r "window-close") reasons);
  (* Clean commits walk Degraded back to Healthy. *)
  let i = ref 0 in
  while Anchor.health svc <> Anchor.Healthy && !i < 8 do
    ignore (commit_ok ~what:"heal" svc slot (sha (Printf.sprintf "heal-%d" !i)));
    incr i
  done;
  check_b "healthy again after a clean streak" true
    (Anchor.health svc = Anchor.Healthy)

let test_bounded_queue_and_staleness () =
  let cfg =
    { Anchor.default_config with Anchor.max_deferred = 2; max_staleness_us = 10.0 }
  in
  let _host, _m, mgr, _ckpt, slot, svc = rig ~cfg ~seed:23 () in
  Anchor.force_down svc;
  let defer what d =
    match Anchor.commit svc slot ~data:d with
    | Ok (Anchor.Deferred _) -> ()
    | Ok (Anchor.Committed _) -> Alcotest.failf "%s: committed while down" what
    | Error e -> Alcotest.failf "%s: %s" what (verr e)
  in
  let dropped = sha "oldest-dropped" in
  defer "first" dropped;
  defer "second" (sha "kept-1");
  defer "third" (sha "kept-2");
  check_i "queue stays bounded" 2 (Anchor.queue_depth svc);
  check_i "oldest dropped" 1 (Anchor.stats svc).Anchor.st_queue_dropped;
  (* Age the backlog past the staleness bound; the next deferral records
     the contract breach. *)
  Vtpm_util.Cost.charge mgr.Manager.cost 50.0;
  defer "stale" (sha "kept-3");
  check_b "staleness breach recorded" true
    ((Anchor.stats svc).Anchor.st_staleness_breaches >= 1);
  (* Recovery anchors only what the queue still holds; the dropped digest
     has no inclusion proof. *)
  Vtpm_util.Cost.charge mgr.Manager.cost
    (Anchor.default_config.Anchor.cooldown_us +. 1.0);
  Anchor.tick svc;
  check_i "backlog drained" 0 (Anchor.queue_depth svc);
  (match Anchor.proof_for svc ~label:slot.Hw_anchor.label ~data:(sha "kept-3") with
  | Some (r, p) -> check_b "kept digest proven" true (Merkle.verify ~root:r ~leaf:(sha "kept-3") p)
  | None -> Alcotest.fail "kept digest missing from the batch");
  match Anchor.proof_for svc ~label:slot.Hw_anchor.label ~data:dropped with
  | None -> ()
  | Some _ -> Alcotest.fail "dropped digest has a proof"

(* --- Audit log verification through the service ------------------------------------ *)

let test_audit_verify_through_service () =
  let _host, m, mgr, _ckpt, slot, svc = rig ~seed:17 () in
  for i = 1 to 4 do
    Audit.append m.Monitor.audit ~subject:"test" ~operation:"extend" ~instance:(Some 1)
      ~allowed:true ~reason:(Printf.sprintf "entry %d" i)
  done;
  (match Anchor.commit svc slot ~data:(Audit.head m.Monitor.audit) with
  | Ok (Anchor.Committed _) -> ()
  | Ok (Anchor.Deferred _) -> Alcotest.fail "healthy chip deferred"
  | Error e -> Alcotest.failf "commit: %s" (verr e));
  (match Anchor.verify_log slot mgr ~svc m.Monitor.audit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify_log: %s" (verr e));
  (* A truncated export keeps a valid chain but no longer ends at the
     anchored head — refused as an integrity failure. *)
  let entries = Audit.entries m.Monitor.audit in
  let truncated = List.filteri (fun i _ -> i < List.length entries - 1) entries in
  match Anchor.verify slot mgr ~svc truncated with
  | Error (Vtpm_util.Verror.Integrity _) -> ()
  | Ok () -> Alcotest.fail "truncated log verified"
  | Error e -> Alcotest.failf "wrong error for truncation: %s" (verr e)

(* --- Freshness fails closed --------------------------------------------------------- *)

let test_freshness_fails_closed () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:13 ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let mgr = host.Host.mgr in
  let fresh =
    match Monitor.enable_freshness m with
    | Ok f -> f
    | Error e -> Alcotest.failf "freshness: %s" e
  in
  let ckpt = Checkpoint.create ~fresh mgr in
  let svc = Anchor.create ~ckpt mgr in
  (match Anchor.attach_freshness svc fresh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attach: %s" (verr e));
  (* Routed commits work while the chip is up... *)
  (match Freshness.anchor_commit fresh with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "routed commit: %s" (verr e));
  let lin = "lineage-test" in
  let c = Freshness.issue fresh ~lineage:lin in
  (match Freshness.admit fresh ~lineage:lin ~counter:c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healthy admit: %s" e);
  (* ...and fail closed while it is down: no deferral for freshness. *)
  Anchor.force_down svc;
  (match Freshness.anchor_commit fresh with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "freshness committed while the chip was down");
  let c2 = Freshness.issue fresh ~lineage:lin in
  (match Freshness.admit fresh ~lineage:lin ~counter:c2 with
  | Error e -> check_b "refusal names the outage" true (contains e "unavailable")
  | Ok () -> Alcotest.fail "admission while the anchor was down");
  (* Recovery restores synchronous anchoring. *)
  Vtpm_util.Cost.charge mgr.Manager.cost
    (Anchor.default_config.Anchor.cooldown_us +. 1.0);
  Anchor.tick svc;
  check_b "recovered" true (Anchor.available svc);
  match Freshness.admit fresh ~lineage:lin ~counter:c2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-recovery admit: %s" e

(* --- Direct (single-attempt) anchor commits ------------------------------------------ *)

(* A host with both anchor slots defined: the audit slot, and the
   freshness slot behind its tracker's direct router. *)
let anchored_host ~seed =
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let mgr = host.Host.mgr in
  let fresh =
    match Monitor.enable_freshness m with
    | Ok f -> f
    | Error e -> Alcotest.failf "freshness: %s" e
  in
  let audit_slot =
    match Anchor.setup mgr with
    | Ok a -> a
    | Error e -> Alcotest.failf "anchor setup: %s" (verr e)
  in
  (m, mgr, fresh, audit_slot, Option.get (Freshness.anchor_slot fresh))

let hw_sessions mgr = Vtpm_tpm.Auth.handles mgr.Manager.hw_tpm.Vtpm_tpm.Engine.sessions

(* A failed direct commit must not strand its OIAP session in the chip's
   eight-entry table: after a busy storm the chip would refuse every
   later session with TPM_RESOURCES (0x15), even once healthy again. *)
let test_direct_commit_no_session_leak () =
  let storm what mgr commit =
    let f = Vtpm_xen.Faults.create ~seed:3 ~rates:[ (Vtpm_xen.Faults.Hw_busy, 0.5) ] () in
    Manager.set_hw_faults mgr (Some f);
    let failed = ref 0 in
    for _ = 1 to 60 do
      if Result.is_error (commit ()) then incr failed
    done;
    Manager.set_hw_faults mgr None;
    check_b (what ^ ": the storm failed commits") true (!failed > 30);
    for i = 1 to 10 do
      match commit () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: commit %d after the storm: %s" what i (verr e)
    done
  in
  let m, mgr, _fresh, audit_slot, _ = anchored_host ~seed:5 in
  storm "audit slot" mgr (fun () ->
      Hw_anchor.commit mgr audit_slot ~data:(Audit.head m.Monitor.audit));
  (match Anchor.verify_log audit_slot mgr m.Monitor.audit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify after the storm: %s" (verr e));
  let _m, mgr, fresh, _, _ = anchored_host ~seed:5 in
  storm "freshness slot" mgr (fun () -> Freshness.anchor_commit fresh);
  (match Freshness.anchor_verify fresh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "freshness verify after the storm: %s" (verr e));
  (* A bump the chip refuses at authorization (a slot carrying the wrong
     counter secret) never frees its session engine-side; the raw op
     flushes it at once. *)
  let _m, mgr, _, audit_slot, fresh_slot = anchored_host ~seed:5 in
  List.iter
    (fun slot ->
      let forged = { slot with Hw_anchor.counter_auth = sha "not-the-counter-secret" } in
      for _ = 1 to 10 do
        match Hw_anchor.commit mgr forged ~data:(sha "refused") with
        | Error (Vtpm_util.Verror.Tpm_error _) -> ()
        | Ok _ -> Alcotest.fail "bump with the wrong secret accepted"
        | Error e -> Alcotest.failf "forged bump: %s" (verr e)
      done;
      check_i (slot.Hw_anchor.label ^ ": no session left behind") 0
        (List.length (hw_sessions mgr)))
    [ audit_slot; fresh_slot ]

(* Sealed state and deep quotes open their own hardware sessions (and a
   deep quote its own AIK). A busy storm fails most of them. A failed
   operation flushes what it opened; a flush the busy chip refuses too
   leaves an orphan, reclaimed once the chip runs out. Eight storms
   strand more than the chip's eight sessions and sixteen key slots, so
   the healthy operations after each storm work only if orphans are
   reclaimed, and a healthy operation leaves nothing behind. *)
let hw_session_storm what mgr op =
  let keys () = Vtpm_tpm.Keystore.loaded_count mgr.Manager.hw_tpm.Vtpm_tpm.Engine.keys in
  let f = Vtpm_xen.Faults.create ~seed:3 ~rates:[ (Vtpm_xen.Faults.Hw_busy, 0.5) ] () in
  for round = 1 to 8 do
    Manager.set_hw_faults mgr (Some f);
    let failed = ref 0 in
    for _ = 1 to 60 do
      if Result.is_error (op ()) then incr failed
    done;
    Manager.set_hw_faults mgr None;
    check_b (Printf.sprintf "%s: storm %d failed operations" what round) true (!failed > 30);
    let sessions = List.length (hw_sessions mgr) and loaded = keys () in
    for i = 1 to 5 do
      match op () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: attempt %d after storm %d: %s" what i round e
    done;
    check_b (what ^ ": healthy operations leave no session") true
      (List.length (hw_sessions mgr) <= sessions);
    check_b (what ^ ": healthy operations leave no key") true (keys () <= loaded)
  done

let storm_instance () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:5 ~rsa_bits:256 () in
  let mgr = host.Host.mgr in
  (mgr, Manager.create_instance mgr)

let test_sealed_save_no_session_leak () =
  let mgr, inst = storm_instance () in
  hw_session_storm "sealed save" mgr (fun () ->
      Result.map ignore (Stateproc.save mgr inst ~format:Stateproc.Sealed))

let test_sealed_load_no_session_leak () =
  let mgr, inst = storm_instance () in
  let blob =
    match Stateproc.save mgr inst ~format:Stateproc.Sealed with
    | Ok b -> b
    | Error e -> Alcotest.failf "sealed save: %s" e
  in
  hw_session_storm "sealed load" mgr (fun () -> Result.map ignore (Stateproc.load mgr blob))

let test_deep_quote_no_session_leak () =
  let mgr, _ = storm_instance () in
  let pub = (Vtpm_crypto.Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:1)).Vtpm_crypto.Rsa.pub in
  hw_session_storm "deep quote" mgr (fun () ->
      Result.map ignore
        (Deep_quote.produce mgr ~vtpm_quote:(String.make 20 'c', "vtpm-signature", pub)))

(* The single-attempt path and the service are two disciplines over the
   same hardware ops: the same digests leave the same NV bytes and
   counter values on two hosts built from one seed. *)
let test_direct_matches_service () =
  let ma, mgr_a, _, audit_a, fresh_a = anchored_host ~seed:37 in
  let mb, mgr_b, _, audit_b, fresh_b = anchored_host ~seed:37 in
  let svc = Anchor.create ~ckpt:(Checkpoint.create mgr_b) mgr_b in
  check_b "same slots" true (audit_a = audit_b && fresh_a = fresh_b);
  (* Entries first: the service charges simulated time, and entry times
     feed the chain. *)
  List.iter
    (fun (m : Monitor.t) ->
      for i = 1 to 3 do
        Audit.append m.Monitor.audit ~subject:"diff" ~operation:"extend" ~instance:(Some i)
          ~allowed:true ~reason:"differential"
      done)
    [ ma; mb ];
  check_s "same audit head" (Audit.head ma.Monitor.audit) (Audit.head mb.Monitor.audit);
  let commit_both what slot_a slot_b data =
    match (Hw_anchor.commit mgr_a slot_a ~data, Anchor.commit_sync svc slot_b ~data) with
    | Ok ca, Ok cb -> check_i (what ^ ": same counter") ca cb
    | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" what (verr e)
  in
  for i = 1 to 4 do
    let d = sha (Printf.sprintf "digest-%d" i) in
    commit_both "audit" audit_a audit_b d;
    commit_both "freshness" fresh_a fresh_b d
  done;
  commit_both "audit head" audit_a audit_b (Audit.head ma.Monitor.audit);
  List.iter
    (fun (what, slot_a, slot_b) ->
      match (Hw_anchor.read mgr_a slot_a, Anchor.read_slot svc slot_b) with
      | Ok a, Ok b ->
          check_s (what ^ ": same NV bytes") (fst a) (fst b);
          check_i (what ^ ": same counter value") (snd a) (snd b)
      | Error e, _ | _, Error e -> Alcotest.failf "%s read: %s" what (verr e))
    [ ("audit", audit_a, audit_b); ("freshness", fresh_a, fresh_b) ];
  (match Anchor.verify_log audit_a mgr_a ma.Monitor.audit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "direct verify_log: %s" (verr e));
  match Anchor.verify_log audit_b mgr_b ~svc mb.Monitor.audit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service verify_log: %s" (verr e)

(* --- The drill and storm the bench runs, at test scale ------------------------------ *)

let test_experiment_drill_and_storm () =
  List.iter
    (fun b ->
      let r = Vtpm_sim.Experiments.torn_commit_drill ~crashes:1 ~seed:29 b in
      check_i "no torn anchors" 0 r.Vtpm_sim.Experiments.t8_torn;
      check_b "log verifies after repair" true r.Vtpm_sim.Experiments.t8_verify_ok)
    Vtpm_sim.Experiments.crash_boundaries;
  let s = Vtpm_sim.Experiments.anchor_storm ~flood_x:4 ~commits:10 ~seed:31 () in
  check_i "storm leaves nothing torn" 0 s.Vtpm_sim.Experiments.as_torn;
  check_b "storm verified after catch-up" true s.Vtpm_sim.Experiments.as_verify_ok;
  check_i "no hard errors leaked" 0 s.Vtpm_sim.Experiments.as_hard_errors

let suite =
  [
    Alcotest.test_case "merkle root and combine count" `Quick test_merkle_root_and_combines;
    Alcotest.test_case "merkle proofs at every size" `Quick test_merkle_proofs_every_size;
    Alcotest.test_case "commit, read back, counter advances" `Quick test_commit_sync_and_read;
    Alcotest.test_case "torn commit repaired at every boundary" `Quick test_torn_commit_repair;
    Alcotest.test_case "recovery is idempotent" `Quick test_recover_is_idempotent;
    Alcotest.test_case "transient chip faults ride the retry loop" `Quick
      test_transient_faults_ride_retry;
    Alcotest.test_case "breaker defers, Merkle catch-up proves every entry" `Quick
      test_breaker_defers_and_catches_up;
    Alcotest.test_case "deferred queue bounded, staleness breaches audited" `Quick
      test_bounded_queue_and_staleness;
    Alcotest.test_case "audit verify accepts batched catch-up, refuses truncation" `Quick
      test_audit_verify_through_service;
    Alcotest.test_case "freshness fails closed while the chip is down" `Quick
      test_freshness_fails_closed;
    Alcotest.test_case "direct commits leak no session under a busy storm" `Quick
      test_direct_commit_no_session_leak;
    Alcotest.test_case "sealed save leaks no session under a busy storm" `Quick
      test_sealed_save_no_session_leak;
    Alcotest.test_case "sealed load leaks no session under a busy storm" `Quick
      test_sealed_load_no_session_leak;
    Alcotest.test_case "deep quote leaks no session under a busy storm" `Quick
      test_deep_quote_no_session_leak;
    Alcotest.test_case "direct and service commits leave the same anchor" `Quick
      test_direct_matches_service;
    Alcotest.test_case "boundary drill and fault storm at test scale" `Slow
      test_experiment_drill_and_storm;
  ]
