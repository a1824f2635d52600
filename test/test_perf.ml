(* Tests for the execution-lane / batching work: the lane time model,
   Figure 8's identities and scaling, per-instance ordering under batch
   drain, the fault and flood guarantees with several lanes, parallel
   scheduler accounting, and the hot-path bugfixes (domid index,
   non-allocating quota probe, deterministic hardware client). *)

open Vtpm_access
open Vtpm_mgr
module Experiments = Vtpm_sim.Experiments

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_f = Alcotest.(check (float 0.0))

(* --- Lane time model ----------------------------------------------------------- *)

let test_single_lane_is_serial_charge () =
  (* One lane must account exactly like Cost.charge: same floats, same
     order, so every single-lane run is bit-identical to the old code. *)
  let serial = Vtpm_util.Cost.create () in
  let laned = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 1 in
  let costs = [ 900.0; 60.0; 38_000.0; 0.0; 121.5; 7.25 ] in
  List.iteri
    (fun i us ->
      Vtpm_util.Cost.charge serial us;
      ignore (Vtpm_util.Cost.Lanes.exec pool laned ~key:(i * 3) us))
    costs;
  Vtpm_util.Cost.Lanes.sync pool laned;
  check_f "meter bit-identical" (Vtpm_util.Cost.now serial) (Vtpm_util.Cost.now laned)

let test_lanes_overlap_different_instances () =
  let c = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 2 in
  for _ = 1 to 10 do
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:1 100.0);
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:2 100.0)
  done;
  Vtpm_util.Cost.Lanes.sync pool c;
  check_f "two instances on two lanes halve elapsed" 1000.0 (Vtpm_util.Cost.now c)

let test_lanes_same_instance_stays_serial () =
  (* Same-instance commands are strictly ordered on one lane, however
     many lanes exist. *)
  let c = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 8 in
  for _ = 1 to 10 do
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:5 100.0)
  done;
  Vtpm_util.Cost.Lanes.sync pool c;
  check_f "one instance cannot spread over lanes" 1000.0 (Vtpm_util.Cost.now c)

(* --- Figure 8 ------------------------------------------------------------------ *)

let test_fig8_one_lane_matches_fig1 () =
  let vm_counts = [ 1; 4 ] and total_ops = 120 in
  let f1, _ = Experiments.fig1 ~vm_counts ~total_ops () in
  let f8, _ = Experiments.fig8 ~vm_counts ~lane_counts:[ 1 ] ~total_ops () in
  let improved = List.assoc "improved" f1 in
  let one_lane = List.assoc "1-lane" f8 in
  check_b "1-lane series bit-identical to Figure 1 improved" true (improved = one_lane)

let test_fig8_eight_lanes_scale () =
  let f8, _ =
    Experiments.fig8 ~vm_counts:[ 32 ] ~lane_counts:[ 1; 8 ] ~total_ops:640 ()
  in
  let tput name = snd (List.hd (List.assoc name f8)) in
  let t1 = tput "1-lane" and t8 = tput "8-lane" in
  check_b
    (Printf.sprintf "8 lanes >= 4x 1 lane at 32 VMs (%.0f vs %.0f ops/s)" t8 t1)
    true
    (t8 >= 4.0 *. t1)

(* --- Per-instance ordering under batch drain ----------------------------------- *)

(* Submit the same interleaved extend sequence for two guests and drain
   it; the final PCR values must not depend on lane count or batch size,
   because batching drains one frontend FIFO and lanes serialise per
   instance. *)
let run_interleaved ~lanes ~batch =
  let host = Host.create ~mode:Host.Improved_mode ~seed:7 ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  Monitor.wire_backpressure m host.Host.backend;
  Manager.set_lanes host.Host.mgr lanes;
  Driver.set_batch host.Host.backend batch;
  let g1 = Host.create_guest_exn host ~name:"a" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"b" ~label:"tenant_01" () in
  let wire g i =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend
         { pcr = 10; digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "%d-%d" g i) })
  in
  for i = 1 to 8 do
    List.iter
      (fun (tag, g) ->
        match Driver.submit host.Host.backend g.Host.conn ~wire:(wire tag i) () with
        | Ok () -> ()
        | Error e -> invalid_arg (Vtpm_util.Verror.to_string e))
      [ (1, g1); (2, g2) ]
  done;
  let rec drain () =
    match Driver.pump_batch host.Host.backend with
    | `Idle -> ()
    | `Served served ->
        List.iter
          (fun (s : Driver.serviced) ->
            match s.Driver.s_outcome with
            | Ok o when o.Driver.status = Proto.Ok_routed -> ()
            | _ -> invalid_arg "batched request failed")
          served;
        drain ()
  in
  drain ();
  let read g =
    match Vtpm_tpm.Client.pcr_read (Host.guest_client host g) ~pcr:10 with
    | Ok v -> v
    | Error e -> invalid_arg (Fmt.str "pcr read: %a" Vtpm_tpm.Client.pp_error e)
  in
  ((read g1, read g2), Monitor.stats m)

let test_batch_preserves_per_instance_order () =
  let serial_pcrs, _ = run_interleaved ~lanes:1 ~batch:1 in
  let batched_pcrs, stats = run_interleaved ~lanes:2 ~batch:4 in
  check_b "final PCR values identical" true (serial_pcrs = batched_pcrs);
  check_b "multi-request drains happened" true (stats.Monitor.batches > 0);
  check_b "drained requests counted" true
    (stats.Monitor.batched_requests >= 2 * stats.Monitor.batches)

(* --- PR 1-3 guarantees with lanes > 1 ------------------------------------------ *)

let test_fault_self_heal_with_lanes () =
  (* PR 1's recovery guarantee must survive the lane pool: same seed and
     rates as the single-lane self-heal test, four lanes. *)
  let r =
    Experiments.run_fault_workload ~lanes:4 ~self_heal:true ~fault_rate:0.05
      ~requests:150 ~seed:137 ()
  in
  check_b "faults actually fired" true (r.Experiments.injected > 0);
  check_i "every request eventually succeeds" 150 r.Experiments.succeeded

let test_flood_goodput_with_lanes_and_batching () =
  (* PR 3's flood guarantee with the full stack, four lanes, batch 4:
     victims keep (essentially) full goodput under a 10x flood. *)
  let r =
    Experiments.flood_run ~config:Experiments.Full_stack ~flood_x:10 ~victim_ops:60
      ~lanes:4 ~batch:4 ~seed:61 ()
  in
  check_b
    (Printf.sprintf "victim goodput %.1f%% >= 99.9%%" r.Experiments.victim_goodput_pct)
    true
    (r.Experiments.victim_goodput_pct >= 99.9)

let test_wedge_quarantine_confined_to_lane () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:97 ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  Manager.set_lanes host.Host.mgr 4;
  let ckpt = Checkpoint.create host.Host.mgr in
  let cfg =
    {
      Supervisor.default_config with
      failure_threshold = 2;
      is_read_only = Command_class.is_read_only;
    }
  in
  let sup =
    Supervisor.create ~cfg ~mgr:host.Host.mgr ~ckpt
      ~faults:host.Host.xen.Vtpm_xen.Hypervisor.faults ()
  in
  Monitor.set_supervisor m sup;
  let g1 = Host.create_guest_exn host ~name:"victim" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"bystander" ~label:"tenant_01" () in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> invalid_arg e);
  let lane1 = Manager.lane_of host.Host.mgr ~vtpm_id:g1.Host.vtpm_id in
  let lane2 = Manager.lane_of host.Host.mgr ~vtpm_id:g2.Host.vtpm_id in
  check_b "guests land on different lanes" true (lane1 <> lane2);
  let c1 = Host.guest_client host g1 and c2 = Host.guest_client host g2 in
  (match Vtpm_tpm.Client.pcr_read c2 ~pcr:10 with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bystander warm read failed");
  let busy lane = snd (Manager.lane_stats host.Host.mgr).(lane) in
  let busy1_before = busy lane1 and busy2_before = busy lane2 in
  (* Wedge the victim's instance and drive it until the breaker trips
     and the supervisor quarantines + restores it from checkpoint. *)
  (match Manager.find host.Host.mgr g1.Host.vtpm_id with
  | Ok inst -> Manager.wedge inst
  | Error _ -> invalid_arg "victim instance missing");
  for _ = 1 to 4 do
    match Vtpm_tpm.Client.pcr_read c1 ~pcr:10 with
    | Ok _ | Error _ -> ()
    | exception Driver.Denied _ -> ()
  done;
  check_b "victim was quarantined" true (Supervisor.quarantines sup >= 1);
  check_b "recovery work landed on the victim's lane" true (busy lane1 > busy1_before);
  check_f "bystander's lane untouched by the episode" busy2_before (busy lane2);
  check_b "bystander still healthy" true
    (Supervisor.health sup g2.Host.vtpm_id = Supervisor.Healthy);
  match Vtpm_tpm.Client.pcr_read c2 ~pcr:10 with
  | Ok _ -> ()
  | Error _ | (exception Driver.Denied _) -> invalid_arg "bystander degraded"

(* --- Bugfix regressions --------------------------------------------------------- *)

let test_domid_index_matches_linear_scan () =
  let cost = Vtpm_util.Cost.create () in
  let mgr = Manager.create ~rsa_bits:256 ~seed:11 ~cost () in
  let insts = Array.init 5 (fun _ -> Manager.create_instance mgr) in
  let reference domid =
    (* The pre-index routing rule: scan the instance table. *)
    List.find_opt
      (fun (i : Manager.instance) -> i.Manager.bound_domid = Some domid)
      (Manager.instances mgr)
    |> Option.map (fun i -> i.Manager.vtpm_id)
  in
  let indexed domid =
    Manager.instance_for_domid mgr domid |> Option.map (fun i -> i.Manager.vtpm_id)
  in
  let agree what =
    for d = 0 to 12 do
      check_b (Printf.sprintf "%s: domid %d routes identically" what d) true
        (reference d = indexed d)
    done
  in
  Manager.bind_domid mgr insts.(0) 3;
  Manager.bind_domid mgr insts.(1) 4;
  Manager.bind_domid mgr insts.(2) 5;
  agree "bind";
  Manager.bind_domid mgr insts.(0) 7;
  agree "rebind to a new domid";
  Manager.bind_domid mgr insts.(3) 3;
  agree "reuse a freed domid";
  Manager.bind_domid mgr insts.(4) 7;
  agree "steal a bound domid";
  Manager.unbind_domid mgr insts.(1);
  agree "unbind";
  Manager.destroy_instance mgr insts.(2).Manager.vtpm_id;
  agree "destroy";
  Manager.crash mgr;
  agree "crash clears all routes";
  let fresh = Manager.create_instance mgr in
  Manager.bind_domid mgr fresh 9;
  agree "rebuild after crash"

let test_quota_remaining_does_not_allocate () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:10.0 ~burst:5.0 ~cost () in
  check_i "no buckets initially" 0 (Quota.tracked q);
  check_f "unknown subject reports full burst" 5.0 (Quota.remaining q (Subject.Guest 1));
  check_i "probing allocated nothing" 0 (Quota.tracked q);
  check_b "admission" true (Quota.admit q (Subject.Guest 1));
  check_i "admission allocates" 1 (Quota.tracked q);
  check_f "tracked subject reports spent tokens" 4.0 (Quota.remaining q (Subject.Guest 1));
  check_i "probing a tracked subject allocates nothing" 1 (Quota.tracked q)

let test_hw_client_deterministic_across_churn () =
  (* The hardware client's auth-session nonces must derive from the
     manager's creation seed, not the mutable per-instance seed counter:
     instance churn must not shift the session key stream. *)
  let session_key ~churn =
    let cost = Vtpm_util.Cost.create () in
    let mgr = Manager.create ~rsa_bits:256 ~seed:9 ~cost () in
    if churn then
      for _ = 1 to 3 do
        ignore (Manager.create_instance mgr)
      done;
    let client = Manager.hw_client mgr in
    match
      Vtpm_tpm.Client.start_osap client ~entity_handle:Vtpm_tpm.Types.kh_srk
        ~usage_secret:mgr.Manager.hw_srk_auth
    with
    | Ok s -> s.Vtpm_tpm.Client.key
    | Error e -> invalid_arg (Fmt.str "osap: %a" Vtpm_tpm.Client.pp_error e)
  in
  check_b "session key independent of instance churn" true
    (session_key ~churn:false = session_key ~churn:true)

(* --- PR 5: compiled index + generation cache ------------------------------------ *)

let test_fig2_compiled_series_flat () =
  (* Acceptance: with the index on, per-request latency at 4096 rules
     stays within 15% of the 16-rule point — rule-count independence. *)
  let f2, _ = Experiments.fig2 ~rule_counts:[ 16; 4096 ] ~reps:50 ~include_compiled:true () in
  let compiled = List.assoc "compiled" f2 in
  let small = List.assoc 16.0 compiled and big = List.assoc 4096.0 compiled in
  check_b
    (Printf.sprintf "compiled: %.2fus @16 vs %.2fus @4096 within 15%%" small big)
    true
    (Float.abs (big -. small) /. small <= 0.15);
  (* Sanity: the linear no-cache series does grow with rule count. *)
  let nocache = List.assoc "cache-off" f2 in
  check_b "linear series grows with rules" true
    (List.assoc 4096.0 nocache > 2.0 *. List.assoc 16.0 nocache)

let test_fig2_default_series_unperturbed () =
  (* Emitting the compiled series must not disturb the two seed series:
     same RNG draw order, same simulated clocks. *)
  let base, _ = Experiments.fig2 ~rule_counts:[ 16; 256 ] ~reps:40 () in
  let extended, _ = Experiments.fig2 ~rule_counts:[ 16; 256 ] ~reps:40 ~include_compiled:true () in
  List.iter
    (fun name ->
      check_b (name ^ " series bit-identical") true
        (List.assoc name base = List.assoc name extended))
    [ "cache-on"; "cache-off" ]

let test_fig9_index_and_gen_cache_scale () =
  let f9, _ = Experiments.fig9 ~vm_counts:[ 1; 8 ] ~rules:256 ~total_ops:240 () in
  let at name = snd (List.hd (List.rev (List.assoc name f9))) in
  let linear = at "linear" and indexed = at "indexed" and cached = at "indexed+gen-cache" in
  check_b
    (Printf.sprintf "indexed %.0f >= linear %.0f ops/s" indexed linear)
    true (indexed >= linear);
  check_b
    (Printf.sprintf "gen-cache %.0f >= indexed %.0f ops/s" cached indexed)
    true (cached >= indexed)

let suite =
  [
    Alcotest.test_case "lanes: single lane is serial charge" `Quick
      test_single_lane_is_serial_charge;
    Alcotest.test_case "lanes: instances overlap across lanes" `Quick
      test_lanes_overlap_different_instances;
    Alcotest.test_case "lanes: same instance stays serial" `Quick
      test_lanes_same_instance_stays_serial;
    Alcotest.test_case "fig8: 1-lane series equals figure 1" `Quick
      test_fig8_one_lane_matches_fig1;
    Alcotest.test_case "fig8: 8 lanes >= 4x at 32 VMs" `Quick test_fig8_eight_lanes_scale;
    Alcotest.test_case "batching: per-instance order preserved" `Quick
      test_batch_preserves_per_instance_order;
    Alcotest.test_case "faults: self-heal completes with 4 lanes" `Quick
      test_fault_self_heal_with_lanes;
    Alcotest.test_case "flood: goodput holds with lanes + batching" `Quick
      test_flood_goodput_with_lanes_and_batching;
    Alcotest.test_case "supervisor: wedge confined to one lane" `Quick
      test_wedge_quarantine_confined_to_lane;
    Alcotest.test_case "manager: domid index equals linear scan" `Quick
      test_domid_index_matches_linear_scan;
    Alcotest.test_case "quota: remaining never allocates" `Quick
      test_quota_remaining_does_not_allocate;
    Alcotest.test_case "manager: hw client deterministic" `Quick
      test_hw_client_deterministic_across_churn;
    Alcotest.test_case "fig2: compiled series flat in rules" `Quick
      test_fig2_compiled_series_flat;
    Alcotest.test_case "fig2: default series unperturbed" `Quick
      test_fig2_default_series_unperturbed;
    Alcotest.test_case "fig9: index and gen-cache scale" `Quick
      test_fig9_index_and_gen_cache_scale;
  ]
