(* Tests for lane placement policies and manager sharding: the
   fixed-hash and least-loaded bit-identity properties against frozen
   reference models, the least-loaded horizon bound on seeded workloads,
   the default shard lane count, the
   set_lanes horizon-carry and lane_stats self-sync regressions, the
   naive-pick rotor starvation fix, group registry/routing, the
   per-group quota, the group audit tag, and a small-scale isolation
   drill. *)

open Vtpm_access
open Vtpm_mgr
module Lanes = Vtpm_util.Cost.Lanes
module Experiments = Vtpm_sim.Experiments

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_f = Alcotest.(check (float 0.0))

(* --- Placement policies (Cost.Lanes) ------------------------------------------ *)

(* Reference model of the seed's fixed-hash lane arithmetic: same floats
   in the same order, kept deliberately separate from the implementation. *)
let reference_fixed_hash ~lanes jobs =
  let busy = Array.make lanes 0.0 in
  let meter = Vtpm_util.Cost.create () in
  List.iter
    (fun (key, us) ->
      let i = ((key mod lanes) + lanes) mod lanes in
      let start = Float.max (Vtpm_util.Cost.now meter) busy.(i) in
      busy.(i) <- start +. us;
      let earliest = Array.fold_left Float.min busy.(0) busy in
      Vtpm_util.Cost.advance_to meter earliest)
    jobs;
  (Vtpm_util.Cost.now meter, busy)

let job_gen =
  QCheck.Gen.(
    pair (int_range 1 6)
      (list_size (int_bound 60) (pair (int_range (-5) 40) (float_bound_inclusive 5_000.0))))

(* Satellite 4a: the default placement is bit-identical to the seed's
   charge model — exact float equality, no tolerance. *)
let prop_fixed_hash_bit_identical =
  QCheck.Test.make ~name:"Fixed_hash bit-identical to seed lane arithmetic" ~count:200
    (QCheck.make job_gen) (fun (lanes, jobs) ->
      let ref_now, ref_busy = reference_fixed_hash ~lanes jobs in
      let meter = Vtpm_util.Cost.create () in
      let pool = Lanes.create lanes in
      List.iter (fun (key, us) -> ignore (Lanes.exec pool meter ~key us)) jobs;
      Vtpm_util.Cost.now meter = ref_now && Lanes.horizons pool = ref_busy)

(* Frozen reference model of the least-loaded arithmetic with its
   per-key finish table: home pinned to the idlest lane at first touch,
   start clamped to the key's previous finish, horizon raised with
   [Float.max]. The implementation shares the fixed-hash body instead,
   which is only sound if neither the clamp nor the max can ever bind
   under sticky homes. *)
let reference_least_loaded ~lanes jobs =
  let busy = Array.make lanes 0.0 in
  let homes = Hashtbl.create 8 and key_finish = Hashtbl.create 8 in
  let meter = Vtpm_util.Cost.create () in
  let finishes = ref [] in
  List.iter
    (fun (key, us) ->
      let home =
        match Hashtbl.find_opt homes key with
        | Some h -> h
        | None ->
            let best = ref 0 in
            for i = 1 to lanes - 1 do
              if busy.(i) < busy.(!best) then best := i
            done;
            Hashtbl.replace homes key !best;
            !best
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt key_finish key) in
      let start = Float.max (Float.max (Vtpm_util.Cost.now meter) busy.(home)) prev in
      let finish = start +. us in
      busy.(home) <- Float.max busy.(home) finish;
      Hashtbl.replace key_finish key finish;
      finishes := finish :: !finishes;
      Vtpm_util.Cost.advance_to meter (Array.fold_left Float.min infinity busy))
    jobs;
  (Vtpm_util.Cost.now meter, busy, List.rev !finishes)

let prop_least_loaded_bit_identical =
  QCheck.Test.make ~name:"Least_loaded bit-identical to frozen model" ~count:200
    (QCheck.make job_gen) (fun (lanes, jobs) ->
      let ref_now, ref_busy, ref_finishes = reference_least_loaded ~lanes jobs in
      let meter = Vtpm_util.Cost.create () in
      let pool = Lanes.create ~placement:Lanes.Least_loaded lanes in
      let finishes = List.map (fun (key, us) -> Lanes.exec pool meter ~key us) jobs in
      Vtpm_util.Cost.now meter = ref_now
      && Lanes.horizons pool = ref_busy
      && finishes = ref_finishes)

(* Satellite 4c: least-loaded never ends with a worse makespan than the
   fixed hash on skewed workloads. This is NOT a theorem (greedy
   placement can lose on adversarial sequences), so it is pinned to
   deterministic seeds rather than random QCheck input. *)
let test_ll_horizon_bounded_by_fh () =
  List.iter
    (fun seed ->
      let rng = Vtpm_util.Rng.create ~seed in
      let jobs =
        List.init 120 (fun _ ->
            (* Skewed keys: low ids dominate, so the fixed hash piles
               them onto few lanes while others idle. *)
            let key = Vtpm_util.Rng.int rng 12 * Vtpm_util.Rng.int rng 2 in
            let us = 50.0 +. float_of_int (Vtpm_util.Rng.int rng 3_000) in
            (key, us))
      in
      let run placement =
        let meter = Vtpm_util.Cost.create () in
        let pool = Lanes.create ~placement 4 in
        List.iter (fun (key, us) -> ignore (Lanes.exec pool meter ~key us)) jobs;
        Lanes.max_horizon pool
      in
      let fh = run Lanes.Fixed_hash and ll = run Lanes.Least_loaded in
      check_b (Printf.sprintf "seed %d: LL makespan %.0f <= FH %.0f" seed ll fh) true
        (ll <= fh))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_fixed_hash_never_migrates () =
  let meter = Vtpm_util.Cost.create () in
  let pool = Lanes.create 3 in
  List.iter
    (fun key ->
      ignore (Lanes.exec pool meter ~key 500.0);
      check_i
        (Printf.sprintf "key %d pinned" key)
        (((key mod 3) + 3) mod 3)
        (Lanes.lane_for pool ~key))
    [ 0; 1; 2; 3; 4; 5; 17; -4 ]

(* --- Manager regressions ------------------------------------------------------- *)

(* Satellite 1: resizing the pool mid-run must not discard in-flight lane
   horizons — elapsed time already accrued would silently vanish. *)
let test_set_lanes_carries_horizons () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:11 ~rsa_bits:256 () in
  let cost = Host.cost host in
  Manager.set_lanes host.Host.mgr 4;
  (* Unknown vtpm_id falls back to the manager-wide pool. *)
  Manager.charge_lane host.Host.mgr ~vtpm_id:999 5_000.0;
  let before = Vtpm_util.Cost.now cost in
  Manager.set_lanes host.Host.mgr 8;
  let after = Vtpm_util.Cost.now cost in
  check_b
    (Printf.sprintf "horizon drained into meter on resize (%.0f -> %.0f)" before after)
    true
    (after >= before +. 5_000.0)

(* Satellite 2: lane_stats must reflect work still sitting in lane
   horizons without the caller having to sync first. *)
let test_lane_stats_self_syncing () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:12 ~rsa_bits:256 () in
  Manager.set_lanes host.Host.mgr 2;
  Manager.charge_lane host.Host.mgr ~vtpm_id:1 700.0;
  Manager.charge_lane host.Host.mgr ~vtpm_id:2 300.0;
  let stats = Manager.lane_stats host.Host.mgr in
  let busy = Array.fold_left (fun acc (_, us) -> acc +. us) 0.0 stats in
  check_f "busy time visible without explicit sync" 1_000.0 busy;
  let execd = Array.fold_left (fun acc (n, _) -> acc + n) 0 stats in
  check_i "both commands counted" 2 execd

(* Satellite 3: exact arrival-time ties in the naive FIFO pick must not
   starve higher-domid frontends behind a same-stamp flood. *)
let test_fifo_rotor_shares_ties () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:13 ~rsa_bits:256 () in
  let g1 = Host.create_guest_exn host ~name:"g1" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"g2" ~label:"tenant_01" () in
  let backend = host.Host.backend in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  let at = Vtpm_util.Cost.now (Host.cost host) in
  (* Same arrival stamp for every request: pre-rotor code served g1's
     whole backlog before g2's first request. *)
  for _ = 1 to 3 do
    (match Driver.submit backend g1.Host.conn ~wire ~arrival_us:at () with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Vtpm_util.Verror.to_string e));
    match Driver.submit backend g2.Host.conn ~wire ~arrival_us:at () with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Vtpm_util.Verror.to_string e)
  done;
  let order = ref [] in
  let rec pump () =
    match Driver.pump_batch backend with
    | `Idle -> ()
    | `Served served ->
        List.iter (fun (s : Driver.serviced) -> order := s.Driver.s_domid :: !order) served;
        pump ()
  in
  pump ();
  let order = List.rev !order in
  check_i "all six served" 6 (List.length order);
  check_b
    (Printf.sprintf "tied frontends alternate, got [%s]"
       (String.concat "; " (List.map string_of_int order)))
    true
    (order = [ g1.Host.domid; g2.Host.domid; g1.Host.domid; g2.Host.domid;
               g1.Host.domid; g2.Host.domid ])

(* --- Groups and sharding -------------------------------------------------------- *)

let test_group_registry_basics () =
  let g = Group.create ~lanes_per_shard:2 () in
  let a = Group.intern g ~label:"acme" in
  let b = Group.intern g ~label:"globex" in
  let a' = Group.intern g ~label:"acme" in
  check_i "dense ids from 1" 1 a.Group.group_id;
  check_i "second tenant id 2" 2 b.Group.group_id;
  check_i "intern is idempotent" a.Group.group_id a'.Group.group_id;
  check_i "two shards" 2 (Group.count g);
  check_b "find_label" true (Group.find_label g "globex" = Some b);
  check_b "audit tag" true (String.equal a.Group.audit_tag ";group:acme");
  List.iter
    (fun lanes_per_shard ->
      check_b
        (Printf.sprintf "lanes_per_shard %d rejected" lanes_per_shard)
        true
        (try
           ignore (Group.create ~lanes_per_shard ());
           false
         with Invalid_argument _ -> true))
    [ 0; 1 ]

(* With one lane per shard, the lane is its pool's earliest-free point,
   so each charge drags the shared meter to its finish and the shards
   serialize. The default pool must let two shards overlap. *)
let test_default_shards_overlap () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:23 ~rsa_bits:256 () in
  let a = Host.create_guest_exn host ~name:"a0" ~label:"acme" () in
  let b = Host.create_guest_exn host ~name:"b0" ~label:"globex" () in
  ignore (Host.enable_sharding host ());
  let mgr = host.Host.mgr in
  Manager.sync_lanes mgr;
  let t0 = Host.now_us host in
  Manager.charge_lane mgr ~vtpm_id:a.Host.vtpm_id 1_000.0;
  Manager.charge_lane mgr ~vtpm_id:b.Host.vtpm_id 1_000.0;
  Manager.sync_lanes mgr;
  check_f "two shards' charges overlap" 1_000.0 (Host.now_us host -. t0)

let test_sharded_routing_and_members () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:17 ~rsa_bits:256 () in
  let g1 = Host.create_guest_exn host ~name:"a0" ~label:"acme" () in
  let g2 = Host.create_guest_exn host ~name:"b0" ~label:"globex" () in
  check_b "unsharded until enabled" false (Host.sharded host);
  let registry = Host.enable_sharding host () in
  check_b "sharded now" true (Host.sharded host);
  check_i "one shard per label" 2 (Group.count registry);
  (* New guests are auto-assigned by the installed group_of. *)
  let g3 = Host.create_guest_exn host ~name:"a1" ~label:"acme" () in
  let acme =
    match Group.find_label registry "acme" with
    | Some s -> s
    | None -> Alcotest.fail "acme shard missing"
  in
  check_i "acme has both members" 2 acme.Group.members;
  (* The O(1) domid index now routes to (shard, vtpm). *)
  List.iter
    (fun ((g : Host.guest), label) ->
      match Manager.route_for_domid host.Host.mgr g.Host.domid with
      | Some (gid, inst) ->
          check_i (g.Host.name ^ " routed to its instance") g.Host.vtpm_id
            inst.Manager.vtpm_id;
          let s =
            match Group.find registry gid with
            | Some s -> s
            | None -> Alcotest.fail "routed to unknown group"
          in
          check_b (g.Host.name ^ " in its label's shard") true
            (String.equal s.Group.label label)
      | None -> Alcotest.fail (g.Host.name ^ " not routed"))
    [ (g1, "acme"); (g2, "globex"); (g3, "acme") ];
  (* Grouped instances execute on their shard's pool, not the global one. *)
  Manager.charge_lane host.Host.mgr ~vtpm_id:g1.Host.vtpm_id 1_234.0;
  let shard_busy =
    List.fold_left
      (fun acc (_, _, _, lanes) ->
        acc +. Array.fold_left (fun a (_, us) -> a +. us) 0.0 lanes)
      0.0
      (Manager.shard_stats host.Host.mgr)
  in
  check_f "charge landed on a shard pool" 1_234.0 shard_busy;
  (* Destroying a guest releases its shard membership. *)
  (match Host.destroy_guest host g3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_i "member released on destroy" 1 acme.Group.members

let test_group_audit_tag_on_requests () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:19 ~rsa_bits:256 () in
  let g = Host.create_guest_exn host ~name:"a0" ~label:"acme" () in
  ignore (Host.enable_sharding host ());
  let client = Host.guest_client host g in
  (match Vtpm_tpm.Client.pcr_read client ~pcr:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Vtpm_tpm.Client.pp_error e));
  let m = Host.monitor_exn host in
  let tagged =
    List.exists
      (fun (e : Audit.entry) ->
        e.Audit.allowed
        && e.Audit.operation = "TPM_PCRRead"
        && String.length e.Audit.reason >= 10
        &&
        let n = String.length e.Audit.reason in
        String.equal (String.sub e.Audit.reason (n - 11) 11) ";group:acme")
      (Audit.entries m.Monitor.audit)
  in
  check_b "allowed request audited with its group tag" true tagged

let test_group_quota_scoped_to_group () =
  let r =
    Experiments.shard_drill ~sharded:true ~flood_x:5 ~victim_ops:40
      ~group_quota_rate:400.0 ~seed:7 ()
  in
  check_b "victims (other group) unthrottled" true (r.Experiments.t9_victim_goodput_pct >= 100.0);
  check_b "flooder throttled by its own group's bucket" true
    (r.Experiments.t9_attacker_rejected > 0)

(* --- Isolation drill (small scale) ---------------------------------------------- *)

let test_shard_drill_small () =
  let naive = Experiments.shard_drill ~sharded:false ~flood_x:5 ~victim_ops:40 ~seed:7 () in
  let sharded = Experiments.shard_drill ~sharded:true ~flood_x:5 ~victim_ops:40 ~seed:7 () in
  check_b
    (Printf.sprintf "single manager degrades under flood (%.1f%%)"
       naive.Experiments.t9_victim_goodput_pct)
    true
    (naive.Experiments.t9_victim_goodput_pct < 100.0);
  check_f "sharded victim group at 100%" 100.0 sharded.Experiments.t9_victim_goodput_pct

(* --- fig13 at reduced scale ------------------------------------------------------ *)

let test_fig13_shape_small () =
  let series, _ =
    Experiments.fig13 ~vm_counts:[ 8; 16 ] ~rules:64 ~total_ops:240 ()
  in
  let at name x =
    match List.assoc_opt name series with
    | Some points -> ( match List.assoc_opt x points with Some y -> y | None -> 0.0)
    | None -> 0.0
  in
  check_b "all three series present" true (List.length series = 3);
  check_b "dynamic placement beats fixed hash at 16 VMs" true
    (at "least-loaded" 16.0 > at "fixed-hash 8-lane" 16.0);
  check_b "sharded scales past fixed hash at 16 VMs" true
    (at "sharded" 16.0 > at "fixed-hash 8-lane" 16.0)

let suite =
  [
    Alcotest.test_case "single-lane identity (placement)" `Quick (fun () ->
        (* A 1-lane pool must stay serial under every policy. *)
        List.iter
          (fun placement ->
            let meter = Vtpm_util.Cost.create () in
            let pool = Lanes.create ~placement 1 in
            ignore (Lanes.exec pool meter ~key:1 100.0);
            ignore (Lanes.exec pool meter ~key:2 50.0);
            Lanes.sync pool meter;
            check_f (Lanes.placement_name placement ^ " serial") 150.0
              (Vtpm_util.Cost.now meter))
          [ Lanes.Fixed_hash; Lanes.Least_loaded ]);
    QCheck_alcotest.to_alcotest prop_fixed_hash_bit_identical;
    QCheck_alcotest.to_alcotest prop_least_loaded_bit_identical;
    Alcotest.test_case "least-loaded horizon <= fixed-hash (seeded)" `Quick
      test_ll_horizon_bounded_by_fh;
    Alcotest.test_case "fixed hash never migrates" `Quick test_fixed_hash_never_migrates;
    Alcotest.test_case "set_lanes carries in-flight horizons" `Quick
      test_set_lanes_carries_horizons;
    Alcotest.test_case "lane_stats self-syncs" `Quick test_lane_stats_self_syncing;
    Alcotest.test_case "naive pick rotates exact-arrival ties" `Quick
      test_fifo_rotor_shares_ties;
    Alcotest.test_case "group registry basics" `Quick test_group_registry_basics;
    Alcotest.test_case "default shards overlap in time" `Quick test_default_shards_overlap;
    Alcotest.test_case "sharded routing, members, shard pools" `Quick
      test_sharded_routing_and_members;
    Alcotest.test_case "group audit tag on allowed requests" `Quick
      test_group_audit_tag_on_requests;
    Alcotest.test_case "group quota scoped to the noisy group" `Quick
      test_group_quota_scoped_to_group;
    Alcotest.test_case "cross-group flood drill (small)" `Quick test_shard_drill_small;
    Alcotest.test_case "fig13 shape (small)" `Quick test_fig13_shape_small;
  ]
