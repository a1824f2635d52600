(* Tests for the evaluation harness itself: metrics math, workload
   generation and small-scale runs of each experiment (the full-size runs
   live in bench/main.exe). *)

open Vtpm_access

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_f = Alcotest.(check (float 1e-6))

(* --- Metrics -------------------------------------------------------------------- *)

let metrics_of values =
  let m = Vtpm_sim.Metrics.create () in
  List.iter (Vtpm_sim.Metrics.add m) values;
  m

let test_metrics_mean () =
  let m = metrics_of [ 1.0; 2.0; 3.0; 4.0 ] in
  check_f "mean" 2.5 (Vtpm_sim.Metrics.mean m);
  check_i "count" 4 (Vtpm_sim.Metrics.count m)

let test_metrics_empty () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of []) in
  check_i "n" 0 s.Vtpm_sim.Metrics.n;
  check_f "mean" 0.0 s.Vtpm_sim.Metrics.mean;
  check_f "p99" 0.0 s.Vtpm_sim.Metrics.p99

let test_metrics_single () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of [ 7.0 ]) in
  check_f "p50" 7.0 s.Vtpm_sim.Metrics.p50;
  check_f "max" 7.0 s.Vtpm_sim.Metrics.max

let test_metrics_percentiles () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of (List.init 100 (fun i -> float_of_int (i + 1)))) in
  check_b "p50 near median" true (abs_float (s.Vtpm_sim.Metrics.p50 -. 50.5) < 1.0);
  check_b "p90 near 90" true (abs_float (s.Vtpm_sim.Metrics.p90 -. 90.1) < 1.0);
  check_f "max" 100.0 s.Vtpm_sim.Metrics.max;
  check_b "ordering" true
    (s.Vtpm_sim.Metrics.p50 <= s.Vtpm_sim.Metrics.p90
    && s.Vtpm_sim.Metrics.p90 <= s.Vtpm_sim.Metrics.p99
    && s.Vtpm_sim.Metrics.p99 <= s.Vtpm_sim.Metrics.max)

let test_metrics_cdf () =
  let m = metrics_of (List.init 200 (fun i -> float_of_int i)) in
  let cdf = Vtpm_sim.Metrics.cdf ~points:10 m in
  check_b "nonempty" true (cdf <> []);
  check_b "fractions monotone" true
    (let fracs = List.map snd cdf in
     List.sort Float.compare fracs = fracs);
  check_f "ends at 1" 1.0 (snd (List.nth cdf (List.length cdf - 1)))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentiles within sample range" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_bound_inclusive 1000.0))
    (fun values ->
      let s = Vtpm_sim.Metrics.summarize (metrics_of values) in
      let lo = List.fold_left min infinity values and hi = List.fold_left max neg_infinity values in
      s.Vtpm_sim.Metrics.p50 >= lo -. 1e-9
      && s.Vtpm_sim.Metrics.p99 <= hi +. 1e-9
      && s.Vtpm_sim.Metrics.max = hi)

(* --- Table rendering ---------------------------------------------------------------- *)

let test_table_render_alignment () =
  let out =
    Vtpm_sim.Table.render ~title:"T" ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "z"; "wwww" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check_b "title first" true (List.hd lines = "T");
  (* All data lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] <> 'T' then Some (String.length l) else None)
      lines
  in
  check_b "aligned" true (List.sort_uniq Stdlib.compare widths |> List.length <= 2)

(* --- Workload ------------------------------------------------------------------------ *)

let test_pick_op_respects_weights () =
  let rng = Vtpm_util.Rng.create ~seed:1 in
  let mix = [ (Vtpm_sim.Tenant.Op_extend, 1); (Vtpm_sim.Tenant.Op_quote, 0) ] in
  for _ = 1 to 100 do
    check_b "zero-weight never drawn" true (Vtpm_sim.Workload.pick_op rng mix = Vtpm_sim.Tenant.Op_extend)
  done

let test_pick_op_covers_mix () =
  let rng = Vtpm_util.Rng.create ~seed:2 in
  let drawn = Hashtbl.create 8 in
  for _ = 1 to 2000 do
    Hashtbl.replace drawn (Vtpm_sim.Workload.pick_op rng Vtpm_sim.Workload.mixed) true
  done;
  check_i "all seven ops appear" 7 (Hashtbl.length drawn)

let test_tenant_ops_all_succeed_improved () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:1 () in
  ignore host;
  let tenant = List.hd tenants in
  List.iter
    (fun op ->
      match Vtpm_sim.Tenant.run_op tenant op with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s failed: %s" (Vtpm_sim.Tenant.op_name op) e)
    Vtpm_sim.Tenant.all_ops

let test_tenant_ops_all_succeed_baseline () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Baseline_mode ~n:1 () in
  ignore host;
  let tenant = List.hd tenants in
  List.iter
    (fun op ->
      match Vtpm_sim.Tenant.run_op tenant op with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s failed: %s" (Vtpm_sim.Tenant.op_name op) e)
    Vtpm_sim.Tenant.all_ops

let test_workload_run_counts () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 () in
  let r = Vtpm_sim.Workload.run host ~tenants ~mix:Vtpm_sim.Workload.mixed ~ops_per_tenant:10 () in
  check_i "ops run" 20 r.Vtpm_sim.Workload.ops_run;
  check_i "no failures" 0 r.Vtpm_sim.Workload.failures;
  check_b "positive throughput" true (r.Vtpm_sim.Workload.throughput_ops_s > 0.0);
  check_i "overall count" 20 r.Vtpm_sim.Workload.overall.Vtpm_sim.Metrics.n

let test_workload_weighted_shares () =
  (* vTPM service time follows the credit-scheduler weights. *)
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 ~seed:31 () in
  let heavy, light = (List.nth tenants 0, List.nth tenants 1) in
  let result =
    Vtpm_sim.Workload.run_weighted host
      ~tenants:[ (heavy, 512); (light, 256) ]
      ~mix:Vtpm_sim.Workload.mixed ~total_ops:600 ()
  in
  let service t = List.assq t result in
  let ratio = service heavy /. service light in
  check_b (Printf.sprintf "2:1 service ratio (got %.2f)" ratio) true (ratio > 1.5 && ratio < 2.6)

let test_workload_deterministic () =
  let run () =
    let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 ~seed:9 () in
    let r = Vtpm_sim.Workload.run host ~tenants ~mix:Vtpm_sim.Workload.mixed ~ops_per_tenant:10 () in
    r.Vtpm_sim.Workload.elapsed_us
  in
  check_f "same simulated time" (run ()) (run ())

(* --- Experiments (small-scale smoke; full scale in bench) -------------------------------- *)

let test_experiment_table1_shape () =
  let rows, rendered = Vtpm_sim.Experiments.table1 ~reps:10 () in
  check_i "one row per op" (List.length Vtpm_sim.Tenant.all_ops) (List.length rows);
  List.iter
    (fun (r : Vtpm_sim.Experiments.table1_row) ->
      check_b "baseline positive" true (r.Vtpm_sim.Experiments.baseline_us > 0.0);
      check_b "improved >= baseline" true
        (r.Vtpm_sim.Experiments.improved_us >= r.Vtpm_sim.Experiments.baseline_us);
      (* The monitor adds small constant work: overhead below 25% even for
         the cheapest command. *)
      check_b "overhead bounded" true (r.Vtpm_sim.Experiments.overhead_pct < 25.0))
    rows;
  check_b "rendered mentions quote" true
    (String.length rendered > 0
    && String.length (String.concat "" (String.split_on_char 'q' rendered)) < String.length rendered)

let test_experiment_fig2_shape () =
  let series, _ = Vtpm_sim.Experiments.fig2 ~rule_counts:[ 1; 512 ] ~reps:40 () in
  let get name = List.assoc name series in
  let slope pts =
    match pts with
    | [ (_, y1); (_, y2) ] -> y2 -. y1
    | _ -> Alcotest.fail "expected two points"
  in
  check_b "cache flat" true (slope (get "cache-on") < 5.0);
  check_b "no-cache grows" true (slope (get "cache-off") > 50.0)

let test_experiment_fig4_shape () =
  let series, _ = Vtpm_sim.Experiments.fig4 ~state_kibs:[ 4; 32 ] () in
  let plain = List.assoc "plaintext" series and prot = List.assoc "protected" series in
  List.iter2
    (fun (_, p) (_, q) -> check_b "protected costs more" true (q > p))
    plain prot;
  (* Both grow with state size. *)
  check_b "plaintext grows" true (snd (List.nth plain 1) > snd (List.nth plain 0));
  check_b "protected grows" true (snd (List.nth prot 1) > snd (List.nth prot 0))

(* --- Seed-figure freeze ------------------------------------------------------
   Every entry of [Experiments.registry] is either frozen here, one
   SHA-256 per printed block at its bench arguments, or listed in
   [not_frozen] with the reason; a new entry fails the test until it is
   one or the other. Frozen entries' checks must also hold.

   The digests were captured from bench output before the refactors they
   guard landed: the crypto overhaul that re-derives
   [Cost.tpm_quote_us] (table1, table3-table6 and fig1-fig8), the fold of
   the direct and journaled anchor paths into one module (table6's two
   blocks, table8 and fig12's table), the compiled policy index taking
   over every decision (table1, table3-5, fig2-7), and the figure
   registry that replaced the bench's hand-written sections (table2's
   table, table5's wedge drill, table7, fig10, fig12's checks and
   table9).

   fig9, fig13 and fig14 are frozen at a reduced scale below, captured
   before the shared sweep body and the single lane-execution path
   replaced their per-figure copies. fig13 is frozen on its series values
   (exact float bits), not its rendered table, because the table lost its
   work-stealing column. *)

let frozen_blocks =
  [
    ("table1", [ "37326661307e664ea09b321050bcfd2e70dac83dba53c74064d07166f07027ad" ]);
    ("table2", [ "856f2197e11a4831402d8158e388dc2bebdd841975f4d17a2eb68ad59b0ea8a8" ]);
    ("table3", [ "baf2ffc48ae365054ce885f5fdc4dc04aa4637de2015776d75872becd5cd6df5" ]);
    ("table4", [ "7c44b6d7d3058425e13932e9447efdb94768a8ab3f085fd1ca33c6ecc8513973" ]);
    ( "table5",
      [
        "032a0f58b518cce32927eb3a52e3b088caba47a43c8304db9751c184bacbcde3";
        "e8839de145d48af9d76810c6929d5a0ebbdeddd0396870f6022e44231d2279cc";
      ] );
    ( "table6",
      [
        "73dd5e677c65cdddcaee5b5b709574064092331e464a4c403999b6f23679f79d";
        "4d1fd663680d3f3612ac1ffe66d3e274025396931beef3e357d3c058e6d37eda";
      ] );
    ("fig1", [ "dbf90e2bbdb55ba6c1f20bad0d1dfa0ac096cdcf938298cf18da41b81a14e2a5" ]);
    ("fig2", [ "abda3cc46f83810cc4f80597a11c7e549c9b67ccb3adcbc403420d152d11dc4b" ]);
    ("fig3", [ "f7cfd8130aa592ccd5dac46372f43776799f2d66285660aab2dc0fdc606b98b1" ]);
    ("fig4", [ "6171f8b88587f8c0a575482e46d4383f89e030ef9bffaf15efdc917cb57aa01d" ]);
    ("fig5", [ "d94cb34264e5be2831d45dbe7aae98e49d804b768ce1f8d753e785e7b6fc608a" ]);
    ("fig6", [ "be9b5e299d0b36f5bd625130c8d6ed41fc5b3f9a114cc45fbae10004ea6d2970" ]);
    ("fig7", [ "b22035167e4c7e1353e489cbe66fac53b3595836bbb2ea98a2aa2f5f1ff0ebbc" ]);
    ("fig8", [ "8770cc791e1108fa57b5d2593a7089b4b3f2306b257915461bbbf8c1bb1dd99b" ]);
    ( "fig10",
      [
        "074e45c806e594ca38a6838b03d02e41c675683df97d864ad5689452788a849f";
        "73dd5e677c65cdddcaee5b5b709574064092331e464a4c403999b6f23679f79d";
        "b0984ffdcc2465d3eec135a1ce2c9399732121b599d0779421c8201fba192966";
      ] );
    ("table7", [ "ae5f450dc85ed79663619d774a1a3679dedc53be2ce6a90dfb8645e919631622" ]);
    ("table8", [ "3774df9a60c0c90d44cf57828fdcf7987b660796f18231bf7a2fe3221cb9fa0a" ]);
    ( "fig12",
      [
        "248676002c5ed08f4b538712ed9893c3e7bc5859108be38a01b14aefeaada3e2";
        "bf63a35ad07d7e9803198082c6fb01e688fd1b3cbbebc08ec5b32a3f33d4f9f0";
      ] );
    ("table9", [ "ff74b3dd3b040c1af038c230f1530557d69d277661c19ddf80d4eac915710da2" ]);
  ]

let not_frozen =
  [
    ("fig9", "~8 s at bench scale; frozen at reduced scale below");
    ("fig11", "prints the 1000-trace soak's CPU time; ~17 s");
    ("fig13", "~14 s at bench scale; series frozen at reduced scale below");
    ("fig14", "~20 s at bench scale; frozen at reduced scale below");
  ]

let series_digest series =
  Vtpm_crypto.Sha256.hexdigest
    (String.concat ";"
       (List.map
          (fun (name, pts) ->
            name ^ ":"
            ^ String.concat "," (List.map (fun (x, y) -> Printf.sprintf "%h/%h" x y) pts))
          series))

let test_seed_figures_frozen () =
  check_f "tpm_quote_us derivation exact" 38_000.0 Vtpm_util.Cost.tpm_quote_us;
  check_f "2010 profile prices quotes at the seed constant" Vtpm_util.Cost.tpm_quote_us
    (Vtpm_util.Cost.quote_cost_us Vtpm_util.Cost.Quote_model_2010);
  List.iter
    (fun (e : Vtpm_sim.Experiments.entry) ->
      match (List.assoc_opt e.name frozen_blocks, List.assoc_opt e.name not_frozen) with
      | Some expected, None ->
          let r = e.run () in
          Alcotest.(check (list string))
            (e.name ^ " printed blocks unchanged")
            expected
            (List.map Vtpm_crypto.Sha256.hexdigest r.text);
          List.iter (fun (c, ok) -> check_b (e.name ^ " check " ^ c) true ok) r.checks
      | None, Some _ -> ()
      | _ -> Alcotest.failf "registry entry %s is neither frozen nor listed as not frozen" e.name)
    Vtpm_sim.Experiments.registry;
  let _, fig9 = Vtpm_sim.Experiments.fig9 ~vm_counts:[ 2; 8; 32 ] ~total_ops:480 () in
  Alcotest.(check string)
    "fig9 rendered table unchanged (reduced scale)"
    "64284284eb587c87bc34154d5378fdacf94d2df45c5cfd7f1bcaca2fbd90353a"
    (Vtpm_crypto.Sha256.hexdigest fig9);
  Alcotest.(check string)
    "fig2 compiled rendered output unchanged"
    "06d5cabe6bcf4b7a9c4b44029a46ce2f33beb43407c9e289e28c1db30511fd21"
    (Vtpm_crypto.Sha256.hexdigest (snd (Vtpm_sim.Experiments.fig2 ~include_compiled:true ())));
  let fig13, _ = Vtpm_sim.Experiments.fig13 ~vm_counts:[ 8; 32 ] ~total_ops:480 () in
  Alcotest.(check (list string))
    "fig13 series" [ "fixed-hash 8-lane"; "least-loaded"; "sharded" ] (List.map fst fig13);
  Alcotest.(check string)
    "fig13 series unchanged (reduced scale)"
    "4f7809846f52d23597ee6c491153285c7e6a0a96d5a0711d24b25765945c2e47" (series_digest fig13);
  let _, fig14 = Vtpm_sim.Experiments.fig14 ~vm_counts:[ 8; 32 ] ~total_ops:256 () in
  Alcotest.(check string)
    "fig14 rendered table unchanged (reduced scale)"
    "b7319591eab49a9ff2ec1413661d30027990d18ce55723792f7756367e400d0a"
    (Vtpm_crypto.Sha256.hexdigest fig14);
  (* The attack battery's full outcome text, detail column included. *)
  Alcotest.(check string)
    "attack battery rendered output unchanged"
    "f2bc142e5691fe4fd9283de0e63dc7a7a328d26518519ecc5dc3c21096f727dc"
    (Vtpm_crypto.Sha256.hexdigest
       (String.concat "\n"
          (List.concat_map
             (fun mode ->
               List.map
                 (fun (o : Vtpm_attacks.Attack.outcome) ->
                   Printf.sprintf "%s|%s|%b|%s" (Host.mode_name mode) o.attack o.succeeded o.detail)
                 (Vtpm_attacks.Attack.run_battery ~mode))
             [ Host.Baseline_mode; Host.Improved_mode ])))

let test_fig14_shape () =
  (* Small-scale: the measured-crt series must dominate. *)
  let series, rendered =
    Vtpm_sim.Experiments.fig14 ~vm_counts:[ 4; 8 ] ~rules:64 ~total_ops:64 ()
  in
  let get name = List.assoc name series in
  List.iter2
    (fun (_, slow) (_, fast) -> check_b "measured-crt beats 2010 model" true (fast > slow))
    (get "model-2010") (get "measured-crt");
  List.iter2
    (fun (_, slow) (_, fast) -> check_b "measured-crt beats schoolbook" true (fast > slow))
    (get "measured-schoolbook") (get "measured-crt");
  check_b "rendered non-empty" true (String.length rendered > 0)

let suite =
  [
    Alcotest.test_case "metrics mean" `Quick test_metrics_mean;
    Alcotest.test_case "metrics empty" `Quick test_metrics_empty;
    Alcotest.test_case "metrics single" `Quick test_metrics_single;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "metrics cdf" `Quick test_metrics_cdf;
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    Alcotest.test_case "table render" `Quick test_table_render_alignment;
    Alcotest.test_case "pick_op weights" `Quick test_pick_op_respects_weights;
    Alcotest.test_case "pick_op coverage" `Quick test_pick_op_covers_mix;
    Alcotest.test_case "tenant ops improved" `Quick test_tenant_ops_all_succeed_improved;
    Alcotest.test_case "tenant ops baseline" `Quick test_tenant_ops_all_succeed_baseline;
    Alcotest.test_case "workload counts" `Quick test_workload_run_counts;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "workload weighted shares" `Slow test_workload_weighted_shares;
    Alcotest.test_case "experiment table1 shape" `Slow test_experiment_table1_shape;
    Alcotest.test_case "experiment fig2 shape" `Slow test_experiment_fig2_shape;
    Alcotest.test_case "experiment fig4 shape" `Slow test_experiment_fig4_shape;
    Alcotest.test_case "seed figures frozen" `Slow test_seed_figures_frozen;
    Alcotest.test_case "experiment fig14 shape" `Slow test_fig14_shape;
  ]
