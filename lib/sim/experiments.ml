(* The reproduced evaluation: one function per table/figure (see DESIGN.md
   "Reconstructed evaluation"), each returning raw data and a rendered
   text block. [registry] at the end of the file declares what each
   bench section prints, checks and records; EXPERIMENTS.md records the
   output.

   All latencies here are *simulated* microseconds from the cost model —
   deterministic and machine-independent. Real wall-clock costs of the
   OCaml implementation are measured separately by the Bechamel suite in
   bench/main.ml. *)

open Vtpm_access

let both_modes = [ Host.Baseline_mode; Host.Improved_mode ]

(* --- Table 1: per-command latency, baseline vs improved -------------------- *)

type table1_row = {
  op : Tenant.op;
  baseline_us : float;
  improved_us : float;
  overhead_pct : float;
}

let table1 ?(reps = 300) () : table1_row list * string =
  let mean_for mode op =
    let host, tenants = Workload.make_host_with_tenants ~mode ~n:1 ~seed:21 () in
    let tenant = List.hd tenants in
    let cost = Host.cost host in
    let m = Metrics.create () in
    for _ = 1 to reps do
      let t0 = Vtpm_util.Cost.now cost in
      (match Tenant.run_op tenant op with Ok () -> () | Error e -> invalid_arg e);
      Metrics.add m (Vtpm_util.Cost.now cost -. t0)
    done;
    (Metrics.summarize m).Metrics.mean
  in
  let rows =
    List.map
      (fun op ->
        let baseline_us = mean_for Host.Baseline_mode op in
        let improved_us = mean_for Host.Improved_mode op in
        let overhead_pct = (improved_us -. baseline_us) /. baseline_us *. 100.0 in
        { op; baseline_us; improved_us; overhead_pct })
      Tenant.all_ops
  in
  let rendered =
    Table.render ~title:"Table 1: vTPM command latency (simulated us), baseline vs improved"
      ~header:[ "command"; "baseline"; "improved"; "overhead" ]
      ~rows:
        (List.map
           (fun r ->
             [
               Tenant.op_name r.op;
               Table.us_str r.baseline_us;
               Table.us_str r.improved_us;
               Table.pct_str r.overhead_pct;
             ])
           rows)
  in
  (rows, rendered)

(* --- Table 3: lifecycle costs ------------------------------------------------- *)

type table3_row = {
  operation : string;
  baseline_us : float;
  improved_us : float;
}

(* Grow a tenant's vTPM state by [kib] KiB of NV data. *)
let inflate_state (tenant : Tenant.t) ~kib =
  let c = tenant.Tenant.client in
  let sess =
    match Vtpm_tpm.Client.start_oiap c ~usage_secret:tenant.Tenant.owner_auth with
    | Ok s -> s
    | Error e -> invalid_arg (Fmt.str "oiap owner: %a" Vtpm_tpm.Client.pp_error e)
  in
  let size = kib * 1024 in
  (match
     Vtpm_tpm.Client.nv_define c ~session:sess ~index:0x1500 ~size
       ~attrs:Vtpm_tpm.Types.nv_attrs_default ()
   with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "nv_define: %a" Vtpm_tpm.Client.pp_error e));
  let chunk = String.make 1024 'S' in
  for i = 0 to kib - 1 do
    let continue = i < kib - 1 in
    match
      Vtpm_tpm.Client.nv_write c ~session:sess ~continue ~index:0x1500 ~offset:(i * 1024)
        ~data:chunk ()
    with
    | Ok () -> ()
    | Error e -> invalid_arg (Fmt.str "nv_write: %a" Vtpm_tpm.Client.pp_error e)
  done

let table3 ?(state_kib = 16) () : table3_row list * string =
  let measure mode =
    let host = Host.create ~mode ~seed:33 ~rsa_bits:256 () in
    let cost = Host.cost host in
    (* Domain create + vTPM attach *)
    let t0 = Vtpm_util.Cost.now cost in
    let tenant = Tenant.setup host ~name:"lifecycle" ~label:"tenant_lc" in
    let t_create = Vtpm_util.Cost.now cost -. t0 in
    inflate_state tenant ~kib:state_kib;
    (* Suspend (state save in the mode's native format) *)
    let t0 = Vtpm_util.Cost.now cost in
    (match Host.suspend_vtpm host tenant.Tenant.guest with
    | Ok () -> ()
    | Error e -> invalid_arg ("suspend: " ^ e));
    let t_save = Vtpm_util.Cost.now cost -. t0 in
    (* Resume *)
    let t0 = Vtpm_util.Cost.now cost in
    (match Host.resume_vtpm host tenant.Tenant.guest with
    | Ok () -> ()
    | Error e -> invalid_arg ("resume: " ^ e));
    let t_resume = Vtpm_util.Cost.now cost -. t0 in
    (t_create, t_save, t_resume)
  in
  let bc, bs, br = measure Host.Baseline_mode in
  let ic, is_, ir = measure Host.Improved_mode in
  let rows =
    [
      { operation = "create+attach"; baseline_us = bc; improved_us = ic };
      { operation = Printf.sprintf "state save (%d KiB)" state_kib; baseline_us = bs; improved_us = is_ };
      { operation = Printf.sprintf "state resume (%d KiB)" state_kib; baseline_us = br; improved_us = ir };
    ]
  in
  let rendered =
    Table.render
      ~title:"Table 3: VM+vTPM lifecycle cost (simulated us), baseline vs improved"
      ~header:[ "operation"; "baseline"; "improved"; "overhead" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.operation;
               Table.us_str r.baseline_us;
               Table.us_str r.improved_us;
               Table.pct_str ((r.improved_us -. r.baseline_us) /. r.baseline_us *. 100.0);
             ])
           rows)
  in
  (rows, rendered)

(* --- Figure 1: throughput vs number of VMs -------------------------------------- *)

(* One throughput-vs-VMs series: per VM count [n], a fresh host seeded
   [seed_base + n] is [configure]d and then runs a constant total
   operation count split evenly across its tenants. With a shared
   workload seed every configuration draws the identical op sequence, so
   a series isolates per-VM effects from mix-sampling noise. *)
let vm_sweep ?(mode = Host.Improved_mode) ?quote_profile ~vm_counts ~total_ops ~seed_base ~mix
    ~configure () =
  List.map
    (fun n ->
      let host, tenants =
        Workload.make_host_with_tenants ~mode ~n ~seed:(seed_base + n) ?quote_profile ()
      in
      configure host n;
      let ops_per_tenant = max 1 (total_ops / n) in
      let r = Workload.run host ~tenants ~mix ~ops_per_tenant () in
      (float_of_int n, r.Workload.throughput_ops_s))
    vm_counts

(* Install an [n]-rule guarded policy under the given decision charge,
   optionally with the generation-tagged guard cache. *)
let guarded_policy host ~rules ~charge ~guard_cache =
  let monitor = Host.monitor_exn host in
  Monitor.set_policy monitor ~charge (Policy.synthetic_guarded ~n:rules);
  Monitor.set_guard_cache_enabled monitor guard_cache

let fig1 ?(vm_counts = [ 1; 2; 4; 8; 16; 32 ]) ?(total_ops = 1920) () :
    (string * (float * float) list) list * string =
  let series_for mode =
    vm_sweep ~mode ~vm_counts ~total_ops ~seed_base:50 ~mix:Workload.mixed
      ~configure:(fun _ _ -> ())
      ()
  in
  let series =
    List.map (fun mode -> (Host.mode_name mode, series_for mode)) both_modes
  in
  let rendered =
    Table.render_series
      ~title:"Figure 1: aggregate vTPM throughput (simulated ops/s) vs number of VMs"
      ~x_label:"vms" ~series
  in
  (series, rendered)

(* --- Figure 8: throughput vs number of VMs at N execution lanes ------------------ *)

let fig8 ?(vm_counts = [ 1; 2; 4; 8; 16; 32 ]) ?(lane_counts = [ 1; 2; 4; 8 ])
    ?(total_ops = 1920) () : (string * (float * float) list) list * string =
  (* Improved mode with Figure 1's host seeds and op budget: the 1-lane
     series reproduces Figure 1's improved series bit-for-bit (the single
     lane degenerates to the serial meter), so the scaling curves read
     directly against the flat bottleneck they break. The serial residue
     per request — ring, XenStore, monitor decision, audit — is what the
     higher lane counts saturate against. *)
  let series_for lanes =
    vm_sweep ~vm_counts ~total_ops ~seed_base:50 ~mix:Workload.mixed
      ~configure:(fun host _ -> Vtpm_mgr.Manager.set_lanes host.Host.mgr lanes)
      ()
  in
  let series =
    List.map
      (fun lanes -> (Printf.sprintf "%d-lane" lanes, series_for lanes))
      lane_counts
  in
  let rendered =
    Table.render_series
      ~title:
        "Figure 8: aggregate vTPM throughput (simulated ops/s) vs number of VMs, by \
         execution lanes (improved mode)"
      ~x_label:"vms" ~series
  in
  (series, rendered)

(* --- Figure 9: lane scaling against the monitor's serial residue -----------------

   Figure 8's lane counts saturate against the per-request serial residue;
   the dominant term under a big guarded policy is the monitor itself:
   an O(rules) scan plus a measurement gate on every request, with the
   decision cache disabled outright (seed semantics). The compiled index
   removes the scan; the generation-tagged cache removes the gate until a
   measurement actually changes. Same hosts/seeds/op budget as fig8. *)

let fig9 ?(vm_counts = [ 1; 2; 4; 8; 16; 32 ]) ?(rules = 1024) ?(lanes = 8) ?(total_ops = 1920)
    () : (string * (float * float) list) list * string =
  let series_for ~charge ~guard_cache =
    vm_sweep ~vm_counts ~total_ops ~seed_base:50 ~mix:Workload.mixed
      ~configure:(fun host _ ->
        Vtpm_mgr.Manager.set_lanes host.Host.mgr lanes;
        guarded_policy host ~rules ~charge ~guard_cache)
      ()
  in
  let series =
    [
      ("linear", series_for ~charge:Monitor.Linear_charge ~guard_cache:false);
      ("indexed", series_for ~charge:Monitor.Index_charge ~guard_cache:false);
      ("indexed+gen-cache", series_for ~charge:Monitor.Index_charge ~guard_cache:true);
    ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 9: aggregate vTPM throughput (simulated ops/s) vs number of VMs, %d-rule \
            guarded policy at %d lanes (improved mode)"
           rules lanes)
      ~x_label:"vms" ~series
  in
  (series, rendered)

(* --- Figure 2: decision latency vs policy size ----------------------------------- *)

let fig2 ?(rule_counts = [ 1; 16; 64; 256; 1024; 4096 ]) ?(reps = 400)
    ?(include_compiled = false) () : (string * (float * float) list) list * string =
  let series_for ~cache ~charge =
    List.map
      (fun n ->
        let host, tenants =
          Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:1 ~seed:77 ()
        in
        let tenant = List.hd tenants in
        let monitor = Host.monitor_exn host in
        Monitor.set_policy monitor ~charge (Policy.synthetic ~n);
        Monitor.set_cache_enabled monitor cache;
        let cost = Host.cost host in
        let m = Metrics.create () in
        for _ = 1 to reps do
          let t0 = Vtpm_util.Cost.now cost in
          (match Tenant.run_op tenant Tenant.Op_pcr_read with
          | Ok () -> ()
          | Error e -> invalid_arg e);
          Metrics.add m (Vtpm_util.Cost.now cost -. t0)
        done;
        (float_of_int n, (Metrics.summarize m).Metrics.mean))
      rule_counts
  in
  let series =
    [
      ("cache-on", series_for ~cache:true ~charge:Monitor.Linear_charge);
      ("cache-off", series_for ~cache:false ~charge:Monitor.Linear_charge);
    ]
    @
    (* Opt-in so the default rendering stays bit-identical to the seed:
       the index charge prices only candidate rules, flattening the
       cache-off curve. *)
    if include_compiled then [ ("compiled", series_for ~cache:false ~charge:Monitor.Index_charge) ]
    else []
  in
  let rendered =
    Table.render_series
      ~title:
        "Figure 2: per-request latency (simulated us, PCRRead) vs policy size (rules)"
      ~x_label:"rules" ~series
  in
  (series, rendered)

(* --- Figure 3: latency distribution under the mixed workload --------------------- *)

let fig3 ?(ops_per_tenant = 250) () : (string * Metrics.summary) list * string =
  let summaries =
    List.map
      (fun mode ->
        let host, tenants = Workload.make_host_with_tenants ~mode ~n:4 ~seed:91 () in
        let r = Workload.run host ~tenants ~mix:Workload.mixed ~ops_per_tenant () in
        (Host.mode_name mode, r.Workload.overall))
      both_modes
  in
  let rendered =
    Table.render
      ~title:"Figure 3: mixed-workload latency distribution (simulated us), 4 VMs"
      ~header:[ "mode"; "mean"; "p50"; "p90"; "p99"; "max" ]
      ~rows:
        (List.map
           (fun ((m : string), (s : Metrics.summary)) ->
             [
               m;
               Table.us_str s.Metrics.mean;
               Table.us_str s.Metrics.p50;
               Table.us_str s.Metrics.p90;
               Table.us_str s.Metrics.p99;
               Table.us_str s.Metrics.max;
             ])
           summaries)
  in
  (summaries, rendered)

(* --- Figure 4: migration time vs state size --------------------------------------- *)

let fig4 ?(state_kibs = [ 4; 16; 64; 256 ]) () :
    (string * (float * float) list) list * string =
  let point mode kib =
    let host = Host.create ~mode ~seed:(100 + kib) ~rsa_bits:256 () in
    let dest = Host.create ~mode ~seed:(200 + kib) ~rsa_bits:256 () in
    let tenant = Tenant.setup host ~name:"migrant" ~label:"tenant_mig" in
    inflate_state tenant ~kib;
    let cost = Host.cost host in
    let dest_cost = Host.cost dest in
    let t0 = Vtpm_util.Cost.now cost +. Vtpm_util.Cost.now dest_cost in
    let vtpm_id = tenant.Tenant.guest.Host.vtpm_id in
    let stream =
      match mode with
      | Host.Baseline_mode -> (
          match
            Host.management host ~process:"xm-migrate" ~token:""
              (Monitor.Migrate_out { vtpm_id; dest_key = None })
          with
          | Ok (Monitor.M_blob s) -> s
          | Ok _ | Error _ -> invalid_arg "baseline migrate-out failed")
      | Host.Improved_mode -> (
          let dest_key = Vtpm_mgr.Migration.bind_pubkey dest.Host.mgr in
          match
            Host.management host ~process:Host.manager_process ~token:(Host.manager_token host)
              (Monitor.Migrate_out { vtpm_id; dest_key = Some dest_key })
          with
          | Ok (Monitor.M_blob s) -> s
          | Ok _ | Error _ -> invalid_arg "improved migrate-out failed")
    in
    (match
       Host.management dest ~process:Host.manager_process ~token:(Host.manager_token dest)
         (Monitor.Migrate_in { stream })
     with
    | Ok (Monitor.M_instance _) -> ()
    | Ok _ | Error _ -> (
        (* baseline dest accepts with any process *)
        match
          Host.management dest ~process:"xm-migrate" ~token:""
            (Monitor.Migrate_in { stream })
        with
        | Ok _ -> ()
        | Error e -> invalid_arg ("migrate-in: " ^ e)));
    Vtpm_util.Cost.now cost +. Vtpm_util.Cost.now dest_cost -. t0
  in
  let series =
    List.map
      (fun mode ->
        ( (match mode with Host.Baseline_mode -> "plaintext" | Host.Improved_mode -> "protected"),
          List.map (fun kib -> (float_of_int kib, point mode kib)) state_kibs ))
      both_modes
  in
  let rendered =
    Table.render_series
      ~title:"Figure 4: vTPM migration time (simulated us) vs state size (KiB)"
      ~x_label:"state_kib" ~series
  in
  (series, rendered)

(* --- Figure 5 (ablation): which monitor feature costs what ------------------------ *)

(* Per-request latency of a cheap command under four monitor variants.
   Isolates the contribution of the decision cache and the audit log to
   the Table 1 overhead. *)
let fig5 ?(reps = 400) () : (string * float) list * string =
  let variant ~cache ~audit =
    let host, tenants = Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:1 ~seed:88 () in
    let tenant = List.hd tenants in
    let monitor = Host.monitor_exn host in
    Monitor.set_cache_enabled monitor cache;
    Monitor.set_audit_enabled monitor audit;
    let cost = Host.cost host in
    let m = Metrics.create () in
    for _ = 1 to reps do
      let t0 = Vtpm_util.Cost.now cost in
      (match Tenant.run_op tenant Tenant.Op_pcr_read with
      | Ok () -> ()
      | Error e -> invalid_arg e);
      Metrics.add m (Vtpm_util.Cost.now cost -. t0)
    done;
    (Metrics.summarize m).Metrics.mean
  in
  let baseline_mean =
    let host, tenants = Workload.make_host_with_tenants ~mode:Host.Baseline_mode ~n:1 ~seed:88 () in
    let tenant = List.hd tenants in
    let cost = Host.cost host in
    let m = Metrics.create () in
    for _ = 1 to reps do
      let t0 = Vtpm_util.Cost.now cost in
      (match Tenant.run_op tenant Tenant.Op_pcr_read with
      | Ok () -> ()
      | Error e -> invalid_arg e);
      Metrics.add m (Vtpm_util.Cost.now cost -. t0)
    done;
    (Metrics.summarize m).Metrics.mean
  in
  let rows =
    [
      ("no monitor (baseline)", baseline_mean);
      ("monitor, cache+audit", variant ~cache:true ~audit:true);
      ("monitor, no audit", variant ~cache:true ~audit:false);
      ("monitor, no cache", variant ~cache:false ~audit:true);
      ("monitor, neither", variant ~cache:false ~audit:false);
    ]
  in
  let rendered =
    Table.render
      ~title:"Figure 5 (ablation): PCRRead latency (simulated us) by monitor variant"
      ~header:[ "variant"; "mean"; "vs baseline" ]
      ~rows:
        (List.map
           (fun (v, us) ->
             [ v; Table.us_str us; Table.pct_str ((us -. baseline_mean) /. baseline_mean *. 100.0) ])
           rows)
  in
  (rows, rendered)

(* --- Table 4 + Figure 6: fault tolerance of the request path ----------------

   Recovery evaluation for the self-healing transport (no counterpart in
   the paper, which assumes a well-behaved platform): drive a fixed
   request workload through the split driver while the seeded injector
   perturbs every interdomain mechanism, and compare the naive fail-fast
   frontend against the self-healing one — retries + reconnection +
   checkpointed manager restart. Figure 5 is already taken by the monitor
   ablation, so the recovery figure is numbered 6. *)

type table4_row = {
  mode : string;
  fault_rate : float; (* per-decision rate, every fault class *)
  requests : int;
  succeeded : int;
  success_pct : float;
  mean_attempts : float;
  recovered : int; (* successes that needed at least one retry *)
  rec_p50_us : float; (* end-to-end latency of recovered requests *)
  rec_p99_us : float;
  restarts : int; (* manager-domain restarts *)
  reconnects : int; (* frontend reconnection handshakes *)
  injected : int; (* faults actually fired *)
}

(* One guest talking to one manager instance over the split driver; the
   router routes on the claimed instance (transport behaviour is
   mode-independent, so the simplest router serves). Self-healing mode
   adds write-through checkpointing: every successful request re-saves
   the instance, so an injected crash can only lose unacknowledged work.
   Faults arm only after the link is up — the workload, not the initial
   handshake, is under test. *)
let fault_fixture ?(lanes = 1) ~self_heal ~fault_rates ~seed () =
  let open Vtpm_xen in
  let open Vtpm_mgr in
  let xen = Hypervisor.create () in
  let fe =
    match Hypervisor.create_domain xen ~caller:0 ~name:"faulty" ~label:"tenant_ft" () with
    | Ok id -> id
    | Error e -> invalid_arg e
  in
  ignore (Hypervisor.unpause_domain xen ~caller:0 fe);
  let mgr = Manager.create ~rsa_bits:256 ~seed ~cost:xen.Hypervisor.cost () in
  Manager.set_lanes mgr lanes;
  let inst = Manager.create_instance mgr in
  Manager.bind_domid mgr inst fe;
  let ckpt = Checkpoint.create mgr in
  let router ~sender:_ ~claimed_instance ~wire =
    match Manager.find mgr claimed_instance with
    | Error e -> Error (Vtpm_util.Verror.to_string e)
    | Ok i -> (
        match Manager.execute_wire mgr i ~wire with
        | Error e -> Error (Vtpm_util.Verror.to_string e)
        | Ok resp ->
            if self_heal then ignore (Checkpoint.checkpoint ckpt i);
            Ok resp)
  in
  let resilience = if self_heal then Some Driver.default_resilience else None in
  let backend = Driver.create_backend ?resilience ~xen ~be_domid:0 ~router () in
  backend.Driver.on_crash <- (fun () -> Manager.crash mgr);
  if self_heal then
    backend.Driver.on_restart <- (fun () -> ignore (Checkpoint.restore_all ckpt));
  (match Driver.publish_device ~xen ~fe ~be:0 ~instance:inst.Manager.vtpm_id with
  | Ok () -> ()
  | Error e -> invalid_arg e);
  let conn =
    match Driver.connect backend ~fe_domid:fe with
    | Ok c -> c
    | Error e -> invalid_arg e
  in
  Hypervisor.set_faults xen (Vtpm_xen.Faults.create ~seed ~rates:fault_rates ());
  (xen, mgr, inst, ckpt, backend, conn)

let run_fault_workload ?(lanes = 1) ~self_heal ~fault_rate ~requests ~seed () : table4_row =
  let open Vtpm_xen in
  let open Vtpm_mgr in
  let rates = List.map (fun c -> (c, fault_rate)) Faults.all_classes in
  let xen, _, _, _, backend, conn =
    fault_fixture ~lanes ~self_heal ~fault_rates:rates ~seed ()
  in
  let cost = xen.Hypervisor.cost in
  (* Mixed read/write traffic: every fourth request extends a PCR, the
     rest read it — so crash recovery is exercised against state that
     actually changes. *)
  let wire_for i =
    if i mod 4 = 0 then
      Vtpm_tpm.Wire.encode_request
        (Vtpm_tpm.Cmd.Extend { pcr = 11; digest = Vtpm_crypto.Sha1.digest (string_of_int i) })
    else Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 11 })
  in
  let rec_m = Metrics.create () in
  let succeeded = ref 0 and recovered = ref 0 and attempts_total = ref 0 in
  for i = 1 to requests do
    let t0 = Vtpm_util.Cost.now cost in
    match Driver.request_with_info backend conn ~wire:(wire_for i) with
    | Ok o when o.Driver.status = Proto.Ok_routed ->
        incr succeeded;
        attempts_total := !attempts_total + o.Driver.attempts;
        if o.Driver.recovered then begin
          incr recovered;
          Metrics.add rec_m (Vtpm_util.Cost.now cost -. t0)
        end
    | Ok o -> attempts_total := !attempts_total + o.Driver.attempts
    | Error _ -> incr attempts_total
  done;
  let rec_s = Metrics.summarize rec_m in
  {
    mode = (if self_heal then "self-healing" else "fail-fast");
    fault_rate;
    requests;
    succeeded = !succeeded;
    success_pct = float_of_int !succeeded /. float_of_int requests *. 100.0;
    mean_attempts = float_of_int !attempts_total /. float_of_int requests;
    recovered = !recovered;
    rec_p50_us = rec_s.Metrics.p50;
    rec_p99_us = rec_s.Metrics.p99;
    restarts = backend.Driver.restarts;
    reconnects = conn.Driver.reconnects;
    injected = Faults.total_injected xen.Hypervisor.faults;
  }

type crash_drill = {
  extends_acked : int; (* PCR extends acknowledged before the verdict *)
  drill_restarts : int;
  drill_reconnects : int;
  state_preserved : bool; (* post-recovery PCR equals last acknowledged *)
}

(* Crash-consistency drill: only Manager_crash is injected (at a high
   rate), traffic is a run of PCR extends through the client transport,
   and after every acknowledged extend the returned PCR value is the
   ground truth the recovered manager must still hold. With no corruption
   in play each extend executes exactly once, so a single byte of state
   drift is a checkpointing bug, not retry noise. *)
let crash_drill ?(extends = 60) ?(crash_rate = 0.15) ~seed () : crash_drill =
  let open Vtpm_xen in
  let open Vtpm_mgr in
  let xen, _, _, _, backend, conn =
    fault_fixture ~self_heal:true ~fault_rates:[ (Faults.Manager_crash, crash_rate) ] ~seed ()
  in
  let client = Vtpm_tpm.Client.create (Driver.client_transport backend conn) in
  let last_acked = ref "" in
  let acked = ref 0 in
  for i = 1 to extends do
    match
      Vtpm_tpm.Client.extend client ~pcr:9 ~digest:(Vtpm_crypto.Sha1.digest (string_of_int i))
    with
    | Ok value ->
        last_acked := value;
        incr acked
    | Error e -> invalid_arg (Fmt.str "drill extend: %a" Vtpm_tpm.Client.pp_error e)
  done;
  ignore xen;
  let preserved =
    match Vtpm_tpm.Client.pcr_read client ~pcr:9 with
    | Ok v -> v = !last_acked
    | Error _ -> false
  in
  {
    extends_acked = !acked;
    drill_restarts = backend.Driver.restarts;
    drill_reconnects = conn.Driver.reconnects;
    state_preserved = preserved;
  }

let table4 ?(fault_rates = [ 0.0; 0.01; 0.05; 0.10 ]) ?(requests = 1000) () :
    (table4_row list * crash_drill) * string =
  let rows =
    List.concat_map
      (fun rate ->
        [
          run_fault_workload ~self_heal:false ~fault_rate:rate ~requests ~seed:137 ();
          run_fault_workload ~self_heal:true ~fault_rate:rate ~requests ~seed:137 ();
        ])
      fault_rates
  in
  let drill = crash_drill ~seed:137 () in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 4: request survival under injected faults (%d requests, seed 137)" requests)
      ~header:
        [ "mode"; "rate"; "success"; "attempts"; "recovered"; "rec p50"; "rec p99"; "restarts" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.mode;
               Printf.sprintf "%.0f%%" (r.fault_rate *. 100.0);
               Printf.sprintf "%.1f%%" r.success_pct;
               Printf.sprintf "%.2f" r.mean_attempts;
               string_of_int r.recovered;
               (if r.recovered = 0 then "-" else Table.us_str r.rec_p50_us);
               (if r.recovered = 0 then "-" else Table.us_str r.rec_p99_us);
               string_of_int r.restarts;
             ])
           rows)
    ^ Printf.sprintf
        "crash drill: %d extends acked, %d manager restarts, %d reconnects, state %s\n"
        drill.extends_acked drill.drill_restarts drill.drill_reconnects
        (if drill.state_preserved then "PRESERVED" else "LOST")
  in
  ((rows, drill), rendered)

(* --- Overload evaluation: flood containment and wedge recovery ------------ *)

type flood_config = Naive | Quota_only | Full_stack

let flood_config_name = function
  | Naive -> "naive"
  | Quota_only -> "quota-only"
  | Full_stack -> "full-stack"

type table5_row = {
  config : string;
  flood_x : int; (* attacker rate as a multiple of one victim's *)
  victim_sent : int;
  victim_good : int; (* served OK within the deadline *)
  victim_goodput_pct : float;
  victim_p99_us : float; (* over victim requests actually served *)
  attacker_served : int; (* attacker commands that executed *)
  attacker_rejected : int; (* admission rejections + quota denials *)
  flood_shed : int; (* queued entries dropped past their deadline *)
}

(* One discrete-event flood run. A full improved-mode host carries
   [victims] well-behaved guests issuing a steady mixed workload (every
   fourth op a PCR extend, the rest PCR reads, one op per [period]) and
   one attacker flooding extends at [flood_x] times a victim's rate. The
   single simulated clock is the backend's serialization point: requests
   are admitted into the driver queues when their arrival time passes and
   the backend pumps them in global arrival order, so a backlog shows up
   as queueing delay exactly like a saturated manager domain.

   The three configurations share workload, seed and policy:
   - Naive: unbounded FIFO queues, no rate limiting — every attacker
     command eventually executes, and victims queue behind all of them.
   - Quota-only: the token bucket denies most attacker commands, but only
     at service time — each denial still costs a monitor round, and the
     bucket's burst executes in full, with no deadline awareness.
   - Full stack: bounded per-subject queues reject the flood at admission
     for free, stale entries are shed deadline-aware, quota catches what
     leaks through, and the supervisor guards the execution path. *)
let flood_run ~config ~flood_x ?(victims = 3) ?(victim_period_us = 3_000.0)
    ?(victim_ops = 200) ?(deadline_us = 10_000.0) ?(lanes = 1) ?(batch = 1) ~seed () :
    table5_row =
  let open Vtpm_mgr in
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let cost = Host.cost host in
  Manager.set_lanes host.Host.mgr lanes;
  Driver.set_batch host.Host.backend batch;
  (* Long floods must not grow the audit log without bound. *)
  Monitor.set_audit_cap m (Some 4096);
  let victim_guests =
    List.init victims (fun i ->
        Host.create_guest_exn host
          ~name:(Printf.sprintf "victim%d" i)
          ~label:(Printf.sprintf "tenant_%02d" i) ())
  in
  let attacker = Host.create_guest_exn host ~name:"flooder" ~label:"tenant_99" () in
  (* Per-subject quota sized to the victims' rate (one op per [period] =
     500/s at the default) with a little headroom — tighter would throttle
     the victims themselves. The attacker exploits exactly that headroom:
     the bucket counts requests, not cost, and its requests are the
     expensive kind. *)
  let quota_rate = 1.05 *. (1_000_000.0 /. victim_period_us) in
  (match config with
  | Naive -> ()
  | Quota_only -> Monitor.set_quota m ~rate_per_s:quota_rate ~burst:30.0
  | Full_stack ->
      Monitor.set_quota m ~rate_per_s:quota_rate ~burst:30.0;
      Driver.set_overload host.Host.backend
        (Some { Driver.queue_capacity = 6; deadline_us });
      Monitor.wire_backpressure m host.Host.backend;
      let ckpt = Checkpoint.create host.Host.mgr in
      let sup =
        Supervisor.create
          ~cfg:{ Supervisor.default_config with is_read_only = Command_class.is_read_only }
          ~mgr:host.Host.mgr ~ckpt ~faults:host.Host.xen.Vtpm_xen.Hypervisor.faults ()
      in
      (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> invalid_arg e);
      Monitor.set_supervisor m sup);
  let extend_wire i =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 10; digest = Vtpm_crypto.Sha1.digest (string_of_int i) })
  in
  let read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 10 }) in
  (* Arrival schedule, offset past the setup work already charged to the
     simulated clock (keygen, checkpoint sealing): victims staggered
     across one period; the attacker floods from the start at [flood_x]
     times one victim's rate. *)
  let t0 = Vtpm_util.Cost.now cost in
  let arrivals =
    let victim_stream i (g : Host.guest) =
      List.init victim_ops (fun k ->
          let at =
            t0
            +. (victim_period_us *. float_of_int (i + 1) /. float_of_int (victims + 1))
            +. (victim_period_us *. float_of_int k)
          in
          (at, g, (if k mod 4 = 0 then extend_wire ((i * victim_ops) + k) else read_wire), false))
    in
    let attacker_stream =
      let period = victim_period_us /. float_of_int flood_x in
      List.init (victim_ops * flood_x) (fun k ->
          (t0 +. 50.0 +. (period *. float_of_int k), attacker, extend_wire (100_000 + k), true))
    in
    List.concat (attacker_stream :: List.mapi victim_stream victim_guests)
    |> List.stable_sort (fun (a, g1, _, _) (b, g2, _, _) ->
           match Float.compare a b with
           | 0 -> Stdlib.compare g1.Host.domid g2.Host.domid
           | c -> c)
    |> Array.of_list
  in
  let n = Array.length arrivals in
  let backend = host.Host.backend in
  let vm = Metrics.create () in
  let victim_good = ref 0 in
  let attacker_served = ref 0 and attacker_rejected = ref 0 in
  let i = ref 0 in
  let admit_due () =
    while
      !i < n
      &&
      let at, _, _, _ = arrivals.(!i) in
      at <= Vtpm_util.Cost.now cost
    do
      let at, g, wire, is_attacker = arrivals.(!i) in
      incr i;
      match
        Driver.submit backend g.Host.conn ~wire ~arrival_us:at ~deadline_us ()
      with
      | Ok () -> ()
      | Error (Vtpm_util.Verror.Overloaded _) ->
          if is_attacker then incr attacker_rejected
      | Error e -> invalid_arg (Vtpm_util.Verror.to_string e)
    done
  in
  while !i < n || Driver.queued_total backend > 0 do
    (if Driver.queued_total backend = 0 then
       let at, _, _, _ = arrivals.(!i) in
       Vtpm_util.Cost.advance_to cost at);
    admit_due ();
    match Driver.pump_batch backend with
    | `Idle -> ()
    | `Served served ->
        List.iter
          (fun (s : Driver.serviced) ->
            (* Latency runs to the request's lane-completion time, which
               equals the meter time in the single-lane configuration. *)
            let latency = s.Driver.s_done_us -. s.Driver.s_arrival_us in
            let ok =
              match s.Driver.s_outcome with
              | Ok o -> o.Driver.status = Proto.Ok_routed
              | Error _ -> false
            in
            if s.Driver.s_domid = attacker.Host.domid then begin
              if ok then incr attacker_served else incr attacker_rejected
            end
            else begin
              Metrics.add vm latency;
              if ok && latency <= deadline_us then incr victim_good
            end)
          served
  done;
  Manager.sync_lanes host.Host.mgr;
  let victim_sent = victims * victim_ops in
  {
    config = flood_config_name config;
    flood_x;
    victim_sent;
    victim_good = !victim_good;
    victim_goodput_pct = float_of_int !victim_good /. float_of_int victim_sent *. 100.0;
    victim_p99_us = (Metrics.summarize vm).Metrics.p99;
    attacker_served = !attacker_served;
    attacker_rejected = !attacker_rejected;
    flood_shed = Driver.shed_count backend;
  }

let table5 ?(flood_x = 10) ?(victim_ops = 200) () : table5_row list * string =
  let rows =
    List.map
      (fun config -> flood_run ~config ~flood_x ~victim_ops ~seed:61 ())
      [ Naive; Quota_only; Full_stack ]
  in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 5: victim goodput under a %dx attacker flood (3 victims, %d ops each, 10 ms \
            deadline, seed 61)"
           flood_x victim_ops)
      ~header:
        [ "config"; "goodput"; "victim p99"; "atk served"; "atk rejected"; "shed" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.config;
               Printf.sprintf "%.1f%%" r.victim_goodput_pct;
               Table.us_str r.victim_p99_us;
               string_of_int r.attacker_served;
               string_of_int r.attacker_rejected;
               string_of_int r.flood_shed;
             ])
           rows)
  in
  (rows, rendered)

let fig7 ?(flood_xs = [ 1; 2; 5; 10; 20 ]) ?(victim_ops = 120) () :
    (string * (float * float) list) list * string =
  let series =
    List.map
      (fun config ->
        ( flood_config_name config,
          List.map
            (fun x ->
              let r = flood_run ~config ~flood_x:x ~victim_ops ~seed:61 () in
              (float_of_int x, r.victim_goodput_pct))
            flood_xs ))
      [ Naive; Quota_only; Full_stack ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 7: victim goodput (%%) vs attacker flood multiple (3 victims, %d ops each)"
           victim_ops)
      ~x_label:"flood x" ~series
  in
  (series, rendered)

type wedge_drill = {
  wd_requests : int;
  wd_wedges : int; (* injected instance hangs *)
  wd_quarantines : int;
  wd_restarts : int; (* checkpoint restores of the live instance *)
  wd_breaker_opens : int;
  wd_degraded_reads : int; (* reads served from the shadow while degraded *)
  wd_degraded_rejects : int; (* mutations refused while degraded *)
  wd_served_ok : int;
  wd_state_preserved : bool; (* final PCR equals the last acknowledged extend *)
}

(* Wedged-instance drill: only the Wedged_instance fault is injected, on
   the supervised monitor path. Traffic mixes extends and reads with
   think-time between requests so breaker cooldowns elapse. Every
   acknowledged extend's returned PCR value is ground truth: after the
   run (and after the supervisor has healed the instance), the live PCR
   must equal the last acknowledged value — quarantine and restart lost
   no acknowledged work, thanks to write-through checkpoints. *)
let wedge_drill ?(requests = 150) ?(wedge_rate = 0.04) ~seed () : wedge_drill =
  let open Vtpm_mgr in
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let cost = Host.cost host in
  let xen = host.Host.xen in
  Vtpm_xen.Hypervisor.set_faults xen
    (Vtpm_xen.Faults.create ~seed
       ~rates:[ (Vtpm_xen.Faults.Wedged_instance, wedge_rate) ]
       ());
  let ckpt = Checkpoint.create host.Host.mgr in
  let cfg =
    {
      Supervisor.failure_threshold = 2;
      open_cooldown_us = 20_000.0;
      max_restarts = 1000; (* the drill studies recovery, not escalation *)
      probe_interval_us = 5_000.0;
      is_read_only = Command_class.is_read_only;
    }
  in
  let sup =
    Supervisor.create ~cfg ~mgr:host.Host.mgr ~ckpt
      ~faults:xen.Vtpm_xen.Hypervisor.faults ()
  in
  Monitor.set_supervisor m sup;
  let g = Host.create_guest_exn host ~name:"drilled" ~label:"tenant_00" () in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> invalid_arg e);
  let client = Host.guest_client host g in
  let last_acked = ref "" and served = ref 0 in
  for k = 1 to requests do
    Vtpm_util.Cost.charge cost 1_000.0 (* guest think time *);
    Supervisor.tick sup;
    (if k mod 3 = 0 then
       match
         Vtpm_tpm.Client.extend client ~pcr:9 ~digest:(Vtpm_crypto.Sha1.digest (string_of_int k))
       with
       | Ok value ->
           last_acked := value;
           incr served
       | Error _ -> ()
       | exception Driver.Denied _ -> ()
     else
       match Vtpm_tpm.Client.pcr_read client ~pcr:9 with
       | Ok _ -> incr served
       | Error _ -> ()
       | exception Driver.Denied _ -> ())
  done;
  (* Let the instance heal (disarm further wedges first), then compare
     the live PCR with the last acknowledged extend. *)
  Vtpm_xen.Faults.disarm xen.Vtpm_xen.Hypervisor.faults;
  let healed = ref false in
  let tries = ref 0 in
  while (not !healed) && !tries < 100 do
    incr tries;
    Vtpm_util.Cost.charge cost 5_000.0;
    Supervisor.tick sup;
    healed := Supervisor.health sup g.Host.vtpm_id = Supervisor.Healthy
  done;
  let preserved =
    match Vtpm_tpm.Client.pcr_read client ~pcr:9 with
    | Ok v -> !last_acked <> "" && v = !last_acked
    | Error _ | (exception Driver.Denied _) -> false
  in
  let e = Supervisor.entry sup g.Host.vtpm_id in
  {
    wd_requests = requests;
    wd_wedges = e.Supervisor.wedges;
    wd_quarantines = Supervisor.quarantines sup;
    wd_restarts = e.Supervisor.restarts;
    wd_breaker_opens = Supervisor.breaker_opens sup;
    wd_degraded_reads = e.Supervisor.degraded_reads;
    wd_degraded_rejects = e.Supervisor.degraded_rejects;
    wd_served_ok = !served;
    wd_state_preserved = preserved;
  }

let render_wedge_drill (d : wedge_drill) =
  Printf.sprintf
    "wedge drill: %d requests, %d wedges -> %d quarantines, %d restarts, %d breaker opens;\n\
     degraded service: %d reads from shadow, %d mutations refused; %d served OK; state %s\n"
    d.wd_requests d.wd_wedges d.wd_quarantines d.wd_restarts d.wd_breaker_opens
    d.wd_degraded_reads d.wd_degraded_rejects d.wd_served_ok
    (if d.wd_state_preserved then "PRESERVED" else "LOST")

let fig6 ?(fault_rates = [ 0.0; 0.01; 0.02; 0.05; 0.10; 0.20 ]) ?(requests = 400) () :
    (string * (float * float) list) list * string =
  let series_for self_heal =
    List.map
      (fun rate ->
        let r = run_fault_workload ~self_heal ~fault_rate:rate ~requests ~seed:211 () in
        (rate *. 100.0, r.success_pct))
      fault_rates
  in
  let series =
    [ ("fail-fast", series_for false); ("self-healing", series_for true) ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 6: request success rate (%%) vs per-class fault rate (%%), %d requests"
           requests)
      ~x_label:"fault%" ~series
  in
  (series, rendered)

(* --- Table 6 / Figure 10: live migration under load ------------------------ *)

type migration_drill = {
  md_flood_x : int;
  md_migrated : bool; (* the steady "no-migration" series sets this false *)
  md_attempts : int; (* handshake attempts, including the injected failures *)
  md_failed_attempts : int;
  md_drained : int; (* in-flight requests served under the final drain *)
  md_migrant_sent : int;
  md_migrant_good : int; (* across both hosts *)
  md_migrant_goodput_pct : float;
  md_victim_goodput_pct : float;
  md_lost_in_flight : int; (* conservation residue on the source; must be 0 *)
  md_bypass_windows : int; (* policy-bypass observations; must be 0 *)
  md_quarantine_held : bool; (* dest copy never live before the source committed *)
  md_fresh_monotone : bool; (* counters strictly increased across exports *)
  md_replay_blocked : bool; (* committed stream refused on re-import *)
  md_replay_audited : bool; (* ...and the refusal left a denial at the dest *)
  md_anchor_src_ok : bool; (* audit anchor chain verifies on the source *)
  md_anchor_dst_ok : bool; (* ...and on the destination *)
}

(* The migration drill: host A carries the full overload stack (lanes,
   quota, bounded queues + deadline shed, supervisor, freshness, audit
   anchor) and a seeded fault injector; host B runs freshness + its own
   audit anchor. Victims and a [flood_x] attacker load A exactly as in
   {!flood_run}; one "migrant" guest issues the same mixed workload.
   Halfway through, its vTPM live-migrates A->B through three handshake
   attempts: (1) the stream is corrupted in transit (B must refuse the
   MAC and A must resume), (2) B receives but crashes before its ack
   reaches A (the quarantined copy is aborted, A resumes — never
   dual-live), (3) a clean commit, after which the migrant's remaining
   traffic is served by B. Every submitted request on A is accounted for
   (served, shed or rejected — the conservation law leaves residue 0),
   quarantined imports serve nothing, a replay of the committed stream is
   refused and audited, freshness counters stay strictly monotone, and
   both hosts' audit chains end exactly at their hardware anchors. *)
let migration_drill ?(migrate = true) ?(flood_x = 10) ?(victims = 2)
    ?(victim_period_us = 3_000.0) ?(migrant_ops = 120) ?(deadline_us = 10_000.0) ?(lanes = 2)
    ?(wedge_rate = 0.01) ~seed () : migration_drill =
  let open Vtpm_mgr in
  (* --- Host A: source, full robustness stack. *)
  let a = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let ma = Host.monitor_exn a in
  let cost = Host.cost a in
  Manager.set_lanes a.Host.mgr lanes;
  Vtpm_xen.Hypervisor.set_faults a.Host.xen
    (Vtpm_xen.Faults.create ~seed ~rates:[ (Vtpm_xen.Faults.Wedged_instance, wedge_rate) ] ());
  let quota_rate = 1.05 *. (1_000_000.0 /. victim_period_us) in
  Monitor.set_quota ma ~rate_per_s:quota_rate ~burst:30.0;
  Driver.set_overload a.Host.backend (Some { Driver.queue_capacity = 6; deadline_us });
  Monitor.wire_backpressure ma a.Host.backend;
  let fa =
    match Monitor.enable_freshness ma with Ok f -> f | Error e -> invalid_arg ("freshness A: " ^ e)
  in
  let ckpt = Checkpoint.create ~fresh:fa a.Host.mgr in
  let sup =
    Supervisor.create
      ~cfg:{ Supervisor.default_config with is_read_only = Command_class.is_read_only }
      ~mgr:a.Host.mgr ~ckpt ~faults:a.Host.xen.Vtpm_xen.Hypervisor.faults ()
  in
  Monitor.set_supervisor ma sup;
  let anchor_a =
    match Anchor.setup a.Host.mgr with Ok x -> x | Error e -> invalid_arg ("anchor A: " ^ Vtpm_util.Verror.to_string e)
  in
  (* --- Host B: destination. *)
  let b = Host.create ~mode:Host.Improved_mode ~seed:(seed + 1) ~rsa_bits:256 () in
  let mb = Host.monitor_exn b in
  let fb =
    match Monitor.enable_freshness mb with Ok f -> f | Error e -> invalid_arg ("freshness B: " ^ e)
  in
  let anchor_b =
    match Anchor.setup b.Host.mgr with Ok x -> x | Error e -> invalid_arg ("anchor B: " ^ Vtpm_util.Verror.to_string e)
  in
  let dest_key = Migration.bind_pubkey b.Host.mgr in
  (* --- Workload on A. *)
  let victim_guests =
    List.init victims (fun i ->
        Host.create_guest_exn a
          ~name:(Printf.sprintf "victim%d" i)
          ~label:(Printf.sprintf "tenant_%02d" i) ())
  in
  let attacker = Host.create_guest_exn a ~name:"flooder" ~label:"tenant_99" () in
  let migrant = Host.create_guest_exn a ~name:"migrant" ~label:"tenant_50" () in
  let vtpm_id = migrant.Host.vtpm_id in
  let lineage =
    match Manager.find a.Host.mgr vtpm_id with
    | Ok inst -> Freshness.lineage inst.Manager.engine
    | Error e -> invalid_arg (Vtpm_util.Verror.to_string e)
  in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> invalid_arg e);
  let extend_wire i =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 10; digest = Vtpm_crypto.Sha1.digest (string_of_int i) })
  in
  let read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 10 }) in
  let t0 = Vtpm_util.Cost.now cost in
  let t_mig = t0 +. (victim_period_us *. float_of_int (migrant_ops / 2)) in
  (* kind: 0 = victim, 1 = attacker, 2 = migrant (carrying its op index). *)
  let arrivals =
    let victim_stream i (g : Host.guest) =
      List.init migrant_ops (fun k ->
          let at =
            t0
            +. (victim_period_us *. float_of_int (i + 1) /. float_of_int (victims + 2))
            +. (victim_period_us *. float_of_int k)
          in
          (at, g, (if k mod 4 = 0 then extend_wire ((i * migrant_ops) + k) else read_wire), 0, k))
    in
    let migrant_stream =
      List.init migrant_ops (fun k ->
          let at =
            t0
            +. (victim_period_us *. float_of_int (victims + 1) /. float_of_int (victims + 2))
            +. (victim_period_us *. float_of_int k)
          in
          (at, migrant, (if k mod 4 = 0 then extend_wire (50_000 + k) else read_wire), 2, k))
    in
    let attacker_stream =
      let period = victim_period_us /. float_of_int flood_x in
      List.init (migrant_ops * flood_x) (fun k ->
          (t0 +. 50.0 +. (period *. float_of_int k), attacker, extend_wire (100_000 + k), 1, k))
    in
    List.concat (attacker_stream :: migrant_stream :: List.mapi victim_stream victim_guests)
    |> List.stable_sort (fun (a1, g1, _, _, _) (b1, g2, _, _, _) ->
           match Float.compare a1 b1 with
           | 0 -> Stdlib.compare g1.Host.domid g2.Host.domid
           | c -> c)
    |> Array.of_list
  in
  let n = Array.length arrivals in
  let backend = a.Host.backend in
  (* --- Source-side accounting: the conservation law's three sinks. *)
  let submitted = ref 0 and serviced = ref 0 in
  let victim_sent = ref 0 and victim_good = ref 0 in
  let migrant_good_a = ref 0 and migrant_good_b = ref 0 in
  let migrant_sent = ref 0 in
  let record_serviced (s : Driver.serviced) =
    incr serviced;
    let latency = s.Driver.s_done_us -. s.Driver.s_arrival_us in
    let ok =
      match s.Driver.s_outcome with
      | Ok o -> o.Driver.status = Proto.Ok_routed
      | Error _ -> false
    in
    if s.Driver.s_domid = migrant.Host.domid then begin
      if ok && latency <= deadline_us then incr migrant_good_a
    end
    else if s.Driver.s_domid <> attacker.Host.domid then
      if ok && latency <= deadline_us then incr victim_good
  in
  let pump_round () =
    match Driver.pump_batch backend with
    | `Idle -> false
    | `Served served ->
        List.iter record_serviced served;
        true
  in
  let drained = ref 0 in
  let drain () =
    let before = !serviced in
    let stuck = ref 0 in
    while Driver.queued_total backend > 0 && !stuck < 10_000 do
      if not (pump_round ()) then incr stuck
    done;
    let d = !serviced - before in
    drained := !drained + d;
    d
  in
  (* --- The handshake attempts. *)
  let migrated = ref false in
  let bclient = ref None in
  let attempts = ref 0 and failed_attempts = ref 0 in
  let bypass = ref 0 in
  let quarantine_held = ref true in
  let committed_stream = ref None in
  let hwms = ref [] in
  let b_mgmt op = Host.management b ~process:Host.manager_process ~token:(Host.manager_token b) op in
  let receive_at_b stream =
    match b_mgmt (Monitor.Migrate_receive { stream }) with
    | Ok (Monitor.M_instance id) -> Ok id
    | Ok _ -> Error "unexpected management result"
    | Error e -> Error e
  in
  let a_active () =
    match Manager.find a.Host.mgr vtpm_id with
    | Ok i -> i.Manager.state = Manager.Active
    | Error _ -> false
  in
  let b_active id =
    match Manager.find b.Host.mgr id with
    | Ok i -> i.Manager.state = Manager.Active
    | Error _ -> false
  in
  (* Heal the migrant through any injected wedge before an attempt, so each
     attempt tests the handshake and not the fault of the moment. *)
  let ensure_active () =
    let tries = ref 0 in
    while (not (a_active ())) && !tries < 200 do
      incr tries;
      Vtpm_util.Cost.charge cost 5_000.0;
      Supervisor.tick sup
    done
  in
  let do_migrate transfer =
    ensure_active ();
    incr attempts;
    hwms := Freshness.issued_hwm fa ~lineage :: !hwms;
    let r = Migration.migrate ~src:a.Host.mgr ~fresh:fa ~sup ~drain ~vtpm_id ~dest_key ~transfer () in
    (match r with
    | Error _ ->
        incr failed_attempts;
        (* Zero lost requests on failure requires the source back online. *)
        ensure_active ();
        if not (a_active ()) then incr bypass
    | Ok _ -> ());
    r
  in
  let transfer_corrupt stream =
    (* In-transit corruption from the seeded injector: the destination must
       refuse the envelope outright. *)
    let s = Vtpm_xen.Faults.corrupt a.Host.xen.Vtpm_xen.Hypervisor.faults stream in
    match receive_at_b s with
    | Ok id ->
        (* A corrupted stream must never install state. *)
        incr bypass;
        ignore (b_mgmt (Monitor.Migrate_abort { vtpm_id = id }));
        Ok ()
    | Error e -> Error ("destination rejected stream: " ^ e)
  in
  let transfer_crash stream =
    match receive_at_b stream with
    | Error e -> Error e
    | Ok id ->
        if b_active id then begin
          quarantine_held := false;
          incr bypass
        end;
        (* The destination crashes before its ack reaches the source; its
           quarantined copy is torn down, and the source must resume. *)
        ignore (b_mgmt (Monitor.Migrate_abort { vtpm_id = id }));
        Error "ack lost: destination crashed mid-import"
  in
  let b_id = ref None in
  let transfer_commit stream =
    match receive_at_b stream with
    | Error e -> Error e
    | Ok id ->
        if b_active id then begin
          quarantine_held := false;
          incr bypass
        end;
        b_id := Some id;
        committed_stream := Some stream;
        Ok ()
  in
  let run_migration () =
    ignore (do_migrate transfer_corrupt);
    ignore (do_migrate transfer_crash);
    (* The clean attempt retries through wedge chaos until it lands. *)
    let committed = ref false in
    let tries = ref 0 in
    while (not !committed) && !tries < 20 do
      incr tries;
      match do_migrate transfer_commit with
      | Ok (_ : Migration.handshake) -> committed := true
      | Error _ ->
          incr failed_attempts;
          Vtpm_util.Cost.charge cost 5_000.0;
          Supervisor.tick sup
    done;
    if not !committed then invalid_arg "migration drill: clean handshake never committed";
    (* The source copy is gone; its old channel must serve nothing. *)
    (match Manager.find a.Host.mgr vtpm_id with Ok _ -> incr bypass | Error _ -> ());
    (if Driver.queued_total backend = 0 then
       let ac = Host.guest_client a migrant in
       match Vtpm_tpm.Client.pcr_read ac ~pcr:10 with
       | Ok _ -> incr bypass
       | Error _ -> ()
       | exception Driver.Denied _ -> ());
    let id = match !b_id with Some id -> id | None -> invalid_arg "no dest instance" in
    (* Give the migrated instance a domain on B: rebind first (so the
       device node matches the binding when published), then connect. *)
    let domid =
      match
        Vtpm_xen.Hypervisor.create_domain b.Host.xen ~caller:Vtpm_xen.Hypervisor.dom0_id
          ~name:"migrant" ~label:"tenant_50" ()
      with
      | Ok d -> d
      | Error e -> invalid_arg ("B domain: " ^ e)
    in
    let dom = Vtpm_xen.Hypervisor.domain_exn b.Host.xen domid in
    Vtpm_xen.Domain.set_kernel dom ~image:"vmlinuz-5.x-tenant";
    (match Vtpm_xen.Hypervisor.unpause_domain b.Host.xen ~caller:Vtpm_xen.Hypervisor.dom0_id domid with
    | Ok () -> ()
    | Error e -> invalid_arg ("B unpause: " ^ e));
    (match b_mgmt (Monitor.Rebind { vtpm_id = id; new_domid = domid }) with
    | Ok _ -> ()
    | Error e -> invalid_arg ("B rebind: " ^ e));
    (match Manager.find b.Host.mgr id with
    | Ok inst -> Manager.bind_domid b.Host.mgr inst domid
    | Error _ -> ());
    (match
       Driver.publish_device ~xen:b.Host.xen ~fe:domid ~be:Vtpm_xen.Hypervisor.dom0_id ~instance:id
     with
    | Ok () -> ()
    | Error e -> invalid_arg ("B publish: " ^ e));
    let conn =
      match Driver.connect b.Host.backend ~fe_domid:domid with
      | Ok c -> c
      | Error e -> invalid_arg ("B connect: " ^ e)
    in
    let bc =
      Vtpm_tpm.Client.create ~seed:((domid * 7) + 13) (Driver.client_transport b.Host.backend conn)
    in
    (* Still quarantined: the import must serve nothing until activated. *)
    (match Vtpm_tpm.Client.pcr_read bc ~pcr:10 with
    | Ok _ -> incr bypass
    | Error _ -> ()
    | exception Driver.Denied _ -> ());
    (match b_mgmt (Monitor.Migrate_activate { vtpm_id = id }) with
    | Ok _ -> ()
    | Error e -> invalid_arg ("B activate: " ^ e));
    hwms := Freshness.issued_hwm fa ~lineage :: !hwms;
    bclient := Some bc;
    migrated := true
  in
  (* The migrant's post-migration traffic, served synchronously by B. *)
  let serve_on_b k =
    match !bclient with
    | None -> ()
    | Some c -> (
        if k mod 4 = 0 then
          match
            Vtpm_tpm.Client.extend c ~pcr:10 ~digest:(Vtpm_crypto.Sha1.digest (string_of_int (60_000 + k)))
          with
          | Ok _ -> incr migrant_good_b
          | Error _ -> ()
          | exception Driver.Denied _ -> ()
        else
          match Vtpm_tpm.Client.pcr_read c ~pcr:10 with
          | Ok _ -> incr migrant_good_b
          | Error _ -> ()
          | exception Driver.Denied _ -> ())
  in
  (* --- The discrete-event loop (the {!flood_run} pump). *)
  let i = ref 0 in
  let admit_due () =
    while
      !i < n
      &&
      let at, _, _, _, _ = arrivals.(!i) in
      at <= Vtpm_util.Cost.now cost
    do
      let at, g, wire, kind, k = arrivals.(!i) in
      incr i;
      if kind = 2 then incr migrant_sent;
      if kind = 2 && !migrated then serve_on_b k
      else
        match Driver.submit backend g.Host.conn ~wire ~arrival_us:at ~deadline_us () with
        | Ok () -> incr submitted
        | Error (Vtpm_util.Verror.Overloaded _) -> ()
        | Error e -> invalid_arg (Vtpm_util.Verror.to_string e)
    done
  in
  while !i < n || Driver.queued_total backend > 0 do
    (if Driver.queued_total backend = 0 then
       let at, _, _, _, _ = arrivals.(!i) in
       Vtpm_util.Cost.advance_to cost at);
    admit_due ();
    (* Trigger the handshake with the just-admitted backlog still queued,
       so the drain step has real in-flight work to serve. *)
    (if migrate && (not !migrated) && Vtpm_util.Cost.now cost >= t_mig then run_migration ());
    ignore (pump_round ())
  done;
  Manager.sync_lanes a.Host.mgr;
  (* --- End-of-run assertions' evidence. *)
  let lost_in_flight =
    !submitted - !serviced - Driver.shed_count backend - Driver.queued_total backend
  in
  let fresh_monotone =
    let rec strictly_increasing = function
      | x :: (y :: _ as rest) -> x < y && strictly_increasing rest
      | _ -> true
    in
    let seq = List.rev !hwms in
    (not !migrated)
    || (strictly_increasing seq && Freshness.last_seen fb ~lineage = Freshness.issued_hwm fa ~lineage)
  in
  let replay_blocked, replay_audited =
    match !committed_stream with
    | None -> (not migrate, not migrate)
    | Some stream ->
        let blocked =
          match b_mgmt (Monitor.Migrate_in { stream }) with Error _ -> true | Ok _ -> false
        in
        let audited =
          List.exists
            (fun (e : Audit.entry) ->
              (not e.Audit.allowed) && String.equal e.Audit.operation "mgmt:migrate-in")
            (Audit.entries mb.Monitor.audit)
        in
        (blocked, audited)
  in
  (match Vtpm_mgr.Hw_anchor.commit a.Host.mgr anchor_a ~data:(Audit.head ma.Monitor.audit) with
  | Ok _ -> ()
  | Error e -> invalid_arg ("anchor A commit: " ^ Vtpm_util.Verror.to_string e));
  (match Vtpm_mgr.Hw_anchor.commit b.Host.mgr anchor_b ~data:(Audit.head mb.Monitor.audit) with
  | Ok _ -> ()
  | Error e -> invalid_arg ("anchor B commit: " ^ Vtpm_util.Verror.to_string e));
  let anchor_src_ok = Anchor.verify_log anchor_a a.Host.mgr ma.Monitor.audit = Ok () in
  let anchor_dst_ok = Anchor.verify_log anchor_b b.Host.mgr mb.Monitor.audit = Ok () in
  victim_sent := victims * migrant_ops;
  let migrant_good = !migrant_good_a + !migrant_good_b in
  {
    md_flood_x = flood_x;
    md_migrated = !migrated;
    md_attempts = !attempts;
    md_failed_attempts = !failed_attempts;
    md_drained = !drained;
    md_migrant_sent = !migrant_sent;
    md_migrant_good = migrant_good;
    md_migrant_goodput_pct =
      (if !migrant_sent = 0 then 0.0
       else float_of_int migrant_good /. float_of_int !migrant_sent *. 100.0);
    md_victim_goodput_pct = float_of_int !victim_good /. float_of_int !victim_sent *. 100.0;
    md_lost_in_flight = lost_in_flight;
    md_bypass_windows = !bypass;
    md_quarantine_held = !quarantine_held;
    md_fresh_monotone = fresh_monotone;
    md_replay_blocked = replay_blocked;
    md_replay_audited = replay_audited;
    md_anchor_src_ok = anchor_src_ok;
    md_anchor_dst_ok = anchor_dst_ok;
  }

let render_migration_drill (d : migration_drill) =
  let b v = if v then "yes" else "NO" in
  Printf.sprintf
    "migration drill (%dx flood): %d attempts (%d failed), %d drained in handshake;\n\
     migrant goodput %.1f%% (%d/%d), victim goodput %.1f%%;\n\
     lost in-flight %d, bypass windows %d; quarantine held %s; freshness monotone %s;\n\
     replay blocked %s (audited %s); audit anchors src %s / dst %s\n"
    d.md_flood_x d.md_attempts d.md_failed_attempts d.md_drained d.md_migrant_goodput_pct
    d.md_migrant_good d.md_migrant_sent d.md_victim_goodput_pct d.md_lost_in_flight
    d.md_bypass_windows (b d.md_quarantine_held) (b d.md_fresh_monotone) (b d.md_replay_blocked)
    (b d.md_replay_audited) (b d.md_anchor_src_ok) (b d.md_anchor_dst_ok)

let table6 ?(flood_x = 10) () : migration_drill * string =
  let d = migration_drill ~flood_x ~seed:71 () in
  let yn v = if v then "yes" else "NO" in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 6: live migration under a %dx flood (2 victims, seeded faults; corrupted \
            stream, dest crash, then clean commit; seed 71)"
           flood_x)
      ~header:[ "invariant"; "value"; "required" ]
      ~rows:
        [
          [ "handshake attempts (failed)";
            Printf.sprintf "%d (%d)" d.md_attempts d.md_failed_attempts; "failures resume source" ];
          [ "in-flight drained (handshake)"; string_of_int d.md_drained; "-" ];
          [ "lost in-flight (conservation)"; string_of_int d.md_lost_in_flight; "0" ];
          [ "policy-bypass windows"; string_of_int d.md_bypass_windows; "0" ];
          [ "dest quarantine held"; yn d.md_quarantine_held; "yes" ];
          [ "freshness counters monotone"; yn d.md_fresh_monotone; "yes" ];
          [ "stream replay blocked"; yn d.md_replay_blocked; "yes" ];
          [ "replay audited at dest"; yn d.md_replay_audited; "yes" ];
          [ "audit anchor verifies (src)"; yn d.md_anchor_src_ok; "yes" ];
          [ "audit anchor verifies (dst)"; yn d.md_anchor_dst_ok; "yes" ];
          [ "migrant goodput"; Printf.sprintf "%.1f%%" d.md_migrant_goodput_pct; "bounded dip" ];
          [ "victim goodput"; Printf.sprintf "%.1f%%" d.md_victim_goodput_pct; "-" ];
        ]
  in
  (d, rendered)

let fig10 ?(flood_xs = [ 1; 2; 5; 10 ]) ?(migrant_ops = 120) () :
    (string * (float * float) list) list * string =
  let series_for migrate =
    List.map
      (fun x ->
        let d = migration_drill ~migrate ~flood_x:x ~migrant_ops ~seed:71 () in
        (float_of_int x, d.md_migrant_goodput_pct))
      flood_xs
  in
  let series =
    [ ("no-migration", series_for false); ("live-migration", series_for true) ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 10: migrant goodput (%%) vs attacker flood multiple, steady vs mid-run \
            live migration (%d ops, 3-attempt handshake)"
           migrant_ops)
      ~x_label:"flood x" ~series
  in
  (series, rendered)

(* table7/fig11: the adversarial interleaving fuzzer (PR 7). Table 7
   soaks the full stack on generated schedules and reports the
   per-adversary attempt/win matrix plus the invariant summary; figure
   11 sweeps the fraction of attack ops per schedule and tracks
   legitimate goodput against tamper detections — service degrades
   gracefully under attack pressure while every adversary stays at zero
   wins. *)

let table7 ?(traces = 150) ?(seed = 29) () : Vtpm_attacks.Fuzz.soak * string =
  let open Vtpm_attacks in
  let s = Fuzz.soak ~seed ~traces () in
  let wins k = match List.assoc_opt k s.Fuzz.sk_wins_by_kind with Some n -> n | None -> 0 in
  let rows =
    List.map
      (fun (kind, attempts) ->
        let w = wins kind in
        [ kind; string_of_int attempts; string_of_int (attempts - w); string_of_int w ])
      s.Fuzz.sk_attempts_by_kind
  in
  let summary =
    [
      [ "(invariant) bypass windows"; "-"; "-"; string_of_int s.Fuzz.sk_bypasses ];
      [ "(invariant) bundle violations"; "-"; "-";
        string_of_int (List.length s.Fuzz.sk_failures) ];
      [ "(evidence) tampers audited"; string_of_int s.Fuzz.sk_tampers; "-"; "-" ];
      [ "(evidence) audit rotations"; string_of_int s.Fuzz.sk_rotations; "-"; "-" ];
      [ "(evidence) migrations refused"; string_of_int s.Fuzz.sk_migrations; "-"; "-" ];
    ]
  in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 7: adversary matrix under interleaved soak (%d traces, %d ops, %d attack \
            ops; lanes+batching+index+guard cache+supervisor+freshness on; seed %d)"
           s.Fuzz.sk_traces s.Fuzz.sk_ops s.Fuzz.sk_attacks seed)
      ~header:[ "adversary"; "attempts"; "blocked"; "wins" ]
      ~rows:(rows @ summary)
  in
  (s, rendered)

let fig11 ?(attack_fracs = [ 0.0; 0.2; 0.4; 0.6; 0.8 ]) ?(traces = 40) ?(seed = 29) () :
    (string * (float * float) list) list * string * (float * Vtpm_attacks.Fuzz.soak) list =
  let open Vtpm_attacks in
  let soaks =
    List.map (fun f -> (f, Fuzz.soak ~seed ~attack_frac:f ~traces ())) attack_fracs
  in
  let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b in
  let series =
    [
      ( "legit goodput %",
        List.map (fun (f, s) -> (f, pct s.Fuzz.sk_served_ok s.Fuzz.sk_submitted)) soaks );
      ( "tampers per 100 ops",
        List.map (fun (f, s) -> (f, pct s.Fuzz.sk_tampers s.Fuzz.sk_ops)) soaks );
    ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 11: legitimate goodput vs attack-op fraction under the interleaving \
            fuzzer (%d traces per point, full stack on, seed %d)"
           traces seed)
      ~x_label:"attack fraction" ~series
  in
  (series, rendered, soaks)

(* --- table8 / fig12: the hardware-TPM fault domain (PR 8) --------------------

   Table 8 is the crash-consistency drill: power loss injected at every
   boundary of the two-op anchor commit, the service restarted over the
   durable journal, and the repair verified — the pass condition is zero
   torn anchors at every boundary, plus a fault storm (10x anchor flood
   under seeded hardware faults) that must end with the backlog caught up
   and the anchor verifying. Figure 12 measures why the catch-up is
   Merkle-batched: one NV-write/counter-bump pair anchoring a whole
   backlog vs one pair per entry. *)

let anchor_rig ~seed () =
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let mgr = host.Host.mgr in
  let ckpt = Vtpm_mgr.Checkpoint.create mgr in
  let anchor =
    match Anchor.setup mgr with
    | Ok a -> a
    | Error e -> invalid_arg ("anchor rig: " ^ Vtpm_util.Verror.to_string e)
  in
  let svc = Anchor.create ~ckpt mgr in
  Anchor.set_audit svc (Some m.Monitor.audit);
  (host, m, mgr, ckpt, anchor, svc)

type table8_row = {
  t8_boundary : string;
  t8_crashes : int;
  t8_repaired : int;  (** repairs that needed hardware work *)
  t8_completed : int;  (** both halves had already landed *)
  t8_torn : int;  (** journal residue or verify failure after recovery — must be 0 *)
  t8_verify_ok : bool;
}

let crash_boundaries =
  [
    (Anchor.Before_nv_write, "before-nv-write");
    (Anchor.After_nv_write, "after-nv-write");
    (Anchor.After_journal_update, "after-journal (torn window)");
    (Anchor.After_increment, "after-increment");
  ]

let torn_commit_drill ?(crashes = 3) ~seed (point, name) : table8_row =
  let _host, m, mgr, ckpt, anchor, svc0 = anchor_rig ~seed () in
  let audit = m.Monitor.audit in
  let svc = ref svc0 in
  let repaired = ref 0 and completed = ref 0 and torn = ref 0 in
  for i = 1 to crashes do
    Audit.append audit ~subject:"drill" ~operation:"measure" ~instance:None ~allowed:true
      ~reason:(Printf.sprintf "%s entry %d" name i);
    Anchor.set_power_loss_at !svc (Some point);
    (match Anchor.commit !svc anchor ~data:(Audit.head audit) with
    | exception Anchor.Power_loss _ -> ()
    | Ok _ | Error _ -> invalid_arg ("torn-commit drill: power loss did not fire at " ^ name));
    (* Manager restart: a fresh service incarnation over the same durable
       store (the chip already power-cycled under the drill). *)
    let svc2 = Anchor.create ~ckpt mgr in
    Anchor.set_audit svc2 (Some audit);
    (match Anchor.recover svc2 with
    | Error e -> invalid_arg ("torn-commit drill: recover: " ^ Vtpm_util.Verror.to_string e)
    | Ok rep ->
        repaired := !repaired + rep.Anchor.rp_repaired;
        completed := !completed + rep.Anchor.rp_completed);
    if Anchor.inflight svc2 <> 0 then incr torn;
    (match Anchor.verify_log anchor mgr ~svc:svc2 audit with Ok () -> () | Error _ -> incr torn);
    svc := svc2
  done;
  let verify_ok = Anchor.verify_log anchor mgr ~svc:!svc audit = Ok () in
  {
    t8_boundary = name;
    t8_crashes = crashes;
    t8_repaired = !repaired;
    t8_completed = !completed;
    t8_torn = !torn;
    t8_verify_ok = verify_ok;
  }

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

let anchor_storm ?(flood_x = 10) ?(commits = 40) ?(seed = 83) () : anchor_storm =
  let host, m, mgr, _ckpt, anchor, svc = anchor_rig ~seed () in
  let audit = m.Monitor.audit in
  let faults =
    Vtpm_xen.Faults.create ~seed:(seed + 17)
      ~rates:
        [
          (Vtpm_xen.Faults.Hw_busy, 0.25);
          (Vtpm_xen.Faults.Hw_stall, 0.06);
          (Vtpm_xen.Faults.Hw_power_loss, 0.03);
          (Vtpm_xen.Faults.Hw_nv_corrupt, 0.03);
          (Vtpm_xen.Faults.Hw_reset, 0.03);
        ]
      ()
  in
  Vtpm_mgr.Manager.set_hw_faults mgr (Some faults);
  let n = flood_x * commits in
  let committed = ref 0 and deferred = ref 0 and hard = ref 0 in
  for i = 1 to n do
    Audit.append audit ~subject:"storm" ~operation:"measure" ~instance:None ~allowed:true
      ~reason:(Printf.sprintf "op %d" i);
    match Anchor.commit svc anchor ~data:(Audit.head audit) with
    | Ok (Anchor.Committed _) -> incr committed
    | Ok (Anchor.Deferred _) -> incr deferred
    | Error _ -> incr hard
  done;
  (* Storm over: disarm the injector and let the breaker recover. *)
  Vtpm_mgr.Manager.set_hw_faults mgr None;
  let rounds = ref 0 in
  while Anchor.health svc = Anchor.Down && !rounds < 8 do
    incr rounds;
    Vtpm_util.Cost.charge (Host.cost host) Anchor.default_config.Anchor.cooldown_us;
    Anchor.tick svc
  done;
  (match Anchor.commit svc anchor ~data:(Audit.head audit) with
  | Ok (Anchor.Committed _) -> ()
  | Ok (Anchor.Deferred _) -> invalid_arg "anchor storm: final commit deferred after recovery"
  | Error e -> invalid_arg ("anchor storm: final commit: " ^ Vtpm_util.Verror.to_string e));
  let verify_ok = Anchor.verify_log anchor mgr ~svc audit = Ok () in
  let st = Anchor.stats svc in
  {
    as_commits = n;
    as_committed = !committed;
    as_deferred = !deferred;
    as_hard_errors = !hard;
    as_breaker_opens = st.Anchor.st_breaker_opens;
    as_retries = st.Anchor.st_retries;
    as_stalls = st.Anchor.st_stalls;
    as_power_cycles = mgr.Vtpm_mgr.Manager.hw_power_cycles;
    as_repairs = st.Anchor.st_repairs;
    as_catchup_batches = st.Anchor.st_catchup_batches;
    as_catchup_entries = st.Anchor.st_catchup_entries;
    as_recovery_us = st.Anchor.st_last_recovery_us;
    as_torn =
      Anchor.inflight svc + Anchor.queue_depth svc
      + (if verify_ok then 0 else 1);
    as_verify_ok = verify_ok;
  }

let table8 ?(crashes = 3) ?(flood_x = 10) ?(seed = 83) () :
    table8_row list * anchor_storm * string =
  let rows = List.map (torn_commit_drill ~crashes ~seed) crash_boundaries in
  let s = anchor_storm ~flood_x ~seed () in
  let yn v = if v then "yes" else "NO" in
  let drill_rows =
    List.map
      (fun r ->
        [
          "crash " ^ r.t8_boundary;
          string_of_int r.t8_crashes;
          Printf.sprintf "%d repaired / %d complete" r.t8_repaired r.t8_completed;
          string_of_int r.t8_torn;
          yn r.t8_verify_ok;
        ])
      rows
  in
  let storm_rows =
    [
      [ "storm: commits (committed/deferred)";
        Printf.sprintf "%d (%d/%d)" s.as_commits s.as_committed s.as_deferred; "-";
        string_of_int s.as_torn; yn s.as_verify_ok ];
      [ "storm: hard errors leaked"; string_of_int s.as_hard_errors; "-"; "-"; "-" ];
      [ "storm: retries / stalls / power cycles";
        Printf.sprintf "%d / %d / %d" s.as_retries s.as_stalls s.as_power_cycles; "-"; "-"; "-" ];
      [ "storm: breaker opens / torn repairs";
        Printf.sprintf "%d / %d" s.as_breaker_opens s.as_repairs; "-"; "-"; "-" ];
      [ "storm: catch-up (batches/entries)";
        Printf.sprintf "%d / %d" s.as_catchup_batches s.as_catchup_entries; "-"; "-"; "-" ];
      [ "storm: last recovery window";
        Printf.sprintf "%.1f ms" (s.as_recovery_us /. 1000.0); "-"; "-"; "-" ];
    ]
  in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 8: hardware-TPM fault domain — power loss at every commit boundary (%d \
            crashes each) and a %dx anchor fault storm (seed %d); torn anchors must be 0"
           crashes flood_x seed)
      ~header:[ "scenario"; "events"; "recovery"; "torn"; "anchor verifies" ]
      ~rows:(drill_rows @ storm_rows)
  in
  (rows, s, rendered)

type fig12_point = {
  f12_batch : int;
  f12_naive_us : float;  (** simulated time for one commit per entry *)
  f12_merkle_us : float;  (** simulated time for the batched catch-up *)
  f12_speedup : float;
  f12_proofs_ok : bool;  (** sampled inclusion proofs verify against the root *)
}

let fig12 ?(batches = [ 16; 64; 256; 1024 ]) ?(seed = 83) () : fig12_point list * string =
  let points =
    List.map
      (fun n ->
        let host, _m, _mgr, _ckpt, slot, svc = anchor_rig ~seed () in
        let cost = Host.cost host in
        let leaf i = Vtpm_crypto.Sha256.digest (Printf.sprintf "anchor-%d-%d" n i) in
        (* Naive: one NV write + counter bump per backlog entry. *)
        let t0 = Vtpm_util.Cost.now cost in
        for i = 1 to n do
          match Anchor.commit_sync svc slot ~data:(leaf i) with
          | Ok _ -> ()
          | Error e -> invalid_arg ("fig12 naive: " ^ Vtpm_util.Verror.to_string e)
        done;
        let naive_us = Vtpm_util.Cost.now cost -. t0 in
        (* Merkle: breaker open, the same backlog deferred, one batched
           catch-up commit anchoring the root. *)
        Anchor.force_down svc;
        for i = 1 to n do
          match Anchor.commit svc slot ~data:(leaf i) with
          | Ok (Anchor.Deferred _) -> ()
          | Ok (Anchor.Committed _) -> invalid_arg "fig12: commit not deferred while down"
          | Error e -> invalid_arg ("fig12 defer: " ^ Vtpm_util.Verror.to_string e)
        done;
        Vtpm_util.Cost.charge cost Anchor.default_config.Anchor.cooldown_us;
        let t1 = Vtpm_util.Cost.now cost in
        Anchor.tick svc;
        let merkle_us = Vtpm_util.Cost.now cost -. t1 in
        if Anchor.health svc = Anchor.Down then
          invalid_arg "fig12: catch-up did not recover the breaker";
        if Anchor.queue_depth svc <> 0 then invalid_arg "fig12: backlog not drained";
        let root =
          match Anchor.read_slot svc slot with
          | Ok (nv, _) -> nv
          | Error e -> invalid_arg ("fig12 read: " ^ Vtpm_util.Verror.to_string e)
        in
        let proofs_ok =
          List.for_all
            (fun i ->
              match Anchor.proof_for svc ~label:slot.Vtpm_mgr.Hw_anchor.label ~data:(leaf i) with
              | Some (r, p) -> String.equal r root && Merkle.verify ~root:r ~leaf:(leaf i) p
              | None -> false)
            [ 1; 1 + (n / 2); n ]
        in
        {
          f12_batch = n;
          f12_naive_us = naive_us;
          f12_merkle_us = merkle_us;
          f12_speedup = naive_us /. Float.max 1.0 merkle_us;
          f12_proofs_ok = proofs_ok;
        })
      batches
  in
  let per_sec us k = if us <= 0.0 then 0.0 else 1.0e6 *. float_of_int k /. us in
  let series =
    [
      ( "naive anchors/s",
        List.map (fun p -> (float_of_int p.f12_batch, per_sec p.f12_naive_us p.f12_batch)) points );
      ( "merkle anchors/s",
        List.map (fun p -> (float_of_int p.f12_batch, per_sec p.f12_merkle_us p.f12_batch)) points );
    ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 12: backlog catch-up throughput (anchors committed per simulated second), \
            naive per-entry vs one Merkle-batched commit with per-entry proofs (seed %d)"
           seed)
      ~x_label:"backlog size" ~series
  in
  (points, rendered)

(* --- fig13 / table9: lane placement and manager sharding (PR 9) --------------

   Figure 9's compiled index and generation cache cure the monitor's
   O(rules) residue, yet the curve still flatlines: every request pays
   the transport/audit residue on the one global meter, and the fixed
   hash pins each instance to [key mod lanes] forever, so hot instances
   pile onto cold lanes' neighbours while idle lanes stay idle. Figure 13
   re-runs fig9's best configuration (1024 guarded rules, index + gen
   cache, same hosts/seeds/op budget) across placement policies and the
   sharded manager: fixed-hash at the seed's 8 lanes, least-loaded with
   one lane per VM, and group-per-tenant shards (two lanes each) whose
   private frontends absorb the serial residue. *)

let fig13 ?(vm_counts = [ 8; 16; 32; 64; 128; 256 ]) ?(rules = 1024) ?(fixed_lanes = 8)
    ?(total_ops = 1920) () : (string * (float * float) list) list * string =
  let series_for configure =
    vm_sweep ~vm_counts ~total_ops ~seed_base:50 ~mix:Workload.mixed
      ~configure:(fun host n ->
        guarded_policy host ~rules ~charge:Monitor.Index_charge ~guard_cache:true;
        configure host n)
      ()
  in
  let fixed host _n = Vtpm_mgr.Manager.set_lanes host.Host.mgr fixed_lanes in
  let least_loaded host n =
    Vtpm_mgr.Manager.set_lanes ~placement:Vtpm_util.Cost.Lanes.Least_loaded host.Host.mgr n
  in
  let sharded host _n = ignore (Host.enable_sharding host ()) in
  let series =
    [
      (Printf.sprintf "fixed-hash %d-lane" fixed_lanes, series_for fixed);
      ("least-loaded", series_for least_loaded);
      ("sharded", series_for sharded);
    ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 13: aggregate vTPM throughput (simulated ops/s) vs number of VMs by lane \
            placement, %d-rule guarded policy with index + gen-cache (improved mode)"
           rules)
      ~x_label:"vms" ~series
  in
  (series, rendered)

(* --- table9: tenant isolation under a cross-group flood ----------------------

   The sharded counterpart of table5: one tenant floods its own vTPM at
   [flood_x] times a victim's rate, with no quota and no admission
   control — the single-manager host lets the flood serialize on the
   global meter and the victims' goodput collapses; the sharded host
   confines the flood to the noisy group's own lanes and frontend, so
   the quiet group never sees it. A per-group quota on the noisy group
   additionally caps how much of its own lanes the flooder may burn. *)

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

let shard_drill ~sharded ~flood_x ?(victims = 3) ?(victim_period_us = 3_000.0)
    ?(victim_ops = 200) ?(deadline_us = 10_000.0) ?group_quota_rate ~seed () : table9_row =
  let open Vtpm_mgr in
  let host = Host.create ~mode:Host.Improved_mode ~seed ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  let cost = Host.cost host in
  Monitor.set_audit_cap m (Some 4096);
  let victim_guests =
    List.init victims (fun i ->
        Host.create_guest_exn host
          ~name:(Printf.sprintf "victim%d" i)
          ~label:(Printf.sprintf "tenant_%02d" i) ())
  in
  let attacker = Host.create_guest_exn host ~name:"flooder" ~label:"tenant_99" () in
  if sharded then begin
    let registry =
      Host.enable_sharding host
        ~group_of:(fun (g : Host.guest) ->
          if g.Host.domid = attacker.Host.domid then "noisy" else "quiet")
        ()
    in
    match group_quota_rate with
    | None -> ()
    | Some rate -> (
        match Group.find_label registry "noisy" with
        | Some s -> Monitor.set_group_quota m ~group_id:s.Group.group_id ~rate_per_s:rate ~burst:30.0
        | None -> invalid_arg "shard_drill: noisy group missing")
  end;
  let extend_wire i =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 10; digest = Vtpm_crypto.Sha1.digest (string_of_int i) })
  in
  let read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 10 }) in
  let t0 = Vtpm_util.Cost.now cost in
  let arrivals =
    let victim_stream i (g : Host.guest) =
      List.init victim_ops (fun k ->
          let at =
            t0
            +. (victim_period_us *. float_of_int (i + 1) /. float_of_int (victims + 1))
            +. (victim_period_us *. float_of_int k)
          in
          (at, g, (if k mod 4 = 0 then extend_wire ((i * victim_ops) + k) else read_wire), false))
    in
    let attacker_stream =
      let period = victim_period_us /. float_of_int flood_x in
      List.init (victim_ops * flood_x) (fun k ->
          (t0 +. 50.0 +. (period *. float_of_int k), attacker, extend_wire (100_000 + k), true))
    in
    List.concat (attacker_stream :: List.mapi victim_stream victim_guests)
    |> List.stable_sort (fun (a, g1, _, _) (b, g2, _, _) ->
           match Float.compare a b with
           | 0 -> Stdlib.compare g1.Host.domid g2.Host.domid
           | c -> c)
    |> Array.of_list
  in
  let n = Array.length arrivals in
  let backend = host.Host.backend in
  let vm = Metrics.create () in
  let victim_good = ref 0 in
  let attacker_served = ref 0 and attacker_rejected = ref 0 in
  let i = ref 0 in
  let admit_due () =
    while
      !i < n
      &&
      let at, _, _, _ = arrivals.(!i) in
      at <= Vtpm_util.Cost.now cost
    do
      let at, g, wire, _ = arrivals.(!i) in
      incr i;
      match Driver.submit backend g.Host.conn ~wire ~arrival_us:at ~deadline_us () with
      | Ok () -> ()
      | Error e -> invalid_arg (Vtpm_util.Verror.to_string e)
    done
  in
  while !i < n || Driver.queued_total backend > 0 do
    (if Driver.queued_total backend = 0 then
       let at, _, _, _ = arrivals.(!i) in
       Vtpm_util.Cost.advance_to cost at);
    admit_due ();
    match Driver.pump_batch backend with
    | `Idle -> ()
    | `Served served ->
        List.iter
          (fun (s : Driver.serviced) ->
            let latency = s.Driver.s_done_us -. s.Driver.s_arrival_us in
            let ok =
              match s.Driver.s_outcome with
              | Ok o -> o.Driver.status = Proto.Ok_routed
              | Error _ -> false
            in
            if s.Driver.s_domid = attacker.Host.domid then begin
              if ok then incr attacker_served else incr attacker_rejected
            end
            else begin
              Metrics.add vm latency;
              if ok && latency <= deadline_us then incr victim_good
            end)
          served
  done;
  Manager.sync_lanes host.Host.mgr;
  let victim_sent = victims * victim_ops in
  {
    t9_config =
      (if not sharded then "single-manager"
       else if group_quota_rate <> None then "sharded+group-quota"
       else "sharded");
    t9_flood_x = flood_x;
    t9_victim_sent = victim_sent;
    t9_victim_good = !victim_good;
    t9_victim_goodput_pct = float_of_int !victim_good /. float_of_int victim_sent *. 100.0;
    t9_victim_p99_us = (Metrics.summarize vm).Metrics.p99;
    t9_attacker_served = !attacker_served;
    t9_attacker_rejected = !attacker_rejected;
  }

let table9 ?(flood_x = 10) ?(victim_ops = 200) () : table9_row list * string =
  let rows =
    [
      shard_drill ~sharded:false ~flood_x ~victim_ops ~seed:61 ();
      shard_drill ~sharded:true ~flood_x ~victim_ops ~seed:61 ();
      shard_drill ~sharded:true ~flood_x ~victim_ops ~group_quota_rate:400.0 ~seed:61 ();
    ]
  in
  let rendered =
    Table.render
      ~title:
        (Printf.sprintf
           "Table 9: victim-group goodput under a %dx cross-group flood (3 victims, %d ops \
            each, 10 ms deadline, seed 61)"
           flood_x victim_ops)
      ~header:
        [
          "config";
          "victim sent";
          "victim good";
          "goodput %";
          "victim p99 (us)";
          "attacker served";
          "attacker rejected";
        ]
      ~rows:
        (List.map
           (fun r ->
             [
             r.t9_config;
             string_of_int r.t9_victim_sent;
             string_of_int r.t9_victim_good;
             Printf.sprintf "%.1f" r.t9_victim_goodput_pct;
             Printf.sprintf "%.0f" r.t9_victim_p99_us;
             string_of_int r.t9_attacker_served;
             string_of_int r.t9_attacker_rejected;
           ])
         rows)
  in
  (rows, rendered)

(* --- fig14: quote-path throughput before/after the crypto overhaul (PR 10) --

   Everything before this point prices TPM_Quote at the 2010-era model
   constant, so the figures say nothing about what the Montgomery/CRT
   signer and word-level SHA actually buy a deployment. Figure 14 re-runs
   the attestation-heavy mix on fig13's best host (guarded policy with
   index + gen-cache, group shards) under the three quote-cost profiles:
   the 2010 model (38 ms per quote), the container-measured schoolbook
   signer (~3.4 ms), and the container-measured Montgomery/CRT signer
   (~0.34 ms). Only the hosts' quote profile differs between series;
   seeds and op budgets are identical, so the spread between curves is
   exactly the signature cost's share of the quote path. *)

let fig14 ?(vm_counts = [ 8; 16; 32; 64; 128; 256 ]) ?(rules = 1024) ?(total_ops = 1920) ()
    : (string * (float * float) list) list * string =
  let series_for quote_profile =
    vm_sweep ~quote_profile ~vm_counts ~total_ops ~seed_base:70 ~mix:Workload.attestation_heavy
      ~configure:(fun host _ ->
        guarded_policy host ~rules ~charge:Monitor.Index_charge ~guard_cache:true;
        ignore (Host.enable_sharding host ()))
      ()
  in
  let series =
    List.map
      (fun p -> (Vtpm_util.Cost.quote_profile_name p, series_for p))
      [
        Vtpm_util.Cost.Quote_model_2010;
        Vtpm_util.Cost.Quote_measured_schoolbook;
        Vtpm_util.Cost.Quote_measured;
      ]
  in
  let rendered =
    Table.render_series
      ~title:
        (Printf.sprintf
           "Figure 14: attestation-heavy throughput (simulated ops/s) vs number of VMs by \
            quote-cost profile, %d-rule guarded policy, sharded host"
           rules)
      ~x_label:"vms" ~series
  in
  (series, rendered)

(* --- The figure registry --------------------------------------------------------

   Every table and figure declared once: its printed text, its JSON
   record, its named checks and any host-time values. The bench, the
   freeze test and CI all iterate [registry]. *)

type result = {
  text : string list;
  checks : (string * bool) list;
  record : (string * Json.t) list;
  host : (string * Json.t) list;
}

type entry = { name : string; run : unit -> result }

let check_lines ~label ~width checks =
  String.concat "\n"
    (List.map
       (fun (name, ok) -> Printf.sprintf "%s check %-*s %s" label width name (if ok then "PASS" else "FAIL"))
       checks)

let plain text = { text; checks = []; record = []; host = [] }
let entry name text = { name; run = (fun () -> plain (text ())) }

let series_json ?(digits = 1) series =
  Json.Obj
    (List.map
       (fun (name, points) ->
         (name, Json.List (List.map (fun (x, y) -> Json.List [ Json.Float x; Json.fixed digits y ]) points)))
       series)

let figure_record name ~unit ~x_label series =
  [
    ("figure", Json.String name);
    ("unit", Json.String unit);
    ("x_label", Json.String x_label);
    ("series", series);
  ]

(* y(series b) / y(series a) at x, when both exist and a's is positive. *)
let series_ratio series ~a ~b x =
  match (List.assoc_opt a series, List.assoc_opt b series) with
  | Some sa, Some sb -> (
      match (List.assoc_opt x sa, List.assoc_opt x sb) with
      | Some ya, Some yb when ya > 0.0 -> yb /. ya
      | _ -> Float.nan)
  | _ -> Float.nan

let table2_text () =
  let battery mode = Vtpm_attacks.Attack.run_battery ~mode in
  let cell (o : Vtpm_attacks.Attack.outcome) = if o.succeeded then "RETRIEVED" else "blocked" in
  Table.render
    ~title:"Table 2: attack outcomes, baseline vs improved (RETRIEVED = attacker wins)"
    ~header:[ "attack"; "baseline"; "improved"; "improved detail" ]
    ~rows:
      (List.map2
         (fun (b : Vtpm_attacks.Attack.outcome) (i : Vtpm_attacks.Attack.outcome) ->
           [ b.attack; cell b; cell i; i.detail ])
         (battery Host.Baseline_mode) (battery Host.Improved_mode))

let run_fig8 () =
  let series, rendered = fig8 () in
  {
    (plain [ rendered ]) with
    record =
      figure_record "fig8" ~unit:"simulated ops/s" ~x_label:"vms" (series_json series)
      @ [
          ( "speedup_8lane_vs_1lane_at_32_vms",
            Json.fixed 2 (series_ratio series ~a:"1-lane" ~b:"8-lane" 32.0) );
        ];
  }

let run_fig9 () =
  let series, rendered = fig9 () in
  let fig2_series, fig2_rendered = fig2 ~include_compiled:true () in
  {
    (plain [ rendered; "fig2 with the compiled-index series (simulated us)\n" ^ fig2_rendered ]) with
    record =
      figure_record "fig9" ~unit:"simulated ops/s" ~x_label:"vms" (series_json ~digits:2 series)
      @ [
          ( "speedup_gen_cache_vs_linear_at_32_vms",
            Json.fixed 2 (series_ratio series ~a:"linear" ~b:"indexed+gen-cache" 32.0) );
          ( "fig2_compiled",
            Json.Obj
              [
                ("unit", Json.String "simulated us");
                ("x_label", Json.String "rules");
                ("series", series_json ~digits:2 fig2_series);
              ] );
        ];
  }

let run_fig10 () =
  let series, rendered = fig10 () in
  let d, table6_rendered = table6 () in
  let checks =
    [
      ("zero_lost_in_flight", d.md_lost_in_flight = 0);
      ("zero_bypass_windows", d.md_bypass_windows = 0);
      ("quarantine_held", d.md_quarantine_held);
      ("freshness_monotone", d.md_fresh_monotone);
      ("replay_blocked", d.md_replay_blocked);
      ("replay_audited", d.md_replay_audited);
      ("anchor_src_ok", d.md_anchor_src_ok);
      ("anchor_dst_ok", d.md_anchor_dst_ok);
      ("source_resumed_on_failures", d.md_failed_attempts >= 2);
    ]
  in
  (* The two rollback/replay attack rows, both modes. *)
  let attacks =
    List.map
      (fun (name, attack) ->
        let won mode =
          (attack (Vtpm_attacks.Attack.setup ~mode ~seed:53 ()) : Vtpm_attacks.Attack.outcome)
            .succeeded
        in
        (name, won Host.Baseline_mode, won Host.Improved_mode))
      [
        ("rollback-replay", Vtpm_attacks.Attack.rollback_replay);
        ("stale-quote-replay", Vtpm_attacks.Attack.stale_quote_replay);
      ]
  in
  let outcome won = if won then "RETRIEVED" else "blocked" in
  let attack_lines =
    List.map
      (fun (name, b, i) ->
        Printf.sprintf "attack %-20s baseline %s, improved %s" name (outcome b) (outcome i))
      attacks
  in
  {
    text =
      [
        rendered;
        table6_rendered;
        String.concat "\n" (check_lines ~label:"drill" ~width:28 checks :: attack_lines);
      ];
    checks;
    record =
      figure_record "fig10" ~unit:"migrant goodput %" ~x_label:"flood x" (series_json series)
      @ [
          ( "drill",
            Json.Obj
              [
                ("flood_x", Json.Int d.md_flood_x);
                ("attempts", Json.Int d.md_attempts);
                ("failed_attempts", Json.Int d.md_failed_attempts);
                ("drained", Json.Int d.md_drained);
                ("lost_in_flight", Json.Int d.md_lost_in_flight);
                ("bypass_windows", Json.Int d.md_bypass_windows);
                ("migrant_goodput_pct", Json.fixed 1 d.md_migrant_goodput_pct);
                ("victim_goodput_pct", Json.fixed 1 d.md_victim_goodput_pct);
              ] );
          ( "attacks",
            Json.Obj
              (List.map
                 (fun (name, b, i) ->
                   ( name,
                     Json.Obj [ ("baseline_retrieved", Json.Bool b); ("improved_retrieved", Json.Bool i) ]
                   ))
                 attacks) );
        ];
    host = [];
  }

let run_table7 () =
  let s, rendered = table7 () in
  { (plain [ rendered ]) with checks = [ ("zero_bundle_violations", s.Vtpm_attacks.Fuzz.sk_failures = []) ] }

(* fig11 adds the headline soak: >= 1000 seeded deterministic traces, the
   full invariant bundle asserted after every one. Its CPU time is the
   one host-time value. *)
let run_fig11 () =
  let open Vtpm_attacks in
  let series, rendered, sweep = fig11 () in
  let t0 = Sys.time () in
  let soak = Fuzz.soak ~seed:71 ~traces:1000 () in
  let cpu_s = Sys.time () -. t0 in
  let sweep_failures = List.concat_map (fun (_, s) -> s.Fuzz.sk_failures) sweep in
  let sweep_traces = List.fold_left (fun a (_, s) -> a + s.Fuzz.sk_traces) 0 sweep in
  let wins_total = List.fold_left (fun a (_, n) -> a + n) 0 soak.Fuzz.sk_wins_by_kind in
  let checks =
    [
      ("soak_traces_at_least_1000", soak.Fuzz.sk_traces >= 1000);
      ("zero_bundle_violations", soak.Fuzz.sk_failures = [] && sweep_failures = []);
      ("zero_bypass_windows", soak.Fuzz.sk_bypasses = 0);
      ("zero_adversary_wins", wins_total = 0);
      ("every_adversary_exercised", List.length soak.Fuzz.sk_attempts_by_kind >= 7);
      ("tampers_detected_and_audited", soak.Fuzz.sk_tampers > 0);
      ("migrations_attempted", soak.Fuzz.sk_migrations > 0);
      ("audit_rotation_survived", soak.Fuzz.sk_rotations > 0);
      ("requests_conserved", soak.Fuzz.sk_served_ok <= soak.Fuzz.sk_submitted);
    ]
  in
  let soak_line =
    Printf.sprintf "soak: %d traces (%d ops, %d attack ops) in %.1fs cpu (%.2fs/trace)"
      soak.Fuzz.sk_traces soak.Fuzz.sk_ops soak.Fuzz.sk_attacks cpu_s
      (cpu_s /. float_of_int (max 1 soak.Fuzz.sk_traces))
  in
  {
    text = [ rendered; String.concat "\n" [ soak_line; check_lines ~label:"fuzz" ~width:30 checks ] ];
    checks;
    record =
      figure_record "fig11" ~unit:"percent" ~x_label:"attack-op fraction" (series_json series)
      @ [
          ( "soak",
            Json.Obj
              [
                ("traces", Json.Int soak.Fuzz.sk_traces);
                ("sweep_traces", Json.Int sweep_traces);
                ("ops", Json.Int soak.Fuzz.sk_ops);
                ("submitted", Json.Int soak.Fuzz.sk_submitted);
                ("served_ok", Json.Int soak.Fuzz.sk_served_ok);
                ("attack_ops", Json.Int soak.Fuzz.sk_attacks);
                ("bypasses", Json.Int soak.Fuzz.sk_bypasses);
                ("tampers", Json.Int soak.Fuzz.sk_tampers);
                ("migrations", Json.Int soak.Fuzz.sk_migrations);
                ("rotations", Json.Int soak.Fuzz.sk_rotations);
                ( "violations",
                  Json.Int (List.length soak.Fuzz.sk_failures + List.length sweep_failures) );
                ( "attempts_by_kind",
                  Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) soak.Fuzz.sk_attempts_by_kind) );
                ("wins_total", Json.Int wins_total);
              ] );
        ];
    host = [ ("soak_cpu_s", Json.fixed 2 cpu_s) ];
  }

let storm_checks rows storm =
  [
    ("zero_torn_anchors_boundary_drill", List.for_all (fun r -> r.t8_torn = 0) rows);
    ("zero_torn_anchors_fault_storm", storm.as_torn = 0);
    ("anchor_verifies_after_recovery", List.for_all (fun r -> r.t8_verify_ok) rows && storm.as_verify_ok);
  ]

let run_table8 () =
  let rows, storm, rendered = table8 () in
  { (plain [ rendered ]) with checks = storm_checks rows storm }

let run_fig12 () =
  let points, rendered = fig12 () in
  let rows, storm, _ = table8 () in
  let checks =
    storm_checks rows storm
    @ [
        ("no_hard_errors_leaked", storm.as_hard_errors = 0);
        ("storm_actually_stormed", storm.as_deferred > 0 && storm.as_breaker_opens > 0);
        ("chip_power_cycled_under_storm", storm.as_power_cycles > 0);
        ("backlog_caught_up_batched", storm.as_catchup_entries > 0);
        ("merkle_speedup_at_least_10x", List.for_all (fun p -> p.f12_speedup >= 10.0) points);
        ("inclusion_proofs_verify", List.for_all (fun p -> p.f12_proofs_ok) points);
      ]
  in
  let s = storm in
  {
    text = [ rendered; check_lines ~label:"anchor" ~width:32 checks ];
    checks;
    record =
      figure_record "fig12" ~unit:"anchors per simulated second" ~x_label:"backlog size"
        (Json.List
           (List.map
              (fun p ->
                Json.Obj
                  [
                    ("batch", Json.Int p.f12_batch);
                    ("naive_us", Json.fixed 1 p.f12_naive_us);
                    ("merkle_us", Json.fixed 1 p.f12_merkle_us);
                    ("speedup", Json.fixed 1 p.f12_speedup);
                    ("proofs_ok", Json.Bool p.f12_proofs_ok);
                  ])
              points))
      @ [
          ( "table8",
            Json.Obj
              [
                ( "boundaries",
                  Json.List
                    (List.map
                       (fun r ->
                         Json.Obj
                           [
                             ("boundary", Json.String r.t8_boundary);
                             ("crashes", Json.Int r.t8_crashes);
                             ("repaired", Json.Int r.t8_repaired);
                             ("completed", Json.Int r.t8_completed);
                             ("torn", Json.Int r.t8_torn);
                             ("verify_ok", Json.Bool r.t8_verify_ok);
                           ])
                       rows) );
                ( "storm",
                  Json.Obj
                    [
                      ("commits", Json.Int s.as_commits);
                      ("committed", Json.Int s.as_committed);
                      ("deferred", Json.Int s.as_deferred);
                      ("hard_errors", Json.Int s.as_hard_errors);
                      ("breaker_opens", Json.Int s.as_breaker_opens);
                      ("retries", Json.Int s.as_retries);
                      ("stalls", Json.Int s.as_stalls);
                      ("power_cycles", Json.Int s.as_power_cycles);
                      ("repairs", Json.Int s.as_repairs);
                      ("catchup_batches", Json.Int s.as_catchup_batches);
                      ("catchup_entries", Json.Int s.as_catchup_entries);
                      ("recovery_us", Json.fixed 1 s.as_recovery_us);
                      ("torn", Json.Int s.as_torn);
                      ("verify_ok", Json.Bool s.as_verify_ok);
                    ] );
              ] );
        ];
    host = [];
  }

(* The acceptance checks: >= 3x fixed-hash at 64 VMs, the sharded curve
   still rising at 256 VMs, 100% victim-group goodput under a 10x
   cross-group flood. *)
let run_fig13 () =
  let series, rendered = fig13 () in
  let rows, table9_rendered = table9 () in
  let vs_fixed name = series_ratio series ~a:"fixed-hash 8-lane" ~b:name 64.0 in
  let ll_64 = vs_fixed "least-loaded" and sh_64 = vs_fixed "sharded" in
  let row name = List.find_opt (fun r -> r.t9_config = name) rows in
  let checks =
    [
      ("placement_3x_fixed_at_64_vms", ll_64 >= 3.0 || sh_64 >= 3.0);
      ( "sharded_rising_at_256_vms",
        match List.assoc_opt "sharded" series with
        | Some s -> (
            match (List.assoc_opt 128.0 s, List.assoc_opt 256.0 s) with
            | Some a, Some b -> b > a
            | _ -> false)
        | None -> false );
      ( "sharded_victim_goodput_100pct",
        match row "sharded" with Some r -> r.t9_victim_goodput_pct >= 100.0 | None -> false );
      ( "group_quota_caps_flooder",
        match row "sharded+group-quota" with
        | Some r -> r.t9_attacker_rejected > 0 && r.t9_victim_goodput_pct >= 100.0
        | None -> false );
    ]
  in
  {
    text = [ rendered; table9_rendered; check_lines ~label:"shard" ~width:32 checks ];
    checks;
    record =
      figure_record "fig13" ~unit:"simulated ops/s" ~x_label:"vms" (series_json series)
      @ [
          ("least_loaded_vs_fixed_at_64_vms", Json.fixed 2 ll_64);
          ("sharded_vs_fixed_at_64_vms", Json.fixed 2 sh_64);
          ( "table9",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("config", Json.String r.t9_config);
                       ("flood_x", Json.Int r.t9_flood_x);
                       ("victim_sent", Json.Int r.t9_victim_sent);
                       ("victim_good", Json.Int r.t9_victim_good);
                       ("victim_goodput_pct", Json.fixed 1 r.t9_victim_goodput_pct);
                       ("victim_p99_us", Json.fixed 1 r.t9_victim_p99_us);
                       ("attacker_served", Json.Int r.t9_attacker_served);
                       ("attacker_rejected", Json.Int r.t9_attacker_rejected);
                     ])
                 rows) );
        ];
    host = [];
  }

(* fig14's deterministic half: the quote-path series and the derived cost
   constants. The bench adds the same-process crypto micros and prints
   every check after them. *)
let run_fig14 () =
  let series, rendered = fig14 () in
  let at64 a b = series_ratio series ~a ~b 64.0 in
  let module C = Vtpm_util.Cost in
  {
    text = [ rendered ];
    checks =
      [
        ("rsa512_sign_ge_10x_vs_recorded_cost_constants", C.rsa_sign_schoolbook_us /. C.rsa_sign_us >= 10.0);
        (* The derived constant must still equal the seed's hand-waved one,
           or every pre-existing figure silently shifts. *)
        ("tpm_quote_us_derivation_exact", C.tpm_quote_us = 38_000.0);
        ("fig14_measured_crt_beats_schoolbook", at64 "measured-schoolbook" "measured-crt" > 1.0);
        ("fig14_measured_beats_2010_model", at64 "model-2010" "measured-crt" > 1.0);
      ];
    record =
      figure_record "fig14" ~unit:"simulated ops/s" ~x_label:"vms" (series_json series)
      @ [
          ( "fig14_throughput_x_measured_crt_vs_schoolbook_at_64_vms",
            Json.fixed 2 (at64 "measured-schoolbook" "measured-crt") );
          ( "cost_constants_us",
            Json.Obj
              [
                ("rsa_sign_schoolbook_us", Json.fixed 1 C.rsa_sign_schoolbook_us);
                ("rsa_sign_us", Json.fixed 1 C.rsa_sign_us);
                ("sha_block_us", Json.fixed 2 C.sha_block_us);
                ("quote_hw_scale_2010", Json.fixed 1 C.quote_hw_scale_2010);
                ("quote_digest_overhead_us", Json.fixed 1 C.quote_digest_overhead_us);
                ("tpm_quote_us", Json.fixed 1 C.tpm_quote_us);
              ] );
        ];
    host = [];
  }

let registry =
  [
    entry "table1" (fun () -> [ snd (table1 ()) ]);
    entry "table2" (fun () -> [ table2_text () ]);
    entry "table3" (fun () -> [ snd (table3 ()) ]);
    entry "table4" (fun () -> [ snd (table4 ()) ]);
    entry "table5" (fun () -> [ snd (table5 ()); render_wedge_drill (wedge_drill ~seed:97 ()) ]);
    entry "table6" (fun () ->
        let d, rendered = table6 () in
        [ rendered; render_migration_drill d ]);
    entry "fig1" (fun () -> [ snd (fig1 ()) ]);
    entry "fig2" (fun () -> [ snd (fig2 ()) ]);
    entry "fig3" (fun () -> [ snd (fig3 ()) ]);
    entry "fig4" (fun () -> [ snd (fig4 ()) ]);
    entry "fig5" (fun () -> [ snd (fig5 ()) ]);
    entry "fig6" (fun () -> [ snd (fig6 ()) ]);
    entry "fig7" (fun () -> [ snd (fig7 ()) ]);
    { name = "fig8"; run = run_fig8 };
    { name = "fig9"; run = run_fig9 };
    { name = "fig10"; run = run_fig10 };
    { name = "table7"; run = run_table7 };
    { name = "fig11"; run = run_fig11 };
    { name = "table8"; run = run_table8 };
    { name = "fig12"; run = run_fig12 };
    entry "table9" (fun () -> [ snd (table9 ()) ]);
    { name = "fig13"; run = run_fig13 };
    { name = "fig14"; run = run_fig14 };
  ]
