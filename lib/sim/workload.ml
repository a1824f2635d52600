(* Workload generation: weighted operation mixes over a set of tenants,
   measured in simulated time. *)

open Vtpm_access

type mix = (Tenant.op * int) list (* op, weight *)

(* The three mixes the evaluation uses. *)

(* Attestation-heavy: remote-attestation service, frequent quotes. *)
let attestation_heavy : mix =
  [
    (Tenant.Op_extend, 20);
    (Tenant.Op_pcr_read, 25);
    (Tenant.Op_quote, 30);
    (Tenant.Op_random, 15);
    (Tenant.Op_sign, 10);
  ]

(* Sealing-heavy: key-escrow / disk-key style usage. *)
let sealing_heavy : mix =
  [
    (Tenant.Op_seal, 30);
    (Tenant.Op_unseal, 30);
    (Tenant.Op_pcr_read, 15);
    (Tenant.Op_extend, 15);
    (Tenant.Op_random, 10);
  ]

(* Mixed cloud-tenant workload (the default). *)
let mixed : mix =
  [
    (Tenant.Op_extend, 25);
    (Tenant.Op_pcr_read, 30);
    (Tenant.Op_random, 15);
    (Tenant.Op_seal, 10);
    (Tenant.Op_unseal, 10);
    (Tenant.Op_quote, 5);
    (Tenant.Op_sign, 5);
  ]

let mix_name m =
  if m == attestation_heavy then "attestation-heavy"
  else if m == sealing_heavy then "sealing-heavy"
  else "mixed"

let pick_op rng (mix : mix) : Tenant.op =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
  let roll = Vtpm_util.Rng.int rng total in
  let rec go acc = function
    | [] -> invalid_arg "empty mix"
    | (op, w) :: rest -> if roll < acc + w then op else go (acc + w) rest
  in
  go 0 mix

type result = {
  per_op : (Tenant.op * Metrics.summary) list;
  overall : Metrics.summary;
  all_metrics : Metrics.t;
  ops_run : int;
  failures : int;
  elapsed_us : float; (* simulated *)
  throughput_ops_s : float; (* simulated ops/sec *)
}

(* Run [ops_per_tenant] operations round-robin across [tenants], drawing
   each op from [mix]. Latency = simulated time consumed by the op. *)
let run (host : Host.t) ~(tenants : Tenant.t list) ~(mix : mix) ~(ops_per_tenant : int)
    ?(seed = 42) () : result =
  let rng = Vtpm_util.Rng.create ~seed in
  let cost = Host.cost host in
  let per_op = List.map (fun op -> (op, Metrics.create ())) Tenant.all_ops in
  let all = Metrics.create () in
  let failures = ref 0 in
  let ops_run = ref 0 in
  let t_start = Vtpm_util.Cost.now cost in
  for _round = 1 to ops_per_tenant do
    List.iter
      (fun tenant ->
        let op = pick_op rng mix in
        let t0 = Vtpm_util.Cost.now cost in
        (match Tenant.run_op tenant op with
        | Ok () -> ()
        | Error _ -> incr failures
        | exception Vtpm_mgr.Driver.Denied _ -> incr failures);
        let dt = Vtpm_util.Cost.now cost -. t0 in
        incr ops_run;
        Metrics.add all dt;
        Metrics.add (List.assoc op per_op) dt)
      tenants
  done;
  (* Drain the manager's execution lanes before reading elapsed time:
     with several lanes the meter trails the busiest lane, and elapsed
     must be the max over lanes. No-op with a single lane. *)
  Vtpm_mgr.Manager.sync_lanes host.Host.mgr;
  let elapsed_us = Vtpm_util.Cost.now cost -. t_start in
  {
    per_op = List.map (fun (op, m) -> (op, Metrics.summarize m)) per_op;
    overall = Metrics.summarize all;
    all_metrics = all;
    ops_run = !ops_run;
    failures = !failures;
    elapsed_us;
    throughput_ops_s =
      (if elapsed_us > 0.0 then float_of_int !ops_run /. (elapsed_us /. 1_000_000.0) else 0.0);
  }

(* Run [total_ops] operations with tenants chosen by the Xen credit
   scheduler instead of round-robin: each tenant's share of vTPM service
   follows its CPU weight. Returns per-tenant simulated service time,
   which the weighted-share test checks against the weights. *)
let run_weighted (host : Host.t) ~(tenants : (Tenant.t * int) list) ~(mix : mix)
    ~(total_ops : int) ?(seed = 42) () : (Tenant.t * float) list =
  let rng = Vtpm_util.Rng.create ~seed in
  let cost = Host.cost host in
  let sched = Vtpm_xen.Sched.create () in
  List.iter
    (fun ((t : Tenant.t), weight) ->
      Vtpm_xen.Sched.add sched ~domid:t.Tenant.guest.Host.domid ~weight ())
    tenants;
  let by_domid =
    List.map (fun ((t : Tenant.t), _) -> (t.Tenant.guest.Host.domid, t)) tenants
  in
  let service = Hashtbl.create 8 in
  for _ = 1 to total_ops do
    match Vtpm_xen.Sched.pick sched with
    | None -> Vtpm_xen.Sched.charge sched ~domid:(-1) ~us:100.0
    | Some domid ->
        let tenant = List.assoc domid by_domid in
        let op = pick_op rng mix in
        let t0 = Vtpm_util.Cost.now cost in
        (match Tenant.run_op tenant op with Ok () -> () | Error _ -> ());
        let dt = Vtpm_util.Cost.now cost -. t0 in
        Vtpm_xen.Sched.charge sched ~domid ~us:dt;
        Hashtbl.replace service domid
          (dt +. Option.value ~default:0.0 (Hashtbl.find_opt service domid))
  done;
  List.map
    (fun ((t : Tenant.t), _) ->
      (t, Option.value ~default:0.0 (Hashtbl.find_opt service t.Tenant.guest.Host.domid)))
    tenants

(* Convenience: build a host with [n] provisioned tenants. *)
let make_host_with_tenants ~mode ~n ?(seed = 5) ?quote_profile () : Host.t * Tenant.t list =
  let host = Host.create ~mode ~seed ~rsa_bits:256 ?quote_profile () in
  let tenants =
    List.init n (fun i ->
        Tenant.setup host ~name:(Printf.sprintf "tenant-%02d" i)
          ~label:(Printf.sprintf "tenant_%02d" i))
  in
  (host, tenants)
