(* End-to-end benchmark of the vTPM access-control stack.

   One single-threaded process drives real requests through
   [Vtpm_access.Host]: guest client -> split driver -> reference monitor
   -> manager -> TPM engine -> crypto. Three seeded workloads:

   - attest: closed loop, one client, 16 tenants round-robin, the
     attestation-heavy mix — the manager/engine/RSA path.
   - flood: open loop in simulated time; victims read and extend PCRs
     while one flooder sends at ten times a victim's rate, a share of
     it admin-class commands that must all be denied — the monitor,
     driver admission control and lane path.
   - state: closed loop over 8 tenants with 16 KiB of NV each, the
     sealing-heavy mix, plus periodic suspend/resume and protected
     export/import — the state-at-rest path.

   Usage: main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the last line of standard output is a JSON object with
   the end-to-end metrics; with --trace 1 it carries the per-layer
   metrics of a traced run. Any failed correctness or determinism gate
   prints the result with "correct": false and exits 1. *)

open Vtpm_access
module Cost = Vtpm_util.Cost
module Rng = Vtpm_util.Rng
module Driver = Vtpm_mgr.Driver
module Manager = Vtpm_mgr.Manager
module Migration = Vtpm_mgr.Migration
module Tenant = Vtpm_sim.Tenant
module Workload = Vtpm_sim.Workload
module Buf = Stats.Buf

exception Gate of string

let gate cond msg = if not cond then raise (Gate msg)
let get_ok what = function Ok v -> v | Error e -> raise (Gate (what ^ ": " ^ e))

(* --- Workload parameters ------------------------------------------------------- *)

let audit_cap = 4096

(* attest / state: closed loop *)
let attest_tenants = 16
let attest_window = 8200 (* ops in the deterministic window: 82 whole decks *)
let attest_block = 128
let state_tenants = 8
let state_kib = 16
let state_window = 2000
let state_lifecycle_every = 32 (* ops between two lifecycle cycles *)
let state_block = 64

(* flood: open loop in simulated time *)
let flood_victims = 12
let flood_groups = 4 (* victims i and i + 4k share a vTPM group *)
let flood_period_us = 3_000.0 (* mean victim inter-arrival *)
let flood_x = 10 (* flooder rate as a multiple of one victim's *)
let flood_admin_every = 8 (* every n-th flooder request is Force_clear *)
let flood_rules = 1024
let flood_queue = 6
let flood_deadline_us = 10_000.0
let flood_batch = 4
let flood_episode = 32768 (* arrivals per episode *)
let flood_window = 8 (* episodes in the deterministic window *)
let flood_block = 1024

(* --- Worlds ------------------------------------------------------------------------ *)

type world = {
  host : Host.t;
  mon : Monitor.t;
  tenants : Tenant.t array;  (** attest, state *)
  standby : Host.t option;  (** state: import target *)
  victims : Host.guest array;  (** flood *)
  flooder : Host.guest option;  (** flood *)
  cmds : int ref;  (** client transport calls *)
  req : int ref;  (** current request id, for spans *)
}

(* A tenant's client rebuilt over a transport the benchmark can time.
   Same seed as [Host.guest_client], so every world — main, check, twin —
   sends byte-identical traffic. *)
let timed_client (host : Host.t) ~cmds ~req (t : Tenant.t) : Tenant.t =
  let g = t.Tenant.guest in
  let base = Driver.client_transport host.Host.backend g.Host.conn in
  let transport wire =
    incr cmds;
    Trace.span Trace.Driver !req (fun () -> base wire)
  in
  { t with Tenant.client = Vtpm_tpm.Client.create ~seed:((g.Host.domid * 7) + 13) transport }

let new_host ~seed ?policy () =
  let host = Host.create ~seed ?policy () in
  let mon = Host.monitor_exn host in
  Monitor.set_audit_cap mon (Some audit_cap);
  (host, mon)

(* Set-ups call [tick] between their steps (see {!run}). *)
let provision host ~n ~cmds ~req ~inflate ~tick =
  Array.init n (fun i ->
      let t =
        Tenant.setup host ~name:(Printf.sprintf "tenant-%02d" i)
          ~label:(Printf.sprintf "tenant_%02d" i)
      in
      if inflate then Vtpm_sim.Experiments.inflate_state t ~kib:state_kib;
      tick ();
      timed_client host ~cmds ~req t)

let empty_world host mon =
  {
    host;
    mon;
    tenants = [||];
    standby = None;
    victims = [||];
    flooder = None;
    cmds = ref 0;
    req = ref 0;
  }

let setup_attest ~seed ~tick =
  let host, mon = new_host ~seed () in
  tick ();
  let w = empty_world host mon in
  { w with tenants = provision host ~n:attest_tenants ~cmds:w.cmds ~req:w.req ~inflate:false ~tick }

let setup_state ~seed ~tick =
  let host, mon = new_host ~seed () in
  tick ();
  let w = empty_world host mon in
  let standby, _ = new_host ~seed:(seed + 1) () in
  tick ();
  {
    w with
    tenants = provision host ~n:state_tenants ~cmds:w.cmds ~req:w.req ~inflate:true ~tick;
    standby = Some standby;
  }

let setup_flood ~seed ~tick =
  let host, mon = new_host ~seed ~policy:(Policy.synthetic_guarded ~n:flood_rules) () in
  tick ();
  let victims =
    Array.init flood_victims (fun i ->
        let g =
          Host.create_guest_exn host ~name:(Printf.sprintf "victim%02d" i)
            ~label:(Printf.sprintf "tenant_%02d" (i mod flood_groups)) ()
        in
        tick ();
        g)
  in
  (* The flooder is a group (and lane pool) of its own. *)
  let flooder = Host.create_guest_exn host ~name:"flooder" ~label:"tenant_99" () in
  ignore (Host.enable_sharding host ~lanes_per_shard:2 ());
  (* Per-subject quota a little above a victim's mean rate: victims pass,
     the flooder's extends are rate-limited. *)
  Monitor.set_quota mon ~rate_per_s:(1.05 *. 1_000_000.0 /. flood_period_us) ~burst:30.0;
  Driver.set_overload host.Host.backend
    (Some { Driver.queue_capacity = flood_queue; deadline_us = flood_deadline_us });
  Monitor.wire_backpressure mon host.Host.backend;
  Driver.set_batch host.Host.backend flood_batch;
  { (empty_world host mon) with victims; flooder = Some flooder }

let setup = function
  | "attest" -> setup_attest
  | "state" -> setup_state
  | "flood" -> setup_flood
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- Twin replay: the manager layer --------------------------------------------

   [Manager.execute_wire] is reachable only through the monitor's router.
   The traced run wraps the main host's router; each allowed request's
   wire is replayed on a twin world built from the same seed, timed
   outside the measured program, and its response must be
   byte-identical. The replay time is the manager's self time and is
   subtracted from the router span to give the monitor's. *)

let classes = [| "quote"; "sign"; "seal"; "unseal"; "oiap"; "extend"; "pcr_read"; "other" |]

let class_of wire =
  let open Vtpm_tpm.Types in
  match Vtpm_tpm.Wire.peek_header wire with
  | None -> 7
  | Some { Vtpm_tpm.Wire.ordinal = o; _ } ->
      if o = ord_quote then 0
      else if o = ord_sign then 1
      else if o = ord_seal then 2
      else if o = ord_unseal then 3
      else if o = ord_oiap then 4
      else if o = ord_extend then 5
      else if o = ord_pcr_read then 6
      else 7

type replay = {
  twin : world;
  mutable replays : int;
  mutable mismatches : int;
  cls_calls : int array;  (** traced replays per class *)
  cls_ns : Float.Array.t;
  mutable traced_ns : float;  (** replay time under traced router spans *)
  mutable traced_words : float;  (** replay words under window router spans *)
  mutable win_replays : int;
}

let install_router (w : world) (rp : replay option) =
  let inner = w.host.Host.backend.Driver.router in
  w.host.Host.backend.Driver.router <-
    (fun ~sender ~claimed_instance ~wire ->
      let r = Trace.span Trace.Monitor !(w.req) (fun () -> inner ~sender ~claimed_instance ~wire) in
      (match (rp, r) with
      | Some rp, Ok resp ->
          let twin_mgr = rp.twin.host.Host.mgr in
          let inst, _, _ =
            Trace.excluded (fun () -> Manager.instance_for_domid twin_mgr sender)
          in
          let out, ns, words =
            Trace.excluded (fun () ->
                match inst with
                | None -> Error "twin has no instance"
                | Some inst -> (
                    match Manager.execute_wire twin_mgr inst ~wire with
                    | Ok r -> Ok r
                    | Error e -> Error (Vtpm_util.Verror.to_string e)))
          in
          rp.replays <- rp.replays + 1;
          (match out with Ok r when String.equal r resp -> () | _ -> rp.mismatches <- rp.mismatches + 1);
          if !Trace.enabled then begin
            let c = class_of wire in
            rp.cls_calls.(c) <- rp.cls_calls.(c) + 1;
            Float.Array.set rp.cls_ns c (Float.Array.get rp.cls_ns c +. ns);
            rp.traced_ns <- rp.traced_ns +. ns;
            if !Trace.window then begin
              rp.traced_words <- rp.traced_words +. words;
              rp.win_replays <- rp.win_replays + 1
            end
          end
      | _ -> ());
      r)

(* --- Deterministic window -------------------------------------------------------

   Every run first executes a fixed, seeded prefix of work. Its
   simulated-time results and program counters depend only on the seed,
   so two worlds built from one seed must agree on them exactly. *)

type window = {
  sim_lat : float array;  (** simulated latency per sample, µs *)
  sim_ops : int;  (** operations completed, for simulated throughput *)
  sim_elapsed_us : float;
  good : int;  (** legitimate operations that succeeded (in time) *)
  legit : int;  (** legitimate operations attempted *)
  counts : (string * float) list;  (** exact per-layer counts *)
}

(* Program counters read at the window's edges. *)
type snap = {
  st : Monitor.stats;
  audit_len : int;
  rejected : int;
  shed : int;
  lanes : (int * float) array;
  sim_now : float;
  cmds_at : int;
}

(* [Monitor.stats] is mutable: snapshot it by copying the record. *)
let copy_stats (s : Monitor.stats) = { s with Monitor.lookups = s.Monitor.lookups }

let lane_stats (w : world) =
  match Monitor.shard_stats w.mon with
  | [] -> Monitor.lane_stats w.mon
  | shards -> Array.concat (List.map (fun (_, _, _, l) -> l) shards)

let snap (w : world) =
  Manager.sync_lanes w.host.Host.mgr;
  {
    st = copy_stats (Monitor.stats w.mon);
    audit_len = Audit.length w.mon.Monitor.audit;
    rejected = Driver.rejected_count w.host.Host.backend;
    shed = Driver.shed_count w.host.Host.backend;
    lanes = lane_stats w;
    sim_now = Cost.now (Host.cost w.host);
    cmds_at = !(w.cmds);
  }

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Counts common to every workload, from two snapshots. [requests] is
   the number of requests offered to the backend in the window. *)
let common_counts (a : snap) (b : snap) ~ops ~requests ~queue_depth_max =
  let d f = f b.st - f a.st in
  let lookups = d (fun s -> s.Monitor.lookups) in
  let allowed = d (fun s -> s.Monitor.allowed) and denied = d (fun s -> s.Monitor.denied) in
  let busy =
    Array.mapi
      (fun i (_, us) -> us -. if i < Array.length a.lanes then snd a.lanes.(i) else 0.0)
      b.lanes
  in
  let n = Array.length busy in
  let elapsed = b.sim_now -. a.sim_now in
  let total = Array.fold_left ( +. ) 0.0 busy in
  let mean = total /. float_of_int n in
  let audited = b.audit_len - a.audit_len in
  let accounted =
    d (fun s ->
        s.Monitor.allowed + s.Monitor.denied + s.Monitor.overloaded + s.Monitor.shed
        + s.Monitor.batches + s.Monitor.transport_tampers)
  in
  gate (audited = accounted)
    (Printf.sprintf "audit log holds %d entries for %d counted decisions" audited accounted);
  let cmds = b.cmds_at - a.cmds_at in
  [
    ("client.cmds_per_op", ratio cmds ops);
    ("driver.rejected", float_of_int (b.rejected - a.rejected));
    ("driver.shed", float_of_int (b.shed - a.shed));
    ("driver.queue_depth_max", float_of_int queue_depth_max);
    ("driver.batched_pct", pct (d (fun s -> s.Monitor.batched_requests)) requests);
    ("monitor.rules_per_lookup", ratio (d (fun s -> s.Monitor.rules_scanned)) lookups);
    ("monitor.cache_hit_pct", pct (d (fun s -> s.Monitor.cache_hits)) lookups);
    ("monitor.denied_pct", pct denied (allowed + denied));
    ("monitor.audit_per_req", ratio audited requests);
    ("lanes.busy_pct", if elapsed > 0.0 then 100.0 *. total /. (float_of_int n *. elapsed) else 0.0);
    ("lanes.skew", if mean > 0.0 then Array.fold_left Float.max 0.0 busy /. mean else 0.0);
  ]

let fingerprint (win : window) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (win.sim_lat, win.sim_ops, win.sim_elapsed_us, win.good, win.legit, win.counts)
          [ Marshal.No_sharing ]))

(* --- Drivers -------------------------------------------------------------------- *)

(* A running workload: [step] does one unit of work and returns the
   operations it completed; [window] is [Some] once the deterministic
   prefix is done. *)
type driver = {
  step : unit -> int;
  window : unit -> window option;
}

(* Host latency per operation, shared by all drivers, each sample tagged
   with the block it was taken in; preallocated so the heap does not
   depend on box speed. *)
let host_lat = ref (Buf.create 1)
let host_blk = ref (Buf.create 1)
let cur_block = ref 0
let recording = ref true

let record_lat us =
  if !recording then begin
    Buf.add !host_lat us;
    Buf.add !host_blk (float_of_int !cur_block)
  end

let failures = ref 0
let attempted = ref 0
let first_failure = ref ""

let fail msg =
  incr failures;
  if !first_failure = "" then first_failure := msg

(* Ops are dealt from shuffled decks holding each op of [mix] as many
   times as its weight, so every deck has the mix's exact proportions
   and a seed changes only the order. With independent draws the class
   shares wander with the seed, and a median sitting near a class
   boundary would jump between classes from one seed to the next. *)
let dealer rng (mix : Workload.mix) =
  let deck = Array.of_list (List.concat_map (fun (op, w) -> List.init w (fun _ -> op)) mix) in
  let n = Array.length deck in
  let next = ref n in
  fun () ->
    if !next = n then begin
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- t
      done;
      next := 0
    end;
    let op = deck.(!next) in
    incr next;
    op

(* attest / state: closed loop, one client, round-robin over tenants. *)
let closed_driver (w : world) ~seed ~mix ~window_ops ~lifecycle =
  let deal = dealer (Rng.create ~seed:((seed * 7919) + 1)) mix in
  let cost = Host.cost w.host in
  let n = Array.length w.tenants in
  let k = ref 0 in
  let lat = Buf.create window_ops in
  let good = ref 0 in
  let start = ref None in
  let result = ref None in
  let step () =
    if !start = None then start := Some (snap w);
    let i = !k in
    incr k;
    w.req := i;
    let t = w.tenants.(i mod n) in
    let op = deal () in
    let s0 = Cost.now cost in
    let h0 = Trace.now_ns () in
    let r =
      try Trace.span Trace.Client i (fun () -> Tenant.run_op t op)
      with Driver.Denied m -> Error ("denied: " ^ m)
    in
    let h1 = Trace.now_ns () in
    let s1 = Cost.now cost in
    incr attempted;
    record_lat ((h1 -. h0) /. 1000.0);
    (match r with
    | Ok () -> if i < window_ops then incr good
    | Error e -> fail (Printf.sprintf "op %d (%s): %s" i (Tenant.op_name op) e));
    if i < window_ops then Buf.add lat (s1 -. s0);
    (match lifecycle with
    | Some f when (i + 1) mod state_lifecycle_every = 0 ->
        f ~req:i ~tenant:((i + 1) / state_lifecycle_every mod n)
    | _ -> ());
    if i + 1 = window_ops then begin
      let a = Option.get !start in
      let b = snap w in
      let counts =
        common_counts a b ~ops:window_ops ~requests:(b.cmds_at - a.cmds_at) ~queue_depth_max:0
      in
      result :=
        Some
          {
            sim_lat = Buf.to_array lat;
            sim_ops = window_ops;
            sim_elapsed_us = b.sim_now -. a.sim_now;
            good = !good;
            legit = window_ops;
            counts;
          }
    end;
    1
  in
  { step; window = (fun () -> !result) }

(* state: the lifecycle cycle one tenant goes through every
   [state_lifecycle_every] ops — sealed suspend and resume through the
   host, then a protected export to the standby host and its import.
   The twin (traced run) mirrors suspend and resume, which rebuild the
   engine; export and import leave the source instance untouched. *)
let blob_bytes = ref 0

let lifecycle (w : world) (rp : replay option) ~req ~tenant =
  let g = w.tenants.(tenant).Tenant.guest in
  let standby = Option.get w.standby in
  get_ok "suspend" (Trace.span Trace.Save req (fun () -> Host.suspend_vtpm w.host g));
  get_ok "resume" (Trace.span Trace.Resume req (fun () -> Host.resume_vtpm w.host g));
  (match rp with
  | Some rp ->
      let tw = rp.twin in
      let tg = tw.tenants.(tenant).Tenant.guest in
      ignore
        (Trace.excluded (fun () ->
             get_ok "twin suspend" (Host.suspend_vtpm tw.host tg);
             get_ok "twin resume" (Host.resume_vtpm tw.host tg)))
  | None -> ());
  let inst =
    get_ok "find" (Result.map_error Vtpm_util.Verror.to_string (Manager.find w.host.Host.mgr g.Host.vtpm_id))
  in
  let dest_key = Some (Migration.bind_pubkey standby.Host.mgr) in
  let stream =
    get_ok "export"
      (Trace.span Trace.Export req (fun () ->
           Migration.export w.host.Host.mgr inst ~mode:Migration.Protected ~dest_key))
  in
  let imported =
    get_ok "import" (Trace.span Trace.Import req (fun () -> Migration.import standby.Host.mgr stream))
  in
  (* Output check, outside the measured program: the imported engine is
     the source engine, and the saved blob is the sealed format. *)
  ignore
    (Trace.excluded (fun () ->
         let ser = Vtpm_tpm.Engine.serialize_state in
         gate
           (String.equal (ser imported.Manager.engine) (ser inst.Manager.engine))
           "imported engine differs from the exported one";
         Manager.destroy_instance standby.Host.mgr imported.Manager.vtpm_id;
         match Host.read_file w.host (Host.state_path g.Host.vtpm_id) with
         | Some blob ->
             gate (Vtpm_mgr.Stateproc.detect_format blob = Some Vtpm_mgr.Stateproc.Sealed)
               "suspended state is not sealed";
             blob_bytes := String.length blob
         | None -> gate false "no suspended state file"))

(* flood: open loop in simulated time. Each episode generates
   [flood_episode] arrivals from seeded Poisson streams starting at the
   current simulated time, admits each when due, pumps batches, and
   drains; the first [flood_window] episodes are the deterministic window. *)
type pending = { due : float; admin : bool; victim : bool; in_window : bool }

let flood_driver (w : world) ~seed =
  let backend = w.host.Host.backend in
  let cost = Host.cost w.host in
  let rng = Rng.create ~seed:((seed * 104729) + 7) in
  let flooder = Option.get w.flooder in
  let nv = Array.length w.victims in
  let sources = Array.append w.victims [| flooder |] in
  let mean i =
    if i < nv then flood_period_us else flood_period_us /. float_of_int flood_x
  in
  let next_at = Array.make (nv + 1) 0.0 in
  let sent = Array.make (nv + 1) 0 in
  let issued = ref 0 in
  let episode = ref (-1) in
  let queues = Hashtbl.create 16 in
  let queue_of (g : Host.guest) =
    match Hashtbl.find_opt queues g.Host.domid with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace queues g.Host.domid q;
        q
  in
  let start_episode () =
    incr episode;
    issued := 0;
    let t0 = Cost.now cost in
    Array.iteri (fun i _ -> next_at.(i) <- t0 +. Rng.exponential rng ~mean:(mean i)) next_at
  in
  (* window accounting *)
  let lat = Buf.create (flood_window * flood_episode) in
  let good = ref 0 and legit = ref 0 and served = ref 0 and depth_max = ref 0 in
  let admin_sent = ref 0 and admin_resolved = ref 0 in
  let start = ref None and result = ref None in
  let is_admin i k = i = nv && k mod flood_admin_every = flood_admin_every - 1 in
  let wire_for i k =
    let open Vtpm_tpm in
    if is_admin i k then Wire.encode_request Cmd.Force_clear
    else if i = nv then
      Wire.encode_request
        (Cmd.Extend { pcr = 11; digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "f%d" k) })
    else if k mod 4 = 0 then
      Wire.encode_request
        (Cmd.Extend { pcr = 10; digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "v%d.%d" i k) })
    else Wire.encode_request (Cmd.Pcr_read { pcr = Rng.int rng 16 })
  in
  let next_source () =
    let best = ref 0 in
    for i = 1 to nv do
      if next_at.(i) < next_at.(!best) then best := i
    done;
    !best
  in
  let in_window () = !episode < flood_window in
  (* A request leaves the system: rejected at admission, shed, or served. *)
  let resolve p ~ok ~latency =
    if p.admin then incr admin_resolved;
    if p.in_window && p.victim then begin
      incr legit;
      (match latency with Some l -> Buf.add lat l | None -> ());
      match latency with
      | Some l when ok && l <= flood_deadline_us -> incr good
      | _ -> ()
    end
  in
  let admit_due () =
    let submitted = ref 0 in
    while
      !issued < flood_episode
      &&
      let i = next_source () in
      next_at.(i) <= Cost.now cost
    do
      let i = next_source () in
      let g = sources.(i) in
      let at = next_at.(i) in
      let wire = wire_for i sent.(i) in
      let admin = is_admin i sent.(i) in
      sent.(i) <- sent.(i) + 1;
      next_at.(i) <- at +. Rng.exponential rng ~mean:(mean i);
      incr issued;
      incr submitted;
      incr attempted;
      if admin then incr admin_sent;
      let p = { due = at; admin; victim = i < nv; in_window = in_window () } in
      (match
         Trace.span Trace.Submit !issued (fun () ->
             Driver.submit backend g.Host.conn ~wire ~arrival_us:at ~deadline_us:flood_deadline_us ())
       with
      | Ok () -> Queue.push p (queue_of g)
      | Error (Vtpm_util.Verror.Overloaded _) -> resolve p ~ok:false ~latency:None
      | Error e -> fail ("submit: " ^ Vtpm_util.Verror.to_string e));
      if in_window () then
        depth_max := max !depth_max (Driver.queued_depth backend ~fe_domid:g.Host.domid)
    done;
    !submitted
  in
  (* Entries the driver shed never come back; anything older than the
     served request on the same queue was shed. *)
  let drop_shed q ~before =
    while (not (Queue.is_empty q)) && (Queue.peek q).due < before do
      resolve (Queue.pop q) ~ok:false ~latency:None
    done
  in
  let on_served (s : Driver.serviced) =
    let q = Hashtbl.find queues s.Driver.s_domid in
    drop_shed q ~before:s.Driver.s_arrival_us;
    let p = Queue.pop q in
    gate (p.due = s.Driver.s_arrival_us) "served request does not match its queue";
    let routed =
      match s.Driver.s_outcome with Ok o -> o.Driver.status = Vtpm_mgr.Proto.Ok_routed | Error _ -> false
    in
    gate (not (p.admin && routed)) "an admin-class flooder request was served";
    if p.admin then
      gate
        (match s.Driver.s_outcome with Ok o -> o.Driver.status = Vtpm_mgr.Proto.Denied | Error _ -> false)
        "an admin-class flooder request was not denied";
    if p.in_window then incr served;
    resolve p ~ok:routed ~latency:(Some (s.Driver.s_done_us -. p.due))
  in
  let episode_done () = !issued >= flood_episode && Driver.queued_total backend = 0 in
  let step () =
    if !episode < 0 then begin
      start := Some (snap w);
      start_episode ()
    end;
    w.req := !issued;
    if Driver.queued_total backend = 0 && !issued < flood_episode then
      Cost.advance_to cost next_at.(next_source ());
    let submitted = admit_due () in
    let h0 = Trace.now_ns () in
    (match Trace.span Trace.Driver !issued (fun () -> Driver.pump_batch backend) with
    | `Idle -> ()
    | `Served l ->
        let h1 = Trace.now_ns () in
        let k = List.length l in
        List.iter
          (fun s ->
            record_lat ((h1 -. h0) /. 1000.0 /. float_of_int k);
            on_served s)
          l);
    if episode_done () then begin
      Hashtbl.iter (fun _ q -> drop_shed q ~before:infinity) queues;
      if !episode = flood_window - 1 then begin
        let a = Option.get !start in
        let b = snap w in
        let counts =
          common_counts a b ~ops:(flood_window * flood_episode)
            ~requests:(flood_window * flood_episode)
            ~queue_depth_max:!depth_max
        in
        gate (!admin_resolved = !admin_sent) "an admin-class flooder request went unaccounted";
        result :=
          Some
            {
              sim_lat = Buf.to_array lat;
              sim_ops = !served;
              sim_elapsed_us = b.sim_now -. a.sim_now;
              good = !good;
              legit = !legit;
              counts;
            }
      end;
      start_episode ()
    end;
    submitted
  in
  { step; window = (fun () -> !result) }

let make_driver name (w : world) ~seed rp =
  match name with
  | "attest" -> closed_driver w ~seed ~mix:Workload.attestation_heavy ~window_ops:attest_window ~lifecycle:None
  | "state" ->
      closed_driver w ~seed ~mix:Workload.sealing_heavy ~window_ops:state_window
        ~lifecycle:(Some (lifecycle w rp))
  | "flood" -> flood_driver w ~seed
  | _ -> assert false

let block_size = function "attest" -> attest_block | "state" -> state_block | _ -> flood_block

(* Ceiling on host-latency samples per measured second, for sizing the
   sample buffers up front. *)
let max_rate = function "attest" -> 20_000 | "state" -> 5_000 | _ -> 80_000

(* --- Box-speed reference -----------------------------------------------------------

   The box this runs on has phases, lasting seconds to minutes, in which
   throughput-bound integer code runs ~1.8x slower whatever the process
   does (a busy hyperthread sibling behaves this way); latency-bound
   code does not notice. The reference is a fixed loop of that kind —
   four independent shift/xor/add lanes over a 16 KiB buffer — timed
   between blocks and around each set-up. It is the benchmark's own
   code, so no change to the program moves it. Host times are scaled by
   [reference_nominal_us] over the reading around them: they read as on
   the box in its fast phase. *)

let reference_nominal_us = 80.0
let ref_buf = Bytes.init 16384 (fun i -> Char.chr ((i * 131) land 255))

let reference_us () =
  let t0 = Trace.raw_ns () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let n = Bytes.length ref_buf in
  for _ = 1 to 4 do
    let i = ref 0 in
    while !i < n do
      let byte k = Char.code (Bytes.unsafe_get ref_buf (!i + k)) in
      a := (!a + ((!a lsl 5) lxor (!a lsr 3)) + byte 0) land 0xFFFFFFFF;
      b := (!b + ((!b lsl 7) lxor (!b lsr 2)) + byte 1) land 0xFFFFFFFF;
      c := (!c lxor ((!c lsl 3) + (!c lsr 5)) + byte 2) land 0xFFFFFFFF;
      d := (!d lxor ((!d lsl 6) + (!d lsr 4)) + byte 3) land 0xFFFFFFFF;
      i := !i + 4
    done
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d));
  (Trace.raw_ns () -. t0) /. 1000.0

(* How much slower than nominal the box ran between two readings. *)
let scale_of r0 r1 = (r0 +. r1) /. 2.0 /. reference_nominal_us

(* --- Crypto primitives on the workload's own inputs ---------------------------- *)

(* Median of [reps] timed calls, scaled by the reference readings around
   them (see {!reference_us}). *)
let time_us ?(reps = 25) f =
  let r0 = reference_us () in
  let xs =
    Array.init reps (fun _ ->
        let t0 = Trace.raw_ns () in
        ignore (Sys.opaque_identity (f ()));
        (Trace.raw_ns () -. t0) /. 1000.0)
  in
  let r1 = reference_us () in
  Stats.median xs /. scale_of r0 r1

let crypto_metrics (w : world) =
  let engine_of (g : Host.guest) =
    (Result.get_ok (Manager.find w.host.Host.mgr g.Host.vtpm_id)).Manager.engine
  in
  let guest =
    if Array.length w.tenants > 0 then w.tenants.(0).Tenant.guest else w.victims.(0)
  in
  let engine = engine_of guest in
  (* The tenant signing key where the workload has one, else the EK. *)
  let sign_key =
    if Array.length w.tenants > 0 then
      Result.get_ok (Vtpm_tpm.Engine.find_key engine w.tenants.(0).Tenant.sign_key)
    else engine.Vtpm_tpm.Engine.ek
  in
  let target = match w.standby with Some s -> s | None -> w.host in
  let srk =
    (Option.get target.Host.mgr.Manager.hw_tpm.Vtpm_tpm.Engine.owner).Vtpm_tpm.Engine.srk
  in
  let wrapped =
    Vtpm_crypto.Rsa.encrypt (Rng.create ~seed:3)
      srk.Vtpm_tpm.Keystore.rsa.Vtpm_crypto.Rsa.pub
      (String.make 16 'k')
  in
  let state = Vtpm_tpm.Engine.serialize_state engine in
  let kib = float_of_int (String.length state) /. 1024.0 in
  let digest = Vtpm_crypto.Sha1.digest "quote-info" in
  let auth_msg = String.make 61 'a' and auth_key = String.make 20 'k' in
  let xk = Vtpm_crypto.Xtea.key_of_string (String.make 16 'x') in
  [
    ("crypto.rsa_sign_us", time_us (fun () -> Vtpm_crypto.Rsa.sign sign_key.Vtpm_tpm.Keystore.rsa ~digest), "us");
    ("crypto.rsa_decrypt_us", time_us (fun () -> Vtpm_crypto.Rsa.decrypt srk.Vtpm_tpm.Keystore.rsa wrapped), "us");
    ("crypto.hmac_sha1_us", time_us ~reps:201 (fun () -> Vtpm_crypto.Hmac.sha1_mac ~key:auth_key auth_msg), "us");
    ("crypto.sha256_us_per_kib", time_us ~reps:15 (fun () -> Vtpm_crypto.Sha256.digest state) /. kib, "us/KiB");
    ("crypto.xtea_us_per_kib", time_us ~reps:15 (fun () -> Vtpm_crypto.Xtea.ctr_transform xk ~nonce:1 state) /. kib, "us/KiB");
  ]

(* --- The run ---------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m_ name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun r -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name (json_number r.value) r.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let check_audit (w : world) what =
  let a = w.mon.Monitor.audit in
  match Audit.verify_chain ~expected_head:(Audit.head a) ~base:(Audit.base a) (Audit.entries a) with
  | Ok () -> ()
  | Error seq -> gate false (Printf.sprintf "%s audit chain broken at entry %d" what seq)

(* Retained audit entries: no admin-class command was ever allowed. *)
let check_no_admin_allowed (w : world) =
  let fc = Vtpm_tpm.Types.ordinal_name Vtpm_tpm.Types.ord_force_clear in
  List.iter
    (fun (e : Audit.entry) ->
      gate (not (e.Audit.operation = fc && e.Audit.allowed)) "audit shows an allowed Force_clear")
    (Audit.entries w.mon.Monitor.audit)

(* --- The measurement loop ------------------------------------------------------

   Every block is bracketed by reference readings. One whose two
   readings differ by more than [steady_factor] straddled a change of
   box speed and is left out; the others are scaled by their mean
   reading over [reference_nominal_us]. Set-ups are scaled step by step
   (see [set_up]). The raw figures are printed beside the scaled ones. *)

let steady_factor = 1.2

type measured = {
  world : world;
  win : window;
  rp : replay option;
  setup_s : float;  (** scaled *)
  setup_raw_s : float;
  setups : int;
  rates : float array;  (** raw ops/s per block *)
  scale : float array;  (** per block: mean reading / nominal *)
  steady : bool array;  (** per block *)
  traced : bool array;  (** per block *)
  post_window : bool array;  (** per block: after the deterministic window *)
  ref_med : float;
}

let run ~workload ~seed ~seconds ~trace =
  Trace.calibrate ();
  let cap = (seconds + 5) * max_rate workload in
  host_lat := Buf.create cap;
  host_blk := Buf.create cap;
  let refs = Buf.create 100_000 in
  let reading () =
    let r = reference_us () in
    Buf.add refs r;
    r
  in
  (* A set-up is timed step by step: [tick] takes a reading between
     steps, and each step's time is scaled by the readings on its two
     sides, so a change of box speed mid-set-up costs one step, not the
     whole set-up. The readings themselves are not timed. *)
  let set_up () =
    let scaled = ref 0.0 and raw = ref 0.0 in
    let r_prev = ref (reading ()) in
    let t_prev = ref (Trace.raw_ns ()) in
    let tick () =
      let dt = (Trace.raw_ns () -. !t_prev) /. 1e9 in
      let r = reading () in
      raw := !raw +. dt;
      scaled := !scaled +. (dt /. scale_of !r_prev r);
      r_prev := r;
      t_prev := Trace.raw_ns ()
    in
    let w = setup workload ~seed ~tick in
    tick ();
    (w, (!scaled, !raw))
  in
  (* Five set-ups from one seed: the measured world, the world that
     re-runs the window for the determinism gate, the twin (traced run)
     and spares, which only add samples to setup_s. *)
  let a, sa = set_up () in
  let b, sb = set_up () in
  let c, sc = set_up () in
  let spares = List.init 2 (fun _ -> snd (set_up ())) in
  let rp =
    if trace then
      Some
        {
          twin = c;
          replays = 0;
          mismatches = 0;
          cls_calls = Array.make (Array.length classes) 0;
          cls_ns = Float.Array.make (Array.length classes) 0.0;
          traced_ns = 0.0;
          traced_words = 0.0;
          win_replays = 0;
        }
    else None
  in
  if trace then install_router a rp;
  let drv = make_driver workload a ~seed rp in
  let block = block_size workload in
  let rates = Buf.create 100_000 and r_before = Buf.create 100_000 and r_after = Buf.create 100_000 in
  let traced_b = Buf.create 100_000 and post_b = Buf.create 100_000 in
  Trace.enabled := trace;
  Trace.window := trace;
  let deadline = Trace.raw_ns () +. (float_of_int seconds *. 1e9) in
  let before = ref (reading ()) in
  let posts = ref 0 in
  while Trace.raw_ns () < deadline || drv.window () = None do
    let in_window = drv.window () = None in
    (* After the window the traced run alternates traced and untraced
       blocks, so the tracing overhead is measured in the same phases. *)
    if trace && not in_window then Trace.enabled := !posts mod 2 = 0;
    let t0 = Trace.now_ns () in
    let ops = ref 0 in
    while !ops < block do
      ops := !ops + drv.step ();
      if !Trace.window && drv.window () <> None then Trace.window := false
    done;
    Buf.add rates (float_of_int !ops /. ((Trace.now_ns () -. t0) /. 1e9));
    Buf.add traced_b (if !Trace.enabled then 1.0 else 0.0);
    Buf.add post_b (if in_window then 0.0 else 1.0);
    if not in_window then incr posts;
    let after = reading () in
    Buf.add r_before !before;
    Buf.add r_after after;
    before := after;
    incr cur_block
  done;
  Trace.enabled := false;
  let win = Option.get (drv.window ()) in
  (* Determinism gate: the check world runs the same window. *)
  let saved_attempted = !attempted in
  recording := false;
  let drv_b = make_driver workload b ~seed None in
  while drv_b.window () = None do
    ignore (drv_b.step ())
  done;
  recording := true;
  attempted := saved_attempted;
  let win_b = Option.get (drv_b.window ()) in
  let fp = fingerprint win and fp_b = fingerprint win_b in
  gate (String.equal fp fp_b) "determinism: two worlds from one seed disagree on the window";
  check_audit a "main";
  check_audit b "check";
  if workload = "flood" then (check_no_admin_allowed a; check_no_admin_allowed b);
  (match rp with
  | Some rp ->
      gate (rp.mismatches = 0)
        (Printf.sprintf "twin replay: %d of %d responses differ" rp.mismatches rp.replays)
  | None -> ());
  gate (!failures = 0) ("operation failed: " ^ !first_failure);
  let steady r0 r1 = Float.max r0 r1 <= steady_factor *. Float.min r0 r1 in
  let setups = sa :: sb :: sc :: spares in
  let setup_s = Stats.median (Array.of_list (List.map fst setups)) in
  let setup_raw_s = Stats.median (Array.of_list (List.map snd setups)) in
  let rb = Buf.to_array r_before and ra = Buf.to_array r_after in
  let bool_of b = Array.map (fun x -> x > 0.5) (Buf.to_array b) in
  let m =
    {
      world = a;
      win;
      rp;
      setup_s;
      setup_raw_s;
      setups = List.length setups;
      rates = Buf.to_array rates;
      scale = Array.map2 scale_of rb ra;
      steady = Array.map2 steady rb ra;
      traced = bool_of traced_b;
      post_window = bool_of post_b;
      ref_med = Stats.median (Buf.to_array refs);
    }
  in
  note "workload=%s seed=%d seconds=%d trace=%b window=%s" workload seed seconds trace fp;
  note "reference_us median=%.2f nominal=%.1f n=%d" m.ref_med reference_nominal_us (Buf.length refs);
  note "blocks=%d steady=%d; set-ups=%d, raw median %.3f s" (Array.length m.rates)
    (Array.fold_left (fun n c -> if c then n + 1 else n) 0 m.steady)
    m.setups setup_raw_s;
  m

(* Blocks [keep] selects that ran at a steady box speed; all of them if
   too few did. *)
let chosen_blocks (m : measured) keep =
  let idx = List.filter keep (List.init (Array.length m.rates) Fun.id) in
  let steady = List.filter (fun i -> m.steady.(i)) idx in
  if 10 * List.length steady < List.length idx then idx else steady

(* Median scaled rate over chosen blocks, with the raw median beside it. *)
let block_median (m : measured) keep =
  let idx = chosen_blocks m keep in
  let pick f = Stats.median (Array.of_list (List.map f idx)) in
  (pick (fun i -> m.rates.(i) *. m.scale.(i)), pick (fun i -> m.rates.(i)), List.length idx)

let e2e_metrics ~workload (m : measured) =
  let win = m.win in
  let ops_per_s, raw_ops_per_s, nblocks = block_median m (fun _ -> true) in
  let chosen = Array.make (Array.length m.rates) false in
  List.iter (fun i -> chosen.(i) <- true) (chosen_blocks m (fun _ -> true));
  let lat = Buf.to_array !host_lat and blk = Buf.to_array !host_blk in
  let scaled = Buf.create (Array.length lat) and raw = Buf.create (Array.length lat) in
  Array.iteri
    (fun i l ->
      let b = int_of_float blk.(i) in
      if b < Array.length chosen && chosen.(b) then begin
        Buf.add scaled (l /. m.scale.(b));
        Buf.add raw l
      end)
    lat;
  let h = Stats.sorted (Buf.to_array scaled) and hr = Stats.sorted (Buf.to_array raw) in
  let s = Stats.sorted win.sim_lat in
  note "ops_per_s blocks=%d scaled median=%.1f raw median=%.1f" nblocks ops_per_s raw_ops_per_s;
  note "op latency (%s): n=%d beyond_p99=%d; raw p50=%.2f p99=%.2f us"
    (if workload = "flood" then "served request" else "Tenant.run_op")
    (Array.length h) (Stats.beyond h 0.99) (Stats.percentile hr 0.5) (Stats.percentile hr 0.99);
  note "sim latency: n=%d beyond_p99=%d; goodput %d/%d" (Array.length s) (Stats.beyond s 0.99)
    win.good win.legit;
  gate (Stats.beyond h 0.99 >= 10 && Stats.beyond s 0.99 >= 10) "fewer than 10 samples beyond p99";
  let gc = Gc.quick_stat () in
  [
    m_ "ops_per_s" "ops/s" ops_per_s;
    m_ "op_p50_us" "us" (Stats.percentile h 0.50);
    m_ "op_p99_us" "us" (Stats.percentile h 0.99);
    m_ "sim_ops_per_s" "sim_ops/s" (float_of_int win.sim_ops /. (win.sim_elapsed_us /. 1e6));
    m_ "sim_p50_us" "sim_us" (Stats.percentile s 0.50);
    m_ "sim_p99_us" "sim_us" (Stats.percentile s 0.99);
    m_ "goodput_pct" "%" (pct win.good win.legit);
    m_ "setup_s" "s" m.setup_s;
    m_ "peak_heap_mb" "MiB" (float_of_int gc.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
  ]

let layer_metrics ~workload (ms : measured) =
  let w = ms.world and win = ms.win and rp = Option.get ms.rp in
  (* Host times are scaled like the end-to-end ones, by the median scale
     of the traced blocks. *)
  let sc =
    Stats.median
      (Array.of_list (List.map (fun i -> ms.scale.(i)) (chosen_blocks ms (fun i -> ms.traced.(i)))))
  in
  let open Trace in
  let per_call_us k =
    if calls_of k = 0 then 0.0 else self_ns_of k /. float_of_int (calls_of k) /. 1000.0 /. sc
  in
  let words_per_call ?(minus = 0.0) ks =
    let c = List.fold_left (fun acc k -> acc + win_calls_of k) 0 ks in
    let wsum = List.fold_left (fun acc k -> acc +. win_words_of k) 0.0 ks in
    if c = 0 then 0.0 else (wsum -. minus) /. float_of_int c
  in
  let mon_calls = calls_of Monitor in
  let monitor_self_ns = self_ns_of Monitor -. rp.traced_ns in
  let manager_calls = Array.fold_left ( + ) 0 rp.cls_calls in
  let cls name =
    let i = ref 0 in
    Array.iteri (fun j c -> if c = name then i := j) classes;
    let c = rp.cls_calls.(!i) in
    if c = 0 then 0.0 else Float.Array.get rp.cls_ns !i /. float_of_int c /. 1000.0 /. sc
  in
  let state_kinds = [ Save; Resume; Export; Import ] in
  let shares =
    [
      ("client", self_ns_of Client);
      ("driver", self_ns_of Driver +. self_ns_of Submit);
      ("monitor", monitor_self_ns);
      ("manager", rp.traced_ns);
      ("state", List.fold_left (fun acc k -> acc +. self_ns_of k) 0.0 state_kinds);
    ]
  in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares in
  List.iter (fun (n, v) -> note "share of host self time: %s %.1f%%" n (100.0 *. v /. total)) shares;
  let largest = fst (List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) ("", -1.0) shares) in
  let expected = match workload with "attest" -> "manager" | "flood" -> "monitor+driver" | _ -> "state" in
  let got =
    if workload = "flood" then
      let md = List.assoc "monitor" shares +. List.assoc "driver" shares in
      if List.for_all (fun (n, v) -> n = "monitor" || n = "driver" || v < md) shares then "monitor+driver" else largest
    else largest
  in
  note "layer profile: largest self-time share %s (expected %s)%s" got expected
    (if got = expected then "" else " -- PROFILE MISMATCH");
  let untraced, _, nu = block_median ms (fun i -> ms.post_window.(i) && not ms.traced.(i)) in
  let traced, _, nt = block_median ms (fun i -> ms.post_window.(i) && ms.traced.(i)) in
  note "tracing overhead: untraced %.1f ops/s (%d blocks), traced %.1f ops/s (%d blocks)" untraced nu
    traced nt;
  note "spans stored=%d dropped=%d; twin replays=%d mismatches=%d" !stored !dropped rp.replays rp.mismatches;
  let count name = List.assoc name win.counts in
  let counts =
    List.map
      (fun (n, unit_) -> m_ n unit_ (count n))
      [
        ("client.cmds_per_op", "count");
        ("driver.rejected", "count");
        ("driver.shed", "count");
        ("driver.queue_depth_max", "count");
        ("driver.batched_pct", "%");
        ("monitor.rules_per_lookup", "count");
        ("monitor.cache_hit_pct", "%");
        ("monitor.denied_pct", "%");
        ("monitor.audit_per_req", "count");
        ("lanes.busy_pct", "%");
        ("lanes.skew", "ratio");
      ]
  in
  [
    m_ "client.self_us" "us" (per_call_us Client);
    m_ "client.alloc_w" "words" (words_per_call [ Client ]);
    m_ "driver.self_us" "us" (per_call_us Driver);
    m_ "driver.alloc_w" "words" (words_per_call [ Driver ]);
    m_ "driver.submit_us" "us" (per_call_us Submit);
    m_ "monitor.self_us" "us"
      (if mon_calls = 0 then 0.0 else monitor_self_ns /. float_of_int mon_calls /. 1000.0 /. sc);
    m_ "monitor.alloc_w" "words" (words_per_call ~minus:rp.traced_words [ Monitor ]);
    m_ "manager.us_per_cmd" "us"
      (if manager_calls = 0 then 0.0 else rp.traced_ns /. float_of_int manager_calls /. 1000.0 /. sc);
  ]
  @ List.map (fun c -> m_ (Printf.sprintf "manager.%s_us" c) "us" (cls c))
      [ "quote"; "sign"; "seal"; "unseal"; "oiap"; "extend"; "pcr_read" ]
  @ [
      m_ "manager.alloc_w" "words"
        (if rp.win_replays = 0 then 0.0 else rp.traced_words /. float_of_int rp.win_replays);
      m_ "state.save_us" "us" (per_call_us Save);
      m_ "state.resume_us" "us" (per_call_us Resume);
      m_ "state.export_us" "us" (per_call_us Export);
      m_ "state.import_us" "us" (per_call_us Import);
      m_ "state.blob_kib" "KiB" (float_of_int !blob_bytes /. 1024.0);
      m_ "state.alloc_w" "words" (words_per_call state_kinds);
    ]
  @ List.map (fun (n, v, u) -> m_ n u v) (crypto_metrics w)
  @ counts
  @ [ m_ "trace.overhead_pct" "%" (100.0 *. ((untraced /. traced) -. 1.0)) ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "attest|flood|state");
      ("--seed", Arg.Set_int seed, "workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer metrics");
    ]
  in
  let usage = "main.exe --workload attest|flood|state --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.mem !workload [ "attest"; "flood"; "state" ]))
    || !seed < 0 || !seconds < 1
    || not (!trace = 0 || !trace = 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let workload = !workload and seed = !seed and seconds = !seconds and trace = !trace = 1 in
  match
    let ms = run ~workload ~seed ~seconds ~trace in
    if trace then layer_metrics ~workload ms else e2e_metrics ~workload ms
  with
  | metrics ->
      if trace then begin
        (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
        let path = Printf.sprintf ".bench_out/spans-%s-%d.tsv" workload seed in
        Trace.write_tsv path;
        note "spans written to %s" path
      end;
      List.iter (fun r -> note "metric %s = %.6g %s" r.name r.value r.unit_) metrics;
      print_result ~correct:true ~attempted:(max 1 !attempted) ~failed:!failures metrics
  | exception Gate msg ->
      note "GATE FAILED: %s" msg;
      print_result ~correct:false ~attempted:(max 1 !attempted) ~failed:(max 1 !failures) [];
      exit 1
