(* The vTPM manager: one software TPM instance per guest, plus the
   platform's hardware TPM at the root.

   The manager is deliberately policy-free: *who* may reach *which*
   instance with *which* command is decided by a router installed by the
   access-control layer (baseline or improved — see [Vtpm_access]). The
   manager provides the mechanism: instance table, execution, lifecycle
   and state capture. *)

open Vtpm_tpm

type instance_state = Active | Suspended | Wedged

type instance = {
  vtpm_id : int;
  engine : Engine.t;
  mutable state : instance_state;
  mutable bound_domid : Vtpm_xen.Domain.domid option;
  mutable group_id : int; (* owning vTPM group/shard; 0 = ungrouped *)
  created_at : float; (* simulated time *)
}

type t = {
  instances : (int, instance) Hashtbl.t;
  domid_index : (Vtpm_xen.Domain.domid, int * int) Hashtbl.t;
      (* domid -> (group_id, vtpm_id): one lookup routes a frontend to
         both its shard and its instance *)
  mutable next_id : int;
  hw_tpm : Engine.t; (* the physical TPM under the manager *)
  hw_srk_auth : string;
  hw_owner_auth : string;
  rsa_bits : int;
  cost : Vtpm_util.Cost.t;
  mutable seed : int;
  creation_seed : int; (* seed at [create] time; never bumped *)
  quote_profile : Vtpm_util.Cost.quote_profile; (* prices TPM_Quote *)
  mutable lanes : Vtpm_util.Cost.Lanes.pool;
  mutable shards : Group.t option;
      (* vTPM group registry: when set, grouped instances execute on
         their shard's private lane pool instead of [lanes]. None (the
         default) keeps every charge byte-identical to the seed. *)
  mutable hw_faults : Vtpm_xen.Faults.t option;
      (* hardware-TPM fault injector consulted by [hw_transport]; None
         (the default) keeps the transport byte-identical to the seed *)
  mutable hw_ops : int; (* hardware round trips attempted *)
  mutable hw_power_cycles : int;
  mutable hw_client : Client.t option; (* built by the first [hw_client] call *)
}

(* PCR the manager's own measurement lives in on the hardware TPM; sealed
   vTPM state is bound to it, so a tampered manager cannot unseal. *)
let manager_pcr = 12

let create ?(rsa_bits = 512) ?(quote_profile = Vtpm_util.Cost.Quote_model_2010) ~seed
    ~(cost : Vtpm_util.Cost.t) () =
  let hw_tpm = Engine.create ~rsa_bits ~seed () in
  let hw_owner_auth = Vtpm_crypto.Sha1.digest (Printf.sprintf "hw-owner-%d" seed) in
  let hw_srk_auth = Vtpm_crypto.Sha1.digest (Printf.sprintf "hw-srk-%d" seed) in
  (* Initialize the platform TPM: startup, ownership, manager measurement. *)
  let resp = Engine.execute hw_tpm ~locality:4 (Cmd.Startup Types.St_clear) in
  assert (resp.Cmd.rc = Types.tpm_success);
  let resp =
    Engine.execute hw_tpm ~locality:4
      (Cmd.Take_ownership { owner_auth = hw_owner_auth; srk_auth = hw_srk_auth })
  in
  assert (resp.Cmd.rc = Types.tpm_success);
  let manager_digest = Vtpm_crypto.Sha1.digest "vtpm-manager-v2" in
  let resp =
    Engine.execute hw_tpm ~locality:4 (Cmd.Extend { pcr = manager_pcr; digest = manager_digest })
  in
  assert (resp.Cmd.rc = Types.tpm_success);
  {
    instances = Hashtbl.create 16;
    domid_index = Hashtbl.create 16;
    next_id = 1;
    hw_tpm;
    hw_srk_auth;
    hw_owner_auth;
    rsa_bits;
    cost;
    seed;
    creation_seed = seed;
    quote_profile;
    lanes = Vtpm_util.Cost.Lanes.create 1;
    shards = None;
    hw_faults = None;
    hw_ops = 0;
    hw_power_cycles = 0;
    hw_client = None;
  }

(* --- Execution lanes and shard routing ------------------------------------ *)

(* The pool an instance executes on: its shard's private pool when it
   belongs to a registered group, the manager-wide pool otherwise. *)
let pool_for t (inst : instance) =
  match t.shards with
  | Some g when inst.group_id <> 0 -> (
      match Group.find g inst.group_id with
      | Some s -> s.Group.pool
      | None -> t.lanes)
  | _ -> t.lanes

let pool_for_id t vtpm_id =
  match Hashtbl.find_opt t.instances vtpm_id with
  | Some inst -> pool_for t inst
  | None -> t.lanes

(* Replacing the pool mid-run must not rewind simulated time: drain the
   old pool's in-flight horizons into the meter first, so work already
   dispatched stays paid for (the fresh lanes then start from [now]). *)
let set_lanes ?placement t n =
  Vtpm_util.Cost.Lanes.sync t.lanes t.cost;
  t.lanes <- Vtpm_util.Cost.Lanes.create ?placement n

let lane_count t = Vtpm_util.Cost.Lanes.count t.lanes
let lane_of t ~vtpm_id = Vtpm_util.Cost.Lanes.lane_for (pool_for_id t vtpm_id) ~key:vtpm_id

(* True when re-homing work onto the instance's own lane changes anything:
   its pool can overlap work. Shard pools always can ([Group.create]
   refuses single-lane shards). The supervisor keys lane-aware recovery
   off this, per instance. *)
let parallel_for t ~vtpm_id = Vtpm_util.Cost.Lanes.count (pool_for_id t vtpm_id) > 1

let sync_lanes t =
  Vtpm_util.Cost.Lanes.sync t.lanes t.cost;
  match t.shards with Some g -> Group.sync g t.cost | None -> ()

(* Self-syncing: drain in-flight horizons first so stats can never show a
   meter that lags the pool. The drain only advances [now]; executed
   counts and busy_us are untouched. *)
let lane_stats t =
  sync_lanes t;
  Vtpm_util.Cost.Lanes.stats t.lanes

let charge_lane t ~vtpm_id us =
  ignore (Vtpm_util.Cost.Lanes.exec (pool_for_id t vtpm_id) t.cost ~key:vtpm_id us)

(* --- Shard (vTPM group) management ---------------------------------------- *)

let set_shards t g = t.shards <- g
let shards t = t.shards

let shard_of t (inst : instance) =
  match t.shards with
  | Some g when inst.group_id <> 0 -> Group.find g inst.group_id
  | _ -> None

let shard_stats t = match t.shards with Some g -> Group.stats g | None -> []

(* Move an instance into the group for [label] (minting the shard on
   first sight) and keep the domid routing index in step. Requires
   [set_shards]; grouping without a registry is a programming error. *)
let assign_group t (inst : instance) ~label =
  match t.shards with
  | None -> invalid_arg "Manager.assign_group: sharding is not enabled"
  | Some g ->
      (match Group.find g inst.group_id with
      | Some old when old.Group.group_id <> 0 ->
          old.Group.members <- old.Group.members - 1
      | _ -> ());
      let s = Group.intern g ~label in
      inst.group_id <- s.Group.group_id;
      s.Group.members <- s.Group.members + 1;
      (match inst.bound_domid with
      | Some d -> Hashtbl.replace t.domid_index d (inst.group_id, inst.vtpm_id)
      | None -> ());
      s

let find t vtpm_id : (instance, Vtpm_util.Verror.t) result =
  match Hashtbl.find_opt t.instances vtpm_id with
  | Some i -> Ok i
  | None -> Vtpm_util.Verror.no_such "vTPM instance %d" vtpm_id

(* Behind both [create_instance] and [adopt_instance], so the id and seed
   sequence (hence later EKs) is the same whichever path ran. *)
let add_instance t ~state make_engine : instance =
  let vtpm_id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.seed <- t.seed + 7919;
  let inst =
    {
      vtpm_id;
      engine = make_engine t.seed;
      state;
      bound_domid = None;
      group_id = 0;
      created_at = Vtpm_util.Cost.now t.cost;
    }
  in
  Hashtbl.replace t.instances vtpm_id inst;
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.vtpm_attach_us;
  inst

let create_instance t : instance =
  add_instance t ~state:Active (fun seed ->
      let engine = Engine.create ~rsa_bits:t.rsa_bits ~seed () in
      let resp = Engine.execute engine ~locality:4 (Cmd.Startup Types.St_clear) in
      assert (resp.Cmd.rc = Types.tpm_success);
      engine)

let adopt_instance t ?(state = Active) engine : instance =
  add_instance t ~state (fun _ -> engine)

(* --- Domain binding and the domid index ---------------------------------- *)

(* The index mirrors [bound_domid] across the instance table; every
   mutation of a binding goes through one of the functions below so the
   two can never disagree. *)

let drop_index_entry t (inst : instance) =
  match inst.bound_domid with
  | Some d -> (
      match Hashtbl.find_opt t.domid_index d with
      | Some (_, id) when id = inst.vtpm_id -> Hashtbl.remove t.domid_index d
      | _ -> ())
  | None -> ()

(* A domid routes to exactly one instance: whoever held it before loses
   the binding, so the index and the per-instance records cannot drift
   into claiming the same frontend twice. *)
let evict_holder t domid ~(except : int) =
  match Hashtbl.find_opt t.domid_index domid with
  | Some (_, other_id) when other_id <> except -> (
      Hashtbl.remove t.domid_index domid;
      match Hashtbl.find_opt t.instances other_id with
      | Some other -> other.bound_domid <- None
      | None -> ())
  | _ -> ()

let bind_domid t (inst : instance) domid =
  evict_holder t domid ~except:inst.vtpm_id;
  drop_index_entry t inst;
  inst.bound_domid <- Some domid;
  Hashtbl.replace t.domid_index domid (inst.group_id, inst.vtpm_id)

let unbind_domid t (inst : instance) =
  drop_index_entry t inst;
  inst.bound_domid <- None

let release_member t (inst : instance) =
  match t.shards with
  | Some g when inst.group_id <> 0 -> (
      match Group.find g inst.group_id with
      | Some s -> s.Group.members <- max 0 (s.Group.members - 1)
      | None -> ())
  | _ -> ()

let count_member t (inst : instance) =
  match t.shards with
  | Some g when inst.group_id <> 0 -> (
      match Group.find g inst.group_id with
      | Some s -> s.Group.members <- s.Group.members + 1
      | None -> ())
  | _ -> ()

(* Install (or replace) an instance record wholesale — the restore path
   used by checkpoint/migration/state-resume, which rebuild records rather
   than mutate live ones. Keeps the index (and shard membership) in step
   with the incoming record. *)
let install_instance t (inst : instance) =
  (match Hashtbl.find_opt t.instances inst.vtpm_id with
  | Some old ->
      drop_index_entry t old;
      release_member t old
  | None -> ());
  count_member t inst;
  Hashtbl.replace t.instances inst.vtpm_id inst;
  match inst.bound_domid with
  | Some d ->
      evict_holder t d ~except:inst.vtpm_id;
      Hashtbl.replace t.domid_index d (inst.group_id, inst.vtpm_id)
  | None -> ()

let destroy_instance t vtpm_id =
  (match Hashtbl.find_opt t.instances vtpm_id with
  | Some inst ->
      drop_index_entry t inst;
      release_member t inst
  | None -> ());
  Hashtbl.remove t.instances vtpm_id

(* A wedged instance stops answering until it is restored from a
   checkpoint (or destroyed). The manager domain itself stays up. *)
let wedge (inst : instance) = inst.state <- Wedged
let is_wedged (inst : instance) = inst.state = Wedged

(* Simulated manager-domain crash: all in-memory instance state is gone.
   The hardware TPM is a physical chip — it survives, which is exactly
   what lets sealed checkpoints restore afterwards. *)
let crash t =
  Hashtbl.reset t.instances;
  Hashtbl.reset t.domid_index;
  match t.shards with
  | Some g -> List.iter (fun s -> s.Group.members <- 0) (Group.shards g)
  | None -> ()

let instances t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.instances []
  |> List.sort (fun a b -> Stdlib.compare a.vtpm_id b.vtpm_id)

let instance_for_domid t domid =
  match Hashtbl.find_opt t.domid_index domid with
  | None -> None
  | Some (_, vtpm_id) -> Hashtbl.find_opt t.instances vtpm_id

(* O(1) frontend routing, shard-aware: one index lookup yields both the
   owning group (0 when unsharded) and the instance. *)
let route_for_domid t domid =
  match Hashtbl.find_opt t.domid_index domid with
  | None -> None
  | Some (group_id, vtpm_id) -> (
      match Hashtbl.find_opt t.instances vtpm_id with
      | Some inst -> Some (group_id, inst)
      | None -> None)

(* Simulated execution cost of a TPM command, charged per dispatch. *)
let command_cost t ordinal =
  let open Vtpm_util.Cost in
  if ordinal = Types.ord_extend then tpm_extend_us
  else if ordinal = Types.ord_pcr_read then tpm_pcr_read_us
  else if ordinal = Types.ord_get_random then tpm_get_random_us
  else if ordinal = Types.ord_seal then tpm_seal_us
  else if ordinal = Types.ord_unseal then tpm_unseal_us
  else if ordinal = Types.ord_quote then quote_cost_us t.quote_profile
  else if ordinal = Types.ord_load_key2 || ordinal = Types.ord_create_wrap_key then tpm_loadkey_us
  else if
    ordinal = Types.ord_nv_read_value || ordinal = Types.ord_nv_write_value
    || ordinal = Types.ord_nv_define_space
  then tpm_nv_us
  else tpm_generic_us

(* Execute a decoded-or-raw TPM wire request on an instance. Guests always
   talk to their vTPM at locality 0; the manager itself uses higher
   localities for administrative operations. *)
let execute_wire t (inst : instance) ~(wire : string) : (string, Vtpm_util.Verror.t) result =
  match inst.state with
  | Suspended -> Vtpm_util.Verror.conflict "vTPM %d is suspended" inst.vtpm_id
  | Wedged -> Vtpm_util.Verror.conflict "vTPM %d is wedged" inst.vtpm_id
  | Active -> (
    match Wire.decode_request wire with
    | exception Wire.Malformed m -> Vtpm_util.Verror.bad_request "%s" m
    | req ->
        (* Execute on the instance's lane (its shard's pool when grouped):
           same-instance commands stay strictly ordered; different
           instances on different lanes overlap in simulated time. *)
        ignore
          (Vtpm_util.Cost.Lanes.exec (pool_for t inst) t.cost ~key:inst.vtpm_id
             (command_cost t (Cmd.ordinal req)));
        let resp = Engine.execute inst.engine ~locality:0 req in
        Ok (Wire.encode_response resp))

(* --- Hardware-TPM access for the manager's own needs --------------------- *)

let set_hw_faults t f = t.hw_faults <- f

(* Chip power cycle / reset: volatile state (auth sessions) is gone; NV,
   counters, keys and PCRs persist. The platform's firmware restarts the
   part and dom0 re-launches the manager, which re-measures to the same
   digest — so the measured PCR state is reconstructed identically and
   sealed blobs bound to [manager_pcr] still unseal. The simulation
   models that by clearing sessions and leaving the PCR bank alone. *)
let hw_power_cycle t =
  Auth.clear t.hw_tpm.Engine.sessions;
  t.hw_tpm.Engine.started <- false;
  let resp = Engine.execute t.hw_tpm ~locality:4 (Cmd.Startup Types.St_clear) in
  assert (resp.Cmd.rc = Types.tpm_success);
  t.hw_power_cycles <- t.hw_power_cycles + 1

(* NV space targeted by a request, for the at-rest corruption fault. *)
let nv_index_of = function
  | Cmd.Nv_write_value { index; _ } | Cmd.Nv_read_value { index; _ }
  | Cmd.Nv_define_space { index; _ } ->
      Some index
  | _ -> None

let hw_transport t : Client.transport =
 fun bytes ->
  let req = Wire.decode_request bytes in
  match t.hw_faults with
  | None -> Wire.encode_response (Engine.execute t.hw_tpm ~locality:2 req)
  | Some f ->
      t.hw_ops <- t.hw_ops + 1;
      let open Vtpm_xen.Faults in
      if fire f Hw_power_loss then begin
        (* The command's fate is unknown to the client; here it is lost. *)
        hw_power_cycle t;
        raise (Failure (Client.hw_fault_prefix ^ " power loss mid-exchange"))
      end;
      if fire f Hw_reset then begin
        hw_power_cycle t;
        raise (Failure (Client.hw_fault_prefix ^ " reset cycle mid-exchange"))
      end;
      if fire f Hw_busy then Wire.encode_response (Cmd.error Types.tpm_retry)
      else begin
        (* Stall: the command executes, but the response is late — charge
           the simulated clock past any sane deadline so the caller's
           deadline check flags it (and a retried increment can double). *)
        if fire f Hw_stall then
          Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.hwtpm_stall_us;
        let resp = Engine.execute t.hw_tpm ~locality:2 req in
        (if fire f Hw_nv_corrupt then
           match nv_index_of req with
           | Some index ->
               let pos, mask = byte_flip f in
               ignore (Nvram.corrupt t.hw_tpm.Engine.nv ~index ~pos ~mask)
           | None -> ());
        Wire.encode_response resp
      end

(* One client per manager, so its nonceOdd stream runs on from exchange
   to exchange; a client rebuilt per call would restart the stream and
   repeat every nonce. Seeded from the immutable creation-time seed: the
   stream must not depend on how many instances existed when it was built
   (t.seed is bumped by every [create_instance]). *)
let hw_client t =
  match t.hw_client with
  | Some hw -> hw
  | None ->
      let hw = Client.create ~seed:((t.creation_seed * 31) + 5) (hw_transport t) in
      t.hw_client <- Some hw;
      hw

(* Every manager -> hardware-TPM session goes through [with_hw_session].
   The manager is the chip's only user. It never keeps a session past the
   call that opened it, nor a transient key past the deep quote that
   loaded it, so a session or key still loaded when a new one is refused
   with TPM_RESOURCES is an orphan: its command failed and its flush was
   refused too (a busy chip answers every command with TPM_RETRY). *)
type hw_opener = Oiap of string | Osap of { entity : int; secret : string }
type hw_resource = Hw_sessions | Hw_keys

let hw_flush hw handle = ignore (Client.exchange hw (Cmd.Flush_specific { handle }))

let reclaim_hw ?(keep = []) hw resource =
  let sub = match resource with Hw_sessions -> Types.rt_auth | Hw_keys -> Types.rt_key in
  match Client.exchange hw (Cmd.Get_capability { cap = Types.cap_handle; sub }) with
  | Ok { Cmd.body = Cmd.R_capability payload; _ } -> (
      let r = Vtpm_util.Codec.reader payload in
      match List.init (Vtpm_util.Codec.read_u16 r) (fun _ -> Vtpm_util.Codec.read_u32_int r) with
      | handles -> List.iter (fun h -> if not (List.mem h keep) then hw_flush hw h) handles
      | exception Vtpm_util.Codec.Truncated _ -> ())
  | _ -> ()

let reclaiming_hw ?keep hw resource f =
  match f () with
  | Error (Client.Tpm rc) when rc = Types.tpm_resources ->
      reclaim_hw ?keep hw resource;
      f ()
  | r -> r

(* The engine frees a session only when a [continue:false] command
   succeeds, so a command that fails after session setup strands the
   engine-side slot; eight strays and every later session start dies
   with TPM_RESOURCES. Flush best-effort on failure: after a power cut
   the table is already clear and flushing a dead handle is harmless.
   The success path sends nothing extra. [keep] lists the session
   handles an enclosing call still holds, which a reclaim must spare. *)
let with_hw_session ?keep hw opener f =
  let start () =
    match opener with
    | Oiap secret -> Client.start_oiap hw ~usage_secret:secret
    | Osap { entity; secret } -> Client.start_osap hw ~entity_handle:entity ~usage_secret:secret
  in
  match reclaiming_hw ?keep hw Hw_sessions start with
  | Error _ as err -> err
  | Ok sess -> (
      match f sess with
      | Ok _ as ok -> ok
      | Error _ as err ->
          hw_flush hw sess.Client.handle;
          err)
