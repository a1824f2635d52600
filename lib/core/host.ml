(* The integrated host: hypervisor + vTPM manager + split driver + the
   selected access-control front-end (baseline or improved).

   This is the facade examples, tests and benchmarks drive. It also
   models the dom0 filesystem (where suspended vTPM state lives) so the
   dump attacks have something concrete to read. *)

open Vtpm_xen

type mode = Baseline_mode | Improved_mode

let mode_name = function Baseline_mode -> "baseline" | Improved_mode -> "improved"

type guest = {
  domid : Domain.domid;
  name : string;
  vtpm_id : int;
  conn : Vtpm_mgr.Driver.connection;
}

type t = {
  xen : Hypervisor.t;
  mgr : Vtpm_mgr.Manager.t;
  mode : mode;
  monitor : Monitor.t option; (* Some iff Improved_mode *)
  baseline : Baseline.t option; (* Some iff Baseline_mode *)
  backend : Vtpm_mgr.Driver.backend;
  files : (string, string) Hashtbl.t; (* dom0 filesystem: path -> bytes *)
  acm : Acm.t option; (* sHype-style coarse policy, improved mode only *)
  mutable guests : guest list;
  manager_token : string;
  mutable group_of : (guest -> string) option;
      (* sharding: when set, every guest (present and future) is assigned
         to the vTPM group named by this function — see [enable_sharding] *)
}

let manager_process = "vtpm-manager"

let create ?(mode = Improved_mode) ?(seed = 1) ?(rsa_bits = 512) ?quote_profile ?policy ?charge
    ?acm () : t =
  let xen = Hypervisor.create () in
  let mgr = Vtpm_mgr.Manager.create ~rsa_bits ?quote_profile ~seed ~cost:xen.Hypervisor.cost () in
  let manager_token = Vtpm_util.Hex.encode (Vtpm_crypto.Sha256.digest (Printf.sprintf "mgr-token-%d" seed)) in
  let monitor, baseline, router =
    match mode with
    | Improved_mode ->
        let m = Monitor.create ~xen ~mgr ?policy ?charge () in
        Monitor.register_process m ~process:manager_process ~token:manager_token;
        Monitor.enable_tamper_detection m;
        (Some m, None, Monitor.router m)
    | Baseline_mode ->
        let b = Baseline.create ~xen ~mgr in
        (None, Some b, Baseline.router b)
  in
  let backend = Vtpm_mgr.Driver.create_backend ~xen ~be_domid:Hypervisor.dom0_id ~router () in
  (* Improved mode stops trusting the transport: ring-grant backing,
     producer indices and slot provenance are validated, violations
     audited as denials. Baseline keeps the trusting 2006 backend. *)
  (match monitor with
  | Some m -> Monitor.wire_transport_guard m backend
  | None -> ());
  let acm = match mode with Improved_mode -> acm | Baseline_mode -> None in
  {
    xen;
    mgr;
    mode;
    monitor;
    baseline;
    backend;
    files = Hashtbl.create 8;
    acm;
    guests = [];
    manager_token;
    group_of = None;
  }

let cost t = t.xen.Hypervisor.cost
let now_us t = Vtpm_util.Cost.now (cost t)

let monitor_exn t =
  match t.monitor with
  | Some m -> m
  | None -> invalid_arg "host is in baseline mode; no monitor"

(* --- Manager sharding (vTPM groups) ---------------------------------------- *)

let assign_guest_group t (g : guest) label =
  match Vtpm_mgr.Manager.find t.mgr g.vtpm_id with
  | Ok inst -> ignore (Vtpm_mgr.Manager.assign_group t.mgr inst ~label)
  | Error _ -> ()

(* Shard the manager by vTPM group: install a group registry (group =
   tenant = shard, each with its own lane pool), assign every present and
   future guest by [group_of] (default: the guest domain's security
   label), and redirect each frontend's per-request serial residue onto
   its shard lane — each replica runs its own frontend, so one shard's
   transport work does not serialize the others. Everything here is
   opt-in: a host that never calls this is byte-identical to the seed. *)
let enable_sharding t ?lanes_per_shard ?group_of () =
  let registry = Vtpm_mgr.Group.create ?lanes_per_shard () in
  Vtpm_mgr.Manager.set_shards t.mgr (Some registry);
  let label_of =
    match group_of with
    | Some f -> f
    | None -> fun (g : guest) -> (Hypervisor.domain_exn t.xen g.domid).Domain.label
  in
  t.group_of <- Some label_of;
  List.iter (fun g -> assign_guest_group t g (label_of g)) (List.rev t.guests);
  Vtpm_mgr.Driver.set_lane_sink t.backend (fun fe_domid ->
      match Vtpm_mgr.Manager.route_for_domid t.mgr fe_domid with
      | Some (group_id, inst) when group_id <> 0 ->
          let vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id in
          Some (fun us -> Vtpm_mgr.Manager.charge_lane t.mgr ~vtpm_id us)
      | _ -> None);
  registry

let sharded t = t.group_of <> None

(* --- Guest lifecycle --------------------------------------------------------- *)

let create_guest t ~name ~label ?(kernel = "vmlinuz-5.x-tenant") () : (guest, string) result =
  (* Coarse sHype admission first: Chinese Wall at build, STE at attach. *)
  let acm_ok =
    match t.acm with
    | None -> Ok ()
    | Some acm -> (
        match Acm.may_attach_vtpm acm ~frontend_label:label ~backend_label:"system_u:dom0" with
        | Acm.Rejected r -> Error r
        | Acm.Admitted -> Ok ())
  in
  match acm_ok with
  | Error e -> Error ("ACM: " ^ e)
  | Ok () -> (
  match Hypervisor.create_domain t.xen ~caller:Hypervisor.dom0_id ~name ~label () with
  | Error e -> Error e
  | Ok domid -> (
      (* Chinese Wall: the new label must not conflict with a running one. *)
      let cw_ok =
        match t.acm with
        | None -> Ok ()
        | Some acm -> (
            match Acm.admit acm ~domid ~label with
            | Acm.Admitted -> Ok ()
            | Acm.Rejected r ->
                ignore (Hypervisor.destroy_domain t.xen ~caller:Hypervisor.dom0_id domid);
                Error ("ACM: " ^ r))
      in
      match cw_ok with
      | Error e -> Error e
      | Ok () -> (
      let dom = Hypervisor.domain_exn t.xen domid in
      Domain.set_kernel dom ~image:kernel;
      match Hypervisor.unpause_domain t.xen ~caller:Hypervisor.dom0_id domid with
      | Error e -> Error e
      | Ok () -> (
          let inst = Vtpm_mgr.Manager.create_instance t.mgr in
          Vtpm_mgr.Manager.bind_domid t.mgr inst domid;
          let vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id in
          (* Improved mode: record the authoritative binding + reference
             measurement. *)
          (match t.monitor with
          | Some m -> (
              match
                Binding.bind m.Monitor.bindings ~vtpm_id ~domid
                  ~reference_measurement:dom.Domain.kernel_digest
              with
              | Ok _ -> ()
              | Error e -> invalid_arg (Vtpm_util.Verror.to_string e))
          | None -> ());
          match
            Vtpm_mgr.Driver.publish_device ~xen:t.xen ~fe:domid ~be:Hypervisor.dom0_id
              ~instance:vtpm_id
          with
          | Error e -> Error e
          | Ok () -> (
              match Vtpm_mgr.Driver.connect t.backend ~fe_domid:domid with
              | Error e -> Error e
              | Ok conn ->
                  let g = { domid; name; vtpm_id; conn } in
                  t.guests <- g :: t.guests;
                  (match t.group_of with
                  | Some f -> assign_guest_group t g (f g)
                  | None -> ());
                  Ok g)))))

let create_guest_exn t ~name ~label ?kernel () =
  match create_guest t ~name ~label ?kernel () with
  | Ok g -> g
  | Error e -> invalid_arg ("create_guest: " ^ e)

let find_guest t domid = List.find_opt (fun g -> g.domid = domid) t.guests

let destroy_guest t (g : guest) : (unit, string) result =
  (* disconnect_domain also drops the domain's pending request queue *)
  Vtpm_mgr.Driver.disconnect_domain t.backend ~fe_domid:g.domid;
  (match t.acm with Some acm -> Acm.retire acm ~domid:g.domid | None -> ());
  (match t.monitor with
  | Some m ->
      Binding.unbind m.Monitor.bindings ~domid:g.domid;
      (* quota bucket + cached decisions must not outlive the domain *)
      Monitor.forget_subject m (Subject.Guest g.domid);
      (match m.Monitor.supervisor with
      | Some sup -> Vtpm_mgr.Supervisor.forget sup ~vtpm_id:g.vtpm_id
      | None -> ())
  | None -> ());
  Vtpm_mgr.Manager.destroy_instance t.mgr g.vtpm_id;
  t.guests <- List.filter (fun g' -> g'.domid <> g.domid) t.guests;
  Hypervisor.destroy_domain t.xen ~caller:Hypervisor.dom0_id g.domid

(* A TPM client speaking through the guest's split-driver connection —
   what the guest's TSS stack sees. *)
let guest_client t (g : guest) : Vtpm_tpm.Client.t =
  Vtpm_tpm.Client.create ~seed:(g.domid * 7 + 13)
    (Vtpm_mgr.Driver.client_transport t.backend g.conn)

(* --- Suspended-state files ---------------------------------------------------- *)

let state_path vtpm_id = Printf.sprintf "/var/lib/xen/vtpm/%d.bin" vtpm_id

(* Suspend a guest's vTPM to the dom0 filesystem, in the mode's native
   format (plaintext for baseline, sealed for improved). *)
let suspend_vtpm t (g : guest) : (unit, string) result =
  let save () =
    match t.mode with
    | Baseline_mode -> (
        match t.baseline with
        | Some b -> Baseline.save_instance b ~process:"xm-save" ~vtpm_id:g.vtpm_id
        | None -> Error "no baseline manager")
    | Improved_mode -> (
        match
          Monitor.management (monitor_exn t) ~process:manager_process ~token:t.manager_token
            (Monitor.Save_instance { vtpm_id = g.vtpm_id })
        with
        | Ok (Monitor.M_blob blob) -> Ok blob
        | Ok _ -> Error "unexpected management result"
        | Error e -> Error e)
  in
  match save () with
  | Error e -> Error e
  | Ok blob ->
      Hashtbl.replace t.files (state_path g.vtpm_id) blob;
      (match Vtpm_mgr.Manager.find t.mgr g.vtpm_id with
      | Ok inst -> inst.Vtpm_mgr.Manager.state <- Vtpm_mgr.Manager.Suspended
      | Error _ -> ());
      Ok ()

let resume_vtpm t (g : guest) : (unit, string) result =
  match Hashtbl.find_opt t.files (state_path g.vtpm_id) with
  | None -> Error "no saved state file"
  | Some blob -> (
      match Vtpm_mgr.Manager.find t.mgr g.vtpm_id with
      | Error e -> Error (Vtpm_util.Verror.to_string e)
      | Ok inst -> Vtpm_mgr.Stateproc.resume t.mgr inst blob)

(* Read any dom0 file — no mediation, as on a real host: this is the
   attack surface the sealed format defends, not the monitor. *)
let read_file t path = Hashtbl.find_opt t.files path
let write_file t path contents = Hashtbl.replace t.files path contents

(* --- Management facade (mode-dispatched) -------------------------------------- *)

(* Perform a management operation as dom0 process [process] holding
   [token]. Baseline ignores the credential entirely. *)
let management t ~process ~token (op : Monitor.management_op) :
    (Monitor.management_result, string) result =
  match t.mode with
  | Improved_mode -> Monitor.management (monitor_exn t) ~process ~token op
  | Baseline_mode -> (
      match t.baseline with
      | None -> Error "no baseline manager"
      | Some b -> (
          match op with
          | Monitor.Save_instance { vtpm_id } ->
              Result.map (fun s -> Monitor.M_blob s) (Baseline.save_instance b ~process ~vtpm_id)
          | Monitor.Restore_instance { blob } ->
              Result.map (fun i -> Monitor.M_instance i) (Baseline.restore_instance b ~process ~blob)
          | Monitor.Migrate_out { vtpm_id; dest_key = _ } ->
              Result.map (fun s -> Monitor.M_blob s) (Baseline.migrate_out b ~process ~vtpm_id)
          | Monitor.Migrate_in { stream } ->
              Result.map (fun i -> Monitor.M_instance i) (Baseline.migrate_in b ~process ~stream)
          | Monitor.Migrate_receive { stream } ->
              (* No handshake in the 2006 design: a received stream goes
                 live immediately. *)
              Result.map (fun i -> Monitor.M_instance i) (Baseline.migrate_in b ~process ~stream)
          | Monitor.Migrate_activate _ -> Ok Monitor.M_unit
          | Monitor.Migrate_abort { vtpm_id } ->
              Vtpm_mgr.Manager.destroy_instance t.mgr vtpm_id;
              Ok Monitor.M_unit
          | Monitor.Rebind { vtpm_id; new_domid } ->
              (* Baseline "rebind" is just a XenStore edit; emulate it. *)
              let path =
                Printf.sprintf "/local/domain/%d/device/vtpm/0/instance" new_domid
              in
              (match
                 Hypervisor.xs_write t.xen ~caller:Hypervisor.dom0_id path (string_of_int vtpm_id)
               with
              | Ok () -> Ok Monitor.M_unit
              | Error e -> Error (Xenstore.error_name e))
          | Monitor.Export_audit -> Error "baseline manager keeps no audit log"))

let manager_token t = t.manager_token
