(* The hypervisor: domain table plus the three interdomain mechanisms
   (event channels, grant tables, XenStore) and the privileged control
   interface (domctl) the toolstack uses.

   Privilege model is Xen's: exactly the control domain (dom0) may invoke
   domctl operations — including [read_foreign_memory], the primitive
   behind the "CPU and memory dump software" attack from the paper's
   abstract. The vTPM layers above decide *who within dom0* may reach the
   vTPM; the hypervisor itself cannot tell dom0 tools apart. *)

type t = {
  domains : (Domain.domid, Domain.t) Hashtbl.t;
  mutable next_domid : Domain.domid;
  evtchn : Evtchn.t;
  gnttab : Gnttab.t;
  store : Xenstore.t;
  cost : Vtpm_util.Cost.t; (* simulated-time meter shared by the stack *)
  mutable faults : Faults.t; (* fault-injection plan; Faults.none by default *)
}

let dom0_id = 0

let is_privileged t domid =
  match Hashtbl.find_opt t.domains domid with Some d -> d.Domain.privileged | None -> false

let create ?(faults = Faults.none ()) () =
  let t =
    {
      domains = Hashtbl.create 16;
      next_domid = 1;
      evtchn = Evtchn.create ();
      gnttab = Gnttab.create ();
      store = Xenstore.create ();
      cost = Vtpm_util.Cost.create ();
      faults;
    }
  in
  let dom0 =
    Domain.create ~id:dom0_id ~name:"Domain-0" ~privileged:true ~label:"system_u:dom0"
      ~max_pages:65536
  in
  dom0.Domain.state <- Domain.Running;
  Hashtbl.replace t.domains dom0_id dom0;
  (* Replace the default privilege check with the live domain table. *)
  let store =
    Xenstore.create ~is_privileged:(fun d -> is_privileged t d) ()
  in
  { t with store }

let set_faults t faults = t.faults <- faults

let find_domain t domid : (Domain.t, string) result =
  match Hashtbl.find_opt t.domains domid with
  | Some d when Domain.is_alive d -> Ok d
  | Some _ -> Error (Printf.sprintf "domain %d is dead" domid)
  | None -> Error (Printf.sprintf "no domain %d" domid)

let domain_exn t domid = Vtpm_util.Verror.get_ok ~what:"domain" (
  match find_domain t domid with Ok d -> Ok d | Error e -> Error (Vtpm_util.Verror.No_such e))

let require_privileged t caller : (unit, string) result =
  if is_privileged t caller then Ok ()
  else Error (Printf.sprintf "domain %d is not privileged" caller)

(* --- domctl: domain lifecycle ------------------------------------------- *)

let domain_xs_path domid = Printf.sprintf "/local/domain/%d" domid

let create_domain t ~caller ~name ~label ?(max_pages = 4096) () : (Domain.domid, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () ->
      let id = t.next_domid in
      t.next_domid <- t.next_domid + 1;
      let d = Domain.create ~id ~name ~privileged:false ~label ~max_pages in
      Hashtbl.replace t.domains id d;
      Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.domain_build_us;
      (* Standard toolstack layout: home directory readable only by its
         guest. Perms are set before children are written so the ACL is
         inherited by everything below. *)
      let home = domain_xs_path id in
      ignore (Xenstore.mkdir t.store ~caller:dom0_id home);
      ignore
        (Xenstore.set_perms t.store ~caller:dom0_id home ~owner:dom0_id ~others:Xenstore.Pnone
           ~acl:[ (id, Xenstore.Pread) ]);
      ignore (Xenstore.write t.store ~caller:dom0_id (home ^ "/name") name);
      Ok id

let unpause_domain t ~caller domid : (unit, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> (
      match find_domain t domid with
      | Error e -> Error e
      | Ok d -> (
          match d.Domain.state with
          | Domain.Building | Domain.Paused -> Domain.transition d Domain.Running
          | _ -> Error "domain not startable"))

let pause_domain t ~caller domid : (unit, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> (
      match find_domain t domid with
      | Error e -> Error e
      | Ok d -> Domain.transition d Domain.Paused)

let destroy_domain t ~caller domid : (unit, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> (
      if domid = dom0_id then Error "cannot destroy dom0"
      else
        match find_domain t domid with
        | Error e -> Error e
        | Ok d ->
            (match Domain.transition d Domain.Dying with Ok () -> () | Error _ -> ());
            Evtchn.close_all_for t.evtchn domid;
            Gnttab.revoke_all_for t.gnttab domid;
            ignore (Xenstore.rm t.store ~caller:dom0_id (domain_xs_path domid));
            ignore (Domain.transition d Domain.Dead);
            Ok ())

(* Guest self-shutdown (SCHEDOP_shutdown): any domain may stop itself. *)
let shutdown_self t domid ~reason : (unit, string) result =
  match find_domain t domid with
  | Error e -> Error e
  | Ok d -> Domain.transition d (Domain.Shutdown reason)

(* --- domctl: foreign memory access ---------------------------------------

   The dump primitive. Legitimate uses: live migration, core dumps,
   debuggers. Malicious use: exactly the same call — which is the paper's
   point: the hypervisor grants it to all of dom0. *)

let read_foreign_memory t ~caller ~target ~frame ~offset ~length : (string, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> (
      match find_domain t target with
      | Error e -> Error e
      | Ok d -> Domain.read_memory d ~frame ~offset ~length)

let scan_foreign_memory t ~caller ~target ~pattern : ((int * int) list, string) result =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> (
      match find_domain t target with
      | Error e -> Error e
      | Ok d -> Ok (Domain.scan_memory d ~pattern))

(* --- Interdomain plumbing ------------------------------------------------- *)

let bind_evtchn t ~a ~b = Evtchn.bind_interdomain t.evtchn ~a ~b

(* Notification delivery is where the injector models a lossy platform: a
   dropped kick looks like success to the sender (exactly the failure a
   guest cannot observe), a delayed one charges extra simulated time, a
   duplicated one lands twice on the peer. *)
let notify t ~domid ~port =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.evtchn_notify_us;
  if Faults.fire t.faults Faults.Drop_notify then Ok ()
  else begin
    if Faults.fire t.faults Faults.Delay_notify then
      Vtpm_util.Cost.charge t.cost (Faults.delay_us t.faults);
    let r = Evtchn.notify t.evtchn ~domid ~port in
    (if Result.is_ok r && Faults.fire t.faults Faults.Dup_notify then
       ignore (Evtchn.notify t.evtchn ~domid ~port));
    r
  end

let evtchn_remote t ~domid ~port = Evtchn.remote_domid t.evtchn ~domid ~port

let grant t ~owner ~grantee ~frame ~access = Gnttab.grant_access t.gnttab ~owner ~grantee ~frame ~access

let map_grant t ~caller ~owner ~gref =
  if Faults.fire t.faults Faults.Grant_map_fail then
    Error "transient grant map failure (injected)"
  else Gnttab.map t.gnttab ~caller ~owner ~gref

let unmap_grant t ~caller ~owner ~gref =
  if Faults.fire t.faults Faults.Grant_unmap_fail then
    Error "transient grant unmap failure (injected)"
  else Gnttab.unmap t.gnttab ~caller ~owner ~gref

(* Remapping a live grant's backing frame is a privileged (dom0-side)
   capability — on real hardware a second-level translation rewrite. The
   hypervisor cannot tell a toolstack's legitimate use from a rogue dom0
   tool's: that is exactly the encrypted-VM-era attack surface, and why
   the driver validates grant backing instead of trusting it. *)
let remap_grant t ~caller ~owner ~gref ~frame =
  match require_privileged t caller with
  | Error e -> Error e
  | Ok () -> Gnttab.remap t.gnttab ~owner ~gref ~frame

let force_revoke_grant t ~caller ~owner ~gref =
  if caller <> owner && not (is_privileged t caller) then
    Error "only the owner or dom0 may force-revoke a grant"
  else Gnttab.force_revoke t.gnttab ~owner ~gref

let grant_backing t ~owner ~gref = Gnttab.inspect t.gnttab ~owner ~gref
let grant_generation t = Gnttab.generation t.gnttab

(* XenStore access, charged to the simulated clock. Transient injected
   failures surface as EAGAIN — the error real xenstore clients already
   retry on. *)
let xs_read t ~caller path =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.xenstore_op_us;
  if Faults.fire t.faults Faults.Xenstore_transient then Error Xenstore.Eagain
  else Xenstore.read t.store ~caller path

let xs_write t ~caller path value =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.xenstore_op_us;
  if Faults.fire t.faults Faults.Xenstore_transient then Error Xenstore.Eagain
  else Xenstore.write t.store ~caller path value

let xs_rm t ~caller path =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.xenstore_op_us;
  Xenstore.rm t.store ~caller path

let xs_directory t ~caller path = Xenstore.directory t.store ~caller path

let all_domains t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.domains []
  |> List.sort (fun a b -> Stdlib.compare a.Domain.id b.Domain.id)
