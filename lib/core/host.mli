(** The integrated host: hypervisor + vTPM manager + split driver + the
    selected access-control front-end — the facade examples, tests and
    benchmarks drive.

    Also models the dom0 filesystem (where suspended vTPM state lives) so
    the dump attacks have something concrete to read. *)

type mode = Baseline_mode | Improved_mode

val mode_name : mode -> string

type guest = {
  domid : Vtpm_xen.Domain.domid;
  name : string;
  vtpm_id : int;
  conn : Vtpm_mgr.Driver.connection;
}

type t = {
  xen : Vtpm_xen.Hypervisor.t;
  mgr : Vtpm_mgr.Manager.t;
  mode : mode;
  monitor : Monitor.t option;  (** [Some] iff improved mode *)
  baseline : Baseline.t option;  (** [Some] iff baseline mode *)
  backend : Vtpm_mgr.Driver.backend;
  files : (string, string) Hashtbl.t;  (** dom0 filesystem: path → bytes *)
  acm : Acm.t option;  (** sHype coarse policy, improved mode only *)
  mutable guests : guest list;
  manager_token : string;
  mutable group_of : (guest -> string) option;
      (** sharding: when set, every guest (present and future) is
          assigned to the vTPM group named by this function — see
          {!enable_sharding} *)
}

val manager_process : string
(** The privileged dom0 process name the monitor trusts for management. *)

val create :
  ?mode:mode ->
  ?seed:int ->
  ?rsa_bits:int ->
  ?quote_profile:Vtpm_util.Cost.quote_profile ->
  ?policy:Policy.t ->
  ?charge:Monitor.charge ->
  ?acm:Acm.t ->
  unit ->
  t
(** [quote_profile] is passed to {!Vtpm_mgr.Manager.create}; [policy] and
    [charge] to {!Monitor.create}. *)

val cost : t -> Vtpm_util.Cost.t
val now_us : t -> float

val monitor_exn : t -> Monitor.t
(** @raise Invalid_argument in baseline mode. *)

(** {1 Manager sharding (vTPM groups)} *)

val enable_sharding :
  t ->
  ?lanes_per_shard:int ->
  ?group_of:(guest -> string) ->
  unit ->
  Vtpm_mgr.Group.t
(** Shard the manager by vTPM group (group = tenant = shard, each with
    its own lane pool, quota scope and audit stream tag): installs a
    group registry, assigns every present and future guest by
    [group_of] (default: the guest domain's security label), and
    redirects each frontend's per-request serial residue onto its shard
    lane. Opt-in: a host that never calls this is byte-identical to the
    seed. *)

val sharded : t -> bool

(** {1 Guest lifecycle} *)

val create_guest : t -> name:string -> label:string -> ?kernel:string -> unit -> (guest, string) result
(** Build a domain, measure its kernel, create and bind a vTPM instance,
    publish the device nodes and connect the split driver. ACM (when
    configured) polices admission: Chinese Wall at build, STE at attach. *)

val create_guest_exn : t -> name:string -> label:string -> ?kernel:string -> unit -> guest

val find_guest : t -> Vtpm_xen.Domain.domid -> guest option

val destroy_guest : t -> guest -> (unit, string) result
(** Disconnects the driver, frees the binding (and the Chinese Wall slot),
    destroys the instance and the domain. *)

val guest_client : t -> guest -> Vtpm_tpm.Client.t
(** A TPM client speaking through the guest's split-driver connection —
    what the guest's TSS stack sees. Denials surface as
    {!Vtpm_mgr.Driver.Denied}. *)

(** {1 Suspended-state files} *)

val state_path : int -> string

val suspend_vtpm : t -> guest -> (unit, string) result
(** Save the guest's vTPM to the dom0 filesystem in the mode's native
    format: plaintext (baseline) or sealed (improved). *)

val resume_vtpm : t -> guest -> (unit, string) result

val read_file : t -> string -> string option
(** Unmediated dom0 file read, as on a real host — the attack surface the
    sealed format defends, not the monitor. *)

val write_file : t -> string -> string -> unit

(** {1 Management facade (mode-dispatched)} *)

val management :
  t -> process:string -> token:string -> Monitor.management_op ->
  (Monitor.management_result, string) result
(** Improved mode: credential + policy via {!Monitor.management}. Baseline
    mode: executes unauthenticated with plaintext state (the 2006
    behaviour); [Export_audit] is unavailable there. *)

val manager_token : t -> string
(** The manager daemon's own credential, for tests and tooling. *)
