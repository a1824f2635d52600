(** The hypervisor: domain table plus the interdomain mechanisms (event
    channels, grant tables, XenStore) and the privileged control interface
    (domctl).

    Privilege model is Xen's: exactly dom0 may invoke domctl operations —
    including {!read_foreign_memory}, the primitive behind the "CPU and
    memory dump software" attack in the paper's abstract. The hypervisor
    cannot tell dom0 processes apart; the vTPM layers above decide who
    *within* dom0 may reach the vTPM. *)

type t = {
  domains : (Domain.domid, Domain.t) Hashtbl.t;
  mutable next_domid : Domain.domid;
  evtchn : Evtchn.t;
  gnttab : Gnttab.t;
  store : Xenstore.t;
  cost : Vtpm_util.Cost.t;  (** simulated-time meter shared by the stack *)
  mutable faults : Faults.t;  (** fault-injection plan; {!Faults.none} by default *)
}

val dom0_id : Domain.domid

val create : ?faults:Faults.t -> unit -> t
(** Fresh host with a running dom0. [faults] defaults to a disarmed
    injector; pass one (or use {!set_faults}) to make the interdomain
    mechanisms misbehave deterministically. *)

val set_faults : t -> Faults.t -> unit

val is_privileged : t -> Domain.domid -> bool
val find_domain : t -> Domain.domid -> (Domain.t, string) result

val domain_exn : t -> Domain.domid -> Domain.t
(** @raise Invalid_argument when absent or dead. *)

val require_privileged : t -> Domain.domid -> (unit, string) result

(** {1 domctl: domain lifecycle} *)

val domain_xs_path : Domain.domid -> string
(** [/local/domain/<id>]. *)

val create_domain :
  t -> caller:Domain.domid -> name:string -> label:string -> ?max_pages:int -> unit ->
  (Domain.domid, string) result
(** Build a guest (privileged); writes the standard XenStore home
    directory, readable only by the new guest. *)

val unpause_domain : t -> caller:Domain.domid -> Domain.domid -> (unit, string) result
val pause_domain : t -> caller:Domain.domid -> Domain.domid -> (unit, string) result

val destroy_domain : t -> caller:Domain.domid -> Domain.domid -> (unit, string) result
(** Tears down event channels, grants and the XenStore home. dom0 itself
    cannot be destroyed. *)

val shutdown_self : t -> Domain.domid -> reason:string -> (unit, string) result
(** Guest-initiated shutdown (SCHEDOP_shutdown). *)

(** {1 domctl: foreign memory}

    The dump primitive: legitimate uses are migration, core dumps and
    debuggers — the malicious use is the very same call. *)

val read_foreign_memory :
  t -> caller:Domain.domid -> target:Domain.domid -> frame:int -> offset:int -> length:int ->
  (string, string) result

val scan_foreign_memory :
  t -> caller:Domain.domid -> target:Domain.domid -> pattern:string ->
  ((int * int) list, string) result

(** {1 Interdomain plumbing} *)

val bind_evtchn : t -> a:Domain.domid -> b:Domain.domid -> Evtchn.port * Evtchn.port
val notify : t -> domid:Domain.domid -> port:Evtchn.port -> (unit, string) result
val evtchn_remote : t -> domid:Domain.domid -> port:Evtchn.port -> Domain.domid option

val grant :
  t -> owner:Domain.domid -> grantee:Domain.domid -> frame:int -> access:Gnttab.access -> Gnttab.gref

val map_grant :
  t -> caller:Domain.domid -> owner:Domain.domid -> gref:Gnttab.gref ->
  (int * Gnttab.access, string) result

val unmap_grant :
  t -> caller:Domain.domid -> owner:Domain.domid -> gref:Gnttab.gref ->
  (unit, string) result

val remap_grant :
  t -> caller:Domain.domid -> owner:Domain.domid -> gref:Gnttab.gref -> frame:int ->
  (unit, string) result
(** Privileged (dom0) rewrite of a live grant's backing frame — the
    Hetzelt-style page-remapping capability. The hypervisor cannot tell a
    legitimate toolstack use from a rogue dom0 tool; the vTPM driver's
    transport-integrity check is what detects the swap. *)

val force_revoke_grant :
  t -> caller:Domain.domid -> owner:Domain.domid -> gref:Gnttab.gref ->
  (unit, string) result
(** End a grant even while mapped (owner or dom0). The mapped side's next
    transport-integrity check fails the in-flight operation. *)

val grant_backing :
  t -> owner:Domain.domid -> gref:Gnttab.gref -> (int * bool * bool) option
(** [(frame, in_use, revoked)] for a grant — the mapping side's view. *)

val grant_generation : t -> int
(** {!Gnttab.generation} of the grant table: unchanged since a full
    validation walk means every grant the walk accepted still passes. *)

(** {1 XenStore access (charged to the simulated clock)} *)

val xs_read : t -> caller:Domain.domid -> string -> (string, Xenstore.error) result
val xs_write : t -> caller:Domain.domid -> string -> string -> (unit, Xenstore.error) result
val xs_rm : t -> caller:Domain.domid -> string -> (unit, Xenstore.error) result
val xs_directory : t -> caller:Domain.domid -> string -> (string list, Xenstore.error) result

val all_domains : t -> Domain.t list
