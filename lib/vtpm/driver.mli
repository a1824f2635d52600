(** The vTPM split driver: frontend in the guest, backend in the manager
    domain, connected by a granted ring page and an event channel, wired
    through XenStore in the standard Xen device handshake.

    XenStore layout under [/local/domain/<fe>/device/vtpm/0]:
    [backend-id], [instance] (dom0-owned, guest-readable), [ring-ref],
    [event-channel] (guest-written). The frontend reads [instance] and
    stamps it into every frame — the baseline manager's routing input, and
    the re-pointing hole the improved monitor closes.

    Two transport modes: fail-fast (one event-gated attempt; faults lose
    the request) and self-healing (bounded retries with exponential
    backoff and a simulated-clock deadline; lost kicks are re-raised,
    corrupt frames re-sent, a crashed backend restarted and reconnected).
    Self-healing gives at-least-once semantics: a response corrupted after
    execution causes a re-send of an already-executed command. *)

type connection = {
  mutable ring : Vtpm_xen.Ring.t;
  fe_domid : Vtpm_xen.Domain.domid;
  be_domid : Vtpm_xen.Domain.domid;
  mutable fe_port : Vtpm_xen.Evtchn.port;
  mutable be_port : Vtpm_xen.Evtchn.port;
  mutable gref : Vtpm_xen.Gnttab.gref;
  mutable ring_frame : int;  (** grant backing frame recorded at the handshake *)
  mutable connected : bool;
  mutable reconnects : int;  (** reconnection handshakes run on this link *)
  instance_path : string;  (** the [instance] node, cached at connect; still read per request *)
  mutable order : int;
      (** position key in [backend.connections]: keys fall along the list *)
  mutable attention : bool;  (** member of [backend.attention] *)
}

type router =
  sender:Vtpm_xen.Domain.domid -> claimed_instance:int -> wire:string -> (string, string) result
(** Routing decision + execution, supplied by the access-control layer.
    [sender] is the hypervisor-attested frontend; [Ok] carries the TPM
    wire response, [Error] a denial reason. *)

type resilience = {
  max_retries : int;
  backoff_us : float;  (** base backoff; doubles per attempt, capped at 64x *)
  timeout_us : float;  (** per-request deadline on the simulated clock *)
}

val default_resilience : resilience
(** 12 retries, {!Vtpm_util.Cost.retry_backoff_us} base, 2 s deadline. *)

type overload_policy = {
  queue_capacity : int;  (** max pending requests per frontend *)
  deadline_us : float;  (** default relative deadline; stale entries shed *)
}
(** Admission control for the {!submit}/{!pump_one} path. [None] is the
    naive configuration: unbounded FIFO, nothing shed or rejected. *)

val default_overload : overload_policy
(** 8 slots per frontend, 10 ms deadline. *)

type queued

type backpressure = Rejected | Shed

type backend = {
  xen : Vtpm_xen.Hypervisor.t;
  be_domid : Vtpm_xen.Domain.domid;
  mutable connections : connection list;
  mutable router : router;
  mutable alive : bool;  (** manager domain up? *)
  mutable resilience : resilience option;  (** [None] = fail-fast baseline *)
  mutable restarts : int;  (** completed {!restart_backend} cycles *)
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
      (** checkpoint layer hook: restore manager state after a respawn *)
  mutable overload : overload_policy option;
  queues : (Vtpm_xen.Domain.domid, queued Queue.t) Hashtbl.t;
  mutable queued : int;  (** entries across [queues]; {!queued_total} *)
  mutable shed_count : int;  (** queued entries dropped past their deadline *)
  mutable rejected_count : int;  (** submissions refused at admission *)
  mutable on_backpressure : backpressure -> Vtpm_xen.Domain.domid -> unit;
      (** audit hook: the monitor logs sheds and rejections per subject *)
  rr_last : (Vtpm_xen.Domain.domid, int) Hashtbl.t;
      (** round-robin bookkeeping: last service sequence per frontend *)
  mutable rr_seq : int;
  mutable fifo_rotor : Vtpm_xen.Domain.domid;
      (** naive-pick rotation point: exact arrival-time ties favor the
          first domid at/after the rotor (cyclically); advances past each
          served frontend so tied frontends share service *)
  mutable batch : int;  (** max requests drained per frontend per round *)
  mutable on_batch : Vtpm_xen.Domain.domid -> int -> unit;
      (** audit hook: the monitor records multi-request batch drains *)
  mutable validate_transport : bool;
      (** off = the trusting 2006 backend; on = grant backing, producer
          index and slot provenance are verified before serving *)
  mutable on_transport_tamper : Vtpm_xen.Domain.domid -> string -> unit;
      (** audit hook: the monitor logs detected transport tampering as a
          denial against the affected frontend *)
  mutable transport_tampers : int;  (** violations detected so far *)
  mutable lane_sink : Vtpm_xen.Domain.domid -> (float -> unit) option;
      (** per-request residue redirection: when this yields a sink for
          the serving frontend, the exchange's serial residue (ring
          trip, XenStore reads, monitor/audit work) charges the sink
          instead of the global meter — see {!set_lane_sink} *)
  mutable attention : connection list;
      (** connections whose ring may need service (the rings' work hooks
          raise it); a kick serves only these *)
  mutable next_order : int;
  mutable validated_gen : int;
      (** grant generation at the start of the last completed validation
          walk over every connection; [-1] before the first *)
}

val vtpm_fe_path : Vtpm_xen.Domain.domid -> string

val create_backend :
  ?resilience:resilience ->
  xen:Vtpm_xen.Hypervisor.t -> be_domid:Vtpm_xen.Domain.domid -> router:router -> unit -> backend

val set_validate_transport : backend -> bool -> unit
(** Enable/disable transport-integrity validation. Off by default — the
    trusting 2006 backend; legitimate traffic is bit-identical either way
    (the checks are pure table lookups, charging no simulated time). *)

val validate_transport : backend -> bool

val set_on_transport_tamper : backend -> (Vtpm_xen.Domain.domid -> string -> unit) -> unit
(** Hook called with the affected frontend and a reason whenever a
    transport-integrity violation is detected (remapped/revoked ring
    grant, corrupted producer index, injected frame). *)

val transport_tamper_count : backend -> int

val set_lane_sink : backend -> (Vtpm_xen.Domain.domid -> (float -> unit) option) -> unit
(** Install the per-frontend residue sink used by sharded hosts: every
    charge the exchange makes through [Cost.charge] (ring round trip,
    XenStore reads, monitor and audit bookkeeping) accumulates and lands
    on the sink — typically the frontend instance's shard lane — instead
    of serializing on the global meter, modeling one frontend replica
    per shard. Lane executions ({!Vtpm_util.Cost.Lanes.exec}) are
    unaffected. The default [(fun _ -> None)] keeps every charge
    byte-identical to the seed. *)

val publish_device :
  xen:Vtpm_xen.Hypervisor.t -> fe:Vtpm_xen.Domain.domid -> be:Vtpm_xen.Domain.domid ->
  instance:int -> (unit, string) result
(** Toolstack step (as dom0): create the device directory (guest-owned)
    and the control nodes (dom0-owned, guest-readable). *)

val connect : backend -> fe_domid:Vtpm_xen.Domain.domid -> (connection, string) result
(** Frontend step: allocate and grant the ring, bind the event channel,
    publish [ring-ref]/[event-channel], register with the backend. *)

val reconnect : backend -> connection -> (unit, string) result
(** Frontend reconnection handshake after a crash or torn link: drop the
    old grant and event channel, re-grant a fresh ring, rebind, republish.
    Requests queued in the old ring are lost. Fails while the backend is
    down or when injected faults hit the handshake itself. *)

val disconnect : backend -> connection -> unit

val disconnect_domain : backend -> fe_domid:Vtpm_xen.Domain.domid -> unit
(** Also drops the domain's pending queue ({!forget_domain}). *)

val forget_domain : backend -> fe_domid:Vtpm_xen.Domain.domid -> unit
(** Teardown: drop a destroyed domain's per-frontend queue so pending
    work neither leaks nor executes posthumously. *)

val crash_backend : backend -> unit
(** The manager domain dies: all links sever, queued work is lost, and
    nothing processes until {!restart_backend}. Runs [on_crash]. *)

val restart_backend : backend -> unit
(** Respawn the manager domain (charging
    {!Vtpm_util.Cost.backend_restart_us}) and run [on_restart] — the
    checkpoint layer's restore hook. Frontends must still {!reconnect}. *)

val process_pending : backend -> int
(** A kick: drain the connected rings in the attention set, in
    [connections] order, route, respond; returns the number of requests
    processed. A request stranded by a lost kick is drained by the next
    kick from any frontend. With validation on, whenever the grant
    generation has moved since the last full walk, the kick walks every
    connection and validates its grant first, so a tampered idle ring is
    audited and torn at a neighbour's kick. The sender passed to the router is the ring's
    recorded frontend — unforgeable from inside a frame. Popped slots pass
    through the fault injector (corruption lands here); an injected
    manager crash kills the backend mid-drain, dropping the popped request
    unexecuted. *)

type outcome = {
  status : Proto.status;
  payload : string;
  attempts : int;  (** send attempts, >= 1 *)
  recovered : bool;  (** at least one retry or reconnect was needed *)
}

val request_with_info :
  backend -> connection -> wire:string -> (outcome, Vtpm_util.Verror.t) result
(** Frontend-side synchronous exchange: reads the claimed instance from
    XenStore (as the real frontend does), frames, kicks the backend,
    collects the response. Fail-fast mode makes one event-gated attempt;
    self-healing mode retries per the backend's {!resilience}, failing
    with [Verror.Timeout] past the deadline or [Verror.Retries_exhausted]
    past the attempt cap. *)

val request : backend -> connection -> wire:string -> (Proto.status * string, string) result
(** {!request_with_info} with the outcome flattened and errors rendered
    as strings. *)

(** {1 Bounded per-subject queues with backpressure}

    The asynchronous request path the flood experiments drive: frontends
    {!submit} into a per-domain queue, the backend {!pump_one}s requests
    in global arrival order. With an {!overload_policy} set, admission is
    bounded per frontend (a flooding guest fills only its own queue) and
    deadline-aware: stale entries are shed oldest-first at admission and
    at service time, and a full queue rejects with [Verror.Overloaded]
    carrying a retry-after hint. *)

val set_overload : backend -> overload_policy option -> unit
val set_on_backpressure : backend -> (backpressure -> Vtpm_xen.Domain.domid -> unit) -> unit
val shed_count : backend -> int
val rejected_count : backend -> int
val queued_depth : backend -> fe_domid:Vtpm_xen.Domain.domid -> int
val queued_total : backend -> int

val submit :
  backend -> connection -> wire:string -> ?arrival_us:float -> ?deadline_us:float ->
  unit -> (unit, Vtpm_util.Verror.t) result
(** Admission: shed the subject's stale entries, then enqueue or reject.
    [arrival_us] lets a discrete-event driver stamp the true arrival time
    when admitting a batch late (defaults to now); [deadline_us] is
    relative to arrival and defaults to the policy's. *)

type serviced = {
  s_domid : Vtpm_xen.Domain.domid;
  s_arrival_us : float;
  s_outcome : (outcome, Vtpm_util.Verror.t) result;
  s_done_us : float;
      (** completion time: the lane finish of the command this request
          executed, or the meter time at service end if nothing ran *)
}

val pump_one : backend -> [ `Idle | `Served of serviced ]
(** Serve one queued request. Naive mode is a single global FIFO
    (earliest arrival first); under an overload policy, frontends with
    pending work are served round-robin (FIFO within each), so a flooder
    gets at most one slot per round regardless of its arrival rate. Both
    disciplines break ties by domid — deterministic regardless of hash
    order. *)

val set_batch : backend -> int -> unit
(** Batch bound for {!pump_batch}; raises [Invalid_argument] if [< 1]. *)

val batch : backend -> int

val set_on_batch : backend -> (Vtpm_xen.Domain.domid -> int -> unit) -> unit
(** Hook called after a drain that served more than one request, with the
    frontend and the number served. *)

val pump_batch : backend -> [ `Idle | `Served of serviced list ]
(** Like {!pump_one}, but drain up to {!batch} queued requests from the
    picked frontend in one round: the first request pays the full ring
    round trip, the rest the amortised {!Vtpm_util.Cost.ring_batch_slot_us}.
    The frontend still consumes exactly one round-robin slot, so the
    per-subject fairness bound is unchanged; FIFO within the frontend
    preserves per-instance command order. With [batch = 1] this is
    exactly {!pump_one}. *)

exception Denied of string
(** Raised by {!client_transport} when the monitor denies a request, so
    callers can tell denial from TPM errors. *)

val client_transport : backend -> connection -> Vtpm_tpm.Client.transport
