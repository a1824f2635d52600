(* The vTPM split driver: frontend in the guest, backend in the manager
   domain, connected by a granted ring page and an event channel, wired up
   through XenStore in the standard Xen device handshake.

   XenStore layout (written by the dom0 toolstack at attach time):

     /local/domain/<fe>/device/vtpm/0/backend-id   = <be domid>
     /local/domain/<fe>/device/vtpm/0/instance     = <vTPM instance id>
     /local/domain/<fe>/device/vtpm/0/ring-ref     = <gref>
     /local/domain/<fe>/device/vtpm/0/event-channel= <port>

   The frontend reads `instance` and stamps it into every request frame —
   the baseline manager's routing input. The node is dom0-writable (all of
   XenStore is), which is exactly the re-pointing hole the improved
   monitor closes by routing on the hypervisor-attested sender instead.

   Two transport modes, compared by the recovery experiments:

   - fail-fast (resilience = None): one attempt per request, gated on the
     event channel like a naive frontend — a dropped kick, corrupted slot
     or crashed backend loses the request outright;

   - self-healing (resilience = Some r): bounded retries with exponential
     backoff and a per-request deadline on the simulated clock. A lost
     kick is re-raised (the request is still queued, so it is not
     re-pushed); a corrupted or truncated frame is detected by the v2 CRC
     and re-sent; a dead backend is restarted (its checkpoint hook
     restores manager state) and the frontend runs the reconnection
     handshake — fresh ring grant, fresh event-channel pair, XenStore
     rewire. Semantics are at-least-once: a response corrupted after
     execution causes a re-send of an already-executed command. *)

open Vtpm_xen

type connection = {
  mutable ring : Ring.t;
  fe_domid : Domain.domid;
  be_domid : Domain.domid;
  mutable fe_port : Evtchn.port;
  mutable be_port : Evtchn.port;
  mutable gref : Gnttab.gref;
  mutable ring_frame : int; (* backing frame recorded at the handshake *)
  mutable connected : bool;
  mutable reconnects : int;
  instance_path : string; (* XenStore [.../instance] node, read per request *)
  mutable order : int; (* list position key: later insertions come first *)
  mutable attention : bool; (* in the backend's attention set *)
}

(* Routing decision + execution, supplied by the access-control layer. *)
type router =
  sender:Domain.domid -> claimed_instance:int -> wire:string -> (string, string) result

type resilience = {
  max_retries : int;
  backoff_us : float; (* base; doubles per attempt, capped at 64x *)
  timeout_us : float; (* per-request deadline on the simulated clock *)
}

let default_resilience =
  {
    max_retries = 12;
    backoff_us = Vtpm_util.Cost.retry_backoff_us;
    timeout_us = 2_000_000.0;
  }

(* Admission control for the asynchronous submit/pump path: per-frontend
   bounded queues with deadline-aware shedding. [None] is the naive
   configuration — unbounded FIFO, nothing ever shed or rejected. *)
type overload_policy = {
  queue_capacity : int; (* max pending requests per frontend *)
  deadline_us : float; (* default relative deadline; stale entries shed *)
}

let default_overload = { queue_capacity = 8; deadline_us = 10_000.0 }

type queued = {
  q_conn : connection;
  q_wire : string;
  arrival_us : float;
  deadline_abs_us : float;
}

type backpressure = Rejected | Shed

type backend = {
  xen : Hypervisor.t;
  be_domid : Domain.domid;
  mutable connections : connection list;
  mutable router : router;
  mutable alive : bool;
  mutable resilience : resilience option;
  mutable restarts : int;
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
  mutable overload : overload_policy option;
  queues : (Domain.domid, queued Queue.t) Hashtbl.t;
  mutable queued : int; (* entries across [queues], kept by every push and pop *)
  mutable shed_count : int; (* queued entries dropped past their deadline *)
  mutable rejected_count : int; (* submissions refused at admission *)
  mutable on_backpressure : backpressure -> Domain.domid -> unit;
  rr_last : (Domain.domid, int) Hashtbl.t; (* round-robin: last service seq *)
  mutable rr_seq : int;
  mutable fifo_rotor : Domain.domid;
      (* naive-pick rotation point: on exact arrival-time ties the pick
         favors the first domid at/after the rotor (cyclically), and the
         rotor advances past each served domid — so tied frontends share
         service instead of the lowest domid winning every round *)
  mutable batch : int; (* max requests drained per frontend per round *)
  mutable on_batch : Domain.domid -> int -> unit; (* multi-request drains *)
  (* Transport-integrity validation (off = the trusting 2006 backend):
     before serving a ring, verify its grant still exists, is unrevoked
     and backs the frame recorded at the handshake; cross-check the
     producer index against the frames actually pushed; and refuse slots
     whose recorded pusher is not the ring's frontend. Violations call
     [on_transport_tamper] — the monitor audits them as denials. *)
  mutable validate_transport : bool;
  mutable on_transport_tamper : Domain.domid -> string -> unit;
  mutable transport_tampers : int;
  mutable lane_sink : Domain.domid -> (float -> unit) option;
      (* per-request residue redirection: when this yields a sink for the
         serving frontend, the whole exchange (ring trip, XenStore reads,
         backoffs) charges the sink instead of the global meter — modeling
         a per-shard frontend whose transport work runs on its replica.
         The default (fun _ -> None) keeps charges byte-identical. *)
  (* Attention set: connections whose ring may need service, raised by
     the ring's work hook. A kick serves only these, in [connections]
     order, so its cost does not grow with the number of idle guests. *)
  mutable attention : connection list;
  mutable next_order : int;
  mutable validated_gen : int;
      (* grant generation at the start of the last completed validation
         walk over every connection; -1 before the first *)
}

let vtpm_fe_path fe = Printf.sprintf "/local/domain/%d/device/vtpm/0" fe

let create_backend ?resilience ~xen ~be_domid ~router () =
  {
    xen;
    be_domid;
    connections = [];
    router;
    alive = true;
    resilience;
    restarts = 0;
    on_crash = (fun () -> ());
    on_restart = (fun () -> ());
    overload = None;
    queues = Hashtbl.create 16;
    queued = 0;
    shed_count = 0;
    rejected_count = 0;
    on_backpressure = (fun _ _ -> ());
    rr_last = Hashtbl.create 16;
    rr_seq = 0;
    fifo_rotor = 0;
    batch = 1;
    on_batch = (fun _ _ -> ());
    validate_transport = false;
    on_transport_tamper = (fun _ _ -> ());
    transport_tampers = 0;
    lane_sink = (fun _ -> None);
    attention = [];
    next_order = 0;
    validated_gen = -1;
  }

let set_validate_transport (backend : backend) v = backend.validate_transport <- v
let validate_transport (backend : backend) = backend.validate_transport
let set_on_transport_tamper (backend : backend) f = backend.on_transport_tamper <- f
let transport_tamper_count (backend : backend) = backend.transport_tampers

(* The mapping side's integrity view of a connection's ring grant: still
   present, unrevoked, and backing the frame recorded at the handshake.
   Pure table lookups — no simulated-time charge, so enabling validation
   leaves every legitimate timing bit-identical. *)
let transport_ok (backend : backend) (conn : connection) : (unit, string) result =
  match Hypervisor.grant_backing backend.xen ~owner:conn.fe_domid ~gref:conn.gref with
  | None -> Error "ring grant vanished"
  | Some (frame, in_use, revoked) ->
      if revoked then Error "ring grant revoked mid-request"
      else if frame <> conn.ring_frame then
        Error
          (Printf.sprintf "ring grant remapped: backing frame %d, expected %d" frame
             conn.ring_frame)
      else if not in_use then Error "ring grant no longer mapped by backend"
      else Ok ()

let transport_tamper (backend : backend) (conn : connection) reason =
  backend.transport_tampers <- backend.transport_tampers + 1;
  backend.on_transport_tamper conn.fe_domid reason

let mark_attention (backend : backend) (conn : connection) =
  if not conn.attention then begin
    conn.attention <- true;
    backend.attention <- conn :: backend.attention
  end

let clear_attention (backend : backend) (conn : connection) =
  if conn.attention then begin
    conn.attention <- false;
    backend.attention <- List.filter (fun c -> c != conn) backend.attention
  end

(* Put [conn] at the head of the connection list with a fresh order key,
   and hook its ring's work signal to the attention set. *)
let enlist (backend : backend) (conn : connection) =
  conn.order <- backend.next_order;
  backend.next_order <- backend.next_order + 1;
  backend.connections <- conn :: backend.connections

let watch_ring (backend : backend) (conn : connection) =
  Ring.set_on_work conn.ring (fun () -> mark_attention backend conn)

(* Toolstack step: publish the device nodes for a new vTPM attachment.
   Runs as dom0. The guest may read its own device directory. *)
let publish_device ~(xen : Hypervisor.t) ~fe ~be ~instance : (unit, string) result =
  let base = vtpm_fe_path fe in
  let wr k v =
    match Hypervisor.xs_write xen ~caller:Hypervisor.dom0_id (base ^ "/" ^ k) v with
    | Ok () -> Ok ()
    | Error e -> Error (Xenstore.error_name e)
  in
  (* The frontend device directory belongs to the guest (it publishes its
     ring-ref and event-channel there); specific control nodes below are
     re-owned by dom0 afterwards. *)
  ignore (Xenstore.mkdir xen.Hypervisor.store ~caller:Hypervisor.dom0_id base);
  ignore
    (Xenstore.set_perms xen.Hypervisor.store ~caller:Hypervisor.dom0_id base ~owner:fe
       ~others:Xenstore.Pnone ~acl:[]);
  match wr "backend-id" (string_of_int be) with
  | Error e -> Error e
  | Ok () -> (
      match wr "instance" (string_of_int instance) with
      | Error e -> Error e
      | Ok () ->
          (* Guest must be able to read (not write) its device nodes. *)
          List.iter
            (fun k ->
              ignore
                (Xenstore.set_perms xen.Hypervisor.store ~caller:Hypervisor.dom0_id
                   (base ^ "/" ^ k) ~owner:Hypervisor.dom0_id ~others:Xenstore.Pnone
                   ~acl:[ (fe, Xenstore.Pread) ]))
            [ "backend-id"; "instance" ];
          Ok ())

(* Shared grant/evtchn/XenStore plumbing for connect and reconnect: grant
   the ring frame, bind a fresh event-channel pair, have the backend map
   the grant, publish ring-ref/event-channel. XenStore publication is
   best-effort under injected transients — the recorded connection state,
   not the store, is authoritative for an established link. *)
let establish (backend : backend) ~(fe_domid : Domain.domid) :
    (Ring.t * Evtchn.port * Evtchn.port * Gnttab.gref * int, string) result =
  let xen = backend.xen in
  let base = vtpm_fe_path fe_domid in
  let ring_frame = 100 + fe_domid in
  let gref =
    Hypervisor.grant xen ~owner:fe_domid ~grantee:backend.be_domid ~frame:ring_frame
      ~access:Gnttab.Read_write
  in
  let fe_port, be_port = Hypervisor.bind_evtchn xen ~a:fe_domid ~b:backend.be_domid in
  (* Backend maps the grant; identity of the granter is checked by the
     hypervisor. *)
  match Hypervisor.map_grant xen ~caller:backend.be_domid ~owner:fe_domid ~gref with
  | Error e ->
      Evtchn.close xen.Hypervisor.evtchn ~domid:fe_domid ~port:fe_port;
      Error ("backend cannot map ring: " ^ e)
  | Ok (_frame, _access) ->
      let ring = Ring.create ~frontend:fe_domid ~backend:backend.be_domid () in
      ignore (Hypervisor.xs_write xen ~caller:fe_domid (base ^ "/ring-ref") (string_of_int gref));
      ignore
        (Hypervisor.xs_write xen ~caller:fe_domid (base ^ "/event-channel")
           (string_of_int fe_port));
      Ok (ring, fe_port, be_port, gref, ring_frame)

(* Frontend step: allocate the ring, grant it, bind the event channel and
   publish the connection details. Returns the live connection and
   registers it with the backend. *)
let connect (backend : backend) ~(fe_domid : Domain.domid) : (connection, string) result =
  let xen = backend.xen in
  let base = vtpm_fe_path fe_domid in
  match Hypervisor.xs_read xen ~caller:fe_domid (base ^ "/backend-id") with
  | Error e -> Error ("frontend cannot read backend-id: " ^ Xenstore.error_name e)
  | Ok be_str -> (
      match int_of_string_opt be_str with
      | None -> Error "malformed backend-id"
      | Some be_domid ->
          if be_domid <> backend.be_domid then Error "backend-id does not match backend"
          else
            match establish backend ~fe_domid with
            | Error e -> Error e
            | Ok (ring, fe_port, be_port, gref, ring_frame) ->
                let conn =
                  {
                    ring;
                    fe_domid;
                    be_domid;
                    fe_port;
                    be_port;
                    gref;
                    ring_frame;
                    connected = true;
                    reconnects = 0;
                    instance_path = base ^ "/instance";
                    order = 0;
                    attention = false;
                  }
                in
                watch_ring backend conn;
                enlist backend conn;
                Ok conn)

(* Reconnection handshake after a backend crash (or torn link): drop the
   old grant mapping and event channel, then re-run the connect plumbing
   in place. Requests queued in the old ring are gone — that is the
   crash; recovery is the retry loop's job. *)
let reconnect (backend : backend) (conn : connection) : (unit, string) result =
  let xen = backend.xen in
  if not backend.alive then Error "backend not running"
  else begin
    Vtpm_util.Cost.charge xen.Hypervisor.cost Vtpm_util.Cost.driver_reconnect_us;
    Evtchn.close xen.Hypervisor.evtchn ~domid:conn.fe_domid ~port:conn.fe_port;
    ignore
      (Hypervisor.unmap_grant xen ~caller:conn.be_domid ~owner:conn.fe_domid ~gref:conn.gref);
    match establish backend ~fe_domid:conn.fe_domid with
    | Error e -> Error e
    | Ok (ring, fe_port, be_port, gref, ring_frame) ->
        conn.ring <- ring;
        conn.fe_port <- fe_port;
        conn.be_port <- be_port;
        conn.gref <- gref;
        conn.ring_frame <- ring_frame;
        conn.connected <- true;
        conn.reconnects <- conn.reconnects + 1;
        watch_ring backend conn;
        if not (List.memq conn backend.connections) then enlist backend conn;
        Ok ()
  end

let disconnect (backend : backend) (conn : connection) =
  conn.connected <- false;
  Evtchn.close backend.xen.Hypervisor.evtchn ~domid:conn.fe_domid ~port:conn.fe_port;
  backend.connections <- List.filter (fun c -> c != conn) backend.connections

(* Teardown for the per-frontend queue: pending work of a destroyed
   domain must not leak (or be executed on its behalf posthumously). *)
let forget_domain (backend : backend) ~(fe_domid : Domain.domid) =
  (match Hashtbl.find_opt backend.queues fe_domid with
  | Some q -> backend.queued <- backend.queued - Queue.length q
  | None -> ());
  Hashtbl.remove backend.queues fe_domid;
  Hashtbl.remove backend.rr_last fe_domid

let disconnect_domain (backend : backend) ~(fe_domid : Domain.domid) =
  List.iter
    (fun c -> if c.fe_domid = fe_domid then disconnect backend c)
    backend.connections;
  forget_domain backend ~fe_domid

(* The manager domain dies mid-service: every link is severed, queued work
   is lost, and nothing processes until a restart. *)
let crash_backend (backend : backend) =
  if backend.alive then begin
    backend.alive <- false;
    List.iter
      (fun c ->
        c.connected <- false;
        Evtchn.close backend.xen.Hypervisor.evtchn ~domid:c.fe_domid ~port:c.fe_port)
      backend.connections;
    backend.on_crash ()
  end

(* Respawn the manager domain. [on_restart] runs after the domain is back
   up — the checkpoint layer hooks it to restore manager state. Frontends
   must still reconnect individually. *)
let restart_backend (backend : backend) =
  if not backend.alive then begin
    Vtpm_util.Cost.charge backend.xen.Hypervisor.cost Vtpm_util.Cost.backend_restart_us;
    backend.alive <- true;
    backend.restarts <- backend.restarts + 1;
    backend.on_restart ()
  end

(* Backend pump: drain the connected rings that need service, route,
   respond. The sender identity passed to the router is the ring's
   frontend — recorded by the hypervisor-mediated connect, unforgeable
   from inside the frame.

   Fault surface: each popped slot passes through the injector (corruption
   and truncation land here, and are caught by the v2 frame CRC), and the
   manager can crash under us — the popped request dies with it,
   unexecuted, which is what makes crash recovery crash-consistent. *)
let drain_ring (backend : backend) (conn : connection) (processed : int ref) =
  let faults = backend.xen.Hypervisor.faults in
  (* Validated pop when hardening is on: an index/queue divergence is
     audited once, the indices re-derived from the genuine frames, and
     the drain continues — the victim's real requests still get served. *)
  let pop () =
    if not backend.validate_transport then Ring.pop_request conn.ring
    else
      match Ring.pop_request_validated conn.ring with
      | Ok s -> s
      | Error reason -> (
          transport_tamper backend conn reason;
          Ring.sanitize_indices conn.ring;
          match Ring.pop_request_validated conn.ring with Ok s -> s | Error _ -> None)
  in
  let rec drain () =
    match pop () with
    | None -> ()
    | Some { Ring.id; payload; pusher } ->
        if Faults.fire faults Faults.Manager_crash then begin
          crash_backend backend;
          raise Exit
        end;
        let sender = Ring.frontend conn.ring in
        if backend.validate_transport && pusher <> sender then begin
          (* Injected frame: the page says someone other than the ring's
             frontend wrote it. Refuse to route it (a Denied response
             fills the slot so the id cannot be replayed) and keep
             draining genuine frames. *)
          transport_tamper backend conn
            (Printf.sprintf "injected ring frame from domain %d" pusher);
          ignore
            (Ring.push_response conn.ring ~id
               (Proto.encode_response Proto.Denied "injected ring frame rejected"));
          drain ()
        end
        else begin
          incr processed;
          let payload = Faults.maybe_mutate faults payload in
          let reply =
            match Proto.decode_request payload with
            | Error m -> Proto.encode_response Proto.Bad_frame m
            | Ok (claimed_instance, wire) -> (
                match backend.router ~sender ~claimed_instance ~wire with
                | Ok resp_wire -> Proto.encode_response Proto.Ok_routed resp_wire
                | Error reason -> Proto.encode_response Proto.Denied reason)
          in
          (match Ring.push_response conn.ring ~id reply with
          | Ok () ->
              ignore (Hypervisor.notify backend.xen ~domid:conn.be_domid ~port:conn.be_port)
          | Error _ -> () (* response ring full: drop, frontend times out *));
          drain ()
        end
  in
  drain ()

(* One connection's turn in a kick. With [validate], grant-level
   integrity comes first: a remapped, revoked or vanished ring grant means
   every frame on the page is suspect — tear the link (a resilient
   frontend reconnects with a fresh grant; the in-flight request fails
   with an audited denial). A ring left needing service (a stale slot
   the naive pop stopped at, or an index it refused) stays in the
   attention set for the next kick. *)
let serve_connection (backend : backend) (conn : connection) ~validate processed =
  clear_attention backend conn;
  if conn.connected && backend.alive then begin
    let grant_ok =
      (not validate)
      ||
      match transport_ok backend conn with
      | Ok () -> true
      | Error reason ->
          transport_tamper backend conn reason;
          conn.connected <- false;
          false
    in
    if grant_ok then begin
      drain_ring backend conn processed;
      if Ring.needs_service conn.ring then mark_attention backend conn
    end
  end

(* The attention member that comes next in [connections] order after
   order key [below] (keys fall along the list). *)
let rec next_attention ~below best = function
  | [] -> best
  | c :: rest ->
      let better =
        c.order < below && match best with Some b -> c.order > b.order | None -> true
      in
      next_attention ~below (if better then Some c else best) rest

(* A kick. Rings are served in [connections] order, but only those in the
   attention set — a request stranded by a lost kick is still there, so
   any neighbour's kick drains it. Grant validation is gated on the grant
   generation: every mutation of the grant table moves it, so while it
   stands where the last full validation walk started, every connected
   grant still passes and the walk would change nothing. Once it moves
   (a remap, revoke or unmap, even of an idle ring), the rest of this
   kick walks every connection and validates each, exactly as a kick
   that always walks would. *)
let rec serve_attention (backend : backend) ~below processed =
  if
    backend.validate_transport
    && Hypervisor.grant_generation backend.xen <> backend.validated_gen
  then validation_walk backend ~below processed
  else
    match next_attention ~below None backend.attention with
    | None -> ()
    | Some conn ->
        serve_connection backend conn ~validate:false processed;
        serve_attention backend ~below:conn.order processed

and validation_walk (backend : backend) ~below processed =
  let gen = Hypervisor.grant_generation backend.xen in
  List.iter
    (fun conn -> if conn.order < below then serve_connection backend conn ~validate:true processed)
    backend.connections;
  if below = max_int then backend.validated_gen <- gen

let process_pending (backend : backend) : int =
  let processed = ref 0 in
  (if backend.alive then try serve_attention backend ~below:max_int processed with Exit -> ());
  !processed

(* --- Frontend-side synchronous exchange --------------------------------- *)

type outcome = {
  status : Proto.status;
  payload : string;
  attempts : int; (* send attempts, >= 1 *)
  recovered : bool; (* at least one retry or reconnect was needed *)
}

(* One look at the response ring. [gated] is the naive-frontend behaviour:
   only check the ring when the event channel actually fired. Retry
   attempts pass [gated:false] — the timeout path of a real driver, which
   inspects the ring regardless. Stale responses (abandoned earlier
   attempts) are discarded. *)
let check_response (backend : backend) (conn : connection) ~id ~gated =
  let xen = backend.xen in
  let kicked =
    Evtchn.poll xen.Hypervisor.evtchn ~domid:conn.fe_domid ~port:conn.fe_port <> None
  in
  if gated && not kicked then `No_response
  else begin
    let rec scan () =
      match Ring.pop_response conn.ring with
      | None -> `No_response
      | Some slot when slot.Ring.id = id -> (
          let payload = Faults.maybe_mutate xen.Hypervisor.faults slot.Ring.payload in
          match Proto.decode_response payload with
          | Ok (st, body) -> `Response (st, body)
          | Error m -> `Corrupt m)
      | Some _ -> scan ()
    in
    scan ()
  end

(* Frame and push one request; kick the backend; let it run if the kick
   landed. Returns the slot id actually in flight. [prev] is the id of a
   still-queued earlier attempt: if the backend never popped it, the
   request is merely un-kicked — re-raise the event instead of queueing a
   duplicate. *)
let send_attempt (backend : backend) (conn : connection) ~frame ~prev =
  let xen = backend.xen in
  let id_r =
    match prev with
    | Some id when Ring.request_pending conn.ring ~id -> Ok id
    | _ -> Ring.push_request conn.ring frame
  in
  match id_r with
  | Error e -> Error e
  | Ok id ->
      ignore (Hypervisor.notify xen ~domid:conn.fe_domid ~port:conn.fe_port);
      let kicked =
        Evtchn.poll xen.Hypervisor.evtchn ~domid:conn.be_domid ~port:conn.be_port <> None
      in
      if kicked then ignore (process_pending backend);
      Ok id

(* The node is read on every request even though its path is cached: it
   is dom0-writable, and that read is the re-pointing attack surface. *)
let read_claimed_instance (backend : backend) (conn : connection) =
  match Hypervisor.xs_read backend.xen ~caller:conn.fe_domid conn.instance_path with
  | Error e -> Error ("cannot read instance: " ^ Xenstore.error_name e)
  | Ok inst_str -> (
      match int_of_string_opt inst_str with
      | None -> Error "malformed instance id"
      | Some claimed_instance -> Ok claimed_instance)

(* Fail-fast exchange: one attempt, event-gated at both ends, any failure
   surfaces immediately. This is the naive 2006-era frontend the recovery
   experiments use as the baseline. *)
let request_failfast (backend : backend) (conn : connection) ~wire :
    (outcome, Vtpm_util.Verror.t) result =
  let fail fmt = Vtpm_util.Verror.internal fmt in
  if not conn.connected then fail "vTPM frontend disconnected"
  else if not backend.alive then fail "vTPM backend dead"
  else
    match read_claimed_instance backend conn with
    | Error m -> fail "%s" m
    | Ok claimed_instance -> (
        let frame = Proto.encode_request ~claimed_instance wire in
        match send_attempt backend conn ~frame ~prev:None with
        | Error e -> fail "%s" e
        | Ok id -> (
            match check_response backend conn ~id ~gated:true with
            | `Response (status, payload) ->
                Ok { status; payload; attempts = 1; recovered = false }
            | `Corrupt m -> fail "corrupt response: %s" m
            | `No_response -> fail "no response (backend stalled)"))

(* Self-healing exchange: bounded retries with exponential backoff and a
   per-request deadline, all on the simulated clock. *)
let request_resilient (backend : backend) (conn : connection) ~wire ~(r : resilience) :
    (outcome, Vtpm_util.Verror.t) result =
  let xen = backend.xen in
  let cost = xen.Hypervisor.cost in
  let deadline = Vtpm_util.Cost.now cost +. r.timeout_us in
  let backoff attempt =
    Vtpm_util.Cost.charge cost (r.backoff_us *. (2.0 ** float_of_int (min attempt 6)))
  in
  let rec go ~attempt ~prev =
    if Vtpm_util.Cost.now cost > deadline then
      Vtpm_util.Verror.timeout "request deadline passed after %d attempts" attempt
    else if attempt > r.max_retries then
      Vtpm_util.Verror.retries_exhausted "gave up after %d attempts" attempt
    else begin
      (* Recovery first: restart a dead backend, re-run the handshake on a
         severed link. Either step can itself fail under injected faults —
         back off and try again. *)
      if not backend.alive then restart_backend backend;
      if not conn.connected then begin
        match reconnect backend conn with
        | Ok () -> ()
        | Error _ -> ()
      end;
      if not conn.connected then begin
        backoff attempt;
        go ~attempt:(attempt + 1) ~prev:None
      end
      else
        match read_claimed_instance backend conn with
        | Error _ ->
            (* XenStore transient: retriable. *)
            backoff attempt;
            go ~attempt:(attempt + 1) ~prev
        | Ok claimed_instance -> (
            let frame = Proto.encode_request ~claimed_instance wire in
            match send_attempt backend conn ~frame ~prev with
            | Error _ ->
                (* Ring full — drain pressure is the backend's job; back
                   off and re-offer. *)
                backoff attempt;
                go ~attempt:(attempt + 1) ~prev:None
            | Ok id -> (
                (* Retry attempts look at the ring even without a kick —
                   the timeout path of a real frontend. *)
                match check_response backend conn ~id ~gated:(attempt = 1) with
                | `Response (Proto.Bad_frame, _) ->
                    (* The backend saw a corrupted frame: the request was
                       consumed but never executed — re-send it. *)
                    backoff attempt;
                    go ~attempt:(attempt + 1) ~prev:None
                | `Response (status, payload) ->
                    Ok { status; payload; attempts = attempt; recovered = attempt > 1 }
                | `Corrupt _ | `No_response ->
                    backoff attempt;
                    let prev = if conn.connected then Some id else None in
                    go ~attempt:(attempt + 1) ~prev))
    end
  in
  go ~attempt:1 ~prev:None

(* [ring_charge] is the transport cost of reaching the backend: a full
   round trip for a standalone request or the first of a batch, the
   amortised slot cost for the rest of a drained batch. *)
let set_lane_sink (backend : backend) f = backend.lane_sink <- f

let request_charged (backend : backend) (conn : connection) ~(wire : string) ~ring_charge :
    (outcome, Vtpm_util.Verror.t) result =
  let cost = backend.xen.Hypervisor.cost in
  (* The exchange proper: transport charge plus the fail-fast or resilient
     protocol. When [lane_sink] yields a sink for this frontend, the whole
     serial residue of the exchange (ring trip, XenStore reads, monitor
     and audit work — everything that goes through [Cost.charge]) is
     re-homed onto the frontend's lane instead of the global meter: each
     shard replica runs its own frontend, so one shard's transport work
     does not serialize every other shard. Lane executions themselves
     ([Lanes.exec]) are untouched. *)
  let exchange () =
    Vtpm_util.Cost.charge cost ring_charge;
    match backend.resilience with
    | None -> request_failfast backend conn ~wire
    | Some r -> request_resilient backend conn ~wire ~r
  in
  let exchange () =
    match backend.lane_sink conn.fe_domid with
    | None -> exchange ()
    | Some sink ->
        let spent = ref 0.0 in
        let result =
          Vtpm_util.Cost.with_redirect cost (fun us -> spent := !spent +. us) exchange
        in
        if !spent > 0.0 then sink !spent;
        result
  in
  (* Transport guard before the exchange: a tampered ring grant fails the
     in-flight operation with an audited denial rather than running the
     request over an adversary-controlled page. The link is torn; a
     resilient frontend's next request reconnects with a fresh grant. *)
  if backend.validate_transport && conn.connected then begin
    match transport_ok backend conn with
    | Ok () -> exchange ()
    | Error reason ->
        transport_tamper backend conn reason;
        conn.connected <- false;
        Vtpm_util.Verror.denied "transport integrity: %s" reason
  end
  else exchange ()

let request_with_info (backend : backend) (conn : connection) ~(wire : string) :
    (outcome, Vtpm_util.Verror.t) result =
  request_charged backend conn ~wire ~ring_charge:Vtpm_util.Cost.ring_round_trip_us

let request (backend : backend) (conn : connection) ~(wire : string) :
    (Proto.status * string, string) result =
  match request_with_info backend conn ~wire with
  | Ok o -> Ok (o.status, o.payload)
  | Error e -> Error (Vtpm_util.Verror.to_string e)

(* --- Bounded per-subject queues with backpressure ------------------------ *)

(* The asynchronous request path the flood experiments drive: frontends
   [submit] work into a per-domain queue, the backend [pump_one]s requests
   in global arrival order. With an overload policy set, admission is
   bounded per frontend — a flooding guest fills only its own queue — and
   deadline-aware: entries past their deadline are shed oldest-first (at
   admission and again at service time), and a full queue rejects with
   [Verror.Overloaded] carrying a retry-after hint instead of silently
   queueing. With no policy (the naive configuration) queues are unbounded
   FIFO and every request is eventually served, however late. *)

let set_overload (backend : backend) p = backend.overload <- p
let set_on_backpressure (backend : backend) f = backend.on_backpressure <- f
let shed_count (backend : backend) = backend.shed_count
let rejected_count (backend : backend) = backend.rejected_count

let queue_for (backend : backend) domid =
  match Hashtbl.find_opt backend.queues domid with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace backend.queues domid q;
      q

let queued_depth (backend : backend) ~fe_domid =
  match Hashtbl.find_opt backend.queues fe_domid with
  | Some q -> Queue.length q
  | None -> 0

let queued_total (backend : backend) = backend.queued

let push (backend : backend) q entry =
  Queue.push entry q;
  backend.queued <- backend.queued + 1

let pop (backend : backend) q =
  let entry = Queue.pop q in
  backend.queued <- backend.queued - 1;
  entry

(* Drop queued entries already past their deadline, oldest first. Only
   meaningful under an overload policy (naive entries carry +inf). *)
let rec shed_stale (backend : backend) q ~now =
  match Queue.peek_opt q with
  | Some h when h.deadline_abs_us < now ->
      ignore (pop backend q);
      backend.shed_count <- backend.shed_count + 1;
      backend.on_backpressure Shed h.q_conn.fe_domid;
      shed_stale backend q ~now
  | _ -> ()

(* Admission: shed the subject's stale entries, then either enqueue or
   reject. [arrival_us] lets a discrete-event driver stamp the true
   arrival time when it admits a batch late; it defaults to now. *)
let submit (backend : backend) (conn : connection) ~(wire : string) ?arrival_us
    ?deadline_us () : (unit, Vtpm_util.Verror.t) result =
  let now = Vtpm_util.Cost.now backend.xen.Hypervisor.cost in
  let arrival = Option.value ~default:now arrival_us in
  let q = queue_for backend conn.fe_domid in
  match backend.overload with
  | None ->
      push backend q
        { q_conn = conn; q_wire = wire; arrival_us = arrival; deadline_abs_us = infinity };
      Ok ()
  | Some p ->
      shed_stale backend q ~now;
      if Queue.length q >= p.queue_capacity then begin
        backend.rejected_count <- backend.rejected_count + 1;
        backend.on_backpressure Rejected conn.fe_domid;
        (* Hint: the head entry's remaining deadline bounds how soon a
           slot can free up. *)
        let retry_after =
          match Queue.peek_opt q with
          | Some h -> Float.max 1.0 (h.deadline_abs_us -. now)
          | None -> p.deadline_us
        in
        Vtpm_util.Verror.overloaded ~retry_after_us:retry_after
          "guest %d: vTPM queue full (%d pending)" conn.fe_domid (Queue.length q)
      end
      else begin
        let deadline_abs = arrival +. Option.value ~default:p.deadline_us deadline_us in
        push backend q
          { q_conn = conn; q_wire = wire; arrival_us = arrival; deadline_abs_us = deadline_abs };
        Ok ()
      end

type serviced = {
  s_domid : Domain.domid;
  s_arrival_us : float;
  s_outcome : (outcome, Vtpm_util.Verror.t) result;
  s_done_us : float;
      (* completion: the finish time of the command this request executed
         on its lane, or the meter time at service end if nothing ran *)
}

(* Service discipline. Naive (no policy): global FIFO, earliest arrival
   first — the whole backend is one line, so one flooding frontend starves
   everyone behind its backlog. Under an overload policy: round-robin
   across frontends with pending work (FIFO within each), so a frontend
   gets at most one slot per round however fast it submits — arrival-order
   service would hand a flooder service share proportional to its arrival
   rate, defeating the per-subject bound. Both picks break ties by domid,
   deterministic regardless of hash order. *)
(* Serve one queued entry and stamp its completion time: if the request
   executed a command on a lane, completion is that command's finish (it
   may lie ahead of the meter when several lanes run); otherwise it is
   the meter time when service ended. *)
let serve_entry (backend : backend) domid (h : queued) ~ring_charge : serviced =
  let cost = backend.xen.Hypervisor.cost in
  let seq0 = Vtpm_util.Cost.exec_seq cost in
  let outcome = request_charged backend h.q_conn ~wire:h.q_wire ~ring_charge in
  let now = Vtpm_util.Cost.now cost in
  let done_us =
    if Vtpm_util.Cost.exec_seq cost > seq0 then
      Float.max now (Vtpm_util.Cost.last_completion_us cost)
    else now
  in
  { s_domid = domid; s_arrival_us = h.arrival_us; s_outcome = outcome; s_done_us = done_us }

let pump_batched (backend : backend) ~batch : [ `Idle | `Served of serviced list ] =
  let now = Vtpm_util.Cost.now backend.xen.Hypervisor.cost in
  (match backend.overload with
  | Some _ -> Hashtbl.iter (fun _ q -> shed_stale backend q ~now) backend.queues
  | None -> ());
  (* The pick is the least non-empty queue under a total order on
     (key, domid), so it does not depend on hash order. The winner so far
     rides along as plain ints and a float, compared directly; -1 means
     none yet (domids are non-negative). *)
  let best_domid = ref (-1) and best_key = ref 0 and best_arrival = ref 0.0 in
  (match backend.overload with
  | None ->
      (* Earliest arrival first. Exact arrival ties are ranked by cyclic
         distance from the rotor (first domid at/after it wins, wrapping),
         not by raw domid: the rotor advances past each served frontend,
         so tied frontends share service round-robin. Ranking by domid
         alone let a persistently-full low-domid frontend win every tie
         and starve the rest. *)
      Hashtbl.iter
        (fun domid q ->
          if not (Queue.is_empty q) then begin
            let arrival = (Queue.peek q).arrival_us in
            let rank = if domid >= backend.fifo_rotor then 0 else 1 in
            if
              !best_domid < 0
              || arrival < !best_arrival
              || arrival = !best_arrival
                 && (rank < !best_key || (rank = !best_key && domid < !best_domid))
            then begin
              best_domid := domid;
              best_key := rank;
              best_arrival := arrival
            end
          end)
        backend.queues
  | Some _ ->
      (* Least-recently-served non-empty queue; never-served counts as 0. *)
      Hashtbl.iter
        (fun domid q ->
          if not (Queue.is_empty q) then begin
            let last = try Hashtbl.find backend.rr_last domid with Not_found -> 0 in
            if
              !best_domid < 0 || last < !best_key || (last = !best_key && domid < !best_domid)
            then begin
              best_domid := domid;
              best_key := last
            end
          end)
        backend.queues);
  if !best_domid < 0 then `Idle
  else
    let domid = !best_domid in
    let q = Hashtbl.find backend.queues domid in
    let h = pop backend q in
    (* The picked frontend consumes one scheduling-round slot however
       many entries the drain serves: round-robin fairness is per
       round, and the batch bound applies to every frontend alike. *)
    backend.rr_seq <- backend.rr_seq + 1;
    Hashtbl.replace backend.rr_last domid backend.rr_seq;
    backend.fifo_rotor <- domid + 1;
    let first = serve_entry backend domid h ~ring_charge:Vtpm_util.Cost.ring_round_trip_us in
    let rec drain n acc =
      if n >= batch then acc
      else begin
        (match backend.overload with
        | Some _ ->
            shed_stale backend q ~now:(Vtpm_util.Cost.now backend.xen.Hypervisor.cost)
        | None -> ());
        if Queue.is_empty q then acc
        else
          let h = pop backend q in
          (* Same ring, same kick: later entries of the drain cost only
             the amortised slot time. *)
          drain (n + 1)
            (serve_entry backend domid h ~ring_charge:Vtpm_util.Cost.ring_batch_slot_us
            :: acc)
      end
    in
    let served = List.rev (drain 1 [ first ]) in
    (match served with
    | _ :: _ :: _ -> backend.on_batch domid (List.length served)
    | _ -> ());
    `Served served

let pump_one (backend : backend) : [ `Idle | `Served of serviced ] =
  match pump_batched backend ~batch:1 with
  | `Idle -> `Idle
  | `Served [ s ] -> `Served s
  | `Served _ -> assert false

let set_batch (backend : backend) n =
  if n < 1 then invalid_arg "Driver.set_batch: need at least one slot";
  backend.batch <- n

let batch (backend : backend) = backend.batch
let set_on_batch (backend : backend) f = backend.on_batch <- f
let pump_batch (backend : backend) = pump_batched backend ~batch:backend.batch

(* A [Vtpm_tpm.Client.transport] over the split driver: raises on protocol
   failures, surfaces monitor denials as a distinguished exception so
   callers can tell "denied" from "TPM error". *)
exception Denied of string

let client_transport (backend : backend) (conn : connection) : Vtpm_tpm.Client.transport =
 fun wire ->
  match request backend conn ~wire with
  | Ok (Proto.Ok_routed, payload) -> payload
  | Ok (Proto.Denied, reason) -> raise (Denied reason)
  | Ok (Proto.Bad_frame, m) -> failwith ("bad frame: " ^ m)
  | Error m -> failwith m
