(* Shared I/O ring, modelled on Xen's io/ring.h single-page rings.

   A ring lives in one frame owned by the frontend domain and granted to
   the backend. Requests flow front→back, responses back→front, each slot
   carrying an opaque payload plus the slot id used to match responses to
   requests. Capacity is bounded like the real single-page ring, so
   back-pressure behaviour (full ring → request refused) is observable in
   the throughput experiments.

   Beyond the queue model, the ring keeps the artefacts a shared *page*
   really has and a dom0-resident adversary really sees: explicit
   req_prod/req_cons indices, the last [capacity] request frames still
   physically present in their slots (consumed frames are not erased),
   and a per-slot record of which domain wrote the frame. A rogue dom0
   tool that maps the ring grant can snoop slots, inject frames and
   corrupt the producer index ([snoop_requests]/[inject_request]/
   [corrupt_req_prod]); the naive backend pop then re-reads stale frames
   exactly as a wrap-around read of the page would, while the validated
   pop ([pop_request_validated]) detects the index/queue divergence. An
   index pushed beyond the ring size is refused by both paths — the
   RING_REQUEST_PROD_OVERFLOW sanity check even 2006 backends carried. *)

type slot = {
  id : int;
  payload : string;
  pusher : Domain.domid;  (* which domain wrote the frame into the page *)
}

type t = {
  capacity : int;
  requests : slot Queue.t;
  responses : slot Queue.t;
  mutable next_id : int;
  (* Slot ids with a pushed request and no response yet — a backend
     answering an id it was never asked about is a protocol violation,
     not something to silently enqueue. *)
  outstanding : (int, unit) Hashtbl.t;
  (* Wiring recorded at connect time; the backend reads the frontend's
     identity from here, never from payloads. *)
  frontend : Domain.domid;
  backend : Domain.domid;
  (* The shared page's request indices and its physical slot contents:
     hist.(id mod capacity) is whatever frame last occupied that slot,
     kept after consumption as on a real page. *)
  mutable req_prod : int;
  mutable req_cons : int;
  hist : slot option array;
  (* Raised whenever the request side may need the backend's attention:
     a push (genuine or injected) or a producer-index write. The backend
     hooks it to keep its attention set without polling every ring. *)
  mutable on_work : unit -> unit;
}

let default_capacity = 32

let create ?(capacity = default_capacity) ~frontend ~backend () =
  {
    capacity;
    requests = Queue.create ();
    responses = Queue.create ();
    next_id = 0;
    outstanding = Hashtbl.create 16;
    frontend;
    backend;
    req_prod = 0;
    req_cons = 0;
    hist = Array.make (max 1 capacity) None;
    on_work = ignore;
  }

let frontend t = t.frontend
let backend t = t.backend
let request_space t = max 0 (t.capacity - Queue.length t.requests)
let pending_requests t = Queue.length t.requests
let pending_responses t = Queue.length t.responses
let req_prod t = t.req_prod
let req_cons t = t.req_cons
let set_on_work t f = t.on_work <- f

(* Whether a backend pop could do anything: indices apart, or frames
   queued. Covers stale-slot re-reads and index tamper, which the pops
   act on even with no genuine frame pending. *)
let needs_service t = t.req_prod <> t.req_cons || not (Queue.is_empty t.requests)

(* Frontend side *)

let push_slot t (s : slot) : (int, string) result =
  if Queue.length t.requests >= t.capacity then Error "ring full"
  else begin
    t.next_id <- t.next_id + 1;
    Queue.push s t.requests;
    Hashtbl.replace t.outstanding s.id ();
    t.hist.(s.id mod t.capacity) <- Some s;
    t.req_prod <- t.req_prod + 1;
    t.on_work ();
    Ok s.id
  end

let push_request t (payload : string) : (int, string) result =
  push_slot t { id = t.next_id; payload; pusher = t.frontend }

let pop_response t : slot option =
  if Queue.is_empty t.responses then None else Some (Queue.pop t.responses)

(* True while the request is still queued, i.e. the backend has not popped
   it yet. The self-healing frontend uses this to tell "my kick was lost,
   the request is still there" from "the request is gone, re-push it". *)
let request_pending t ~id =
  Queue.fold (fun acc s -> acc || s.id = id) false t.requests

(* Backend side *)

(* Naive pop, as a 2006-era backend reads the page: trust req_prod. The
   one sanity check it does carry is the overflow macro — an index delta
   beyond the ring size is refused outright (no wrap-around read). A
   delta *within* the ring size is believed: once the genuinely pushed
   frames run out, the backend re-reads whatever stale frame the page
   slot still holds, re-registering its id so the duplicated response
   flows — the replay the validated pop closes. *)
let pop_request t : slot option =
  let pending = t.req_prod - t.req_cons in
  if pending <= 0 || pending > t.capacity then None
  else if not (Queue.is_empty t.requests) then begin
    t.req_cons <- t.req_cons + 1;
    Some (Queue.pop t.requests)
  end
  else begin
    let slot_index = t.req_cons mod t.capacity in
    t.req_cons <- t.req_cons + 1;
    match t.hist.(slot_index) with
    | None -> None
    | Some s ->
        Hashtbl.replace t.outstanding s.id ();
        Some s
  end

let push_response t ~id (payload : string) : (unit, string) result =
  if not (Hashtbl.mem t.outstanding id) then
    Error (Printf.sprintf "unknown slot id %d" id)
  else if Queue.length t.responses >= t.capacity then Error "ring full"
  else begin
    Hashtbl.remove t.outstanding id;
    Queue.push { id; payload; pusher = t.backend } t.responses;
    Ok ()
  end

(* Hardened backend pop: cross-check the page's producer index against
   the frames actually pushed. Any divergence — index beyond the ring
   size, or phantom slots past the genuine frames — is an integrity
   error, never a stale read. *)
let pop_request_validated t : (slot option, string) result =
  let pending = t.req_prod - t.req_cons in
  if pending < 0 || pending > t.capacity then
    Error
      (Printf.sprintf "producer index out of bounds: req_prod %d, req_cons %d, ring size %d"
         t.req_prod t.req_cons t.capacity)
  else if pending <> Queue.length t.requests then
    Error
      (Printf.sprintf "producer index corrupt: %d pending per index, %d frames actually pushed"
         pending (Queue.length t.requests))
  else if Queue.is_empty t.requests then Ok None
  else begin
    t.req_cons <- t.req_cons + 1;
    Ok (Some (Queue.pop t.requests))
  end

let index_consistent t =
  let pending = t.req_prod - t.req_cons in
  pending >= 0 && pending <= t.capacity && pending = Queue.length t.requests

(* Recovery after detected index tamper: re-derive the producer index
   from the frames genuinely pushed, dropping the phantom slots. *)
let sanitize_indices t =
  t.req_prod <- t.req_cons + Queue.length t.requests

(* --- Adversarial access: what a dom0 mapping of the ring page allows ---- *)

(* Non-destructive reads of the shared page, oldest first. *)
let snoop_requests t : slot list = List.rev (Queue.fold (fun acc s -> s :: acc) [] t.requests)
let snoop_responses t : slot list = List.rev (Queue.fold (fun acc s -> s :: acc) [] t.responses)

(* Write a frame into the ring as [pusher] — the capture-and-replay
   primitive: anyone with a writable mapping of the page can do this, and
   the frame is indistinguishable from a frontend push except for the
   recorded provenance (which models what memory-integrity protection
   would attest). *)
let inject_request t ~(pusher : Domain.domid) (payload : string) : (int, string) result =
  push_slot t { id = t.next_id; payload; pusher }

let corrupt_req_prod t ~delta =
  t.req_prod <- t.req_prod + delta;
  t.on_work ()
