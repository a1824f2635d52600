(* Hardware-TPM anchoring: the audit slot and the crash-consistent
   anchoring service.

   A hash-chained log alone cannot prove it was not truncated; the chain
   head must live somewhere the adversary cannot rewrite. The manager
   commits the head into a hardware-TPM anchor slot ({!Vtpm_mgr.Hw_anchor}:
   an owner-write NV space plus a monotonic counter bumped on every
   commit, so missing commits are detectable). A dom0 tool that copies
   the log file cannot forge a matching anchor. The freshness last-seen
   table ([Vtpm_mgr.Freshness]) is a second slot.

   Production traffic for both slots funnels through the service below,
   which treats the chip as what it is: a slow serial device on a flaky
   LPC bus that can stall, return TPM_RETRY for seconds, drop power
   mid-exchange, or rot an NV byte at rest. (Single-attempt commits and
   reads with no journal are {!Vtpm_mgr.Hw_anchor.commit}/[read].)

   Three layers of defense:

   {b 1. Crash-consistent commits.} An anchor commit is two hardware
   ops — NV write of the digest, then a monotonic-counter bump — and a
   power cut between them leaves a torn anchor that a later verify
   misreads as tampering. Before touching the chip the service journals
   a write-ahead intent (slot, digest, pre-commit counter value) into
   the manager checkpoint store; the journal entry advances through
   [Pending] -> [Nv_written] and is removed only after the bump lands.
   On restart, {!recover} replays the journal: both halves landed ->
   done; NV stale -> rewrite; counter not past its pre-commit value ->
   bump. Every repair path is idempotent, so a crash *during* repair
   re-repairs cleanly. The invariant is [counter >= commits ever
   acknowledged] — a bump that landed but whose response was lost may
   be re-issued, which over-counts and is safe; under-counting never
   happens.

   {b 2. Fault discipline per op.} Each hardware op gets a deadline on
   the simulated clock and a bounded, seeded retry loop (exponential
   backoff + jitter) that retries only what {!Vtpm_tpm.Client.transient}
   classifies as transient: TPM_RETRY, auth handles killed by a chip
   reset, transport cuts from power loss. Permanent TPM errors surface
   immediately with their identity intact.

   {b 3. Bounded-staleness degradation.} A circuit breaker trips to
   [Down] after consecutive exhausted retries. While down, audit-head
   commits are deferred into a bounded, checkpoint-persisted queue (the
   audit log records the unanchored window's open and close), while
   freshness commits are never deferred — rollback admission fails
   closed instead. Recovery drains the backlog as {e one} Merkle-batched
   commit per slot: the NV write anchors the batch root, and a stored
   per-entry inclusion proof lets {!verify} check any individual head
   against the root. Every queued head is anchored at the cost of one
   torn-commit window instead of thousands. *)

module Verror = Vtpm_util.Verror
module Cost = Vtpm_util.Cost
module Codec = Vtpm_util.Codec
module Manager = Vtpm_mgr.Manager
module Checkpoint = Vtpm_mgr.Checkpoint
module Freshness = Vtpm_mgr.Freshness
module Hw_anchor = Vtpm_mgr.Hw_anchor

type slot = Hw_anchor.slot

type health = Healthy | Degraded | Down

type config = {
  op_deadline_us : float;  (** per-op response deadline; later is a stall *)
  max_attempts : int;  (** attempts per hardware op, first try included *)
  backoff_base_us : float;
  backoff_cap_us : float;
  jitter : float;  (** backoff multiplier spread: [1, 1 + jitter] *)
  failure_threshold : int;  (** consecutive failed commits before [Down] *)
  cooldown_us : float;  (** breaker hold-off before a recovery probe *)
  clean_streak : int;  (** clean commits to climb [Degraded] -> [Healthy] *)
  max_deferred : int;  (** deferred-queue bound; beyond it oldest drops *)
  max_staleness_us : float;  (** oldest-deferred age that breaches the contract *)
}

let default_config =
  {
    op_deadline_us = 30_000.0;
    max_attempts = 4;
    backoff_base_us = 400.0;
    backoff_cap_us = 6_400.0;
    jitter = 0.25;
    failure_threshold = 2;
    cooldown_us = 150_000.0;
    clean_streak = 2;
    max_deferred = 8192;
    max_staleness_us = 2_000_000.0;
  }

(* Write-ahead intent: one in-flight commit per slot. [Pending] means
   nothing is known to have landed; [Nv_written] means the NV write was
   acknowledged and only the counter bump may be missing. *)
type stage = Pending | Nv_written

type intent = {
  in_slot : slot;
  in_data : string;
  in_pre : int;  (* counter value read before the commit started *)
  mutable in_stage : stage;
}

type deferred = { df_slot : slot; df_data : string; df_at_us : float }

(* A drained batch: the root this slot's NV space now anchors, plus an
   inclusion proof per queued digest. *)
type batch = { bt_root : string; bt_proofs : (string, Merkle.proof) Hashtbl.t (* digest -> proof *) }

type outcome = Committed of int | Deferred of int

type repair_report = { rp_inflight : int; rp_completed : int; rp_repaired : int }

(* Power-loss drill points inside a commit, in execution order. *)
type crash_point = Before_nv_write | After_nv_write | After_journal_update | After_increment

exception Power_loss of crash_point

type service = {
  mgr : Manager.t;
  ckpt : Checkpoint.t;
  cfg : config;
  rng : Vtpm_util.Rng.t;  (* backoff jitter only *)
  journal : (string, intent) Hashtbl.t;  (* slot label -> in-flight intent *)
  deferred : deferred Queue.t;
  batches : (string, batch) Hashtbl.t;  (* slot label -> last drained batch *)
  slots : (string, slot) Hashtbl.t;  (* every slot ever seen; probe target *)
  mutable audit : Audit.t option;  (* unanchored-window markers land here *)
  mutable health : health;
  mutable breaker_until : float;
  mutable down_since : float;
  mutable consecutive_failures : int;
  mutable clean : int;
  mutable window_stale_marked : bool;
  (* counters *)
  mutable queue_dropped : int;
  mutable retries : int;
  mutable stalls : int;
  mutable breaker_opens : int;
  mutable repairs : int;
  mutable catchup_batches : int;
  mutable catchup_entries : int;
  mutable staleness_breaches : int;
  mutable last_recovery_us : float;
  mutable crash_at : crash_point option;  (* one-shot drill trigger *)
}

type stats = {
  st_queue_dropped : int;
  st_retries : int;
  st_stalls : int;
  st_breaker_opens : int;
  st_repairs : int;
  st_catchup_batches : int;
  st_catchup_entries : int;
  st_staleness_breaches : int;
  st_last_recovery_us : float;
}

let ( let* ) = Result.bind
let journal_key = "anchor-svc/journal"
let now t = Cost.now t.mgr.Manager.cost

(* ------------------------------------------------------------------ *)
(* Journal + deferred-queue persistence (crash-durable via Checkpoint) *)

let magic = "ANCRJNL2"

let write_slot w (s : slot) =
  Codec.write_sized w s.label;
  Codec.write_u32_int w s.nv_index;
  Codec.write_u32_int w s.counter_handle;
  Codec.write_sized w s.counter_auth;
  Codec.write_u32_int w s.size

let read_slot_rec r =
  let label = Codec.read_sized r in
  let nv_index = Codec.read_u32_int r in
  let counter_handle = Codec.read_u32_int r in
  let counter_auth = Codec.read_sized r in
  let size = Codec.read_u32_int r in
  { Hw_anchor.label; nv_index; counter_handle; counter_auth; size }

let persist t =
  let w = Codec.writer () in
  Codec.write_bytes w magic;
  let entries =
    Hashtbl.fold (fun _ it acc -> it :: acc) t.journal []
    |> List.sort (fun a b -> compare a.in_slot.label b.in_slot.label)
  in
  Codec.write_u32_int w (List.length entries);
  List.iter
    (fun it ->
      write_slot w it.in_slot;
      Codec.write_u32_int w it.in_pre;
      Codec.write_sized w it.in_data;
      Codec.write_u8 w (match it.in_stage with Pending -> 0 | Nv_written -> 1))
    entries;
  Codec.write_u32_int w (Queue.length t.deferred);
  Queue.iter
    (fun d ->
      write_slot w d.df_slot;
      Codec.write_sized w d.df_data;
      Codec.write_u64 w (Int64.bits_of_float d.df_at_us))
    t.deferred;
  Checkpoint.save_blob t.ckpt ~key:journal_key (Codec.contents w)

let restore t =
  match Checkpoint.load_blob t.ckpt ~key:journal_key with
  | None -> ()
  | Some blob -> (
      try
        let r = Codec.reader blob in
        if not (String.equal (Codec.read_bytes r 8) magic) then raise (Codec.Truncated "bad magic");
        let n = Codec.read_u32_int r in
        for _ = 1 to n do
          let sl = read_slot_rec r in
          let in_pre = Codec.read_u32_int r in
          let in_data = Codec.read_sized r in
          let in_stage = if Codec.read_u8 r = 0 then Pending else Nv_written in
          Hashtbl.replace t.journal sl.label { in_slot = sl; in_data; in_pre; in_stage };
          Hashtbl.replace t.slots sl.label sl
        done;
        let q = Codec.read_u32_int r in
        for _ = 1 to q do
          let sl = read_slot_rec r in
          let df_data = Codec.read_sized r in
          let df_at_us = Int64.float_of_bits (Codec.read_u64 r) in
          Queue.push { df_slot = sl; df_data; df_at_us } t.deferred;
          Hashtbl.replace t.slots sl.label sl
        done
      with Codec.Truncated _ ->
        (* a torn journal blob is itself a torn write; drop it rather
           than wedge — the anchors it described will fail verify and be
           recommitted by their owners *)
        Hashtbl.reset t.journal;
        Queue.clear t.deferred)

(* ------------------------------------------------------------------ *)
(* Hardware ops: deadline + bounded seeded retry with backoff          *)

(* Run one hardware op with the service's fault discipline. [cost_us]
   is the op's simulated cost, charged per attempt; the injected stall
   surcharge lands inside the transport, so a late response shows up as
   elapsed > deadline here. Each attempt's raw op opens its own auth
   session, so a session that a chip reset invalidated is never reused. *)
let hw_op t ~what ~cost_us (f : Vtpm_tpm.Client.t -> ('a, Vtpm_tpm.Client.error) result) :
    ('a, Verror.t) result =
  let cost = t.mgr.Manager.cost and hw = Manager.hw_client t.mgr in
  let rec attempt k =
    let t0 = Cost.now cost in
    Cost.charge cost cost_us;
    match f hw with
    | Ok v ->
        let elapsed = Cost.now cost -. t0 in
        if elapsed > t.cfg.op_deadline_us then begin
          (* The command may well have executed — treat the response as
             lost and retry. Only counter bumps are non-idempotent, and
             over-counting keeps the [counter >= commits] invariant. *)
          t.stalls <- t.stalls + 1;
          retry k
            (Verror.Timeout
               (Printf.sprintf "%s: response after %.0f us (deadline %.0f us)" what elapsed
                  t.cfg.op_deadline_us))
        end
        else Ok v
    | Error e ->
        let ve = Hw_anchor.error what e in
        if Verror.transient ve then retry k ve else Error ve
  and retry k err =
    if k + 1 >= t.cfg.max_attempts then Error err
    else begin
      t.retries <- t.retries + 1;
      let back = Float.min t.cfg.backoff_cap_us (t.cfg.backoff_base_us *. (2.0 ** float_of_int k)) in
      Cost.charge cost (back *. (1.0 +. (t.cfg.jitter *. Vtpm_util.Rng.float t.rng)));
      attempt (k + 1)
    end
  in
  attempt 0

(* The raw ops flush a failed command's session themselves
   ({!Hw_anchor}); here they gain the deadline, retry and cost. *)
let op_write_nv t (slot : slot) data =
  hw_op t
    ~what:(slot.label ^ " nv-write")
    ~cost_us:(Cost.hwtpm_session_us +. Cost.hwtpm_nv_write_us)
    (fun hw -> Hw_anchor.write_nv hw ~owner_auth:t.mgr.Manager.hw_owner_auth slot data)

let op_read_nv t (slot : slot) =
  hw_op t ~what:(slot.label ^ " nv-read") ~cost_us:Cost.hwtpm_nv_read_us (fun hw ->
      Hw_anchor.read_nv hw slot)

let op_read_counter t (slot : slot) =
  hw_op t ~what:(slot.label ^ " counter-read") ~cost_us:Cost.hwtpm_counter_read_us (fun hw ->
      Hw_anchor.read_counter hw slot)

let op_bump_counter t (slot : slot) =
  hw_op t
    ~what:(slot.label ^ " counter-bump")
    ~cost_us:(Cost.hwtpm_session_us +. Cost.hwtpm_counter_inc_us)
    (fun hw -> Hw_anchor.bump_counter hw slot)

(* ------------------------------------------------------------------ *)
(* Breaker + audit window markers                                      *)

let audit_mark t ~allowed ~reason =
  match t.audit with
  | None -> ()
  | Some a -> Audit.append a ~subject:"anchor-svc" ~operation:"anchor" ~instance:None ~allowed ~reason

let open_breaker t =
  if t.health <> Down then begin
    t.health <- Down;
    t.down_since <- now t;
    t.breaker_opens <- t.breaker_opens + 1;
    t.window_stale_marked <- false;
    audit_mark t ~allowed:true
      ~reason:
        (Printf.sprintf "window-open: hardware TPM down after %d consecutive failures"
           t.consecutive_failures)
  end;
  t.breaker_until <- now t +. t.cfg.cooldown_us

(* Fire the one-shot drill trigger when a commit reaches [point]: the
   chip power-cycles and the "manager" dies by exception, leaving the
   journal and the hardware exactly as a real power cut would. *)
let drill t point =
  match t.crash_at with
  | Some p when p = point ->
      t.crash_at <- None;
      Manager.hw_power_cycle t.mgr;
      raise (Power_loss point)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The journaled two-op commit                                         *)

let do_commit t (slot : slot) data : (int, Verror.t) result =
  Hashtbl.replace t.slots slot.label slot;
  let* pre = op_read_counter t slot in
  (* A leftover intent for this slot belongs to a commit that already
     reported failure; its digest, if it still matters, sits in the
     deferred queue. The new intent supersedes it — repair then
     reconciles against the newest data only. *)
  let it = { in_slot = slot; in_data = data; in_pre = pre; in_stage = Pending } in
  Hashtbl.replace t.journal slot.label it;
  persist t;
  drill t Before_nv_write;
  let* () = op_write_nv t slot data in
  drill t After_nv_write;
  it.in_stage <- Nv_written;
  persist t;
  drill t After_journal_update;
  let* value = op_bump_counter t slot in
  drill t After_increment;
  Hashtbl.remove t.journal slot.label;
  persist t;
  Ok value

(* ------------------------------------------------------------------ *)
(* Torn-commit repair                                                  *)

let repair_one t (it : intent) : ([ `Completed | `Repaired ], Verror.t) result =
  let slot = it.in_slot in
  let* nv = op_read_nv t slot in
  let* cnt = op_read_counter t slot in
  let nv_ok = String.equal nv it.in_data in
  let cnt_ok = cnt > it.in_pre in
  if nv_ok && cnt_ok then Ok `Completed
  else
    (* [Pending] with neither half landed also takes this path: the
       commit is finished outright rather than rolled back, which is
       legal because the caller was never told it failed — the crash ate
       the acknowledgment either way. *)
    let* () = if nv_ok then Ok () else op_write_nv t slot it.in_data in
    let* _ = if cnt_ok then Ok cnt else op_bump_counter t slot in
    Ok `Repaired

let recover t : (repair_report, Verror.t) result =
  let entries = Hashtbl.fold (fun _ it acc -> it :: acc) t.journal [] in
  let entries = List.sort (fun a b -> compare a.in_slot.label b.in_slot.label) entries in
  let rec go completed repaired = function
    | [] -> Ok { rp_inflight = List.length entries; rp_completed = completed; rp_repaired = repaired }
    | it :: rest -> (
        match repair_one t it with
        | Error e -> Error e (* journal keeps the entry; repair re-runs *)
        | Ok outcome ->
            Hashtbl.remove t.journal it.in_slot.label;
            persist t;
            if outcome = `Repaired then begin
              t.repairs <- t.repairs + 1;
              go completed (repaired + 1) rest
            end
            else go (completed + 1) repaired rest)
  in
  go 0 0 entries

(* ------------------------------------------------------------------ *)
(* Merkle-batched catch-up                                             *)

let drain t : (unit, Verror.t) result =
  (* Group by slot, preserving per-slot order (proof indexes follow
     arrival order). *)
  let items = List.of_seq (Queue.to_seq t.deferred) in
  let labels =
    List.fold_left
      (fun acc d -> if List.mem d.df_slot.label acc then acc else d.df_slot.label :: acc)
      [] items
    |> List.rev
  in
  let drop_label label =
    let keep = Queue.of_seq (Seq.filter (fun d -> d.df_slot.label <> label) (Queue.to_seq t.deferred)) in
    Queue.clear t.deferred;
    Queue.transfer keep t.deferred;
    persist t
  in
  let rec go = function
    | [] -> Ok ()
    | label :: rest ->
        let group = List.filter (fun d -> d.df_slot.label = label) items in
        let slot = (List.hd group).df_slot in
        let* () =
          match List.map (fun d -> d.df_data) group with
          | [ one ] -> Result.map ignore (do_commit t slot one)
          | leaves ->
              let n = List.length leaves in
              Cost.charge t.mgr.Manager.cost (Cost.merkle_hash_us *. float_of_int (n + Merkle.combines n));
              let root = Merkle.root leaves in
              let* _counter = do_commit t slot root in
              let proofs = Hashtbl.create (2 * n) in
              let all = Merkle.all_proofs leaves in
              List.iteri (fun i leaf -> Hashtbl.replace proofs leaf all.(i)) leaves;
              Hashtbl.replace t.batches label { bt_root = root; bt_proofs = proofs };
              t.catchup_batches <- t.catchup_batches + 1;
              t.catchup_entries <- t.catchup_entries + n;
              Ok ()
        in
        drop_label label;
        go rest
  in
  go labels

(* ------------------------------------------------------------------ *)
(* Breaker recovery                                                    *)

let probe t : (unit, Verror.t) result =
  (* Cheapest real round trip we can make: read a known slot's counter. *)
  match Hashtbl.fold (fun _ s acc -> match acc with Some _ -> acc | None -> Some s) t.slots None with
  | None -> Ok ()
  | Some slot -> Result.map ignore (op_read_counter t slot)

let try_recover t =
  let backlog = Queue.length t.deferred in
  let attempt () =
    let* () = probe t in
    let* _rep = recover t in
    drain t
  in
  match attempt () with
  | Error _ -> t.breaker_until <- now t +. t.cfg.cooldown_us (* still down; hold off *)
  | Ok () ->
      t.health <- Degraded;
      t.clean <- 0;
      t.consecutive_failures <- 0;
      t.last_recovery_us <- now t -. t.down_since;
      audit_mark t ~allowed:true
        ~reason:
          (Printf.sprintf "window-close: recovered after %.0f us, %d deferred anchors caught up"
             t.last_recovery_us backlog)

let tick t = if t.health = Down && now t >= t.breaker_until then try_recover t

(* ------------------------------------------------------------------ *)
(* Public commit paths                                                 *)

let commit_sync t slot ~data : (int, Verror.t) result =
  tick t;
  match t.health with
  | Down ->
      Verror.unavailable "anchor service circuit open (hardware TPM down, %d deferred)"
        (Queue.length t.deferred)
  | Healthy | Degraded -> (
      (* A backlog deferred on a transient wobble (the breaker never
         opened, so no recovery pass will run) drains before the new
         head lands — the batch root must never overwrite a newer
         direct anchor. On failure the entries stay queued and the
         commit below meets the same fault. *)
      if not (Queue.is_empty t.deferred) then ignore (drain t);
      let retries_before = t.retries in
      match do_commit t slot data with
      | Ok v ->
          t.consecutive_failures <- 0;
          if t.retries > retries_before then begin
            t.health <- Degraded;
            t.clean <- 0
          end
          else if t.health = Degraded then begin
            t.clean <- t.clean + 1;
            if t.clean >= t.cfg.clean_streak then t.health <- Healthy
          end;
          Ok v
      | Error e ->
          if Verror.transient e then begin
            t.consecutive_failures <- t.consecutive_failures + 1;
            if t.health = Healthy then t.health <- Degraded;
            if t.consecutive_failures >= t.cfg.failure_threshold then open_breaker t
          end;
          Error e)

let enqueue t slot data =
  if Queue.length t.deferred >= t.cfg.max_deferred then begin
    (* Oldest drops: for cumulative digests (audit heads) every newer
       entry subsumes it, so coverage is kept by the survivors. *)
    ignore (Queue.pop t.deferred);
    t.queue_dropped <- t.queue_dropped + 1
  end;
  Queue.push { df_slot = slot; df_data = data; df_at_us = now t } t.deferred;
  (match Queue.peek_opt t.deferred with
  | Some oldest when now t -. oldest.df_at_us > t.cfg.max_staleness_us ->
      t.staleness_breaches <- t.staleness_breaches + 1;
      if not t.window_stale_marked then begin
        t.window_stale_marked <- true;
        audit_mark t ~allowed:false
          ~reason:
            (Printf.sprintf "staleness-breach: oldest deferred anchor is %.0f us old (bound %.0f us)"
               (now t -. oldest.df_at_us) t.cfg.max_staleness_us)
      end
  | _ -> ());
  persist t;
  Queue.length t.deferred

let commit t (slot : slot) ~data : (outcome, Verror.t) result =
  tick t;
  Hashtbl.replace t.slots slot.label slot;
  match t.health with
  | Down -> Ok (Deferred (enqueue t slot data))
  | Healthy | Degraded -> (
      match commit_sync t slot ~data with
      | Ok v -> Ok (Committed v)
      | Error e when Verror.transient e -> Ok (Deferred (enqueue t slot data))
      | Error e -> Error e)

let read_slot t slot : (string * int, Verror.t) result =
  let* data = op_read_nv t slot in
  let* counter = op_read_counter t slot in
  Ok (data, counter)

let proof_for t ~label ~data =
  Option.bind (Hashtbl.find_opt t.batches label) (fun b ->
      Option.map (fun proof -> (b.bt_root, proof)) (Hashtbl.find_opt b.bt_proofs data))

let available t = t.health <> Down

(* ------------------------------------------------------------------ *)
(* Construction + wiring                                               *)

let create ?(cfg = default_config) ~ckpt (mgr : Manager.t) =
  let t =
    {
      mgr;
      ckpt;
      cfg;
      rng = Vtpm_util.Rng.create ~seed:0x5caf_f01d;
      journal = Hashtbl.create 7;
      deferred = Queue.create ();
      batches = Hashtbl.create 7;
      slots = Hashtbl.create 7;
      audit = None;
      health = Healthy;
      breaker_until = 0.0;
      down_since = 0.0;
      consecutive_failures = 0;
      clean = 0;
      window_stale_marked = false;
      queue_dropped = 0;
      retries = 0;
      stalls = 0;
      breaker_opens = 0;
      repairs = 0;
      catchup_batches = 0;
      catchup_entries = 0;
      staleness_breaches = 0;
      last_recovery_us = 0.0;
      crash_at = None;
    }
  in
  restore t;
  t

let set_audit t audit = t.audit <- audit

let attach_freshness t (fresh : Freshness.t) : (unit, Verror.t) result =
  match Freshness.anchor_slot fresh with
  | None -> Verror.internal "freshness tracker is not anchored; run anchor_setup first"
  | Some slot ->
      Hashtbl.replace t.slots slot.label slot;
      Freshness.set_router fresh
        {
          Freshness.rt_commit = (fun ~data -> commit_sync t slot ~data);
          rt_read = (fun () -> Result.map fst (read_slot t slot));
          rt_available = (fun () -> available t);
        };
      Ok ()

(* ------------------------------------------------------------------ *)
(* Introspection + drill hooks                                         *)

(* An elapsed cooldown still reads Down until a recovery succeeds. *)
let health t = t.health

let inflight t = Hashtbl.length t.journal
let queue_depth t = Queue.length t.deferred

let stats t =
  {
    st_queue_dropped = t.queue_dropped;
    st_retries = t.retries;
    st_stalls = t.stalls;
    st_breaker_opens = t.breaker_opens;
    st_repairs = t.repairs;
    st_catchup_batches = t.catchup_batches;
    st_catchup_entries = t.catchup_entries;
    st_staleness_breaches = t.staleness_breaches;
    st_last_recovery_us = t.last_recovery_us;
  }

let set_power_loss_at t point = t.crash_at <- point

let force_down t =
  t.consecutive_failures <- t.cfg.failure_threshold;
  open_breaker t

(* ------------------------------------------------------------------ *)
(* The audit slot                                                      *)

(* The head is a SHA-256 digest. *)
let setup (mgr : Manager.t) : (slot, Verror.t) result =
  Hw_anchor.define mgr ~label:"audit" ~nv_index:0x1A0D ~size:32 ~counter_label:"audt"
    ~auth_prefix:"anchor-ctr:"

(* Verify an exported log against the hardware anchor: the chain must be
   intact and end at the anchored head. [base] anchors the chain's start:
   genesis for a full export, the log's recorded {!Audit.base} for the
   retained window of a rotated log — rotation moves the window's start,
   not its head, so the hardware anchor stays valid either way.

   With [svc], a head that does not match the NV bytes directly is also
   accepted when the NV bytes are a Merkle-batch root and the service
   holds an inclusion proof for the head — the catch-up commit anchored
   it as one leaf among the backlog. The read itself is single-attempt
   and charges nothing. *)
let verify (slot : slot) (mgr : Manager.t) ?svc ?(base = Audit.genesis)
    (entries : Audit.entry list) : (unit, Verror.t) result =
  let* anchored_head, _count = Hw_anchor.read mgr slot in
  let head_anchored h =
    String.equal h anchored_head
    ||
    match Option.bind svc (fun svc -> proof_for svc ~label:slot.label ~data:h) with
    | Some (root, proof) -> String.equal root anchored_head && Merkle.verify ~root ~leaf:h proof
    | None -> false
  in
  (* Chain self-consistency first (broken links are tampering regardless
     of what the chip says), then anchor the head. *)
  match Audit.verify_chain ~base entries with
  | Error seq -> Verror.integrity "chain broken at entry %d" seq
  | Ok () ->
      let h = match List.rev entries with [] -> base | last :: _ -> last.Audit.hash in
      if head_anchored h then Ok ()
      else Verror.integrity "log does not end at the anchored head (truncated or stale)"

(* Verify a live log, rotated or not, against the hardware anchor. *)
let verify_log (slot : slot) (mgr : Manager.t) ?svc (audit : Audit.t) : (unit, Verror.t) result =
  verify slot mgr ?svc ~base:(Audit.base audit) (Audit.entries audit)
