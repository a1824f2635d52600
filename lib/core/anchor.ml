(* Audit anchoring in the hardware TPM.

   A hash-chained log alone cannot prove it was not truncated; the chain
   head must live somewhere the adversary cannot rewrite. The manager
   periodically commits the head into a hardware-TPM NV space whose write
   requires owner authorization, and bumps a monotonic counter so missing
   commits are detectable. A dom0 tool that copies the log file cannot
   forge a matching anchor.

   The direct paths below talk to the chip in a single attempt — fine on
   a healthy part, and what the seed experiments measure. Production
   traffic routes through {!Anchor_svc} ([commit_via], [verify ~svc]),
   which adds crash-consistent journaling, retry/breaker discipline and
   Merkle-batched catch-up of anchors deferred while the chip was down. *)

module Verror = Vtpm_util.Verror

type t = {
  nv_index : int;
  counter_handle : int;
  counter_auth : string;
}

let default_nv_index = 0x1A0D
let head_size = 32 (* SHA-256 head *)

let ( let* ) = Result.bind

(* Typed boundary for raw client errors: transient chip trouble keeps
   its retryability ([Unavailable]), TPM codes keep their identity. *)
let client_err what (e : Vtpm_tpm.Client.error) : ('a, Verror.t) result =
  if Vtpm_tpm.Client.transient e then
    Error (Verror.Unavailable (Fmt.str "%s: %a" what Vtpm_tpm.Client.pp_error e))
  else
    match e with
    | Vtpm_tpm.Client.Tpm rc -> Error (Verror.Tpm_error rc)
    | Vtpm_tpm.Client.Transport m -> Error (Verror.Internal (Printf.sprintf "%s: %s" what m))

let owner_session mgr hw =
  Result.fold ~ok:Result.ok
    ~error:(client_err "owner session")
    (Vtpm_tpm.Client.start_oiap hw ~usage_secret:mgr.Vtpm_mgr.Manager.hw_owner_auth)

(* One-time setup: define the NV space (owner-write, world-read within the
   manager) and create the anchor counter. *)
let setup ?(nv_index = default_nv_index) (mgr : Vtpm_mgr.Manager.t) : (t, Verror.t) result =
  let hw = Vtpm_mgr.Manager.hw_client mgr in
  let* sess = owner_session mgr hw in
  let attrs = { Vtpm_tpm.Types.nv_attrs_default with Vtpm_tpm.Types.nv_owner_write = true } in
  let* () =
    Result.fold ~ok:Result.ok ~error:(client_err "nv_define")
      (Vtpm_tpm.Client.nv_define hw ~session:sess ~continue:true ~index:nv_index ~size:head_size
         ~attrs ())
  in
  let counter_auth = Vtpm_crypto.Sha1.digest ("anchor-ctr:" ^ mgr.Vtpm_mgr.Manager.hw_owner_auth) in
  let* resp =
    Result.fold ~ok:Result.ok ~error:(client_err "create_counter")
      (Vtpm_tpm.Client.authorized ~continue:false hw sess ~make_req:(fun auth ->
           Vtpm_tpm.Cmd.Create_counter { label = "audt"; counter_auth; auth }))
  in
  match resp.Vtpm_tpm.Cmd.body with
  | Vtpm_tpm.Cmd.R_counter { handle; _ } -> Ok { nv_index; counter_handle = handle; counter_auth }
  | _ -> Verror.internal "unexpected counter response"

let slot_of (t : t) : Anchor_svc.slot =
  {
    Anchor_svc.sl_label = "audit";
    sl_nv = t.nv_index;
    sl_counter = t.counter_handle;
    sl_auth = t.counter_auth;
  }

(* Commit the current audit head directly (single attempt, no journal);
   returns the anchor counter value. *)
let commit (t : t) (mgr : Vtpm_mgr.Manager.t) (audit : Audit.t) : (int, Verror.t) result =
  let hw = Vtpm_mgr.Manager.hw_client mgr in
  let* sess = owner_session mgr hw in
  let* () =
    Result.fold ~ok:Result.ok ~error:(client_err "nv_write")
      (Vtpm_tpm.Client.nv_write hw ~session:sess ~continue:false ~index:t.nv_index ~offset:0
         ~data:(Audit.head audit) ())
  in
  let* csess =
    Result.fold ~ok:Result.ok
      ~error:(client_err "counter session")
      (Vtpm_tpm.Client.start_oiap hw ~usage_secret:t.counter_auth)
  in
  let* resp =
    Result.fold ~ok:Result.ok ~error:(client_err "increment")
      (Vtpm_tpm.Client.authorized ~continue:false hw csess ~make_req:(fun auth ->
           Vtpm_tpm.Cmd.Increment_counter { handle = t.counter_handle; auth }))
  in
  match resp.Vtpm_tpm.Cmd.body with
  | Vtpm_tpm.Cmd.R_counter { value; _ } -> Ok value
  | _ -> Verror.internal "unexpected counter response"

(* Commit through the anchoring service: journaled against torn commits,
   retried under the breaker, deferred (bounded-staleness) if the chip is
   down. *)
let commit_via (svc : Anchor_svc.t) (t : t) (audit : Audit.t) :
    (Anchor_svc.outcome, Verror.t) result =
  Anchor_svc.commit svc (slot_of t) ~data:(Audit.head audit) ~defer_ok:true

(* Read back the anchored head and the commit count. *)
let read (t : t) (mgr : Vtpm_mgr.Manager.t) : (string * int, Verror.t) result =
  let hw = Vtpm_mgr.Manager.hw_client mgr in
  let* head =
    Result.fold ~ok:Result.ok ~error:(client_err "nv_read")
      (Vtpm_tpm.Client.nv_read hw ~index:t.nv_index ~offset:0 ~length:head_size ())
  in
  let* resp =
    Result.fold ~ok:Result.ok ~error:(client_err "read_counter")
      (Vtpm_tpm.Client.exchange hw (Vtpm_tpm.Cmd.Read_counter { handle = t.counter_handle }))
  in
  match resp.Vtpm_tpm.Cmd.body with
  | Vtpm_tpm.Cmd.R_counter { value; _ } -> Ok (head, value)
  | _ -> Verror.internal "unexpected counter response"

(* Verify an exported log against the hardware anchor: the chain must be
   intact and end at the anchored head. [base] anchors the chain's start:
   genesis for a full export, the log's recorded {!Audit.base} for the
   retained window of a rotated log — rotation moves the window's start,
   not its head, so the hardware anchor stays valid either way.

   With [svc], a head that does not match the NV bytes directly is also
   accepted when the NV bytes are a Merkle-batch root and the service
   holds an inclusion proof for the head — the catch-up commit anchored
   it as one leaf among the backlog. *)
let verify (t : t) (mgr : Vtpm_mgr.Manager.t) ?svc ?(base = Audit.genesis)
    (entries : Audit.entry list) : (unit, Verror.t) result =
  let* anchored_head, _count = read t mgr in
  let head_anchored h =
    String.equal h anchored_head
    ||
    match svc with
    | None -> false
    | Some svc -> (
        match Anchor_svc.proof_for svc ~label:"audit" ~data:h with
        | Some (root, proof) ->
            String.equal root anchored_head && Merkle.verify ~root ~leaf:h proof
        | None -> false)
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
let verify_log (t : t) (mgr : Vtpm_mgr.Manager.t) ?svc (audit : Audit.t) : (unit, Verror.t) result =
  verify t mgr ?svc ~base:(Audit.base audit) (Audit.entries audit)
