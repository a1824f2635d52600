(* Monotonic freshness counters for vTPM state blobs.

   SvTPM's observation: a software vTPM's checkpoint / migration blob is
   a perfect rollback vehicle — capture an old one, feed it back, and the
   guest's TPM state (PCRs, NV, keys, auth failure counters) silently
   travels back in time. The defense is a per-instance monotonic counter
   stamped into every protected blob and a last-seen table on the
   accepting side: a blob whose counter is not newer than the last value
   accepted for that instance's lineage is refused.

   Lineage identity is the instance's EK fingerprint — stable across
   serialize/deserialize and across hosts, unlike the vtpm_id (which each
   manager allocates locally).

   The last-seen table itself is the remaining rollback target: crash the
   destination, restore an older table, and old blobs become "fresh"
   again. So the table can be anchored in the hardware TPM exactly like
   the audit chain head (a {!Hw_anchor} slot: owner-write NV space
   holding the table digest, plus a monotonic hardware counter): a
   reloaded table that fails the anchor check is discarded and imports
   fail closed until the operator resyncs. *)

open Vtpm_tpm

type router = {
  rt_commit : data:string -> (int, Vtpm_util.Verror.t) result;
  rt_read : unit -> (string, Vtpm_util.Verror.t) result;
  rt_available : unit -> bool;
}

type t = {
  mgr : Manager.t;
  issued : (string, int) Hashtbl.t; (* lineage -> highest counter stamped here *)
  last_seen : (string, int) Hashtbl.t; (* lineage -> highest counter accepted here *)
  ckpt_hwm : (string, int) Hashtbl.t;
      (* lineage -> counter of the latest *checkpoint* stamped here; the
         restore floor. Kept apart from [issued] so a migration export
         (which also issues) doesn't strand the latest checkpoint as
         "stale" after an aborted handshake. *)
  mutable anchor : (Hw_anchor.slot * router) option;
      (* the slot, and the path its traffic takes: single-attempt
         hardware ops from [anchor_setup], or the anchoring service once
         it attaches — closures because lib/vtpm cannot depend on
         lib/core *)
  mutable accepted : int;
  mutable rejected : int;
}

let create (mgr : Manager.t) : t =
  {
    mgr;
    issued = Hashtbl.create 16;
    last_seen = Hashtbl.create 16;
    ckpt_hwm = Hashtbl.create 16;
    anchor = None;
    accepted = 0;
    rejected = 0;
  }

let set_router t r =
  match t.anchor with
  | None -> invalid_arg "Freshness.set_router: tracker is not anchored"
  | Some (slot, _) -> t.anchor <- Some (slot, r)

let anchor_slot t = Option.map fst t.anchor

let lineage (engine : Engine.t) : string =
  Vtpm_crypto.Rsa.fingerprint engine.Engine.ek.Keystore.rsa.pub

let find tbl lineage = Option.value ~default:0 (Hashtbl.find_opt tbl lineage)
let issued_hwm t ~lineage = find t.issued lineage
let last_seen t ~lineage = find t.last_seen lineage
let accepted t = t.accepted
let rejected t = t.rejected
let anchored t = t.anchor <> None

(* --- Hardware anchoring of the last-seen table ---------------------------

   A {!Hw_anchor} slot, like the audit anchor: the table digest goes
   into an owner-write NV space, and a hardware monotonic counter is
   bumped on every commit so a missing commit is detectable. A distinct
   NV index keeps the two anchors from clobbering each other when both
   are in use on one platform. *)

let ( let* ) = Result.bind

(* Canonical map dump: sorted by lineage so serialization and digests are
   independent of hashtable iteration order. *)
let dump tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write_map w pairs =
  Vtpm_util.Codec.write_u32_int w (List.length pairs);
  List.iter
    (fun (lin, n) ->
      Vtpm_util.Codec.write_sized w lin;
      Vtpm_util.Codec.write_u32_int w n)
    pairs

let serialize_table (t : t) : string =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_bytes w "VTPMFRS1";
  write_map w (dump t.last_seen);
  write_map w (dump t.issued);
  write_map w (dump t.ckpt_hwm);
  Vtpm_util.Codec.contents w

(* The anchored digest covers only the last-seen map: that is the import
   rollback target, and keeping [issued] / [ckpt_hwm] out of it means
   source-side stamps don't diverge the live table from the anchor
   between commits — the anchor invariant ("live last-seen map matches
   the hardware digest between admissions") holds from setup onward. *)
let table_digest t =
  let w = Vtpm_util.Codec.writer () in
  write_map w (dump t.last_seen);
  Vtpm_crypto.Sha256.digest (Vtpm_util.Codec.contents w)

(* Commit the current table digest; returns the anchor counter value.
   Freshness commits are synchronous and never deferred (an unanchored
   admission would be a rollback window), so a service router
   propagates its typed error instead of queueing. *)
let anchor_commit (t : t) : (int, Vtpm_util.Verror.t) result =
  match t.anchor with
  | None -> Vtpm_util.Verror.internal "freshness table is not anchored"
  | Some (_, r) -> r.rt_commit ~data:(table_digest t)

(* Compare the live table against the hardware anchor. A mismatch is an
   [Integrity] error — rollback or staleness, never retryable. *)
let anchor_verify (t : t) : (unit, Vtpm_util.Verror.t) result =
  match t.anchor with
  | None -> Vtpm_util.Verror.internal "freshness table is not anchored"
  | Some (_, r) ->
      let* anchored_digest = r.rt_read () in
      if Vtpm_crypto.Hmac.equal_ct anchored_digest (table_digest t) then Ok ()
      else
        Vtpm_util.Verror.integrity
          "freshness table does not match the hardware anchor (rolled back or stale)"

let anchor_setup (t : t) : (unit, Vtpm_util.Verror.t) result =
  let mgr = t.mgr in
  let* slot =
    Hw_anchor.define mgr ~label:"freshness" ~nv_index:0x1A0E ~size:32 ~counter_label:"frsh"
      ~auth_prefix:"fresh-ctr:"
  in
  let direct =
    {
      rt_commit = (fun ~data -> Hw_anchor.commit mgr slot ~data);
      rt_read = (fun () -> Result.map fst (Hw_anchor.read mgr slot));
      rt_available = (fun () -> true);
    }
  in
  t.anchor <- Some (slot, direct);
  (* Seed the anchor with the current (usually empty) table digest so
     the anchor invariant holds before the first admission — an anchored
     tracker whose live table mismatches refuses imports. *)
  Result.map (fun (_ : int) -> ()) (anchor_commit t)

(* --- Counter issue / admission ------------------------------------------- *)

(* Stamp a fresh counter for a lineage: strictly above everything this
   host has issued *or* accepted for it, so a re-export after a failed
   migration (whose counter the destination may already have recorded)
   still lands strictly newer. *)
let issue (t : t) ~lineage =
  let n = 1 + max (find t.issued lineage) (find t.last_seen lineage) in
  Hashtbl.replace t.issued lineage n;
  n

(* A checkpoint stamp: an ordinary issue that also moves the restore
   floor, so only the latest checkpoint for the lineage restores. *)
let stamp_checkpoint (t : t) ~lineage =
  let n = issue t ~lineage in
  Hashtbl.replace t.ckpt_hwm lineage n;
  n

(* Admission check for an incoming migration blob: strictly newer than the
   last value accepted for this lineage. Records the counter (and commits
   the anchored table) on success. *)
let admit (t : t) ~lineage ~counter : (unit, string) result =
  (* Fail closed while the anchoring service reports the hardware TPM
     down: an admission recorded without a synchronous anchor commit
     would be silently un-anchored — exactly the rollback window the
     anchor exists to close. Bounded staleness is for audit heads only;
     freshness never defers. *)
  match t.anchor with
  | Some (_, r) when not (r.rt_available ()) ->
      t.rejected <- t.rejected + 1;
      Error "freshness anchor unavailable (hardware TPM down), refusing import"
  | _ -> (
  (* Fail closed on an anchored tracker whose live table no longer
     matches the hardware digest — e.g. after a stale reload was
     discarded. An empty table would otherwise admit any counter,
     turning "discard the stale copy" into a replay window. *)
  match
    match t.anchor with None -> Ok () | Some _ -> anchor_verify t
  with
  | Error e ->
      t.rejected <- t.rejected + 1;
      Error ("freshness table unusable, refusing import: " ^ Vtpm_util.Verror.to_string e)
  | Ok () ->
  let seen = find t.last_seen lineage in
  if counter <= seen then begin
    t.rejected <- t.rejected + 1;
    Error
      (Printf.sprintf "stale state blob: freshness counter %d <= last-seen %d (rollback/replay)"
         counter seen)
  end
  else begin
    Hashtbl.replace t.last_seen lineage counter;
    if counter > find t.issued lineage then Hashtbl.replace t.issued lineage counter;
    t.accepted <- t.accepted + 1;
    match t.anchor with
    | None -> Ok ()
    | Some _ ->
        Result.map_error Vtpm_util.Verror.to_string
          (Result.map (fun (_ : int) -> ()) (anchor_commit t))
  end)

(* Restore check for a checkpoint entry: the latest checkpoint carries
   the lineage's restore floor, so anything below it is a captured older
   blob. *)
let check_restore (t : t) ~lineage ~counter : (unit, string) result =
  let hwm = find t.ckpt_hwm lineage in
  if counter < hwm then begin
    t.rejected <- t.rejected + 1;
    Error
      (Printf.sprintf
         "stale checkpoint: freshness counter %d < high-water %d (rollback/replay)" counter hwm)
  end
  else begin
    t.accepted <- t.accepted + 1;
    Ok ()
  end

(* --- Table persistence (the crashed-destination story) -------------------- *)

let save_table = serialize_table

let load_table (t : t) (blob : string) : (unit, string) result =
  match
    let r = Vtpm_util.Codec.reader blob in
    let magic = Vtpm_util.Codec.read_bytes r 8 in
    if magic <> "VTPMFRS1" then Error "unrecognized freshness table"
    else begin
      let read_map () =
        let n = Vtpm_util.Codec.read_u32_int r in
        List.init n (fun _ ->
            let lin = Vtpm_util.Codec.read_sized r in
            let c = Vtpm_util.Codec.read_u32_int r in
            (lin, c))
      in
      let seen = read_map () in
      let iss = read_map () in
      let hwm = read_map () in
      Ok (seen, iss, hwm)
    end
  with
  | exception Vtpm_util.Codec.Truncated m -> Error ("truncated freshness table: " ^ m)
  | Error m -> Error m
  | Ok (seen, iss, hwm) -> (
      Hashtbl.reset t.last_seen;
      Hashtbl.reset t.issued;
      Hashtbl.reset t.ckpt_hwm;
      List.iter (fun (lin, c) -> Hashtbl.replace t.last_seen lin c) seen;
      List.iter (fun (lin, c) -> Hashtbl.replace t.issued lin c) iss;
      List.iter (fun (lin, c) -> Hashtbl.replace t.ckpt_hwm lin c) hwm;
      match t.anchor with
      | None -> Ok ()
      | Some _ -> (
          (* A table that fails the anchor check is an old copy: discard
             it so stale blobs don't become admissible, and fail closed. *)
          match anchor_verify t with
          | Ok () -> Ok ()
          | Error e ->
              Hashtbl.reset t.last_seen;
              Hashtbl.reset t.issued;
              Hashtbl.reset t.ckpt_hwm;
              Error (Vtpm_util.Verror.to_string e)))
