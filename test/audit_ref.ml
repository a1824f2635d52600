(* The list-based hash-chained audit log that the slot-array storage in
   [Vtpm_access.Audit] replaced, kept only as a differential reference:
   the access suite drives both with the same random appends, cap changes
   and reads and checks that entries, head, base, counters, export bytes
   and chain verification agree. Not part of the library. *)

open Vtpm_access

type entry = Audit.entry = {
  seq : int;
  time_us : float;
  subject : string;
  operation : string;
  instance : int option;
  allowed : bool;
  reason : string;
  prev_hash : string;
  hash : string;
}

type t = {
  mutable entries : entry list; (* newest first *)
  mutable head : string;
  mutable seq : int;
  cost : Vtpm_util.Cost.t;
  mutable max_entries : int option; (* retention cap; None = unbounded *)
  mutable base : string; (* chain anchor of the oldest retained entry *)
  mutable rotations : int;
  mutable dropped : int; (* entries compacted away across all rotations *)
}

let genesis = Vtpm_crypto.Sha256.digest "vtpm-audit-genesis"

let create ~cost =
  {
    entries = [];
    head = genesis;
    seq = 0;
    cost;
    max_entries = None;
    base = genesis;
    rotations = 0;
    dropped = 0;
  }

(* Per-entry digest: a binary length-delimited encoding fed straight into
   a reused SHA-256 context. No [Printf], no hex round-trip of the
   previous hash, no intermediate concatenation — this runs on every
   mediated request and is pure wall-clock overhead. The encoding is
   unambiguous: fixed-width binary for numerics, a 4-byte length prefix
   before each variable field, the raw 32-byte previous hash last. *)
let digest_ctx = lazy (Vtpm_crypto.Sha256.init ())
let digest_fixed = Bytes.create 26 (* seq:8 time:8 instance:8 flags:2 *)
let digest_len4 = Bytes.create 4 (* length prefix scratch *)

let entry_digest ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash =
  let ctx = Lazy.force digest_ctx in
  Vtpm_crypto.Sha256.reset ctx;
  let b = digest_fixed in
  Bytes.set_int64_be b 0 (Int64.of_int seq);
  Bytes.set_int64_be b 8 (Int64.bits_of_float time_us);
  (match instance with
  | Some i ->
      Bytes.set b 16 '\x01';
      Bytes.set_int64_be b 17 (Int64.of_int i)
  | None ->
      Bytes.set b 16 '\x00';
      Bytes.set_int64_be b 17 0L);
  Bytes.set b 25 (if allowed then '\x01' else '\x00');
  Vtpm_crypto.Sha256.feed_bytes ctx b ~off:0 ~len:26;
  let feed_field s =
    Bytes.set_int32_be digest_len4 0 (Int32.of_int (String.length s));
    Vtpm_crypto.Sha256.feed_bytes ctx digest_len4 ~off:0 ~len:4;
    Vtpm_crypto.Sha256.feed ctx s
  in
  feed_field subject;
  feed_field operation;
  feed_field reason;
  Vtpm_crypto.Sha256.feed ctx prev_hash;
  Vtpm_crypto.Sha256.finalize ctx

(* Keep the newest [n] entries (the list is newest first): one
   tail-recursive pass returning the kept list, how many were kept and
   the oldest kept entry — no [List.length]/[List.rev] re-walks and no
   stack growth at large retention caps. *)
let take_newest n entries =
  let rec go i acc oldest = function
    | x :: rest when i < n -> go (i + 1) (x :: acc) (Some x) rest
    | _ -> (List.rev acc, i, oldest)
  in
  go 0 [] None entries

let retained t = t.seq - t.dropped

(* Rotation/compaction: once the retained window exceeds the cap, keep the
   newest half of the cap and record the dropped prefix's chain anchor in
   [base]. The chain over the retained entries stays verifiable from
   [base] to [head]; the head itself never changes, so an anchored head
   (hardware-TPM NV) stays valid across rotation. Compacting to half the
   cap amortizes the list surgery over many appends. *)
let rotate_if_needed t =
  match t.max_entries with
  | Some m when retained t > m ->
      let keep = max 1 (m / 2) in
      let kept, kept_len, oldest = take_newest keep t.entries in
      t.dropped <- t.dropped + (retained t - kept_len);
      t.entries <- kept;
      t.rotations <- t.rotations + 1;
      t.base <- (match oldest with Some e -> e.prev_hash | None -> t.head)
  | _ -> ()

let append t ~subject ~operation ~instance ~allowed ~reason =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.audit_append_us;
  let seq = t.seq in
  let time_us = Vtpm_util.Cost.now t.cost in
  let prev_hash = t.head in
  let hash = entry_digest ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash in
  let e = { seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash } in
  t.entries <- e :: t.entries;
  t.head <- hash;
  t.seq <- seq + 1;
  rotate_if_needed t

let set_max_entries t cap =
  t.max_entries <- cap;
  rotate_if_needed t

let length t = t.seq
let head t = t.head
let base t = t.base
let retained_entries t = retained t
let rotations t = t.rotations
let dropped t = t.dropped
let entries t = List.rev t.entries

(* Verify chain integrity of a (possibly exported) entry list against an
   expected head. Returns the sequence number of the first bad link.
   [base] anchors the verification: genesis for a never-rotated log, the
   log's recorded {!base} for the retained window after rotation. *)
let verify_chain ?(expected_head : string option) ?(base = genesis) (es : entry list) :
    (unit, int) result =
  let rec go prev = function
    | [] -> (
        match expected_head with
        | Some h when not (String.equal h prev) -> Error (-1)
        | _ -> Ok ())
    | (e : entry) :: rest ->
        let recomputed =
          entry_digest ~seq:e.seq ~time_us:e.time_us ~subject:e.subject ~operation:e.operation
            ~instance:e.instance ~allowed:e.allowed ~reason:e.reason ~prev_hash:prev
        in
        if String.equal recomputed e.hash then go e.hash rest else Error e.seq
  in
  go base es

let entry_to_line (e : entry) =
  String.concat "|"
    [
      string_of_int e.seq;
      Printf.sprintf "%.3f" e.time_us;
      Vtpm_util.Hex.encode e.subject;
      Vtpm_util.Hex.encode e.operation;
      (match e.instance with Some i -> string_of_int i | None -> "-");
      (if e.allowed then "1" else "0");
      Vtpm_util.Hex.encode e.reason;
      Vtpm_util.Hex.encode e.prev_hash;
      Vtpm_util.Hex.encode e.hash;
    ]

let export (t : t) : string =
  String.concat "\n" (List.map entry_to_line (entries t)) ^ "\n"
