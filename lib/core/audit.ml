(* Hash-chained audit log.

   Every monitor decision appends an entry whose hash covers the previous
   entry's hash, so truncation or in-place tampering of a dumped log is
   detectable given the latest head hash (which the manager can anchor in
   hardware-TPM NV or a monotonic counter).

   Storage is sized for the append path, which runs on every mediated
   request: the retained window lives in preallocated slot arrays, one per
   field, and all chain hashes in one buffer. An append writes one slot
   and allocates nothing that outlives it; the stored strings are the
   caller's (the monitor hands in names and reasons it built once). The
   [entry] records the readers see are built on demand. *)

module Sha256 = Vtpm_crypto.Sha256

type entry = {
  seq : int;
  time_us : float; (* simulated time of the decision *)
  subject : string;
  operation : string; (* ordinal name or management op *)
  instance : int option;
  allowed : bool;
  reason : string;
  prev_hash : string;
  hash : string;
}

(* Chain-digest scratch: a reused SHA-256 context and a buffer for the
   fixed-width fields (seq:8 time:8 instance:9 allowed:1, then a 4-byte
   length prefix at [len_off]). Each log owns one; [verify_chain] makes
   its own per call. *)
type hasher = { ctx : Sha256.ctx; fixed : Bytes.t }

let len_off = 26
let hasher () = { ctx = Sha256.init (); fixed = Bytes.create (len_off + 4) }

(* Slot flag bits. *)
let has_instance_bit = 1
let allowed_bit = 2

type t = {
  cost : Vtpm_util.Cost.t;
  hasher : hasher;
  mutable seq : int; (* entries ever appended: the next entry's seq *)
  mutable dropped : int; (* entries compacted away: the oldest retained seq *)
  mutable rotations : int;
  mutable max_entries : int option; (* retention cap; None = unbounded *)
  base : Bytes.t; (* chain anchor of the oldest retained entry *)
  (* The retained window, seqs [dropped, seq), one slot per entry at
     [seq mod slots]. [tags] holds the piece of the reason a caller passed
     separately (see [append]), "" when none. *)
  mutable times : Float.Array.t;
  mutable subjects : string array;
  mutable operations : string array;
  mutable reasons : string array;
  mutable tags : string array;
  mutable instances : int array;
  mutable flags : Bytes.t;
  mutable hashes : Bytes.t; (* [Sha256.digest_size] bytes per slot *)
}

let genesis = Sha256.digest "vtpm-audit-genesis"
let unbounded_slots = 64

let create ~cost =
  let n = unbounded_slots in
  {
    cost;
    hasher = hasher ();
    seq = 0;
    dropped = 0;
    rotations = 0;
    max_entries = None;
    base = Bytes.of_string genesis;
    times = Float.Array.make n 0.0;
    subjects = Array.make n "";
    operations = Array.make n "";
    reasons = Array.make n "";
    tags = Array.make n "";
    instances = Array.make n 0;
    flags = Bytes.make n '\x00';
    hashes = Bytes.make (n * Sha256.digest_size) '\x00';
  }

let slots t = Array.length t.subjects
let slot t seq = seq mod slots t
let retained t = t.seq - t.dropped

(* Per-entry digest: a binary length-delimited encoding fed straight into
   a reused SHA-256 context. No [Printf], no hex round-trip of the
   previous hash, no intermediate concatenation. The encoding is
   unambiguous: fixed-width binary for numerics, a 4-byte length prefix
   before each variable field, the raw 32-byte previous hash last. A
   reason passed in two pieces is prefixed with their summed length and
   fed piece by piece, the same bytes as its concatenation. This feeds
   everything but the previous hash. *)
let feed_fields h ~seq ~time_us ~subject ~operation ~flags ~instance ~reason ~tag =
  let b = h.fixed in
  Sha256.reset h.ctx;
  Bytes.set_int64_be b 0 (Int64.of_int seq);
  Bytes.set_int64_be b 8 (Int64.bits_of_float time_us);
  let has_instance = flags land has_instance_bit <> 0 in
  Bytes.set b 16 (if has_instance then '\x01' else '\x00');
  Bytes.set_int64_be b 17 (if has_instance then Int64.of_int instance else 0L);
  Bytes.set b 25 (if flags land allowed_bit <> 0 then '\x01' else '\x00');
  Sha256.feed_bytes h.ctx b ~off:0 ~len:len_off;
  let feed_field s tag =
    Bytes.set_int32_be b len_off (Int32.of_int (String.length s + String.length tag));
    Sha256.feed_bytes h.ctx b ~off:len_off ~len:4;
    Sha256.feed h.ctx s;
    if tag <> "" then Sha256.feed h.ctx tag
  in
  feed_field subject "";
  feed_field operation "";
  feed_field reason tag

let flags_of ~instance ~allowed =
  (match instance with Some _ -> has_instance_bit | None -> 0)
  lor if allowed then allowed_bit else 0

let digest_with h ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash =
  feed_fields h ~seq ~time_us ~subject ~operation ~flags:(flags_of ~instance ~allowed)
    ~instance:(Option.value ~default:0 instance) ~reason ~tag:"";
  Sha256.feed h.ctx prev_hash;
  Sha256.finalize h.ctx

let entry_digest ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash =
  digest_with (hasher ()) ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash

(* Move the retained window into [n] fresh slots (each entry to its
   [seq mod n]). *)
let resize t n =
  let old = slots t and d = Sha256.digest_size in
  let times = Float.Array.make n 0.0 and subjects = Array.make n "" in
  let operations = Array.make n "" and reasons = Array.make n "" in
  let tags = Array.make n "" and instances = Array.make n 0 in
  let flags = Bytes.make n '\x00' and hashes = Bytes.make (n * d) '\x00' in
  for seq = t.dropped to t.seq - 1 do
    let o = seq mod old and s = seq mod n in
    Float.Array.set times s (Float.Array.get t.times o);
    subjects.(s) <- t.subjects.(o);
    operations.(s) <- t.operations.(o);
    reasons.(s) <- t.reasons.(o);
    tags.(s) <- t.tags.(o);
    instances.(s) <- t.instances.(o);
    Bytes.set flags s (Bytes.get t.flags o);
    Bytes.blit t.hashes (o * d) hashes (s * d) d
  done;
  t.times <- times;
  t.subjects <- subjects;
  t.operations <- operations;
  t.reasons <- reasons;
  t.tags <- tags;
  t.instances <- instances;
  t.flags <- flags;
  t.hashes <- hashes

(* Rotation/compaction: once the retained window exceeds the cap, keep the
   newest half of the cap and record the dropped prefix's chain anchor
   (the last dropped entry's hash) in [base]. The chain over the retained
   entries stays verifiable from [base] to [head]; the head itself never
   changes, so an anchored head (hardware-TPM NV) stays valid across
   rotation. Nothing moves: dropped slots are simply reused. *)
let rotate_if_needed t =
  match t.max_entries with
  | Some m when retained t > m ->
      let dropped = t.seq - max 1 (m / 2) in
      if dropped > t.dropped then begin
        Bytes.blit t.hashes (slot t (dropped - 1) * Sha256.digest_size) t.base 0
          Sha256.digest_size;
        t.dropped <- dropped
      end;
      t.rotations <- t.rotations + 1
  | _ -> ()

(* A capped log holds at most cap + 1 entries between an append and its
   rotation (two for cap 0, which keeps one); an uncapped one doubles. *)
let set_max_entries t cap =
  t.max_entries <- cap;
  rotate_if_needed t;
  match cap with
  | Some m when slots t <> max 2 (m + 1) -> resize t (max 2 (m + 1))
  | _ -> ()

let append ?(tag = "") t ~subject ~operation ~instance ~allowed ~reason =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.audit_append_us;
  if retained t = slots t then resize t (2 * slots t);
  let seq = t.seq and d = Sha256.digest_size in
  let time_us = Vtpm_util.Cost.now t.cost in
  let flags = flags_of ~instance ~allowed in
  let inst = match instance with Some i -> i | None -> 0 in
  let s = slot t seq in
  Float.Array.set t.times s time_us;
  t.subjects.(s) <- subject;
  t.operations.(s) <- operation;
  t.reasons.(s) <- reason;
  t.tags.(s) <- tag;
  t.instances.(s) <- inst;
  Bytes.unsafe_set t.flags s (Char.unsafe_chr flags);
  let h = t.hasher in
  feed_fields h ~seq ~time_us ~subject ~operation ~flags ~instance:inst ~reason ~tag;
  (if seq = t.dropped then Sha256.feed_bytes h.ctx t.base ~off:0 ~len:d
   else Sha256.feed_bytes h.ctx t.hashes ~off:(slot t (seq - 1) * d) ~len:d);
  Sha256.finalize_into h.ctx t.hashes ~off:(s * d);
  t.seq <- seq + 1;
  rotate_if_needed t

let hash_of t seq = Bytes.sub_string t.hashes (slot t seq * Sha256.digest_size) Sha256.digest_size
let length t = t.seq
let head t = if t.seq = t.dropped then Bytes.to_string t.base else hash_of t (t.seq - 1)
let base t = Bytes.to_string t.base
let retained_entries t = retained t
let rotations t = t.rotations
let dropped t = t.dropped

let entry_at t seq =
  let s = slot t seq in
  let flags = Char.code (Bytes.get t.flags s) in
  {
    seq;
    time_us = Float.Array.get t.times s;
    subject = t.subjects.(s);
    operation = t.operations.(s);
    instance = (if flags land has_instance_bit <> 0 then Some t.instances.(s) else None);
    allowed = flags land allowed_bit <> 0;
    reason = (match t.tags.(s) with "" -> t.reasons.(s) | tag -> t.reasons.(s) ^ tag);
    prev_hash = (if seq = t.dropped then base t else hash_of t (seq - 1));
    hash = hash_of t seq;
  }

let entries t =
  let rec go seq acc = if seq < t.dropped then acc else go (seq - 1) (entry_at t seq :: acc) in
  go (t.seq - 1) []

(* Verify chain integrity of a (possibly exported) entry list against an
   expected head. Returns the sequence number of the first bad link.
   [base] anchors the verification: genesis for a never-rotated log, the
   log's recorded {!base} for the retained window after rotation. *)
let verify_chain ?(expected_head : string option) ?(base = genesis) (es : entry list) :
    (unit, int) result =
  let h = hasher () in
  let rec go prev = function
    | [] -> (
        match expected_head with
        | Some head when not (String.equal head prev) -> Error (-1)
        | _ -> Ok ())
    | (e : entry) :: rest ->
        let recomputed =
          digest_with h ~seq:e.seq ~time_us:e.time_us ~subject:e.subject ~operation:e.operation
            ~instance:e.instance ~allowed:e.allowed ~reason:e.reason ~prev_hash:prev
        in
        if String.equal recomputed e.hash then go e.hash rest else Error e.seq
  in
  go base es

(* --- Export / import ---------------------------------------------------------

   A line-oriented on-disk form: free-text fields are hex-escaped so the
   '|' separator is unambiguous. [verify_chain] applies to imported lists
   exactly as to live ones. *)

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

let entry_of_line (line : string) : (entry, string) result =
  match String.split_on_char '|' line with
  | [ seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash ] -> (
      match
        ( int_of_string_opt seq,
          float_of_string_opt time_us,
          (match instance with
          | "-" -> Some None
          | s -> Option.map Option.some (int_of_string_opt s)),
          match allowed with "1" -> Some true | "0" -> Some false | _ -> None )
      with
      | Some seq, Some time_us, Some instance, Some allowed -> (
          match
            ( Vtpm_util.Hex.decode subject,
              Vtpm_util.Hex.decode operation,
              Vtpm_util.Hex.decode reason,
              Vtpm_util.Hex.decode prev_hash,
              Vtpm_util.Hex.decode hash )
          with
          | subject, operation, reason, prev_hash, hash ->
              Ok { seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash }
          | exception Invalid_argument m -> Error m)
      | _ -> Error "malformed audit line")
  | _ -> Error "wrong field count in audit line"

let export (t : t) : string =
  String.concat "\n" (List.map entry_to_line (entries t)) ^ "\n"

let import (s : string) : (entry list, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> ( match entry_of_line l with Ok e -> go (e :: acc) rest | Error m -> Error m)
  in
  go [] lines

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "#%04d %10.1fus %-14s %-22s inst=%-3s %s %s" e.seq e.time_us e.subject e.operation
    (match e.instance with Some i -> string_of_int i | None -> "-")
    (if e.allowed then "ALLOW" else "DENY ")
    e.reason
