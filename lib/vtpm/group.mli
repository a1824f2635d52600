(** vTPM groups: the shard boundary for manager replication.

    Mirrors the vTPM {e group} concept of xen-vtpmmgr (each group owns
    its own AIK/SAA and one tenant's vTPMs): a group = one tenant = one
    manager shard. Each shard owns a private lane pool — one tenant's
    flood can only queue on its own lanes — plus a quota scope (enforced
    by {!Vtpm_access.Monitor}) and an audit stream tag. *)

type shard = {
  group_id : int;  (** registry-assigned, > 0 (0 means "ungrouped") *)
  label : string;  (** tenant label *)
  audit_tag : string;
      (** [";group:<label>"], appended verbatim to routed requests' audit
          reasons; built once per shard *)
  pool : Vtpm_util.Cost.Lanes.pool;  (** this shard's private lane pool *)
  mutable members : int;  (** live instances assigned to this group *)
}

type t

val create : ?lanes_per_shard:int -> unit -> t
(** Fresh registry. Every shard pool it mints has [lanes_per_shard]
    (default 2) [Least_loaded] lanes; raises [Invalid_argument] if
    [lanes_per_shard < 2], because a one-lane shard serializes through
    the shared meter instead of overlapping with the other shards. *)

val intern : t -> label:string -> shard
(** Shard for a tenant label, minted on first sight. Ids are dense and
    assigned in intern order, so a run's shard layout is deterministic. *)

val find : t -> int -> shard option
val find_label : t -> string -> shard option

val shards : t -> shard list
(** All shards, sorted by group id. *)

val count : t -> int

val sync : t -> Vtpm_util.Cost.t -> unit
(** Drain every shard pool into the meter: elapsed time over a sharded
    burst is the max horizon across all shards. *)

val stats : t -> (int * string * int * (int * float) array) list
(** Per shard: group id, label, members, per-lane (executed, busy_us). *)
