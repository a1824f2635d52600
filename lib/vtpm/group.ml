(* vTPM groups: the shard boundary for manager replication.

   Mirrors the vTPM *group* concept of xen-vtpmmgr (each group owns its
   own AIK/SAA and the vTPMs of one tenant): here a group = one tenant =
   one manager shard. Each shard owns a private lane pool — so one
   tenant's flood can only queue on its own lanes — plus a quota scope
   (enforced by the monitor) and an audit stream tag. The registry
   itself is policy-free bookkeeping; the manager routes execution and
   lane charges through the member's shard pool. *)

module Cost = Vtpm_util.Cost

type shard = {
  group_id : int; (* registry-assigned, > 0 (0 means "ungrouped") *)
  label : string; (* tenant label *)
  audit_tag : string; (* ";group:<label>", appended verbatim to routed requests' audit reasons *)
  pool : Cost.Lanes.pool; (* this shard's private lane pool *)
  mutable members : int; (* live instances assigned to this group *)
}

type t = {
  lanes_per_shard : int;
  by_id : (int, shard) Hashtbl.t;
  by_label : (string, shard) Hashtbl.t;
  mutable next_id : int;
}

(* A one-lane shard would drag the shared meter: its lane's horizon is
   the pool's earliest-free point, so every charge advances the clock and
   shards serialize instead of overlapping. *)
let create ?(lanes_per_shard = 2) () =
  if lanes_per_shard < 2 then
    invalid_arg "Group.create: need at least two lanes per shard";
  {
    lanes_per_shard;
    by_id = Hashtbl.create 16;
    by_label = Hashtbl.create 16;
    next_id = 1;
  }

(* Look up the shard for a tenant label, minting it on first sight. Group
   ids are dense and assigned in intern order, so a run's shard layout is
   deterministic. *)
let intern t ~label =
  match Hashtbl.find_opt t.by_label label with
  | Some s -> s
  | None ->
      let group_id = t.next_id in
      t.next_id <- t.next_id + 1;
      let s =
        {
          group_id;
          label;
          audit_tag = ";group:" ^ label;
          pool = Cost.Lanes.create ~placement:Cost.Lanes.Least_loaded t.lanes_per_shard;
          members = 0;
        }
      in
      Hashtbl.replace t.by_id group_id s;
      Hashtbl.replace t.by_label label s;
      s

let find t group_id = Hashtbl.find_opt t.by_id group_id
let find_label t label = Hashtbl.find_opt t.by_label label

let shards t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.by_id []
  |> List.sort (fun a b -> Stdlib.compare a.group_id b.group_id)

let count t = Hashtbl.length t.by_id

(* Drain every shard pool into the meter: elapsed time over a sharded
   burst is the max horizon across all shards. *)
let sync t meter = Hashtbl.iter (fun _ s -> Cost.Lanes.sync s.pool meter) t.by_id

let stats t =
  List.map (fun s -> (s.group_id, s.label, s.members, Cost.Lanes.stats s.pool)) (shards t)
