(** Workload generation: weighted operation mixes over tenants, measured
    in simulated time. *)

type mix = (Tenant.op * int) list
(** Operation, weight. *)

val attestation_heavy : mix
(** Remote-attestation service: frequent quotes. *)

val sealing_heavy : mix
(** Key-escrow / disk-key usage. *)

val mixed : mix
(** The default cloud-tenant mix. *)

val mix_name : mix -> string
val pick_op : Vtpm_util.Rng.t -> mix -> Tenant.op

type result = {
  per_op : (Tenant.op * Metrics.summary) list;
  overall : Metrics.summary;
  all_metrics : Metrics.t;
  ops_run : int;
  failures : int;
  elapsed_us : float;  (** simulated *)
  throughput_ops_s : float;  (** simulated ops/second *)
}

val run :
  Vtpm_access.Host.t -> tenants:Tenant.t list -> mix:mix -> ops_per_tenant:int -> ?seed:int ->
  unit -> result
(** Round-robin [ops_per_tenant] operations across [tenants], each drawn
    from [mix]; latency is the simulated time each op consumes. *)

val run_weighted :
  Vtpm_access.Host.t ->
  tenants:(Tenant.t * int) list ->
  mix:mix ->
  total_ops:int ->
  ?seed:int ->
  unit ->
  (Tenant.t * float) list
(** Tenants chosen by the Xen credit scheduler instead of round-robin:
    each tenant's vTPM service time follows its CPU weight. Returns
    per-tenant simulated service time. *)

val make_host_with_tenants :
  mode:Vtpm_access.Host.mode ->
  n:int ->
  ?seed:int ->
  ?quote_profile:Vtpm_util.Cost.quote_profile ->
  unit ->
  Vtpm_access.Host.t * Tenant.t list
(** A host with [n] provisioned tenants; [quote_profile] is passed to
    {!Vtpm_access.Host.create}. *)
