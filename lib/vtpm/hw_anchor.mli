(** One hardware-TPM anchor slot: an owner-write NV space holding a
    digest, plus a monotonic counter bumped on every commit so a missing
    commit is detectable. The audit chain head ([Vtpm_access.Anchor])
    and the freshness last-seen table ({!Freshness}) are two slots.

    The raw ops return the client's error untouched for callers with
    their own fault discipline; {!commit} and {!read} are the
    single-attempt paths and charge no simulated time. *)

type slot = {
  label : string;  (** stable identity; keys the anchoring journal *)
  nv_index : int;  (** NV index holding the anchored digest *)
  counter_handle : int;
  counter_auth : string;  (** counter usage secret *)
  size : int;  (** digest bytes the NV space holds *)
}

val define :
  Manager.t ->
  label:string ->
  nv_index:int ->
  size:int ->
  counter_label:string ->
  auth_prefix:string ->
  (slot, Vtpm_util.Verror.t) result
(** One-time: define the NV space and create the counter (auth
    [SHA1(auth_prefix ^ owner auth)]). *)

val error : string -> Vtpm_tpm.Client.error -> Vtpm_util.Verror.t
(** The anchoring error boundary: transient chip trouble is
    [Unavailable] (retryable), a TPM code keeps its identity as
    [Tpm_error], anything else is [Internal]. *)

(** {1 Raw ops}

    Each opens its own one-shot session where one is needed, through
    {!Manager.with_hw_session}. *)

val write_nv :
  Vtpm_tpm.Client.t -> owner_auth:string -> slot -> string -> (unit, Vtpm_tpm.Client.error) result

val read_nv : Vtpm_tpm.Client.t -> slot -> (string, Vtpm_tpm.Client.error) result

val bump_counter : Vtpm_tpm.Client.t -> slot -> (int, Vtpm_tpm.Client.error) result
(** Returns the new counter value. *)

val read_counter : Vtpm_tpm.Client.t -> slot -> (int, Vtpm_tpm.Client.error) result

(** {1 Single attempt} *)

val commit : Manager.t -> slot -> data:string -> (int, Vtpm_util.Verror.t) result
(** NV write, then counter bump; returns the counter value. *)

val read : Manager.t -> slot -> (string * int, Vtpm_util.Verror.t) result
(** [(anchored bytes, counter value)]. *)
