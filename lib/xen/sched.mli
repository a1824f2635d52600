(** Credit scheduler (simplified Xen credit1).

    Runnable domains hold credits refilled each accounting period in
    proportion to their weight; the scheduler runs the domain with the
    most credit and burns credit for time consumed. An optional cap
    bounds a domain's share regardless of spare capacity. The workload
    driver uses it to pick which tenant issues the next vTPM request. *)

type vcpu = {
  domid : Domain.domid;
  weight : int;
  cap_pct : int option;
  mutable credit : float;
  mutable runtime_us : float;
  mutable period_runtime_us : float;
}

type t

val default_period_us : float

val create : ?period_us:float -> unit -> t

val add : t -> domid:Domain.domid -> weight:int -> ?cap_pct:int -> unit -> unit
(** Register a domain. @raise Invalid_argument on non-positive weight. *)

val refill : t -> unit
(** Start a fresh accounting period (normally driven by {!tick}). *)

val remove : t -> domid:Domain.domid -> unit
val find : t -> Domain.domid -> vcpu option

val pick : t -> Domain.domid option
(** The runnable domain with the most credit, charging nothing. *)

val charge : t -> domid:Domain.domid -> us:float -> unit
(** Account consumed time after the work ran (when its real duration is
    known) and advance the accounting period. *)

val tick : t -> slice_us:float -> Domain.domid option
(** Pick the runnable domain with the most credit and charge it one
    slice; [None] when every domain is capped out this period. *)

val shares : t -> total_us:float -> slice_us:float -> (Domain.domid * float) list
(** Run for [total_us] and report each domain's fraction of granted
    time. *)
