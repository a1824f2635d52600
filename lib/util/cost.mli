(** Simulated-time cost model.

    The reproduction targets the *shape* of the paper's results, not 2010
    wall-clock numbers. Components charge simulated microseconds to a
    shared meter; the bench harness reports these simulated latencies
    (stable across machines) alongside real Bechamel timings.

    Constants approximate a 2010-era platform: a TPM 1.2 chip executes
    Extend in milliseconds and Quote (RSA sign) in hundreds; a Xen ring
    round trip costs tens of microseconds. Relative magnitudes are what
    the reproduced tables depend on. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, microseconds. *)

val charge : t -> float -> unit
(** Advance the meter; negative charges are ignored. *)

val advance_to : t -> float -> unit
(** Jump forward to an absolute time; never rewinds. *)

val exec_seq : t -> int
(** Number of lane executions performed against this meter so far. *)

val last_completion_us : t -> float
(** Finish time of the most recent lane execution; may lie ahead of
    [now] when several lanes are in flight. *)

val with_redirect : t -> (float -> unit) -> (unit -> 'a) -> 'a
(** [with_redirect t sink f] runs [f] with every [charge] routed to
    [sink] instead of advancing the meter — used to re-home a block of
    work onto one execution lane. [advance_to] is unaffected. *)

(** Parallel-time accounting: a pool of execution lanes sharing one
    meter. Executing a command on a lane starts at [max now busy_until],
    finishes [cost] later, and advances the shared meter to the earliest
    busy-until across the pool. Elapsed time for a burst of work is the
    max over lanes, not the sum of costs. With one lane this degenerates
    bit-exactly to [charge]. *)
module Lanes : sig
  type pool

  (** Placement policy for mapping instance keys onto lanes.

      - [Fixed_hash] is the seed model, byte for byte: [key mod count],
        no per-key state. Hot instances can skew onto one lane.
      - [Least_loaded] places a key on the lane with the minimum horizon
        at first touch, then keeps it sticky, so one instance's commands
        stay serial on its home lane. *)
  type placement = Fixed_hash | Least_loaded

  val placement_name : placement -> string

  val create : ?placement:placement -> int -> pool
  (** [create n] builds an [n]-lane pool ([Fixed_hash] unless [placement]
      says otherwise); raises [Invalid_argument] if [n < 1]. *)

  val count : pool -> int

  val lane_for : pool -> key:int -> int
  (** Current lane for [key]: the fixed [key mod count] under
      [Fixed_hash], the key's sticky home (or the lane a first touch
      would pick) under [Least_loaded]. *)

  val exec : pool -> t -> key:int -> float -> float
  (** [exec pool meter ~key us] executes a command of cost [us] on the
      lane for [key] and returns its finish time. *)

  val sync : pool -> t -> unit
  (** Advance the meter to the busiest lane's completion, so elapsed-time
      measurements include trailing lane work. *)

  val stats : pool -> (int * float) array
  (** Per lane: commands executed and total busy microseconds. *)

  val horizons : pool -> float array
  (** Per lane: current busy-until horizon, microseconds. *)

  val max_horizon : pool -> float
  (** Largest busy-until horizon across the pool (0 when idle). *)
end

(** {1 Transport} *)

val ring_round_trip_us : float

val ring_batch_slot_us : float
(** Marginal cost of each additional request drained in the same batch
    round: the ring holds many slots, so one kick amortises over the
    whole drain. *)

val evtchn_notify_us : float
val xenstore_op_us : float

(** {1 TPM command execution (software vTPM instance)} *)

val tpm_extend_us : float
val tpm_pcr_read_us : float
val tpm_get_random_us : float
val tpm_seal_us : float
val tpm_unseal_us : float

val rsa_sign_schoolbook_us : float
(** Measured pre-overhaul RSA-512 signature (full-width schoolbook
    square-and-multiply), Bechamel median on the dev container. *)

val rsa_sign_us : float
(** Measured Montgomery/CRT RSA-512 signature on the same container. *)

val sha_block_us : float
(** Measured SHA-1 compression of one 64-byte block (word-level path). *)

val quote_hw_scale_2010 : float
(** How much slower a 2010-era software vTPM signs than this container's
    schoolbook measurement. *)

val quote_digest_overhead_us : float
(** Composite-hash walk + response assembly under the 2010 model. *)

val tpm_quote_us : float
(** Derived, not hand-waved:
    [rsa_sign_schoolbook_us *. quote_hw_scale_2010 +. quote_digest_overhead_us]
    — exactly the seed's [38_000.0] (no binary64 rounding; see the
    implementation comment), so every pre-existing figure is unchanged. *)

val quote_digest_overhead_measured_us : float
(** Composite walk + response build measured on this container. *)

(** Quote-cost profile: [Quote_model_2010] (default) reproduces the
    paper-era tables; the measured profiles re-cost the quote path from
    this container's Bechamel numbers so fig14 can show the end-to-end
    effect of the crypto overhaul. Only {!quote_cost_us} is affected. *)
type quote_profile = Quote_model_2010 | Quote_measured_schoolbook | Quote_measured

val quote_profile_name : quote_profile -> string

val quote_cost_us : quote_profile -> float
(** Simulated cost of TPM_Quote under a profile; equals {!tpm_quote_us}
    under [Quote_model_2010]. *)

val tpm_loadkey_us : float
val tpm_nv_us : float
val tpm_generic_us : float

(** {1 Access-control monitor} *)

val monitor_lookup_us : float
(** Cached decision. *)

val monitor_rule_scan_us : float
(** Per rule examined on a cache miss. *)

val monitor_measure_gate_us : float
(** Measurement-gate (PCR composite) comparison. *)

val monitor_index_lookup_us : float
(** Bucket lookup in the compiled policy index — charged (in addition to
    the per-candidate scan) only when the monitor's indexed evaluation is
    enabled. *)

val audit_append_us : float

(** {1 State protection} *)

val state_io_per_kib_us : float
(** Serialize + file write, charged for both formats. *)

val seal_per_kib_us : float
(** Symmetric encrypt + MAC of sealed state. *)

val hwtpm_srk_op_us : float
(** A hardware-TPM SRK-bound operation (seal/unseal/unbind). *)

(** {1 Hardware-TPM anchoring (the serial physical device)}

    Charged by {!Vtpm_access.Anchor} around each hardware round trip;
    the raw manager transport stays free so pre-existing figures are
    unperturbed. TPM 1.2 NV writes and counter increments are slow
    (10–20 ms class) — exactly why Merkle-batched catch-up pays off. *)

val hwtpm_session_us : float
(** OIAP session establishment on the physical TPM. *)

val hwtpm_nv_write_us : float
(** Owner-authorized NV write of an anchor head/root. *)

val hwtpm_nv_read_us : float
(** NV read of the anchored value. *)

val hwtpm_counter_inc_us : float
(** Monotonic counter increment (throttled in real parts). *)

val hwtpm_counter_read_us : float
(** Monotonic counter read. *)

val hwtpm_stall_us : float
(** Simulated device stall injected by the [Hw_stall] fault class —
    larger than any sane per-op deadline. *)

val merkle_hash_us : float
(** One SHA-256 node combine while building a catch-up batch tree. *)

(** {1 Self-healing transport (fault recovery)} *)

val retry_backoff_us : float
(** Base retry backoff; the driver doubles it per attempt (capped). *)

val driver_reconnect_us : float
(** Frontend reconnection handshake: re-grant, evtchn rebind, XenStore
    rewire. *)

val backend_restart_us : float
(** Manager-domain respawn plus checkpoint reload after a crash. *)

(** {1 Domain lifecycle} *)

val domain_build_us : float
val vtpm_attach_us : float
val migrate_per_kib_us : float
