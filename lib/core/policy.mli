(** The vTPM access-control policy: an ordered rule list over (subject
    selector, command selector, optional guard); first match wins, with an
    explicit default.

    Concrete syntax (one statement per line, ['#'] comments):
    {v
      default deny
      allow guest:* class:measurement
      allow guest:3 TPM_Quote
      allow label:tenant_a class:sealing when measured
      deny  * TPM_ForceClear
      allow dom0:vtpm-manager class:admin
    v}

    Subject selectors: [guest:<domid>], [guest:*], [dom0:<process>],
    [dom0:*], [label:<label>], [*]. Command selectors: [TPM_<Name>],
    [ord:<hex>], [class:<class>], [*]. The [when measured] guard requires
    the guest's current kernel digest to equal the reference recorded at
    vTPM bind time. *)

type subject_sel =
  | S_guest of Vtpm_xen.Domain.domid
  | S_guest_any
  | S_dom0 of string
  | S_dom0_any
  | S_label of string
  | S_any

type command_sel = C_ordinal of int | C_class of Command_class.t | C_any

type guard = G_none | G_measured

type verdict = Allow | Deny

type rule = {
  verdict : verdict;
  subject : subject_sel;
  command : command_sel;
  guard : guard;
  line : int;  (** source line, for audit *)
}

type t

val default_verdict : t -> verdict
val rule_count : t -> int

(** {1 Evaluation} *)

val subject_matches : subject_sel -> subject:Subject.t -> label:string -> bool
val command_matches : command_sel -> ordinal:int -> bool

type decision = {
  verdict : verdict;
  matched_line : int option;  (** [None]: the default applied *)
  reason : string;  (** audit reason: ["rule@<line>"] or ["default"] *)
  needs_measurement : bool;  (** a [when measured] guard was evaluated *)
  scanned : int;  (** candidate rules the index examined *)
  linear_scanned : int;
      (** rules a first-match scan of the list examines: the deciding
          rule's position + 1, or {!rule_count} (the cost-model input) *)
}

val rules : t -> rule list
(** The rules in source order. *)

val has_guards : t -> bool
(** Guarded decisions depend on mutable PCR state and must not be
    cached (unless the cache is generation-tagged — see {!Monitor}). *)

(** {1 Compiled index}

    The one evaluator: per-subject-kind buckets keyed by domid / dom0
    process / label plus a per-kind wildcard bucket, each with candidate
    arrays precomputed per command class and per ordinal a [C_ordinal]
    rule names, so requests never grow the index. *)

type index

val compile : t -> index

val eval_indexed :
  index ->
  subject:Subject.t ->
  label:string ->
  ordinal:int ->
  measured_ok:(unit -> bool) ->
  decision
(** First-match evaluation. [measured_ok] is consulted lazily, only when a
    guarded rule matches; a guarded rule whose guard fails falls through
    to later rules (conditional-allow semantics). *)

(** {1 Printing} *)

val rule_to_string : rule -> string

val to_string : t -> string
(** Render back to the concrete syntax; reparsing yields a policy with
    identical decisions. *)

(** {1 Parsing} *)

type parse_error = { line : int; message : string }

val pp_parse_error : Format.formatter -> parse_error -> unit

val parse : string -> (t, parse_error) result

val parse_exn : string -> t
(** @raise Invalid_argument with the rendered parse error. *)

(** {1 Static validation} *)

type lint =
  | Shadowed of { rule_line : int; by_line : int }
      (** can never fire: an earlier unguarded rule subsumes it *)
  | Admin_grant of { rule_line : int }  (** grants Admin-class commands *)

val pp_lint : Format.formatter -> lint -> unit
val validate : t -> lint list

(** {1 Canned policies} *)

val default_improved : t
(** The improved design's default deployment policy: guests get
    {!Command_class.guest_default}; only the manager daemon gets admin;
    default deny. *)

val synthetic : n:int -> t
(** [n] never-matching specific rules ahead of the defaults — drives the
    policy-size experiment (Figure 2). *)

val synthetic_guarded : n:int -> t
(** Like {!synthetic}, but the tail grants carry [when measured], so
    every decision pays the measurement gate — the stress case for the
    generation-tagged decision cache (Figure 9). *)
