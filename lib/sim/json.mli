(** The machine-readable form of an experiment's results: a JSON value
    and its one printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed in its shortest round-trip form; NaN is [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals, as [%.*f] rounds it. *)

val to_string : t -> string
(** Two-space indented, one object field per line; a list of scalars or
    of scalar lists stays on one line. Ends with a newline. *)
