(* The linear first-match scan that the compiled index in
   [Vtpm_access.Policy] replaced, kept only as a differential reference:
   the access suite checks that the index reaches the same decision, that
   its [linear_scanned] equals this scan's [scanned], and that both call
   the measurement gate equally often. Not part of the library. *)

open Vtpm_access

type decision = {
  verdict : Policy.verdict;
  matched_line : int option; (* None: default applied *)
  needs_measurement : bool; (* a `when measured` guard was evaluated *)
  scanned : int; (* rules examined before deciding *)
}

(* First-match evaluation. [measured_ok] is consulted lazily, only when a
   guarded rule matches; a guarded rule whose guard fails falls through
   to later rules. *)
let eval (t : Policy.t) ~(subject : Subject.t) ~(label : string) ~(ordinal : int)
    ~(measured_ok : unit -> bool) : decision =
  let rules = Array.of_list (Policy.rules t) in
  let n = Array.length rules in
  let rec go i guard_seen =
    if i >= n then
      {
        verdict = Policy.default_verdict t;
        matched_line = None;
        needs_measurement = guard_seen;
        scanned = n;
      }
    else begin
      let r = rules.(i) in
      if
        Policy.subject_matches r.Policy.subject ~subject ~label
        && Policy.command_matches r.Policy.command ~ordinal
      then
        match r.Policy.guard with
        | Policy.G_none ->
            {
              verdict = r.Policy.verdict;
              matched_line = Some r.Policy.line;
              needs_measurement = guard_seen;
              scanned = i + 1;
            }
        | Policy.G_measured ->
            if measured_ok () then
              {
                verdict = r.Policy.verdict;
                matched_line = Some r.Policy.line;
                needs_measurement = true;
                scanned = i + 1;
              }
            else go (i + 1) true
      else go (i + 1) guard_seen
    end
  in
  go 0 false
