(* The vTPM access-control policy: an ordered rule list over
   (subject selector, command selector, optional guard), first match wins,
   with an explicit default.

   Concrete syntax (one statement per line, '#' comments):

     default deny
     allow guest:* class:measurement
     allow guest:3 TPM_Quote
     allow label:tenant_a class:sealing when measured
     deny  * TPM_ForceClear
     allow dom0:vtpm-manager class:admin

   Subject selectors: guest:<domid> | guest:* | dom0:<process> | dom0:* |
   label:<label> | *
   Command selectors: TPM_<Name> | ord:<hex> | class:<class> | *
   Guard: `when measured` — the requesting guest's current kernel digest
   must equal the reference measurement recorded at vTPM bind time. *)

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
  line : int; (* source line, for audit *)
}

type t = { rules : rule array; default : verdict; source : string }

let default_verdict t = t.default
let rule_count t = Array.length t.rules

(* --- Matching -------------------------------------------------------------- *)

let subject_matches (sel : subject_sel) ~(subject : Subject.t) ~(label : string) =
  match (sel, subject) with
  | S_any, _ -> true
  | S_guest d, Subject.Guest d' -> d = d'
  | S_guest_any, Subject.Guest _ -> true
  | S_dom0 p, Subject.Dom0_process p' -> String.equal p p'
  | S_dom0_any, Subject.Dom0_process _ -> true
  | S_label l, _ -> String.equal l label
  | (S_guest _ | S_guest_any), Subject.Dom0_process _ -> false
  | (S_dom0 _ | S_dom0_any), Subject.Guest _ -> false

let command_matches (sel : command_sel) ~(ordinal : int) =
  match sel with
  | C_any -> true
  | C_ordinal o -> o = ordinal
  | C_class c -> Command_class.classify ordinal = c

type decision = {
  verdict : verdict;
  matched_line : int option; (* None: default applied *)
  reason : string; (* audit reason: "rule@<line>" or "default" *)
  needs_measurement : bool; (* a `when measured` guard was evaluated *)
  scanned : int; (* candidate rules examined *)
  linear_scanned : int; (* rules a first-match scan examines (cost model) *)
}

let rules t = Array.to_list t.rules

(* True when some rule carries a guard that could apply to [subject]-like
   requests; such decisions must not be cached (PCR state is mutable). *)
let has_guards (t : t) = Array.exists (fun r -> r.guard <> G_none) t.rules

(* --- Compiled first-match index ------------------------------------------------

   A request from a given subject can only be matched by rules in three
   disjoint groups: the exact-subject bucket (guest:<domid> or
   dom0:<process>), the bucket of its label (label:<l>), and the kind
   wildcard bucket (guest:* / dom0:* plus the universal [*]).  Within a
   bucket, [compile] precomputes the candidates for every command class
   and for every ordinal a [C_ordinal] rule of that bucket names; any
   other ordinal matches exactly its class's candidates, so nothing is
   memoised at request time and no request can grow the index.
   Evaluation merges the three candidate arrays in rule order, so
   first-match semantics — including guarded fallthrough — are preserved
   exactly while [scanned] counts only candidates actually examined. *)

module Int_map = Map.Make (Int)

type bucket = {
  by_class : int array array; (* class slot -> candidate rule indices, ascending *)
  by_ordinal : int array Int_map.t; (* ordinals named by this bucket's C_ordinal rules *)
}

type index = {
  policy : t;
  reasons : string array; (* "rule@<line>" per rule *)
  guest_exact : (Vtpm_xen.Domain.domid, bucket) Hashtbl.t;
  dom0_exact : (string, bucket) Hashtbl.t;
  by_label : (string, bucket) Hashtbl.t;
  guest_rest : bucket; (* S_guest_any and S_any *)
  dom0_rest : bucket; (* S_dom0_any and S_any *)
}

let classes = Array.of_list Command_class.all

let class_slot c =
  let rec go i = if classes.(i) == c then i else go (i + 1) in
  go 0

(* Absent exact/label keys: no candidates. Immutable, hence shared. *)
let empty_bucket =
  { by_class = Array.make (Array.length classes) [||]; by_ordinal = Int_map.empty }

(* [members]: the bucket's rule indices, ascending. *)
let bucket_of (t : t) members =
  let slots = Array.make (Array.length classes) [] in
  let by_ordinal = ref Int_map.empty in
  List.iter
    (fun i ->
      match t.rules.(i).command with
      | C_any -> Array.iteri (fun k l -> slots.(k) <- i :: l) slots
      | C_class c ->
          let k = class_slot c in
          slots.(k) <- i :: slots.(k)
      | C_ordinal o ->
          if not (Int_map.mem o !by_ordinal) then
            let named j = command_matches t.rules.(j).command ~ordinal:o in
            by_ordinal := Int_map.add o (Array.of_list (List.filter named members)) !by_ordinal)
    members;
  { by_class = Array.map (fun l -> Array.of_list (List.rev l)) slots; by_ordinal = !by_ordinal }

let compile (t : t) : index =
  let guest_acc : (Vtpm_xen.Domain.domid, int list) Hashtbl.t = Hashtbl.create 16 in
  let dom0_acc : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let label_acc : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let guest_rest = ref [] and dom0_rest = ref [] in
  let add tbl key i =
    Hashtbl.replace tbl key (i :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Array.iteri
    (fun i r ->
      match r.subject with
      | S_guest d -> add guest_acc d i
      | S_dom0 p -> add dom0_acc p i
      | S_label l -> add label_acc l i
      | S_guest_any -> guest_rest := i :: !guest_rest
      | S_dom0_any -> dom0_rest := i :: !dom0_rest
      | S_any ->
          guest_rest := i :: !guest_rest;
          dom0_rest := i :: !dom0_rest)
    t.rules;
  let finish acc =
    let out = Hashtbl.create (Hashtbl.length acc) in
    Hashtbl.iter (fun k rev -> Hashtbl.replace out k (bucket_of t (List.rev rev))) acc;
    out
  in
  {
    policy = t;
    reasons = Array.map (fun r -> "rule@" ^ string_of_int r.line) t.rules;
    guest_exact = finish guest_acc;
    dom0_exact = finish dom0_acc;
    by_label = finish label_acc;
    guest_rest = bucket_of t (List.rev !guest_rest);
    dom0_rest = bucket_of t (List.rev !dom0_rest);
  }

let imin (a : int) b = if a < b then a else b

(* First-match evaluation. [measured_ok] is consulted lazily, only when a
   guarded candidate comes up; a guarded rule whose guard fails falls
   through to later rules (conditional-allow semantics). *)
let eval_indexed (ix : index) ~(subject : Subject.t) ~(label : string) ~(ordinal : int)
    ~(measured_ok : unit -> bool) : decision =
  let t = ix.policy in
  let slot = class_slot (Command_class.classify ordinal) in
  let candidates b =
    match Int_map.find_opt ordinal b.by_ordinal with Some a -> a | None -> b.by_class.(slot)
  in
  let find tbl key = match Hashtbl.find_opt tbl key with Some b -> b | None -> empty_bucket in
  let b_exact, b_rest =
    match subject with
    | Subject.Guest d -> (find ix.guest_exact d, ix.guest_rest)
    | Subject.Dom0_process p -> (find ix.dom0_exact p, ix.dom0_rest)
  in
  let a1 = candidates b_exact and a2 = candidates (find ix.by_label label) in
  let a3 = candidates b_rest in
  let n1 = Array.length a1 and n2 = Array.length a2 and n3 = Array.length a3 in
  (* Next candidate in rule order: smallest head of the three arrays
     (disjoint by construction — a rule lives in exactly one bucket per
     subject kind). Every candidate matches the request's subject and
     command, so only its guard can pass it over. *)
  let rec go i1 i2 i3 examined guard_seen =
    let h1 = if i1 < n1 then a1.(i1) else max_int in
    let h2 = if i2 < n2 then a2.(i2) else max_int in
    let h3 = if i3 < n3 then a3.(i3) else max_int in
    let pick = imin h1 (imin h2 h3) in
    if pick = max_int then
      {
        verdict = t.default;
        matched_line = None;
        reason = "default";
        needs_measurement = guard_seen;
        scanned = examined;
        linear_scanned = Array.length t.rules;
      }
    else
      let r = t.rules.(pick) in
      let guarded = r.guard = G_measured in
      if (not guarded) || measured_ok () then
        {
          verdict = r.verdict;
          matched_line = Some r.line;
          reason = ix.reasons.(pick);
          needs_measurement = guard_seen || guarded;
          scanned = examined + 1;
          linear_scanned = pick + 1;
        }
      else
        go
          (if pick = h1 then i1 + 1 else i1)
          (if pick = h2 then i2 + 1 else i2)
          (if pick = h3 then i3 + 1 else i3)
          (examined + 1) true
  in
  go 0 0 0 0 false

(* --- Parsing ----------------------------------------------------------------- *)

type parse_error = { line : int; message : string }

let pp_parse_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.message

let ordinal_by_name =
  lazy
    (List.map (fun o -> (Vtpm_tpm.Types.ordinal_name o, o)) Vtpm_tpm.Types.all_ordinals)

let parse_subject_sel s : (subject_sel, string) result =
  match String.index_opt s ':' with
  | None -> if s = "*" then Ok S_any else Error ("bad subject selector: " ^ s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "guest" ->
          if arg = "*" then Ok S_guest_any
          else (
            match int_of_string_opt arg with
            | Some d -> Ok (S_guest d)
            | None -> Error ("bad domid: " ^ arg))
      | "dom0" -> if arg = "*" then Ok S_dom0_any else Ok (S_dom0 arg)
      | "label" -> Ok (S_label arg)
      | _ -> Error ("unknown subject kind: " ^ kind))

let parse_command_sel s : (command_sel, string) result =
  if s = "*" then Ok C_any
  else if String.length s > 6 && String.sub s 0 6 = "class:" then begin
    let cname = String.sub s 6 (String.length s - 6) in
    match Command_class.of_name cname with
    | Some c -> Ok (C_class c)
    | None -> Error ("unknown command class: " ^ cname)
  end
  else if String.length s > 4 && String.sub s 0 4 = "ord:" then begin
    let hex = String.sub s 4 (String.length s - 4) in
    match int_of_string_opt ("0x" ^ hex) with
    | Some o -> Ok (C_ordinal o)
    | None -> Error ("bad ordinal: " ^ hex)
  end
  else
    match List.assoc_opt s (Lazy.force ordinal_by_name) with
    | Some o -> Ok (C_ordinal o)
    | None -> Error ("unknown command: " ^ s)

let tokens_of_line line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let parse (source : string) : (t, parse_error) result =
  let lines = String.split_on_char '\n' source in
  let rules = ref [] in
  let default = ref Deny in
  let err = ref None in
  List.iteri
    (fun i raw ->
      if !err = None then begin
        let lineno = i + 1 in
        let line =
          match String.index_opt raw '#' with Some j -> String.sub raw 0 j | None -> raw
        in
        match tokens_of_line line with
        | [] -> ()
        | [ "default"; "deny" ] -> default := Deny
        | [ "default"; "allow" ] -> default := Allow
        | verdict_tok :: subj_tok :: cmd_tok :: rest -> (
            let verdict =
              match verdict_tok with
              | "allow" -> Ok Allow
              | "deny" -> Ok Deny
              | v -> Error ("expected allow/deny, got " ^ v)
            in
            let guard =
              match rest with
              | [] -> Ok G_none
              | [ "when"; "measured" ] -> Ok G_measured
              | _ -> Error ("bad guard: " ^ String.concat " " rest)
            in
            match (verdict, parse_subject_sel subj_tok, parse_command_sel cmd_tok, guard) with
            | Ok v, Ok s, Ok c, Ok g ->
                rules := { verdict = v; subject = s; command = c; guard = g; line = lineno } :: !rules
            | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _ | _, _, _, Error m ->
                err := Some { line = lineno; message = m })
        | _ -> err := Some { line = lineno; message = "malformed statement" }
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None -> Ok { rules = Array.of_list (List.rev !rules); default = !default; source }

let parse_exn source =
  match parse source with
  | Ok p -> p
  | Error e -> invalid_arg (Fmt.str "Policy.parse_exn: %a" pp_parse_error e)

(* --- Printing -----------------------------------------------------------------

   Renders back to the concrete syntax; [parse (to_string p)] yields a
   policy with identical decisions (property-tested). *)

let subject_sel_to_string = function
  | S_guest d -> Printf.sprintf "guest:%d" d
  | S_guest_any -> "guest:*"
  | S_dom0 p -> "dom0:" ^ p
  | S_dom0_any -> "dom0:*"
  | S_label l -> "label:" ^ l
  | S_any -> "*"

let command_sel_to_string = function
  | C_any -> "*"
  | C_class c -> "class:" ^ Command_class.name c
  | C_ordinal o -> Printf.sprintf "ord:%x" o

let rule_to_string (r : rule) =
  Printf.sprintf "%s %s %s%s"
    (match r.verdict with Allow -> "allow" | Deny -> "deny")
    (subject_sel_to_string r.subject)
    (command_sel_to_string r.command)
    (match r.guard with G_none -> "" | G_measured -> " when measured")

let to_string (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "default %s\n" (match t.default with Allow -> "allow" | Deny -> "deny"));
  Array.iter (fun r -> Buffer.add_string buf (rule_to_string r ^ "\n")) t.rules;
  Buffer.contents buf

(* --- Validation ----------------------------------------------------------------

   Static lint over a parsed policy: rules that can never fire (shadowed
   by an earlier unguarded rule matching a superset) and subjects granted
   Admin — both worth surfacing before deployment. *)

type lint = Shadowed of { rule_line : int; by_line : int } | Admin_grant of { rule_line : int }

let pp_lint ppf = function
  | Shadowed { rule_line; by_line } ->
      Fmt.pf ppf "rule at line %d is shadowed by line %d" rule_line by_line
  | Admin_grant { rule_line } -> Fmt.pf ppf "rule at line %d grants admin commands" rule_line

let subject_subsumes outer inner =
  match (outer, inner) with
  | S_any, _ -> true
  | S_guest_any, (S_guest _ | S_guest_any) -> true
  | S_dom0_any, (S_dom0 _ | S_dom0_any) -> true
  | a, b -> a = b

let command_subsumes outer inner =
  match (outer, inner) with
  | C_any, _ -> true
  | C_class c, C_ordinal o -> Command_class.classify o = c
  | a, b -> a = b

let validate (t : t) : lint list =
  let lints = ref [] in
  Array.iteri
    (fun i r ->
      (* Shadowing: an earlier unguarded rule that subsumes this one. *)
      (try
         for j = 0 to i - 1 do
           let earlier = t.rules.(j) in
           if
             earlier.guard = G_none
             && subject_subsumes earlier.subject r.subject
             && command_subsumes earlier.command r.command
           then begin
             lints := Shadowed { rule_line = r.line; by_line = earlier.line } :: !lints;
             raise Exit
           end
         done
       with Exit -> ());
      match (r.verdict, r.command) with
      | Allow, C_class Command_class.Admin | Allow, C_any ->
          lints := Admin_grant { rule_line = r.line } :: !lints
      | Allow, C_ordinal o when Command_class.classify o = Command_class.Admin ->
          lints := Admin_grant { rule_line = r.line } :: !lints
      | _ -> ())
    t.rules;
  List.rev !lints

(* --- Canned policies ----------------------------------------------------------- *)

(* The improved design's default deployment policy: guests get the
   functional classes a tenant workload needs; only the manager daemon
   gets admin; everything else is denied. *)
let default_improved =
  parse_exn
    (String.concat "\n"
       ([ "default deny" ]
       @ List.map
           (fun c -> "allow guest:* class:" ^ Command_class.name c)
           Command_class.guest_default
       @ [ "allow dom0:vtpm-manager class:admin"; "allow dom0:vtpm-manager *" ]))

(* A synthetic policy of [n] specific rules ending in the defaults above;
   drives the policy-size experiment (Figure 2). With [guarded:true] the
   tail grants carry [when measured], so every decision pays the gate —
   the stress case the generation-tagged cache (fig9) is built for. *)
let synthetic_gen ~guarded ~n =
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf "default deny\n";
  for i = 1 to n do
    (* Distinct, never-matching guests keep every rule live (no shadowing)
       so lookup really scans the list. *)
    Buffer.add_string buf (Printf.sprintf "allow guest:%d class:measurement\n" (100000 + i))
  done;
  let guard_suffix = if guarded then " when measured" else "" in
  List.iter
    (fun c ->
      Buffer.add_string buf ("allow guest:* class:" ^ Command_class.name c ^ guard_suffix ^ "\n"))
    Command_class.guest_default;
  Buffer.add_string buf "allow dom0:vtpm-manager *\n";
  parse_exn (Buffer.contents buf)

let synthetic ~n = synthetic_gen ~guarded:false ~n
let synthetic_guarded ~n = synthetic_gen ~guarded:true ~n
