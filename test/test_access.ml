(* Tests for the access-control core: subjects, command classes, the
   policy language, the audit chain, the binding table and the reference
   monitor itself. *)

open Vtpm_access

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- Subject ------------------------------------------------------------------- *)

let test_subject_printing () =
  check_s "guest" "guest:3" (Subject.to_string (Subject.Guest 3));
  check_s "dom0" "dom0:xm" (Subject.to_string (Subject.Dom0_process "xm"))

let test_subject_equal () =
  check_b "guest eq" true (Subject.equal (Subject.Guest 1) (Subject.Guest 1));
  check_b "guest neq" false (Subject.equal (Subject.Guest 1) (Subject.Guest 2));
  check_b "kinds differ" false (Subject.equal (Subject.Guest 1) (Subject.Dom0_process "1"))

let test_subject_credentials () =
  let c = Subject.Credentials.create () in
  Subject.Credentials.register c ~process:"mgr" ~token:"s3cret";
  check_b "valid" true (Subject.Credentials.verify c ~process:"mgr" ~token:"s3cret");
  check_b "wrong token" false (Subject.Credentials.verify c ~process:"mgr" ~token:"nope");
  check_b "unknown process" false (Subject.Credentials.verify c ~process:"other" ~token:"s3cret")

(* --- Command classes --------------------------------------------------------------- *)

let test_classes_partition_ordinals () =
  (* Every implemented ordinal belongs to exactly one class and every
     class's ordinal list maps back to it. *)
  List.iter
    (fun c ->
      List.iter
        (fun o -> check_b (Vtpm_tpm.Types.ordinal_name o) true (Command_class.classify o = c))
        (Command_class.ordinals_of c))
    Command_class.all;
  let total =
    List.fold_left (fun acc c -> acc + List.length (Command_class.ordinals_of c)) 0 Command_class.all
  in
  check_i "partition covers all ordinals" (List.length Vtpm_tpm.Types.all_ordinals) total

let test_class_names_roundtrip () =
  List.iter
    (fun c -> check_b (Command_class.name c) true (Command_class.of_name (Command_class.name c) = Some c))
    Command_class.all;
  check_b "unknown name" true (Command_class.of_name "bogus" = None)

let test_class_expected_members () =
  check_b "extend is measurement" true
    (Command_class.classify Vtpm_tpm.Types.ord_extend = Command_class.Measurement);
  check_b "quote is attestation" true
    (Command_class.classify Vtpm_tpm.Types.ord_quote = Command_class.Attestation);
  check_b "take_ownership is ownership" true
    (Command_class.classify Vtpm_tpm.Types.ord_take_ownership = Command_class.Ownership);
  check_b "save_state is admin" true
    (Command_class.classify Vtpm_tpm.Types.ord_save_state = Command_class.Admin)

(* --- Policy parsing ------------------------------------------------------------------ *)

let parse_ok src =
  match Policy.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %a" Policy.pp_parse_error e

let test_policy_parse_basic () =
  let p = parse_ok "default deny\nallow guest:* class:measurement\ndeny * TPM_ForceClear\n" in
  check_i "two rules" 2 (Policy.rule_count p);
  check_b "default deny" true (Policy.default_verdict p = Policy.Deny)

let test_policy_parse_comments_and_blanks () =
  let p = parse_ok "# header\n\ndefault allow\n  # indented comment\nallow guest:1 TPM_Quote # trailing\n" in
  check_i "one rule" 1 (Policy.rule_count p);
  check_b "default allow" true (Policy.default_verdict p = Policy.Allow)

let test_policy_parse_errors () =
  let bad src =
    match Policy.parse src with
    | Ok _ -> Alcotest.failf "should not parse: %s" src
    | Error _ -> ()
  in
  bad "frobnicate guest:* *";
  bad "allow guest:abc *";
  bad "allow nobody:3 *";
  bad "allow guest:* class:bogus";
  bad "allow guest:* TPM_NotACommand";
  bad "allow guest:* * when tuesday";
  bad "allow guest:*"

let test_policy_parse_ordinal_forms () =
  let p = parse_ok "allow guest:* TPM_Extend\nallow guest:* ord:14\n" in
  check_i "both forms" 2 (Policy.rule_count p)

(* The library's evaluator: compile, then decide through the index. *)
let eval p = Policy.eval_indexed (Policy.compile p)

let eval_verdict p ~subject ~label ~ordinal =
  (eval p ~subject ~label ~ordinal ~measured_ok:(fun () -> true)).Policy.verdict

let test_policy_first_match_wins () =
  let p = parse_ok "default allow\ndeny guest:3 TPM_Quote\nallow guest:* TPM_Quote\n" in
  check_b "deny first" true
    (eval_verdict p ~subject:(Subject.Guest 3) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_quote
    = Policy.Deny);
  check_b "other guest allowed" true
    (eval_verdict p ~subject:(Subject.Guest 4) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_quote
    = Policy.Allow)

let test_policy_default_applies () =
  let p = parse_ok "default deny\nallow guest:* class:measurement\n" in
  check_b "unmatched denied" true
    (eval_verdict p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_quote
    = Policy.Deny)

let test_policy_label_selector () =
  let p = parse_ok "default deny\nallow label:tenant_gold class:attestation\n" in
  check_b "label matches" true
    (eval_verdict p ~subject:(Subject.Guest 5) ~label:"tenant_gold"
       ~ordinal:Vtpm_tpm.Types.ord_quote
    = Policy.Allow);
  check_b "other label denied" true
    (eval_verdict p ~subject:(Subject.Guest 5) ~label:"tenant_iron"
       ~ordinal:Vtpm_tpm.Types.ord_quote
    = Policy.Deny)

let test_policy_dom0_selectors () =
  let p = parse_ok "default deny\nallow dom0:mgr class:admin\nallow dom0:* class:info\n" in
  check_b "named process" true
    (eval_verdict p ~subject:(Subject.Dom0_process "mgr") ~label:"dom0:mgr"
       ~ordinal:Vtpm_tpm.Types.ord_save_state
    = Policy.Allow);
  check_b "other process denied admin" true
    (eval_verdict p ~subject:(Subject.Dom0_process "evil") ~label:"dom0:evil"
       ~ordinal:Vtpm_tpm.Types.ord_save_state
    = Policy.Deny);
  check_b "guest never matches dom0 selector" true
    (eval_verdict p ~subject:(Subject.Guest 1) ~label:"l"
       ~ordinal:Vtpm_tpm.Types.ord_get_capability
    = Policy.Deny)

let test_policy_guard_fallthrough () =
  let p =
    parse_ok "default deny\nallow guest:* class:measurement when measured\ndeny guest:* class:measurement\n"
  in
  let eval ok =
    (eval p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_extend
       ~measured_ok:(fun () -> ok))
      .Policy.verdict
  in
  check_b "gate open -> allow" true (eval true = Policy.Allow);
  check_b "gate closed -> falls to deny" true (eval false = Policy.Deny)

let test_policy_guard_lazy () =
  (* The measurement predicate must not run when no guarded rule matches. *)
  let p = parse_ok "default deny\nallow guest:* class:sealing when measured\n" in
  let called = ref false in
  let _ =
    eval p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_extend
      ~measured_ok:(fun () ->
        called := true;
        true)
  in
  check_b "not called for non-matching command" false !called

let test_policy_scanned_counts () =
  let p = parse_ok "default deny\nallow guest:9 *\nallow guest:* TPM_Extend\n" in
  let d =
    eval p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_extend
      ~measured_ok:(fun () -> true)
  in
  check_i "linear count to second rule" 2 d.Policy.linear_scanned;
  check_i "one candidate examined" 1 d.Policy.scanned;
  let d2 =
    eval p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_quote
      ~measured_ok:(fun () -> true)
  in
  check_i "linear count is all rules on default" 2 d2.Policy.linear_scanned

let test_policy_validate_shadowing () =
  let p = parse_ok "allow guest:* class:measurement\nallow guest:3 TPM_Extend\n" in
  match Policy.validate p with
  | [ Policy.Shadowed { rule_line = 2; by_line = 1 } ] -> ()
  | lints -> Alcotest.failf "unexpected lints: %d" (List.length lints)

let test_policy_validate_admin_grant () =
  let p = parse_ok "allow guest:* class:admin\n" in
  check_b "admin grant flagged" true
    (List.exists (function Policy.Admin_grant _ -> true | _ -> false) (Policy.validate p))

let test_policy_validate_clean () =
  check_b "default policy has no shadowed rules" true
    (List.for_all
       (function Policy.Shadowed _ -> false | _ -> true)
       (Policy.validate Policy.default_improved))

let test_policy_synthetic () =
  let p = Policy.synthetic ~n:100 in
  check_b "at least n rules" true (Policy.rule_count p >= 100);
  (* Real guests still get service through the tail rules. *)
  check_b "guest allowed" true
    (eval_verdict p ~subject:(Subject.Guest 2) ~label:"l" ~ordinal:Vtpm_tpm.Types.ord_extend
    = Policy.Allow)

let test_policy_has_guards () =
  check_b "no guards" false (Policy.has_guards (parse_ok "allow guest:* *\n"));
  check_b "guards" true (Policy.has_guards (parse_ok "allow guest:* * when measured\n"))

let test_policy_print_roundtrip () =
  let src =
    String.concat "\n"
      [
        "default allow";
        "deny guest:3 TPM_Quote";
        "allow guest:* class:measurement when measured";
        "allow label:gold *";
        "allow dom0:mgr class:admin";
        "deny * TPM_ForceClear";
      ]
  in
  let p = parse_ok src in
  let p2 = parse_ok (Policy.to_string p) in
  check_i "rule count preserved" (Policy.rule_count p) (Policy.rule_count p2);
  check_b "default preserved" true (Policy.default_verdict p = Policy.default_verdict p2);
  (* Decisions agree across subjects and ordinals. *)
  let subjects =
    [ (Subject.Guest 3, "gold"); (Subject.Guest 4, "iron"); (Subject.Dom0_process "mgr", "dom0:mgr") ]
  in
  List.iter
    (fun (subject, label) ->
      List.iter
        (fun ordinal ->
          List.iter
            (fun measured ->
              let v p =
                (eval p ~subject ~label ~ordinal ~measured_ok:(fun () -> measured))
                  .Policy.verdict
              in
              check_b "same decision" true (v p = v p2))
            [ true; false ])
        Vtpm_tpm.Types.all_ordinals)
    subjects

(* A generated-policy property: parse(print(p)) is stable for generated
   rule sets in the concrete syntax. *)
let prop_policy_parse_stable =
  let rule_gen =
    QCheck.Gen.(
      map2
        (fun verdict cls ->
          Printf.sprintf "%s guest:* class:%s"
            (if verdict then "allow" else "deny")
            (Command_class.name (List.nth Command_class.all (cls mod List.length Command_class.all))))
        bool (int_bound 100))
  in
  QCheck.Test.make ~name:"policy reparse has same rule count" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) rule_gen))
    (fun lines ->
      let src = String.concat "\n" ("default deny" :: lines) in
      match Policy.parse src with
      | Ok p -> Policy.rule_count p = List.length lines
      | Error _ -> false)

(* --- Compiled policy index ------------------------------------------------------ *)

(* Evaluate one request with both the compiled index and the linear
   oracle ({!Policy_ref}), each with its own counting gate. The two agree
   when verdict, matched line, [needs_measurement] and the number of gate
   calls are equal, the index's [linear_scanned] is the oracle's
   [scanned], and the index examines no more candidates than that. *)
let eval_both p ix ~subject ~label ~ordinal ~measured =
  let gate calls () =
    incr calls;
    measured
  in
  let lin_calls = ref 0 and idx_calls = ref 0 in
  let lin = Policy_ref.eval p ~subject ~label ~ordinal ~measured_ok:(gate lin_calls) in
  let idx = Policy.eval_indexed ix ~subject ~label ~ordinal ~measured_ok:(gate idx_calls) in
  let agree =
    lin.Policy_ref.verdict = idx.Policy.verdict
    && lin.Policy_ref.matched_line = idx.Policy.matched_line
    && lin.Policy_ref.needs_measurement = idx.Policy.needs_measurement
    && lin.Policy_ref.scanned = idx.Policy.linear_scanned
    && idx.Policy.scanned <= lin.Policy_ref.scanned
    && !lin_calls = !idx_calls
  in
  (lin, idx, agree)

(* Deterministic check on the canned policies: the compiled index returns
   the same decision as the linear scan while examining only candidates. *)
let test_policy_index_candidates () =
  let p = Policy.synthetic ~n:4096 in
  let ix = Policy.compile p in
  let subject = Subject.Guest 3 and label = "tenant_x" in
  let lin, idx, agree =
    eval_both p ix ~subject ~label ~ordinal:Vtpm_tpm.Types.ord_pcr_read ~measured:true
  in
  check_b "index agrees with the oracle" true agree;
  (* The 4096 never-matching guest rules are not candidates for guest 3:
     the index examines only the wildcard tail, yet still reports the
     linear count the cost model charges. *)
  check_b "linear scans thousands" true (lin.Policy_ref.scanned > 4000);
  check_b "index scans a handful" true (idx.Policy.scanned <= 16);
  List.iter
    (fun ordinal ->
      List.iter
        (fun measured ->
          let _, _, agree = eval_both p ix ~subject ~label ~ordinal ~measured in
          check_b (Vtpm_tpm.Types.ordinal_name ordinal) true agree)
        [ true; false ])
    (0x9999 :: Vtpm_tpm.Types.all_ordinals)

(* Random policy source: up to 25 rules over a small pool of subject and
   command selectors (guest domids 0-2, labels l0/l1, named and unnamed
   ordinals), with and without guards. *)
let policy_src_gen =
  let subject_sels = [ "guest:0"; "guest:1"; "guest:2"; "guest:*"; "dom0:p0"; "dom0:p1"; "dom0:*"; "label:l0"; "label:l1"; "*" ] in
  let command_sels =
    [ "*"; "class:measurement"; "class:sealing"; "class:admin"; "class:info"; "TPM_Quote"; "TPM_Extend"; "TPM_PCRRead"; "ord:14"; "ord:9999" ]
  in
  let rule_gen =
    QCheck.Gen.(
      map
        (fun (v, s, c, g) ->
          Printf.sprintf "%s %s %s%s"
            (if v then "allow" else "deny")
            (List.nth subject_sels (s mod List.length subject_sels))
            (List.nth command_sels (c mod List.length command_sels))
            (if g then " when measured" else ""))
        (quad bool (int_bound 100) (int_bound 100) bool))
  in
  QCheck.Gen.map
    (fun (default_allow, lines) ->
      String.concat "\n" ((if default_allow then "default allow" else "default deny") :: lines))
    QCheck.Gen.(pair bool (list_size (int_bound 25) rule_gen))

let index_test_ordinals =
  Vtpm_tpm.Types.[ ord_extend; ord_pcr_read; ord_quote; ord_seal; ord_force_clear; 0x9999; 0x7777 ]

(* Differential property: on randomized policies, the compiled decision
   agrees with the linear oracle (see [eval_both]) for every subject x
   label x ordinal x guard outcome. *)
let prop_policy_index_differential =
  QCheck.Test.make ~name:"compiled index decision == linear eval" ~count:60
    (QCheck.make ~print:Fun.id policy_src_gen)
    (fun src ->
      let p = Policy.parse_exn src in
      let ix = Policy.compile p in
      let subjects =
        List.concat_map
          (fun d -> List.map (fun l -> (Subject.Guest d, l)) [ "l0"; "l1"; "l9" ])
          [ 0; 1; 2; 3 ]
        @ List.concat_map
            (fun pr -> List.map (fun l -> (Subject.Dom0_process pr, l)) [ "l0"; "dom0" ])
            [ "p0"; "p1"; "p9" ]
      in
      List.for_all
        (fun (subject, label) ->
          List.for_all
            (fun ordinal ->
              List.for_all
                (fun measured ->
                  let _, _, agree = eval_both p ix ~subject ~label ~ordinal ~measured in
                  agree)
                [ true; false ])
            index_test_ordinals)
        subjects)

(* --- Audit -------------------------------------------------------------------------- *)

let mk_audit () = Audit.create ~cost:(Vtpm_util.Cost.create ())

let test_audit_chain_verifies () =
  let a = mk_audit () in
  for i = 1 to 10 do
    Audit.append a ~subject:"guest:1" ~operation:(Printf.sprintf "op%d" i) ~instance:(Some 1)
      ~allowed:(i mod 2 = 0) ~reason:"r"
  done;
  check_i "length" 10 (Audit.length a);
  check_b "chain ok" true (Audit.verify_chain ~expected_head:(Audit.head a) (Audit.entries a) = Ok ())

let test_audit_tamper_detected () =
  let a = mk_audit () in
  Audit.append a ~subject:"s" ~operation:"op1" ~instance:None ~allowed:true ~reason:"r";
  Audit.append a ~subject:"s" ~operation:"op2" ~instance:None ~allowed:false ~reason:"r";
  let entries =
    List.map
      (fun (e : Audit.entry) -> if e.Audit.seq = 0 then { e with Audit.allowed = false } else e)
      (Audit.entries a)
  in
  (match Audit.verify_chain entries with
  | Error 0 -> ()
  | _ -> Alcotest.fail "tamper not detected at entry 0")

let test_audit_truncation_detected () =
  let a = mk_audit () in
  Audit.append a ~subject:"s" ~operation:"op1" ~instance:None ~allowed:true ~reason:"r";
  Audit.append a ~subject:"s" ~operation:"op2" ~instance:None ~allowed:true ~reason:"r";
  let truncated = [ List.hd (Audit.entries a) ] in
  check_b "truncation detected via head" true
    (Audit.verify_chain ~expected_head:(Audit.head a) truncated = Error (-1));
  (* Without the head anchor, a clean prefix passes — that is exactly why
     the head must be anchored externally. *)
  check_b "prefix alone passes" true (Audit.verify_chain truncated = Ok ())

let test_audit_export_import () =
  let a = mk_audit () in
  Audit.append a ~subject:"guest:1" ~operation:"TPM_Extend" ~instance:(Some 3) ~allowed:true
    ~reason:"rule@2";
  Audit.append a ~subject:"dom0:tool|weird" ~operation:"mgmt:save" ~instance:None ~allowed:false
    ~reason:"bad credential";
  let exported = Audit.export a in
  (match Audit.import exported with
  | Ok entries ->
      check_b "entries equal" true (entries = Audit.entries a);
      check_b "chain verifies after roundtrip" true
        (Audit.verify_chain ~expected_head:(Audit.head a) entries = Ok ())
  | Error m -> Alcotest.fail m);
  check_b "garbage rejected" true (Result.is_error (Audit.import "not|an|audit|line"));
  (* A textual edit of the export is caught by the chain. *)
  let replace_first haystack needle replacement =
    let nl = String.length needle in
    let rec find i =
      if i + nl > String.length haystack then None
      else if String.sub haystack i nl = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> haystack
    | Some i ->
        String.sub haystack 0 i ^ replacement
        ^ String.sub haystack (i + nl) (String.length haystack - i - nl)
  in
  let edited =
    replace_first exported (Vtpm_util.Hex.encode "guest:1") (Vtpm_util.Hex.encode "guest:9")
  in
  match Audit.import edited with
  | Ok entries -> check_b "edit detected" true (Result.is_error (Audit.verify_chain entries))
  | Error _ -> () (* also acceptable: edit broke the framing *)

let test_audit_empty_chain () =
  let a = mk_audit () in
  check_b "empty verifies" true (Audit.verify_chain ~expected_head:(Audit.head a) [] = Ok ())

(* Slot storage against the list-based oracle ({!Audit_ref}): random
   appends (reasons split into reason + tag for the slot log, joined for
   the oracle; fields long enough to cross SHA-256 blocks), cap changes
   (uncapped, 0, 1, growing and shrinking) and clock advances. After every
   step all observables agree: entries, head, base, counters, export
   bytes, and chain verification of the live and a tampered window. *)
type audit_op =
  | Append of {
      subject : string;
      operation : string;
      instance : int option;
      allowed : bool;
      reason : string;
      tag : string;
    }
  | Set_cap of int option
  | Advance of float

let audit_op_gen =
  let open QCheck.Gen in
  let field =
    frequency
      [
        (4, string_size ~gen:printable (int_bound 12));
        (1, string_size ~gen:printable (int_range 50 140));
      ]
  in
  let tag = frequency [ (2, return ""); (1, field) ] in
  let append =
    map
      (fun ((subject, operation, reason, tag), (instance, allowed)) ->
        Append { subject; operation; instance; allowed; reason; tag })
      (pair (quad field field field tag) (pair (opt (int_range (-3) 5000)) bool))
  in
  let cap =
    map
      (fun c -> Set_cap c)
      (frequency
         [ (1, return None); (1, return (Some 0)); (1, return (Some 1)); (3, map Option.some (int_range 2 40)) ])
  in
  frequency [ (12, append); (2, cap); (2, map (fun us -> Advance us) (float_bound_inclusive 500.0)) ]

let print_audit_op = function
  | Append { subject; operation; instance; allowed; reason; tag } ->
      Printf.sprintf "append %S %S %s %b %S+%S" subject operation
        (match instance with Some i -> string_of_int i | None -> "-")
        allowed reason tag
  | Set_cap None -> "cap none"
  | Set_cap (Some m) -> Printf.sprintf "cap %d" m
  | Advance us -> Printf.sprintf "advance %g" us

let prop_audit_slots_match_oracle =
  QCheck.Test.make ~name:"audit slots == list oracle" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_audit_op ops))
       QCheck.Gen.(list_size (int_range 1 120) audit_op_gen))
    (fun ops ->
      let cost_new = Vtpm_util.Cost.create () and cost_ref = Vtpm_util.Cost.create () in
      let a = Audit.create ~cost:cost_new and r = Audit_ref.create ~cost:cost_ref in
      let tamper (es : Audit.entry list) =
        List.mapi (fun i (e : Audit.entry) -> if i = 1 then { e with Audit.reason = e.Audit.reason ^ "!" } else e) es
      in
      let agree () =
        let es = Audit.entries a and rs = Audit_ref.entries r in
        let verify_both es =
          Audit.verify_chain ~expected_head:(Audit.head a) ~base:(Audit.base a) es
          = Audit_ref.verify_chain ~expected_head:(Audit_ref.head r) ~base:(Audit_ref.base r) es
        in
        es = rs
        && String.equal (Audit.head a) (Audit_ref.head r)
        && String.equal (Audit.base a) (Audit_ref.base r)
        && Audit.length a = Audit_ref.length r
        && Audit.retained_entries a = Audit_ref.retained_entries r
        && Audit.rotations a = Audit_ref.rotations r
        && Audit.dropped a = Audit_ref.dropped r
        && String.equal (Audit.export a) (Audit_ref.export r)
        && Audit.verify_chain ~expected_head:(Audit.head a) ~base:(Audit.base a) es = Ok ()
        && verify_both es
        && verify_both (tamper es)
      in
      List.for_all
        (fun op ->
          (match op with
          | Append { subject; operation; instance; allowed; reason; tag } ->
              Audit.append a ~tag ~subject ~operation ~instance ~allowed ~reason;
              Audit_ref.append r ~subject ~operation ~instance ~allowed ~reason:(reason ^ tag)
          | Set_cap cap ->
              Audit.set_max_entries a cap;
              Audit_ref.set_max_entries r cap
          | Advance us ->
              Vtpm_util.Cost.charge cost_new us;
              Vtpm_util.Cost.charge cost_ref us);
          agree ())
        ops)

(* Many rotations over a long run: retention stays bounded, drop
   accounting is exact, and the retained window verifies from the rotated
   base — the single-pass compaction must not lose chain anchoring. *)
let test_audit_rotation_long_run () =
  let a = mk_audit () in
  Audit.set_max_entries a (Some 64);
  let total = 20_000 in
  for i = 1 to total do
    Audit.append a ~subject:"guest:1" ~operation:("op" ^ string_of_int i) ~instance:None
      ~allowed:(i mod 3 <> 0) ~reason:"r"
  done;
  check_i "length counts every append" total (Audit.length a);
  check_b "retention bounded" true (Audit.retained_entries a <= 64);
  check_b "rotated many times" true (Audit.rotations a > 100);
  check_i "dropped = appended - retained" (total - Audit.retained_entries a) (Audit.dropped a);
  check_i "list length matches retained" (Audit.retained_entries a)
    (List.length (Audit.entries a));
  check_b "retained window verifies from base" true
    (Audit.verify_chain ~expected_head:(Audit.head a) ~base:(Audit.base a) (Audit.entries a)
    = Ok ())

(* --- Binding ------------------------------------------------------------------------- *)

let mk_bindings () = Binding.create ~cost:(Vtpm_util.Cost.create ())

let test_binding_bind_lookup () =
  let b = mk_bindings () in
  let _ = Result.get_ok (Binding.bind b ~vtpm_id:1 ~domid:7 ~reference_measurement:"m") in
  (match Binding.lookup_domid b 7 with
  | Some bd -> check_i "instance" 1 bd.Binding.vtpm_id
  | None -> Alcotest.fail "missing");
  (match Binding.lookup_instance b 1 with
  | Some bd -> check_i "domid" 7 bd.Binding.domid
  | None -> Alcotest.fail "missing")

let test_binding_conflicts () =
  let b = mk_bindings () in
  let _ = Result.get_ok (Binding.bind b ~vtpm_id:1 ~domid:7 ~reference_measurement:"m") in
  check_b "domid busy" true (Result.is_error (Binding.bind b ~vtpm_id:2 ~domid:7 ~reference_measurement:"m"));
  check_b "instance busy" true (Result.is_error (Binding.bind b ~vtpm_id:1 ~domid:8 ~reference_measurement:"m"))

let test_binding_unbind () =
  let b = mk_bindings () in
  let _ = Result.get_ok (Binding.bind b ~vtpm_id:1 ~domid:7 ~reference_measurement:"m") in
  Binding.unbind b ~domid:7;
  check_b "domid free" true (Binding.lookup_domid b 7 = None);
  check_b "instance free" true (Binding.lookup_instance b 1 = None);
  check_b "rebindable" true (Result.is_ok (Binding.bind b ~vtpm_id:1 ~domid:9 ~reference_measurement:"m"))

(* --- Shipped policy files ------------------------------------------------------------ *)

(* The policy files are declared as test deps, so dune copies them into
   the build tree; depending on how the test is launched (`dune runtest`
   vs `dune exec`) the working directory differs, so try the plausible
   locations. *)
let read_file name =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) ("../policies/" ^ name);
      "../policies/" ^ name;
      "policies/" ^ name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "policy file %s not found" name
  | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let test_shipped_default_policy () =
  let p = parse_ok (read_file "default.policy") in
  check_b "default deny" true (Policy.default_verdict p = Policy.Deny);
  check_b "guards-free" false (Policy.has_guards p);
  (* The one lint is the deliberate manager grant. *)
  (match Policy.validate p with
  | [ Policy.Admin_grant _ ] -> ()
  | lints -> Alcotest.failf "unexpected lints: %d" (List.length lints));
  (* Semantics match the built-in default. *)
  List.iter
    (fun ordinal ->
      let v pol =
        (eval pol ~subject:(Subject.Guest 3) ~label:"l" ~ordinal
           ~measured_ok:(fun () -> true))
          .Policy.verdict
      in
      check_b (Vtpm_tpm.Types.ordinal_name ordinal) true (v p = v Policy.default_improved))
    Vtpm_tpm.Types.all_ordinals

let test_shipped_measured_policy () =
  let p = parse_ok (read_file "measured.policy") in
  check_b "has guards" true (Policy.has_guards p);
  let v measured ordinal =
    (eval p ~subject:(Subject.Guest 1) ~label:"l" ~ordinal
       ~measured_ok:(fun () -> measured))
      .Policy.verdict
  in
  check_b "measured guest sealed" true (v true Vtpm_tpm.Types.ord_seal = Policy.Allow);
  check_b "tampered guest denied" true (v false Vtpm_tpm.Types.ord_seal = Policy.Deny);
  check_b "session stays open" true (v false Vtpm_tpm.Types.ord_oiap = Policy.Allow)

let test_shipped_acm_policy () =
  match Acm.parse (read_file "datacenter.acm") with
  | Error e -> Alcotest.fail e
  | Ok acm ->
      check_b "banks conflict" true (List.mem "bank_b" (Acm.conflicts_with acm "bank_a"));
      check_b "tenant may attach" true
        (Acm.may_attach_vtpm acm ~frontend_label:"telco_x" ~backend_label:"system_u:dom0"
        = Acm.Admitted)

(* --- Monitor ------------------------------------------------------------------------- *)

let mk_monitor ?charge () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let mgr = Vtpm_mgr.Manager.create ~rsa_bits:256 ~seed:61 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
  let monitor = Monitor.create ~xen ~mgr ?charge () in
  (xen, mgr, monitor)

let add_guest xen domid_name =
  Result.get_ok
    (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:domid_name ~label:("lab_" ^ domid_name) ())

let test_monitor_routes_by_binding () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  (* A bogus claimed id is ignored; routing uses the binding. *)
  check_b "bound sender served" true (Result.is_ok (router ~sender:d ~claimed_instance:9999 ~wire));
  check_b "unbound sender denied" true
    (Result.is_error (router ~sender:(d + 1) ~claimed_instance:1 ~wire))

let test_monitor_denies_by_policy () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let router = Monitor.router monitor in
  (* ForceClear is Admin class: denied to guests by the default policy. *)
  let wire = Vtpm_tpm.Wire.encode_request Vtpm_tpm.Cmd.Force_clear in
  check_b "admin denied" true (Result.is_error (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire))

let test_monitor_cache_behaviour () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Monitor.reset_stats monitor;
  for _ = 1 to 5 do
    ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire)
  done;
  let s = Monitor.stats monitor in
  check_i "five lookups" 5 s.Monitor.lookups;
  check_i "four hits" 4 s.Monitor.cache_hits;
  (* Policy reload invalidates the cache. *)
  Monitor.set_policy monitor Policy.default_improved;
  ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire);
  check_i "miss after reload" 4 (Monitor.stats monitor).Monitor.cache_hits

let test_monitor_cache_disabled () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  Monitor.set_cache_enabled monitor false;
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Monitor.reset_stats monitor;
  for _ = 1 to 3 do
    ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire)
  done;
  check_i "no hits" 0 (Monitor.stats monitor).Monitor.cache_hits

let test_monitor_guarded_policy_not_cached () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  Monitor.set_policy monitor
    (Policy.parse_exn "default deny\nallow guest:* class:measurement when measured\n");
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Monitor.reset_stats monitor;
  check_b "measured guest allowed" true
    (Result.is_ok (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire));
  (* Tamper with the kernel: next request must be re-evaluated and denied. *)
  Vtpm_xen.Domain.set_kernel dom ~image:"rootkit";
  check_b "tampered guest denied" true
    (Result.is_error (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire));
  check_i "no cache hits with guarded policy" 0 (Monitor.stats monitor).Monitor.cache_hits

let test_monitor_audits_every_decision () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "g1" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let router = Monitor.router monitor in
  let before = Audit.length monitor.Monitor.audit in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire);
  ignore (router ~sender:999 ~claimed_instance:1 ~wire);
  check_i "two audit entries" (before + 2) (Audit.length monitor.Monitor.audit);
  check_b "chain intact" true
    (Audit.verify_chain ~expected_head:(Audit.head monitor.Monitor.audit)
       (Audit.entries monitor.Monitor.audit)
    = Ok ())

let test_monitor_management_credential_gate () =
  let _, mgr, monitor = mk_monitor () in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  Monitor.register_process monitor ~process:"vtpm-manager" ~token:"tok";
  check_b "bad token rejected" true
    (Result.is_error
       (Monitor.management monitor ~process:"vtpm-manager" ~token:"bad"
          (Monitor.Save_instance { vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id })));
  check_b "unknown process rejected" true
    (Result.is_error
       (Monitor.management monitor ~process:"rogue" ~token:"tok"
          (Monitor.Save_instance { vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id })));
  match
    Monitor.management monitor ~process:"vtpm-manager" ~token:"tok"
      (Monitor.Save_instance { vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id })
  with
  | Ok (Monitor.M_blob blob) ->
      check_b "sealed format" true
        (Vtpm_mgr.Stateproc.detect_format blob = Some Vtpm_mgr.Stateproc.Sealed)
  | _ -> Alcotest.fail "save should succeed with valid credential"

let test_monitor_management_policy_gate () =
  (* Even a valid credential is subject to policy. *)
  let _, mgr, monitor = mk_monitor () in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  Monitor.register_process monitor ~process:"helper" ~token:"t2";
  (* Default policy only allows dom0:vtpm-manager. *)
  check_b "helper denied by policy" true
    (Result.is_error
       (Monitor.management monitor ~process:"helper" ~token:"t2"
          (Monitor.Save_instance { vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id })))

let test_tamper_detection () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "watched" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let node = Printf.sprintf "/local/domain/%d/device/vtpm/0/instance" d in
  ignore
    (Vtpm_xen.Hypervisor.xs_write xen ~caller:0 node
       (string_of_int inst.Vtpm_mgr.Manager.vtpm_id));
  Monitor.enable_tamper_detection monitor;
  let alerts () =
    List.length
      (List.filter
         (fun (e : Audit.entry) -> e.Audit.operation = "tamper-alert")
         (Audit.entries monitor.Monitor.audit))
  in
  (* Writing the *correct* id raises no alert. *)
  ignore
    (Vtpm_xen.Hypervisor.xs_write xen ~caller:0 node
       (string_of_int inst.Vtpm_mgr.Manager.vtpm_id));
  check_i "no alert on consistent write" 0 (alerts ());
  (* The re-pointing attack fires an alert. *)
  ignore (Vtpm_xen.Hypervisor.xs_write xen ~caller:0 node "9999");
  check_i "alert raised" 1 (alerts ());
  (* Unrelated nodes stay quiet; disabling stops alerts. *)
  ignore (Vtpm_xen.Hypervisor.xs_write xen ~caller:0 "/local/domain/77/name" "x");
  check_i "unrelated write quiet" 1 (alerts ());
  Monitor.disable_tamper_detection monitor;
  ignore (Vtpm_xen.Hypervisor.xs_write xen ~caller:0 node "8888");
  check_i "disabled" 1 (alerts ())

let test_monitor_rebind () =
  let xen, mgr, monitor = mk_monitor () in
  let d1 = add_guest xen "g1" in
  let d2 = add_guest xen "g2" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom1 = Vtpm_xen.Hypervisor.domain_exn xen d1 in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d1
         ~reference_measurement:dom1.Vtpm_xen.Domain.kernel_digest)
  in
  Monitor.register_process monitor ~process:"vtpm-manager" ~token:"tok";
  (match
     Monitor.management monitor ~process:"vtpm-manager" ~token:"tok"
       (Monitor.Rebind { vtpm_id = inst.Vtpm_mgr.Manager.vtpm_id; new_domid = d2 })
   with
  | Ok Monitor.M_unit -> ()
  | Ok _ -> Alcotest.fail "unexpected result"
  | Error e -> Alcotest.fail e);
  check_b "old domid unbound" true (Binding.lookup_domid monitor.Monitor.bindings d1 = None);
  match Binding.lookup_domid monitor.Monitor.bindings d2 with
  | Some b -> check_i "new binding" inst.Vtpm_mgr.Manager.vtpm_id b.Binding.vtpm_id
  | None -> Alcotest.fail "new binding missing"

(* --- Generation-tagged decision cache + indexed evaluation ----------------------- *)

let guarded_policy_src = "default deny\nallow guest:* class:measurement when measured\n"

let bind_guest xen mgr monitor name =
  let d = add_guest xen name in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  (d, inst.Vtpm_mgr.Manager.vtpm_id)

let pcr_read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 })

(* With the guard cache on, a guarded verdict is served from cache between
   measurement changes: the gate is paid once, not per request. *)
let test_monitor_guard_cache_hits () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  Monitor.set_policy monitor (Policy.parse_exn guarded_policy_src);
  Monitor.set_guard_cache_enabled monitor true;
  let router = Monitor.router monitor in
  Monitor.reset_stats monitor;
  for _ = 1 to 5 do
    check_b "read allowed" true
      (Result.is_ok (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire))
  done;
  let s = Monitor.stats monitor in
  check_i "five lookups" 5 s.Monitor.lookups;
  check_i "hits between measurement changes" 4 s.Monitor.cache_hits;
  check_i "gate paid once" 1 s.Monitor.gate_checks

(* An allowed PCR-mutating command bumps the sender's measurement
   generation: exactly its stale entries re-evaluate, then caching
   resumes. *)
let test_monitor_guard_cache_extend_invalidates () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  Monitor.set_policy monitor (Policy.parse_exn guarded_policy_src);
  Monitor.set_guard_cache_enabled monitor true;
  let router = Monitor.router monitor in
  let extend_wire =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 10; digest = String.make 20 '\x2a' })
  in
  Monitor.reset_stats monitor;
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "second read hits" 1 (Monitor.stats monitor).Monitor.cache_hits;
  check_b "extend allowed" true
    (Result.is_ok (router ~sender:d ~claimed_instance:vid ~wire:extend_wire));
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "read after extend misses" 1 (Monitor.stats monitor).Monitor.cache_hits;
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "then caching resumes" 2 (Monitor.stats monitor).Monitor.cache_hits

(* Measurement changes the monitor cannot observe (a kernel swap without a
   mediated PCR write) are flushed by an explicit [bump_measurement]. *)
let test_monitor_guard_cache_bump_on_tamper () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  Monitor.set_policy monitor (Policy.parse_exn guarded_policy_src);
  Monitor.set_guard_cache_enabled monitor true;
  let router = Monitor.router monitor in
  Monitor.reset_stats monitor;
  check_b "measured guest allowed" true
    (Result.is_ok (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire));
  Vtpm_xen.Domain.set_kernel dom ~image:"rootkit";
  (* The swap happened outside the monitor's view: the cached allow is
     still live until the generation advances. *)
  check_b "stale allow until bumped" true
    (Result.is_ok (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire));
  Monitor.bump_measurement monitor (Subject.Guest d);
  check_b "re-evaluated and denied after bump" true
    (Result.is_error (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire))

(* Rebinding re-anchors the reference measurement and advances the
   generation, so stale verdicts re-evaluate against the new anchor. *)
let test_monitor_guard_cache_rebind_invalidates () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  Monitor.set_policy monitor
    (Policy.parse_exn (guarded_policy_src ^ "allow dom0:vtpm-manager class:admin\n"));
  Monitor.set_guard_cache_enabled monitor true;
  Monitor.register_process monitor ~process:"vtpm-manager" ~token:"tok";
  let router = Monitor.router monitor in
  Monitor.reset_stats monitor;
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "hit before rebind" 1 (Monitor.stats monitor).Monitor.cache_hits;
  (* Kernel update: the old reference no longer matches, but the cached
     allow masks it until rebind refreshes anchor + generation. *)
  Vtpm_xen.Domain.set_kernel dom ~image:"patched-kernel";
  (match
     Monitor.management monitor ~process:"vtpm-manager" ~token:"tok"
       (Monitor.Rebind { vtpm_id = vid; new_domid = d })
   with
  | Ok Monitor.M_unit -> ()
  | _ -> Alcotest.fail "rebind failed");
  let gates_before = (Monitor.stats monitor).Monitor.gate_checks in
  check_b "allowed against new anchor" true
    (Result.is_ok (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire));
  check_i "not served from stale cache" 1 (Monitor.stats monitor).Monitor.cache_hits;
  check_i "gate re-checked" (gates_before + 1) (Monitor.stats monitor).Monitor.gate_checks

(* Policy reload resets generations and the cache wholesale. *)
let test_monitor_guard_cache_reload_resets () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  Monitor.set_policy monitor (Policy.parse_exn guarded_policy_src);
  Monitor.set_guard_cache_enabled monitor true;
  let router = Monitor.router monitor in
  Monitor.reset_stats monitor;
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "hit before reload" 1 (Monitor.stats monitor).Monitor.cache_hits;
  Monitor.set_policy monitor (Policy.parse_exn guarded_policy_src);
  ignore (router ~sender:d ~claimed_instance:vid ~wire:pcr_read_wire);
  check_i "miss after reload" 1 (Monitor.stats monitor).Monitor.cache_hits;
  check_i "subject generations cleared" 0 (Hashtbl.length monitor.Monitor.generations)

(* The per-subject key index makes [forget_subject] surgical: only the
   departing subject's entries leave the cache. *)
let test_monitor_forget_subject_key_index () =
  let xen, mgr, monitor = mk_monitor () in
  let d1, v1 = bind_guest xen mgr monitor "g1" in
  let d2, v2 = bind_guest xen mgr monitor "g2" in
  let router = Monitor.router monitor in
  Monitor.reset_stats monitor;
  ignore (router ~sender:d1 ~claimed_instance:v1 ~wire:pcr_read_wire);
  ignore (router ~sender:d2 ~claimed_instance:v2 ~wire:pcr_read_wire);
  check_i "two cached verdicts" 2 (Hashtbl.length monitor.Monitor.cache);
  Monitor.forget_subject monitor (Subject.Guest d1);
  check_i "one survives" 1 (Hashtbl.length monitor.Monitor.cache);
  check_b "departed key dropped from index" false
    (Hashtbl.mem monitor.Monitor.cached_keys (Subject.cache_key (Subject.Guest d1)));
  ignore (router ~sender:d2 ~claimed_instance:v2 ~wire:pcr_read_wire);
  check_i "survivor still hits" 1 (Monitor.stats monitor).Monitor.cache_hits;
  ignore (router ~sender:d1 ~claimed_instance:v1 ~wire:pcr_read_wire);
  check_i "departed subject misses" 1 (Monitor.stats monitor).Monitor.cache_hits

(* The charge is a price, not a code path: verdicts are identical under
   both charges for every ordinal, while the index charge counts strictly
   fewer rules. *)
let test_monitor_indexed_mode_equivalence () =
  let run ~charge =
    let xen, mgr, monitor = mk_monitor ~charge () in
    let d, _ = bind_guest xen mgr monitor "g1" in
    Monitor.set_cache_enabled monitor false;
    let binding = Binding.lookup_domid monitor.Monitor.bindings d in
    Monitor.reset_stats monitor;
    let verdicts =
      List.map
        (fun ordinal ->
          fst (Monitor.decide monitor ~subject:(Subject.Guest d) ~ordinal ~binding))
        Vtpm_tpm.Types.all_ordinals
    in
    (verdicts, (Monitor.stats monitor).Monitor.rules_scanned)
  in
  let linear_verdicts, linear_scanned = run ~charge:Monitor.Linear_charge in
  let indexed_verdicts, indexed_scanned = run ~charge:Monitor.Index_charge in
  check_b "verdicts identical" true (linear_verdicts = indexed_verdicts);
  check_b "index scans fewer rules" true (indexed_scanned < linear_scanned)

(* Under the linear charge a decision costs exactly the paper's model:
   one lookup, one rule-scan step per rule the oracle's first-match scan
   examines, and one gate per measurement check. Cache off, so every
   request is a fresh decision. *)
let prop_monitor_linear_charge =
  QCheck.Test.make ~name:"linear charge == lookup + scan x oracle count + gates" ~count:30
    (QCheck.make
       ~print:(fun (src, tampered) -> Printf.sprintf "%s\n(tampered=%b)" src tampered)
       QCheck.Gen.(pair policy_src_gen bool))
    (fun (src, tampered) ->
      let p = Policy.parse_exn src in
      let xen, mgr, monitor = mk_monitor () in
      Monitor.set_policy monitor p;
      Monitor.set_cache_enabled monitor false;
      let d, _ = bind_guest xen mgr monitor "g1" in
      let label = (Vtpm_xen.Hypervisor.domain_exn xen d).Vtpm_xen.Domain.label in
      if tampered then
        Vtpm_xen.Domain.set_kernel (Vtpm_xen.Hypervisor.domain_exn xen d) ~image:"patched-kernel";
      let binding = Binding.lookup_domid monitor.Monitor.bindings d in
      let subject = Subject.Guest d in
      let cost = xen.Vtpm_xen.Hypervisor.cost in
      List.for_all
        (fun ordinal ->
          let gates0 = (Monitor.stats monitor).Monitor.gate_checks in
          let t0 = Vtpm_util.Cost.now cost in
          ignore (Monitor.decide monitor ~subject ~ordinal ~binding);
          let delta = Vtpm_util.Cost.now cost -. t0 in
          let gates = (Monitor.stats monitor).Monitor.gate_checks - gates0 in
          let oracle =
            Policy_ref.eval p ~subject ~label ~ordinal ~measured_ok:(fun () -> not tampered)
          in
          let expected =
            Vtpm_util.Cost.monitor_lookup_us
            +. (Vtpm_util.Cost.monitor_rule_scan_us *. float_of_int oracle.Policy_ref.scanned)
            +. (float_of_int gates *. Vtpm_util.Cost.monitor_measure_gate_us)
          in
          Float.abs (delta -. expected) < 1e-6)
        index_test_ordinals)

(* A guest cycling junk ordinals must not grow monitor state: verdicts are
   cached only for ordinals the engine implements, and the compiled index
   memoises nothing at request time. *)
let test_monitor_junk_ordinals_bounded () =
  let xen, mgr, monitor = mk_monitor () in
  let d, vid = bind_guest xen mgr monitor "g1" in
  Monitor.set_audit_cap monitor (Some 64);
  let router = Monitor.router monitor in
  let index_words () = Obj.reachable_words (Obj.repr monitor.Monitor.index) in
  let words_before = index_words () in
  let frame = Bytes.of_string pcr_read_wire in
  for i = 0 to 9_999 do
    (* TPM 1.2 request header: tag (2 bytes), size (4), ordinal (4). *)
    Bytes.set_int32_be frame 6 (Int32.of_int (0x10000 + i));
    ignore (router ~sender:d ~claimed_instance:vid ~wire:(Bytes.to_string frame))
  done;
  check_i "every junk frame decided" 10_000 (Monitor.stats monitor).Monitor.lookups;
  check_b "cache holds engine ordinals only" true
    (Hashtbl.length monitor.Monitor.cache <= List.length Vtpm_tpm.Types.all_ordinals);
  check_i "index size unchanged" words_before (index_words ())

(* --- ACM (Chinese Wall + Type Enforcement) -------------------------------------- *)

let test_acm_chinese_wall () =
  let acm = Acm.example_policy () in
  check_b "bank_a admitted" true (Acm.admit acm ~domid:1 ~label:"bank_a" = Acm.Admitted);
  (match Acm.admit acm ~domid:2 ~label:"bank_b" with
  | Acm.Rejected _ -> ()
  | Acm.Admitted -> Alcotest.fail "conflicting label admitted");
  (* Unrelated labels coexist. *)
  check_b "telco_x ok next to bank_a" true (Acm.admit acm ~domid:3 ~label:"telco_x" = Acm.Admitted);
  (* After the bank_a domain retires, bank_b may start. *)
  Acm.retire acm ~domid:1;
  check_b "bank_b after retire" true (Acm.admit acm ~domid:4 ~label:"bank_b" = Acm.Admitted)

let test_acm_ste () =
  let acm = Acm.example_policy () in
  check_b "tenant attaches" true
    (Acm.may_attach_vtpm acm ~frontend_label:"bank_a" ~backend_label:"system_u:dom0"
    = Acm.Admitted);
  (match Acm.may_attach_vtpm acm ~frontend_label:"unlabeled" ~backend_label:"system_u:dom0" with
  | Acm.Rejected _ -> ()
  | Acm.Admitted -> Alcotest.fail "unlabeled frontend attached")

let test_acm_parse_roundtrip () =
  let acm = Acm.example_policy () in
  match Acm.parse (Acm.to_string acm) with
  | Ok acm2 ->
      check_b "conflict preserved" true
        (match Acm.admit acm2 ~domid:1 ~label:"bank_a" with
        | Acm.Admitted -> (
            match Acm.admit acm2 ~domid:2 ~label:"bank_b" with
            | Acm.Rejected _ -> true
            | Acm.Admitted -> false)
        | Acm.Rejected _ -> false)
  | Error e -> Alcotest.fail e

let test_acm_parse_errors () =
  check_b "malformed rejected" true (Result.is_error (Acm.parse "conflict oops\n"));
  check_b "comments ok" true (Result.is_ok (Acm.parse "# nothing here\n"))

(* The O(1) lookup tables built in [create] must reproduce the original
   assoc-list semantics exactly: first binding wins for types; conflicts
   concatenate, in set order, the other members of every containing set. *)
let test_acm_lookup_tables () =
  let acm =
    Acm.create
      ~conflict_sets:[ ("s1", [ "a"; "b"; "c" ]); ("s2", [ "b"; "d" ]) ]
      ~types_of:[ ("x", [ "t1" ]); ("x", [ "t2" ]); ("y", [ "t1" ]) ]
      ()
  in
  check_b "types first binding wins" true (Acm.types_of acm "x" = [ "t1" ]);
  check_b "unknown label has no types" true (Acm.types_of acm "zz" = []);
  check_b "conflicts span sets in order" true (Acm.conflicts_with acm "b" = [ "a"; "c"; "d" ]);
  check_b "single-set conflicts" true (Acm.conflicts_with acm "a" = [ "b"; "c" ]);
  check_b "unknown label conflicts empty" true (Acm.conflicts_with acm "zz" = []);
  check_b "share_type via tables" true (Acm.share_type acm "x" "y");
  check_b "no shared type" false (Acm.share_type acm "x" "zz")

let test_acm_host_integration () =
  let host =
    Host.create ~mode:Host.Improved_mode ~seed:121 ~rsa_bits:256 ~acm:(Acm.example_policy ()) ()
  in
  let _a = Host.create_guest_exn host ~name:"a" ~label:"bank_a" () in
  (match Host.create_guest host ~name:"b" ~label:"bank_b" () with
  | Error e -> check_b "CW rejection reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "conflicting guest admitted");
  (* Unlabeled tenants cannot attach a vTPM at all. *)
  (match Host.create_guest host ~name:"x" ~label:"mystery" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unlabeled guest attached");
  (* Destroying the first bank frees the wall. *)
  let a = List.hd host.Host.guests in
  (match Host.destroy_guest host a with Ok () -> () | Error e -> Alcotest.fail e);
  check_b "bank_b admitted after destroy" true
    (Result.is_ok (Host.create_guest host ~name:"b2" ~label:"bank_b" ()))

(* --- Quota ------------------------------------------------------------------------ *)

let test_quota_burst_and_refill () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:10.0 ~burst:3.0 ~cost () in
  let s = Subject.Guest 1 in
  check_b "1" true (Quota.admit q s);
  check_b "2" true (Quota.admit q s);
  check_b "3" true (Quota.admit q s);
  check_b "burst exhausted" false (Quota.admit q s);
  (* 0.2 simulated seconds refill 2 tokens. *)
  Vtpm_util.Cost.charge cost 200_000.0;
  check_b "refilled 1" true (Quota.admit q s);
  check_b "refilled 2" true (Quota.admit q s);
  check_b "empty again" false (Quota.admit q s)

let test_quota_per_subject () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:10.0 ~burst:1.0 ~cost () in
  check_b "g1 first" true (Quota.admit q (Subject.Guest 1));
  check_b "g1 throttled" false (Quota.admit q (Subject.Guest 1));
  check_b "g2 unaffected" true (Quota.admit q (Subject.Guest 2))

let test_quota_cap_at_burst () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:1000.0 ~burst:2.0 ~cost () in
  let s = Subject.Guest 1 in
  Vtpm_util.Cost.charge cost 10_000_000.0;
  check_b "remaining capped" true (Quota.remaining q s <= 2.0)

let test_monitor_quota_throttles () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "flood" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  Monitor.set_quota monitor ~rate_per_s:10.0 ~burst:5.0;
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Monitor.reset_stats monitor;
  let served = ref 0 in
  for _ = 1 to 50 do
    if Result.is_ok (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire) then
      incr served
  done;
  check_b "flood throttled" true (!served < 50);
  check_b "throttles counted" true ((Monitor.stats monitor).Monitor.throttled > 0);
  Monitor.clear_quota monitor;
  check_b "unlimited after clear" true
    (Result.is_ok (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire))

(* --- Audit toggle ------------------------------------------------------------------- *)

let test_monitor_audit_toggle () =
  let xen, mgr, monitor = mk_monitor () in
  let d = add_guest xen "quiet" in
  let inst = Vtpm_mgr.Manager.create_instance mgr in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  let _ =
    Result.get_ok
      (Binding.bind monitor.Monitor.bindings ~vtpm_id:inst.Vtpm_mgr.Manager.vtpm_id ~domid:d
         ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest)
  in
  let router = Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Monitor.set_audit_enabled monitor false;
  let before = Audit.length monitor.Monitor.audit in
  ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire);
  check_i "no entry when disabled" before (Audit.length monitor.Monitor.audit);
  Monitor.set_audit_enabled monitor true;
  ignore (router ~sender:d ~claimed_instance:inst.Vtpm_mgr.Manager.vtpm_id ~wire);
  check_i "entry when enabled" (before + 1) (Audit.length monitor.Monitor.audit)

(* --- Anchor ---------------------------------------------------------------------------- *)

(* A single-attempt commit of the log's current head. *)
let commit_head mgr anchor audit =
  Result.get_ok (Vtpm_mgr.Hw_anchor.commit mgr anchor ~data:(Audit.head audit))

let test_anchor_commit_and_verify () =
  let _, mgr, monitor = mk_monitor () in
  let anchor = Result.get_ok (Anchor.setup mgr) in
  Audit.append monitor.Monitor.audit ~subject:"s" ~operation:"op1" ~instance:None ~allowed:true
    ~reason:"r";
  let count = commit_head mgr anchor monitor.Monitor.audit in
  check_i "first commit" 1 count;
  check_b "anchored log verifies" true
    (Anchor.verify anchor mgr (Audit.entries monitor.Monitor.audit) = Ok ());
  (* More activity without a re-commit: the exported log no longer matches
     the anchor (stale anchor detected). *)
  Audit.append monitor.Monitor.audit ~subject:"s" ~operation:"op2" ~instance:None ~allowed:true
    ~reason:"r";
  check_b "stale anchor detected" true
    (Result.is_error (Anchor.verify anchor mgr (Audit.entries monitor.Monitor.audit)));
  let count2 = commit_head mgr anchor monitor.Monitor.audit in
  check_i "second commit" 2 count2;
  check_b "verifies again" true
    (Anchor.verify anchor mgr (Audit.entries monitor.Monitor.audit) = Ok ())

let test_anchor_detects_truncation () =
  let _, mgr, monitor = mk_monitor () in
  let anchor = Result.get_ok (Anchor.setup mgr) in
  for i = 1 to 3 do
    Audit.append monitor.Monitor.audit ~subject:"s" ~operation:(Printf.sprintf "op%d" i)
      ~instance:None ~allowed:true ~reason:"r"
  done;
  ignore (commit_head mgr anchor monitor.Monitor.audit);
  (* Attacker exports a truncated log; the head anchor catches it even
     though the prefix chain itself is intact. *)
  let truncated = List.filteri (fun i _ -> i < 2) (Audit.entries monitor.Monitor.audit) in
  check_b "truncation detected" true (Result.is_error (Anchor.verify anchor mgr truncated))

let test_anchor_verify_across_rotation () =
  let _, mgr, monitor = mk_monitor () in
  let anchor = Result.get_ok (Anchor.setup mgr) in
  let audit = monitor.Monitor.audit in
  Audit.set_max_entries audit (Some 4);
  for i = 1 to 12 do
    Audit.append audit ~subject:"s" ~operation:(Printf.sprintf "op%d" i) ~instance:None
      ~allowed:true ~reason:"r"
  done;
  check_b "rotated" true (Audit.rotations audit > 0);
  ignore (commit_head mgr anchor audit);
  (* The retained window no longer starts at genesis; hardware-anchored
     verification must use the log's recorded base. *)
  check_b "genesis base no longer applies" true
    (Result.is_error (Anchor.verify anchor mgr (Audit.entries audit)));
  check_b "verifies from the log's base" true
    (Anchor.verify anchor mgr ~base:(Audit.base audit) (Audit.entries audit) = Ok ());
  check_b "verify_log handles rotation" true (Anchor.verify_log anchor mgr audit = Ok ())

let suite =
  [
    Alcotest.test_case "subject printing" `Quick test_subject_printing;
    Alcotest.test_case "subject equal" `Quick test_subject_equal;
    Alcotest.test_case "subject credentials" `Quick test_subject_credentials;
    Alcotest.test_case "classes partition" `Quick test_classes_partition_ordinals;
    Alcotest.test_case "class names roundtrip" `Quick test_class_names_roundtrip;
    Alcotest.test_case "class expected members" `Quick test_class_expected_members;
    Alcotest.test_case "policy parse basic" `Quick test_policy_parse_basic;
    Alcotest.test_case "policy comments/blanks" `Quick test_policy_parse_comments_and_blanks;
    Alcotest.test_case "policy parse errors" `Quick test_policy_parse_errors;
    Alcotest.test_case "policy ordinal forms" `Quick test_policy_parse_ordinal_forms;
    Alcotest.test_case "policy first match" `Quick test_policy_first_match_wins;
    Alcotest.test_case "policy default" `Quick test_policy_default_applies;
    Alcotest.test_case "policy label selector" `Quick test_policy_label_selector;
    Alcotest.test_case "policy dom0 selectors" `Quick test_policy_dom0_selectors;
    Alcotest.test_case "policy guard fallthrough" `Quick test_policy_guard_fallthrough;
    Alcotest.test_case "policy guard lazy" `Quick test_policy_guard_lazy;
    Alcotest.test_case "policy scanned counts" `Quick test_policy_scanned_counts;
    Alcotest.test_case "policy validate shadowing" `Quick test_policy_validate_shadowing;
    Alcotest.test_case "policy validate admin grant" `Quick test_policy_validate_admin_grant;
    Alcotest.test_case "policy validate clean default" `Quick test_policy_validate_clean;
    Alcotest.test_case "policy synthetic" `Quick test_policy_synthetic;
    Alcotest.test_case "policy has_guards" `Quick test_policy_has_guards;
    Alcotest.test_case "policy print roundtrip" `Quick test_policy_print_roundtrip;
    QCheck_alcotest.to_alcotest prop_policy_parse_stable;
    Alcotest.test_case "policy index candidates" `Quick test_policy_index_candidates;
    QCheck_alcotest.to_alcotest prop_policy_index_differential;
    Alcotest.test_case "audit chain verifies" `Quick test_audit_chain_verifies;
    Alcotest.test_case "audit tamper detected" `Quick test_audit_tamper_detected;
    Alcotest.test_case "audit truncation detected" `Quick test_audit_truncation_detected;
    Alcotest.test_case "audit empty chain" `Quick test_audit_empty_chain;
    Alcotest.test_case "audit export/import" `Quick test_audit_export_import;
    Alcotest.test_case "audit rotation long run" `Quick test_audit_rotation_long_run;
    QCheck_alcotest.to_alcotest prop_audit_slots_match_oracle;
    Alcotest.test_case "binding bind/lookup" `Quick test_binding_bind_lookup;
    Alcotest.test_case "binding conflicts" `Quick test_binding_conflicts;
    Alcotest.test_case "binding unbind" `Quick test_binding_unbind;
    Alcotest.test_case "monitor routes by binding" `Quick test_monitor_routes_by_binding;
    Alcotest.test_case "monitor denies by policy" `Quick test_monitor_denies_by_policy;
    Alcotest.test_case "monitor cache behaviour" `Quick test_monitor_cache_behaviour;
    Alcotest.test_case "monitor cache disabled" `Quick test_monitor_cache_disabled;
    Alcotest.test_case "monitor guarded not cached" `Quick test_monitor_guarded_policy_not_cached;
    Alcotest.test_case "monitor audits decisions" `Quick test_monitor_audits_every_decision;
    Alcotest.test_case "monitor mgmt credential" `Quick test_monitor_management_credential_gate;
    Alcotest.test_case "monitor mgmt policy" `Quick test_monitor_management_policy_gate;
    Alcotest.test_case "monitor rebind" `Quick test_monitor_rebind;
    Alcotest.test_case "guard cache hits" `Quick test_monitor_guard_cache_hits;
    Alcotest.test_case "guard cache extend invalidates" `Quick
      test_monitor_guard_cache_extend_invalidates;
    Alcotest.test_case "guard cache bump on tamper" `Quick test_monitor_guard_cache_bump_on_tamper;
    Alcotest.test_case "guard cache rebind invalidates" `Quick
      test_monitor_guard_cache_rebind_invalidates;
    Alcotest.test_case "guard cache reload resets" `Quick test_monitor_guard_cache_reload_resets;
    Alcotest.test_case "forget_subject key index" `Quick test_monitor_forget_subject_key_index;
    Alcotest.test_case "indexed mode equivalence" `Quick test_monitor_indexed_mode_equivalence;
    QCheck_alcotest.to_alcotest prop_monitor_linear_charge;
    Alcotest.test_case "junk ordinals bounded" `Quick test_monitor_junk_ordinals_bounded;
    Alcotest.test_case "acm chinese wall" `Quick test_acm_chinese_wall;
    Alcotest.test_case "acm lookup tables" `Quick test_acm_lookup_tables;
    Alcotest.test_case "acm ste" `Quick test_acm_ste;
    Alcotest.test_case "acm parse roundtrip" `Quick test_acm_parse_roundtrip;
    Alcotest.test_case "acm parse errors" `Quick test_acm_parse_errors;
    Alcotest.test_case "acm host integration" `Quick test_acm_host_integration;
    Alcotest.test_case "quota burst/refill" `Quick test_quota_burst_and_refill;
    Alcotest.test_case "quota per subject" `Quick test_quota_per_subject;
    Alcotest.test_case "quota cap at burst" `Quick test_quota_cap_at_burst;
    Alcotest.test_case "monitor quota throttles" `Quick test_monitor_quota_throttles;
    Alcotest.test_case "monitor audit toggle" `Quick test_monitor_audit_toggle;
    Alcotest.test_case "anchor commit/verify" `Quick test_anchor_commit_and_verify;
    Alcotest.test_case "anchor detects truncation" `Quick test_anchor_detects_truncation;
    Alcotest.test_case "anchor verify across rotation" `Quick test_anchor_verify_across_rotation;
    Alcotest.test_case "shipped default policy" `Quick test_shipped_default_policy;
    Alcotest.test_case "shipped measured policy" `Quick test_shipped_measured_policy;
    Alcotest.test_case "shipped acm policy" `Quick test_shipped_acm_policy;
    Alcotest.test_case "tamper detection" `Quick test_tamper_detection;
  ]
