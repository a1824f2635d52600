(* Tests for the vTPM manager layer: transport protocol, instance table,
   state protection, migration, deep quote and the split driver. *)

open Vtpm_mgr

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- Proto ---------------------------------------------------------------------- *)

let test_proto_request_roundtrip () =
  let frame = Proto.encode_request ~claimed_instance:42 "wire-bytes" in
  check_b "roundtrip" true (Proto.decode_request frame = Ok (42, "wire-bytes"));
  check_b "short frame" true (Result.is_error (Proto.decode_request "ab"))

let test_proto_response_roundtrip () =
  List.iter
    (fun st ->
      let frame = Proto.encode_response st "payload" in
      check_b "roundtrip" true (Proto.decode_response frame = Ok (st, "payload")))
    [ Proto.Ok_routed; Proto.Denied; Proto.Bad_frame ];
  check_b "empty" true (Result.is_error (Proto.decode_response ""));
  check_b "bad status" true (Result.is_error (Proto.decode_response "\x09x"))

let test_proto_v2_integrity () =
  let frame = Proto.encode_request ~claimed_instance:7 "wire" in
  check_i "version byte" Proto.version (Char.code frame.[0]);
  (* Flip one body byte: the CRC must catch it. *)
  let flipped = Bytes.of_string frame in
  let pos = Proto.header_len + 2 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  check_b "corruption detected" true
    (Result.is_error (Proto.decode_request (Bytes.to_string flipped)));
  (* A truncated frame fails the CRC too — never mis-parses. *)
  check_b "truncation detected" true
    (Result.is_error (Proto.decode_request (String.sub frame 0 (String.length frame - 1))));
  (* Version-1 frames (no integrity) are rejected, not guessed at. *)
  let old = Bytes.of_string frame in
  Bytes.set old 0 '\x01';
  check_b "old version rejected" true
    (Result.is_error (Proto.decode_request (Bytes.to_string old)));
  (* Same properties on the response path. *)
  let resp = Proto.encode_response Proto.Ok_routed "pay" in
  let rflip = Bytes.of_string resp in
  Bytes.set rflip (Proto.header_len) '\xff';
  check_b "response corruption detected" true
    (Result.is_error (Proto.decode_response (Bytes.to_string rflip)))

(* The single-allocation encoders against the frozen two-Buffer ones. *)
let frame_payloads () =
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  wire :: List.init 301 (fun n -> String.init n (fun i -> Char.chr (((i * 37) + n) land 0xff)))

let test_proto_frames_match_reference () =
  List.iter
    (fun payload ->
      List.iter
        (fun claimed_instance ->
          check_s "request frame"
            (Crc32_ref.encode_request ~claimed_instance payload)
            (Proto.encode_request ~claimed_instance payload))
        [ 0; 1; 42; 0xFFFFFFFF; -1; (1 lsl 40) + 5 ];
      List.iter
        (fun st ->
          check_s "response frame" (Crc32_ref.encode_response st payload)
            (Proto.encode_response st payload))
        [ Proto.Ok_routed; Proto.Denied; Proto.Bad_frame ])
    (frame_payloads ())

let prop_proto_frames_match_reference =
  QCheck.Test.make ~name:"proto frames match the two-buffer reference" ~count:300
    QCheck.(pair int string)
    (fun (claimed_instance, payload) ->
      Proto.encode_request ~claimed_instance payload
      = Crc32_ref.encode_request ~claimed_instance payload
      && Proto.encode_response Proto.Denied payload
         = Crc32_ref.encode_response Proto.Denied payload
      && Proto.decode_request (Proto.encode_request ~claimed_instance payload)
         = Ok (claimed_instance land 0xFFFFFFFF, payload))

(* Every single-byte flip and every truncation of a frame is rejected. *)
let test_proto_every_flip_and_truncation_rejected () =
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  let frames =
    [
      ("request", Proto.encode_request ~claimed_instance:3 wire, fun f -> Result.is_error (Proto.decode_request f));
      ( "response",
        Proto.encode_response Proto.Ok_routed (String.make 30 'r'),
        fun f -> Result.is_error (Proto.decode_response f) );
    ]
  in
  List.iter
    (fun (what, frame, rejected) ->
      for pos = 0 to String.length frame - 1 do
        for mask = 1 to 255 do
          let b = Bytes.of_string frame in
          Bytes.set b pos (Char.chr (Char.code frame.[pos] lxor mask));
          if not (rejected (Bytes.to_string b)) then
            Alcotest.failf "%s: flip 0x%02x at byte %d accepted" what mask pos
        done
      done;
      for len = 0 to String.length frame - 1 do
        if not (rejected (String.sub frame 0 len)) then
          Alcotest.failf "%s: truncation to %d bytes accepted" what len
      done)
    frames

(* --- Manager --------------------------------------------------------------------- *)

let mk_manager ?(seed = 13) () =
  Manager.create ~rsa_bits:256 ~seed ~cost:(Vtpm_util.Cost.create ()) ()

let test_manager_instances () =
  let mgr = mk_manager () in
  let i1 = Manager.create_instance mgr in
  let i2 = Manager.create_instance mgr in
  check_b "distinct ids" true (i1.Manager.vtpm_id <> i2.Manager.vtpm_id);
  check_b "find works" true (Result.is_ok (Manager.find mgr i1.Manager.vtpm_id));
  Manager.destroy_instance mgr i1.Manager.vtpm_id;
  check_b "destroyed gone" true (Result.is_error (Manager.find mgr i1.Manager.vtpm_id));
  check_i "one remains" 1 (List.length (Manager.instances mgr))

let test_manager_instance_isolation () =
  let mgr = mk_manager () in
  let i1 = Manager.create_instance mgr in
  let i2 = Manager.create_instance mgr in
  let extend inst =
    let wire =
      Vtpm_tpm.Wire.encode_request
        (Vtpm_tpm.Cmd.Extend { pcr = 9; digest = Vtpm_crypto.Sha1.digest "x" })
    in
    Result.get_ok (Manager.execute_wire mgr inst ~wire)
  in
  ignore (extend i1);
  let read inst =
    let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 9 }) in
    let resp = Vtpm_tpm.Wire.decode_response (Result.get_ok (Manager.execute_wire mgr inst ~wire)) in
    match resp.Vtpm_tpm.Cmd.body with
    | Vtpm_tpm.Cmd.R_pcr_value v -> v
    | _ -> Alcotest.fail "bad body"
  in
  check_b "instances isolated" true (read i1 <> read i2)

let test_manager_suspended_rejects () =
  let mgr = mk_manager () in
  let inst = Manager.create_instance mgr in
  inst.Manager.state <- Manager.Suspended;
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  check_b "suspended rejects" true (Result.is_error (Manager.execute_wire mgr inst ~wire))

let test_manager_malformed_wire () =
  let mgr = mk_manager () in
  let inst = Manager.create_instance mgr in
  check_b "garbage rejected" true (Result.is_error (Manager.execute_wire mgr inst ~wire:"garbage"))

let test_manager_hw_tpm_owned () =
  let mgr = mk_manager () in
  check_b "hw tpm has owner at init" true (Vtpm_tpm.Engine.has_owner mgr.Manager.hw_tpm)

(* --- Stateproc --------------------------------------------------------------------- *)

(* An instance with recognizable state: PCR 9 extended. *)
let provisioned_instance mgr =
  let inst = Manager.create_instance mgr in
  let wire =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 9; digest = Vtpm_crypto.Sha1.digest "marker" })
  in
  ignore (Result.get_ok (Manager.execute_wire mgr inst ~wire));
  inst

let pcr9 engine =
  match Vtpm_tpm.Engine.pcr_value engine 9 with Ok v -> v | Error _ -> Alcotest.fail "pcr9"

let test_stateproc_plain_roundtrip () =
  let mgr = mk_manager () in
  let inst = provisioned_instance mgr in
  let blob = Result.get_ok (Stateproc.save mgr inst ~format:Stateproc.Plain) in
  check_b "format detected" true (Stateproc.detect_format blob = Some Stateproc.Plain);
  match Stateproc.load mgr blob with
  | Ok (engine, _) -> check_s "pcr preserved" (pcr9 inst.Manager.engine) (pcr9 engine)
  | Error m -> Alcotest.fail m

let test_stateproc_sealed_roundtrip () =
  let mgr = mk_manager () in
  let inst = provisioned_instance mgr in
  let blob = Result.get_ok (Stateproc.save mgr inst ~format:Stateproc.Sealed) in
  check_b "format detected" true (Stateproc.detect_format blob = Some Stateproc.Sealed);
  match Stateproc.load mgr blob with
  | Ok (engine, Some id) ->
      check_i "instance id embedded" inst.Manager.vtpm_id id;
      check_s "pcr preserved" (pcr9 inst.Manager.engine) (pcr9 engine)
  | Ok (_, None) -> Alcotest.fail "expected embedded id"
  | Error m -> Alcotest.fail m

let test_stateproc_sealed_wrong_platform () =
  let mgr = mk_manager ~seed:13 () in
  let other = mk_manager ~seed:14 () in
  let inst = provisioned_instance mgr in
  let blob = Result.get_ok (Stateproc.save mgr inst ~format:Stateproc.Sealed) in
  check_b "other platform cannot load" true (Result.is_error (Stateproc.load other blob))

let test_stateproc_sealed_pcr_tamper () =
  (* Changing the manager measurement PCR on the hw TPM must break unseal
     (a tampered manager cannot read old state). *)
  let mgr = mk_manager () in
  let inst = provisioned_instance mgr in
  let blob = Result.get_ok (Stateproc.save mgr inst ~format:Stateproc.Sealed) in
  let resp =
    Vtpm_tpm.Engine.execute mgr.Manager.hw_tpm ~locality:4
      (Vtpm_tpm.Cmd.Extend { pcr = Manager.manager_pcr; digest = Vtpm_crypto.Sha1.digest "evil" })
  in
  check_i "extend ok" Vtpm_tpm.Types.tpm_success resp.Vtpm_tpm.Cmd.rc;
  check_b "tampered manager cannot load" true (Result.is_error (Stateproc.load mgr blob))

let test_stateproc_sealed_blob_tamper () =
  let mgr = mk_manager () in
  let inst = provisioned_instance mgr in
  let blob = Bytes.of_string (Result.get_ok (Stateproc.save mgr inst ~format:Stateproc.Sealed)) in
  (* Flip a ciphertext byte near the end (away from the sealed key). *)
  let pos = Bytes.length blob - 40 in
  Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor 1));
  check_b "MAC catches tamper" true (Result.is_error (Stateproc.load mgr (Bytes.to_string blob)))

let test_stateproc_unknown_format () =
  let mgr = mk_manager () in
  check_b "unknown magic" true (Result.is_error (Stateproc.load mgr "NOTASTATEBLOB"))

let test_stateproc_suspend_resume () =
  let mgr = mk_manager () in
  let inst = provisioned_instance mgr in
  let marker = pcr9 inst.Manager.engine in
  let blob = Result.get_ok (Stateproc.suspend mgr inst ~format:Stateproc.Sealed) in
  check_b "suspended" true (inst.Manager.state = Manager.Suspended);
  (match Stateproc.resume mgr inst blob with Ok () -> () | Error m -> Alcotest.fail m);
  let inst' = Result.get_ok (Manager.find mgr inst.Manager.vtpm_id) in
  check_b "active again" true (inst'.Manager.state = Manager.Active);
  check_s "state preserved" marker (pcr9 inst'.Manager.engine)

(* --- Migration ---------------------------------------------------------------------- *)

let test_migration_plaintext_roundtrip () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let inst = provisioned_instance src in
  let marker = pcr9 inst.Manager.engine in
  let stream = Result.get_ok (Migration.export src inst ~mode:Migration.Plaintext ~dest_key:None) in
  Migration.finalize_source src inst;
  check_b "source gone" true (Result.is_error (Manager.find src inst.Manager.vtpm_id));
  match Migration.import dst stream with
  | Ok inst' -> check_s "state moved" marker (pcr9 inst'.Manager.engine)
  | Error m -> Alcotest.fail m

let test_migration_protected_roundtrip () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let inst = provisioned_instance src in
  let marker = pcr9 inst.Manager.engine in
  let stream =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  match Migration.import dst stream with
  | Ok inst' -> check_s "state moved" marker (pcr9 inst'.Manager.engine)
  | Error m -> Alcotest.fail m

let test_migration_protected_needs_key () =
  let src = mk_manager () in
  let inst = provisioned_instance src in
  check_b "export without key fails" true
    (Result.is_error (Migration.export src inst ~mode:Migration.Protected ~dest_key:None))

let test_migration_wrong_destination () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let eve = mk_manager ~seed:15 () in
  let inst = provisioned_instance src in
  let stream =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  check_b "third platform cannot import" true (Result.is_error (Migration.import eve stream))

let test_migration_snoop () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let inst = provisioned_instance src in
  let marker = pcr9 inst.Manager.engine in
  let plain = Result.get_ok (Migration.export src inst ~mode:Migration.Plaintext ~dest_key:None) in
  (match Migration.snoop plain with
  | Ok engine -> check_s "plaintext leaks" marker (pcr9 engine)
  | Error m -> Alcotest.fail m);
  let prot =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  check_b "protected does not leak" true (Result.is_error (Migration.snoop prot))

let test_migration_garbage_stream () =
  let dst = mk_manager () in
  check_b "garbage rejected" true (Result.is_error (Migration.import dst "NOPE"));
  check_b "short rejected" true (Result.is_error (Migration.import dst "x"))

(* --- Deep quote ---------------------------------------------------------------------- *)

let guest_vtpm_quote mgr inst =
  (* Drive the instance engine directly as a guest TSS would. *)
  let transport bytes =
    Vtpm_tpm.Wire.encode_response
      (Vtpm_tpm.Engine.execute inst.Manager.engine ~locality:0 (Vtpm_tpm.Wire.decode_request bytes))
  in
  ignore mgr;
  let c = Vtpm_tpm.Client.create transport in
  let srk_auth = Vtpm_crypto.Sha1.digest "gsrk" in
  let _ = Result.get_ok (Vtpm_tpm.Client.take_ownership c ~owner_auth:"go" ~srk_auth) in
  let sess =
    Result.get_ok
      (Vtpm_tpm.Client.start_osap c ~entity_handle:Vtpm_tpm.Types.kh_srk ~usage_secret:srk_auth)
  in
  let aik_auth = Vtpm_crypto.Sha1.digest "gaik" in
  let blob, _ =
    Result.get_ok
      (Vtpm_tpm.Client.create_wrap_key c sess ~parent:Vtpm_tpm.Types.kh_srk
         ~usage:Vtpm_tpm.Types.Signing ~key_auth:aik_auth ())
  in
  let handle =
    Result.get_ok (Vtpm_tpm.Client.load_key2 ~continue:false c sess ~parent:Vtpm_tpm.Types.kh_srk ~blob)
  in
  let s2 = Result.get_ok (Vtpm_tpm.Client.start_oiap c ~usage_secret:aik_auth) in
  fun nonce ->
    Result.get_ok
      (Vtpm_tpm.Client.quote c s2 ~key:handle ~external_data:nonce
         ~pcr_sel:(Vtpm_tpm.Types.Pcr_selection.of_list [ 0 ]))

let test_deep_quote_verifies () =
  let mgr = mk_manager () in
  let inst = Manager.create_instance mgr in
  let quote_fn = guest_vtpm_quote mgr inst in
  let nonce = String.make 20 'q' in
  let vq = quote_fn nonce in
  match Deep_quote.produce mgr ~vtpm_quote:vq with
  | Ok dq ->
      check_b "chain verifies" true (Deep_quote.verify dq ~nonce);
      check_b "wrong nonce fails" false (Deep_quote.verify dq ~nonce:(String.make 20 'x'))
  | Error m -> Alcotest.fail m

let test_deep_quote_substitution_detected () =
  (* Splicing in a quote from a *different* vTPM breaks the hw linkage:
     the hardware signature covers the original vTPM signature's digest. *)
  let mgr = mk_manager () in
  let inst1 = Manager.create_instance mgr in
  let inst2 = Manager.create_instance mgr in
  let quote1 = guest_vtpm_quote mgr inst1 in
  let quote2 = guest_vtpm_quote mgr inst2 in
  let nonce = String.make 20 'q' in
  let vq1 = quote1 nonce in
  let c2, s2, p2 = quote2 nonce in
  match Deep_quote.produce mgr ~vtpm_quote:vq1 with
  | Ok dq ->
      let forged =
        { dq with Deep_quote.vtpm_composite = c2; vtpm_signature = s2; vtpm_pubkey = p2 }
      in
      check_b "substituted quote rejected" false (Deep_quote.verify forged ~nonce)
  | Error m -> Alcotest.fail m

(* Each deep quote loads a fresh AIK into the chip's sixteen key slots;
   it must be evicted again or the seventeenth quote dies with
   TPM_RESOURCES. *)
let test_deep_quote_evicts_aik () =
  let mgr = mk_manager () in
  let inst = Manager.create_instance mgr in
  let quote_fn = guest_vtpm_quote mgr inst in
  let loaded () = Vtpm_tpm.Keystore.loaded_count mgr.Manager.hw_tpm.Vtpm_tpm.Engine.keys in
  let before = loaded () in
  for i = 1 to 40 do
    let nonce = Vtpm_crypto.Sha1.digest (string_of_int i) in
    match Deep_quote.produce mgr ~vtpm_quote:(quote_fn nonce) with
    | Ok dq -> check_b (Printf.sprintf "deep quote %d verifies" i) true (Deep_quote.verify dq ~nonce)
    | Error m -> Alcotest.failf "deep quote %d: %s" i m
  done;
  check_i "hardware key slots back to their start" before (loaded ())

(* --- Driver ------------------------------------------------------------------------------ *)

(* Minimal backend fixture around a hypervisor with one guest domain. *)
let driver_fixture () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let fe = Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Vtpm_xen.Hypervisor.unpause_domain xen ~caller:0 fe);
  let mgr = Manager.create ~rsa_bits:256 ~seed:19 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
  let inst = Manager.create_instance mgr in
  let router ~sender:_ ~claimed_instance ~wire =
    match Manager.find mgr claimed_instance with
    | Error e -> Error (Vtpm_util.Verror.to_string e)
    | Ok i -> Result.map_error Vtpm_util.Verror.to_string (Manager.execute_wire mgr i ~wire)
  in
  let backend = Driver.create_backend ~xen ~be_domid:0 ~router () in
  ignore (Result.get_ok (Driver.publish_device ~xen ~fe ~be:0 ~instance:inst.Manager.vtpm_id));
  let conn = Result.get_ok (Driver.connect backend ~fe_domid:fe) in
  (xen, mgr, inst, backend, conn, fe)

let test_driver_connect_publishes_nodes () =
  let xen, _, inst, _, conn, fe = driver_fixture () in
  let base = Driver.vtpm_fe_path fe in
  check_b "backend-id" true (Vtpm_xen.Hypervisor.xs_read xen ~caller:fe (base ^ "/backend-id") = Ok "0");
  check_b "instance" true
    (Vtpm_xen.Hypervisor.xs_read xen ~caller:fe (base ^ "/instance")
    = Ok (string_of_int inst.Manager.vtpm_id));
  check_b "ring-ref" true
    (Result.is_ok (Vtpm_xen.Hypervisor.xs_read xen ~caller:fe (base ^ "/ring-ref")));
  check_i "fe" fe conn.Driver.fe_domid

let test_driver_request_roundtrip () =
  let _, _, _, backend, conn, _ = driver_fixture () in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  match Driver.request backend conn ~wire with
  | Ok (Proto.Ok_routed, payload) ->
      let resp = Vtpm_tpm.Wire.decode_response payload in
      check_i "success" Vtpm_tpm.Types.tpm_success resp.Vtpm_tpm.Cmd.rc
  | Ok _ -> Alcotest.fail "unexpected status"
  | Error m -> Alcotest.fail m

let test_driver_client_transport () =
  let _, _, _, backend, conn, _ = driver_fixture () in
  let c = Vtpm_tpm.Client.create (Driver.client_transport backend conn) in
  let v = Result.get_ok (Vtpm_tpm.Client.pcr_read c ~pcr:0) in
  check_i "20 bytes" 20 (String.length v)

let test_driver_disconnect () =
  let _, _, _, backend, conn, fe = driver_fixture () in
  Driver.disconnect_domain backend ~fe_domid:fe;
  check_b "disconnected" false conn.Driver.connected;
  check_b "request fails" true
    (Result.is_error (Driver.request backend conn ~wire:"x"))

let test_driver_denied_surfaces () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let fe = Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Vtpm_xen.Hypervisor.unpause_domain xen ~caller:0 fe);
  let router ~sender:_ ~claimed_instance:_ ~wire:_ = Error "computer says no" in
  let backend = Driver.create_backend ~xen ~be_domid:0 ~router () in
  ignore (Result.get_ok (Driver.publish_device ~xen ~fe ~be:0 ~instance:1));
  let conn = Result.get_ok (Driver.connect backend ~fe_domid:fe) in
  (match Driver.request backend conn ~wire:"anything" with
  | Ok (Proto.Denied, reason) -> check_s "reason" "computer says no" reason
  | _ -> Alcotest.fail "expected denial");
  let c = Vtpm_tpm.Client.create (Driver.client_transport backend conn) in
  (try
     ignore (Vtpm_tpm.Client.pcr_read c ~pcr:0);
     Alcotest.fail "expected Denied exception"
   with Driver.Denied r -> check_s "exception reason" "computer says no" r)

let test_driver_bad_frame () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let fe = Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Vtpm_xen.Hypervisor.unpause_domain xen ~caller:0 fe);
  let router ~sender:_ ~claimed_instance:_ ~wire = Ok wire in
  let backend = Driver.create_backend ~xen ~be_domid:0 ~router () in
  ignore (Result.get_ok (Driver.publish_device ~xen ~fe ~be:0 ~instance:1));
  let conn = Result.get_ok (Driver.connect backend ~fe_domid:fe) in
  (* Push a frame too short to carry a claimed-instance field. *)
  ignore (Result.get_ok (Vtpm_xen.Ring.push_request conn.Driver.ring "ab"));
  ignore (Driver.process_pending backend);
  match Vtpm_xen.Ring.pop_response conn.Driver.ring with
  | Some slot -> (
      match Proto.decode_response slot.Vtpm_xen.Ring.payload with
      | Ok (Proto.Bad_frame, _) -> ()
      | _ -> Alcotest.fail "expected bad frame")
  | None -> Alcotest.fail "no response"

(* Self-healing fixture: resilient backend, write-through checkpoints,
   crash/restart hooks wired to the manager. Faults (if any) arm only
   after the link is up. *)
let resilient_fixture ?faults () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let fe = Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Vtpm_xen.Hypervisor.unpause_domain xen ~caller:0 fe);
  let mgr = Manager.create ~rsa_bits:256 ~seed:23 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
  let inst = Manager.create_instance mgr in
  Manager.bind_domid mgr inst fe;
  let ckpt = Checkpoint.create mgr in
  let router ~sender:_ ~claimed_instance ~wire =
    match Manager.find mgr claimed_instance with
    | Error e -> Error (Vtpm_util.Verror.to_string e)
    | Ok i -> (
        match Manager.execute_wire mgr i ~wire with
        | Error e -> Error (Vtpm_util.Verror.to_string e)
        | Ok resp ->
            ignore (Checkpoint.checkpoint ckpt i);
            Ok resp)
  in
  let backend =
    Driver.create_backend ~resilience:Driver.default_resilience ~xen ~be_domid:0 ~router ()
  in
  backend.Driver.on_crash <- (fun () -> Manager.crash mgr);
  backend.Driver.on_restart <- (fun () -> ignore (Checkpoint.restore_all ckpt));
  ignore (Result.get_ok (Driver.publish_device ~xen ~fe ~be:0 ~instance:inst.Manager.vtpm_id));
  let conn = Result.get_ok (Driver.connect backend ~fe_domid:fe) in
  (match faults with Some f -> Vtpm_xen.Hypervisor.set_faults xen f | None -> ());
  (xen, mgr, inst, ckpt, backend, conn)

let test_driver_reconnect_roundtrip () =
  let _, _, _, backend, conn, _ = driver_fixture () in
  Driver.disconnect backend conn;
  check_b "disconnected" false conn.Driver.connected;
  (match Driver.reconnect backend conn with Ok () -> () | Error e -> Alcotest.fail e);
  check_b "reconnected" true conn.Driver.connected;
  check_i "one handshake" 1 conn.Driver.reconnects;
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  match Driver.request backend conn ~wire with
  | Ok (Proto.Ok_routed, _) -> ()
  | Ok _ -> Alcotest.fail "unexpected status"
  | Error m -> Alcotest.fail m

let test_driver_crash_restart_checkpoint () =
  let _, mgr, inst, _, backend, conn = resilient_fixture () in
  let client = Vtpm_tpm.Client.create (Driver.client_transport backend conn) in
  let v1 =
    Result.get_ok
      (Vtpm_tpm.Client.extend client ~pcr:5 ~digest:(Vtpm_crypto.Sha1.digest "acked"))
  in
  Driver.crash_backend backend;
  check_b "backend dead" false backend.Driver.alive;
  check_b "link severed" false conn.Driver.connected;
  check_i "manager state gone" 0 (List.length (Manager.instances mgr));
  (* The next request self-heals: restart (checkpoint restore) + reconnect. *)
  let v = Result.get_ok (Vtpm_tpm.Client.pcr_read client ~pcr:5) in
  check_s "pcr preserved" v1 v;
  check_i "one restart" 1 backend.Driver.restarts;
  check_i "one reconnect" 1 conn.Driver.reconnects;
  let restored = Result.get_ok (Manager.find mgr inst.Manager.vtpm_id) in
  check_b "binding preserved" true
    (restored.Manager.bound_domid = inst.Manager.bound_domid)

let test_driver_drop_notify_observable () =
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  (* Fail-fast: a dropped kick silently loses the request. *)
  let xen, _, _, backend, conn, _ = driver_fixture () in
  Vtpm_xen.Hypervisor.set_faults xen
    (Vtpm_xen.Faults.create ~seed:3 ~rates:[ (Vtpm_xen.Faults.Drop_notify, 1.0) ] ());
  check_b "fail-fast loses request" true (Result.is_error (Driver.request backend conn ~wire));
  (* Self-healing: the retry re-raises the kick; the request was still
     queued, so it is not duplicated. *)
  let faults =
    Vtpm_xen.Faults.create ~seed:3 ~rates:[ (Vtpm_xen.Faults.Drop_notify, 0.5) ] ()
  in
  let _, _, _, _, backend2, conn2 = resilient_fixture ~faults () in
  match Driver.request_with_info backend2 conn2 ~wire with
  | Ok o ->
      check_b "routed" true (o.Driver.status = Proto.Ok_routed);
      check_b "needed recovery" true (o.Driver.attempts >= 1)
  | Error e -> Alcotest.fail (Vtpm_util.Verror.to_string e)

let test_driver_resilient_under_faults () =
  let faults = Vtpm_xen.Faults.uniform ~seed:5 ~rate:0.05 in
  let _, _, _, _, backend, conn = resilient_fixture ~faults () in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  let ok = ref 0 in
  for _ = 1 to 100 do
    match Driver.request backend conn ~wire with
    | Ok (Proto.Ok_routed, _) -> incr ok
    | _ -> ()
  done;
  check_i "every request survives" 100 !ok

(* --- Neighbour kicks ------------------------------------------------------------------- *)

(* Three guests on one validating backend, connected a, b, c. The router
   logs every sender it serves and then runs [on_route]; the tamper hook
   logs every audited transport violation. *)
type neighbours = {
  xen : Vtpm_xen.Hypervisor.t;
  backend : Driver.backend;
  a : Driver.connection;
  b : Driver.connection;
  c : Driver.connection;
  served : int list ref;
  tampers : (int * string) list ref;
  on_route : (int -> unit) ref;
}

let neighbour_fixture () =
  let xen = Vtpm_xen.Hypervisor.create () in
  Vtpm_xen.Hypervisor.set_faults xen (Vtpm_xen.Faults.create ~seed:1 ());
  let mgr = Manager.create ~rsa_bits:256 ~seed:29 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
  let served = ref [] and tampers = ref [] and on_route = ref ignore in
  let router ~sender ~claimed_instance ~wire =
    served := sender :: !served;
    !on_route sender;
    match Manager.find mgr claimed_instance with
    | Error e -> Error (Vtpm_util.Verror.to_string e)
    | Ok i -> Result.map_error Vtpm_util.Verror.to_string (Manager.execute_wire mgr i ~wire)
  in
  let backend = Driver.create_backend ~xen ~be_domid:0 ~router () in
  Driver.set_validate_transport backend true;
  Driver.set_on_transport_tamper backend (fun d reason -> tampers := (d, reason) :: !tampers);
  let guest name =
    let fe =
      Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name ~label:"l" ())
    in
    ignore (Vtpm_xen.Hypervisor.unpause_domain xen ~caller:0 fe);
    let inst = Manager.create_instance mgr in
    ignore (Result.get_ok (Driver.publish_device ~xen ~fe ~be:0 ~instance:inst.Manager.vtpm_id));
    Result.get_ok (Driver.connect backend ~fe_domid:fe)
  in
  let a = guest "a" in
  let b = guest "b" in
  let c = guest "c" in
  { xen; backend; a; b; c; served; tampers; on_route }

let pcr_read_wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 })

let expect_routed what = function
  | Ok (Proto.Ok_routed, _) -> ()
  | Ok _ -> Alcotest.failf "%s: unexpected status" what
  | Error m -> Alcotest.failf "%s: %s" what m

(* A request whose kick was dropped stays on its ring; the next kick from
   any neighbour drains it, visiting rings in connection-list order
   (newest connection first). *)
let test_driver_neighbour_kick_drains_stranded () =
  let { xen; backend; a; b; c; served; tampers; _ } = neighbour_fixture () in
  let strand (conn : Driver.connection) =
    Vtpm_xen.Faults.schedule xen.Vtpm_xen.Hypervisor.faults Vtpm_xen.Faults.Drop_notify;
    check_b "kick lost" true (Result.is_error (Driver.request backend conn ~wire:pcr_read_wire));
    check_i "request stranded" 1 (Vtpm_xen.Ring.pending_requests conn.Driver.ring)
  in
  strand a;
  strand c;
  check_b "nothing served yet" true (!served = []);
  expect_routed "neighbour" (Driver.request backend b ~wire:pcr_read_wire);
  Alcotest.(check (list int))
    "served in list order"
    [ c.Driver.fe_domid; b.Driver.fe_domid; a.Driver.fe_domid ]
    (List.rev !served);
  List.iter
    (fun (conn : Driver.connection) ->
      check_i "drained" 0 (Vtpm_xen.Ring.pending_requests conn.Driver.ring);
      match Vtpm_xen.Ring.pop_response conn.Driver.ring with
      | Some slot ->
          check_b "stranded request answered" true
            (match Proto.decode_response slot.Vtpm_xen.Ring.payload with
            | Ok (Proto.Ok_routed, _) -> true
            | _ -> false)
      | None -> Alcotest.fail "no response for the stranded request")
    [ a; c ];
  check_b "no tamper" true (!tampers = [])

(* Every grant-table mutator applied to an idle guest is audited at the
   next kick from a neighbour, and tears the idle guest's link. *)
let test_driver_neighbour_kick_audits_idle_grant () =
  let module Hv = Vtpm_xen.Hypervisor in
  let mutators =
    [
      ( "remap",
        fun xen (a : Driver.connection) ->
          Hv.remap_grant xen ~caller:0 ~owner:a.Driver.fe_domid ~gref:a.Driver.gref ~frame:999 );
      ( "force-revoke",
        fun xen (a : Driver.connection) ->
          Hv.force_revoke_grant xen ~caller:0 ~owner:a.Driver.fe_domid ~gref:a.Driver.gref );
      ( "unmap",
        fun xen (a : Driver.connection) ->
          Hv.unmap_grant xen ~caller:0 ~owner:a.Driver.fe_domid ~gref:a.Driver.gref );
      ("destroy-domain", fun xen (a : Driver.connection) -> Hv.destroy_domain xen ~caller:0 a.Driver.fe_domid);
    ]
  in
  List.iter
    (fun (name, mutate) ->
      let { xen; backend; a; b; c; tampers; _ } = neighbour_fixture () in
      expect_routed name (Driver.request backend a ~wire:pcr_read_wire);
      expect_routed name (Driver.request backend b ~wire:pcr_read_wire);
      check_b (name ^ ": clean before") true (!tampers = []);
      (match mutate xen a with Ok () -> () | Error e -> Alcotest.failf "%s: %s" name e);
      check_b (name ^ ": idle link still up") true a.Driver.connected;
      expect_routed name (Driver.request backend b ~wire:pcr_read_wire);
      Alcotest.(check (list int))
        (name ^ ": audited against the idle guest")
        [ a.Driver.fe_domid ]
        (List.map fst !tampers);
      check_b (name ^ ": idle link torn") false a.Driver.connected;
      check_b (name ^ ": neighbours untouched") true (b.Driver.connected && c.Driver.connected))
    mutators

(* A grant change made while a kick is serving (here by the router) is
   still validated in that kick for every connection later in the list. *)
let test_driver_kick_revalidates_after_mid_kick_grant_change () =
  let { xen; backend; a; b; c; tampers; on_route; _ } = neighbour_fixture () in
  expect_routed "warm" (Driver.request backend b ~wire:pcr_read_wire);
  (on_route :=
     fun sender ->
       if sender = c.Driver.fe_domid then
         ignore
           (Vtpm_xen.Hypervisor.force_revoke_grant xen ~caller:0 ~owner:a.Driver.fe_domid
              ~gref:a.Driver.gref));
  expect_routed "c" (Driver.request backend c ~wire:pcr_read_wire);
  Alcotest.(check (list int)) "audited in the same kick" [ a.Driver.fe_domid ] (List.map fst !tampers);
  check_b "idle link torn" false a.Driver.connected;
  check_b "serving links untouched" true (b.Driver.connected && c.Driver.connected)

(* Every manager -> hardware-TPM exchange goes through the manager's one
   client, so successive sessions carry fresh nonceOdd values. Each
   session's authorized command records the nonceOdd it sends. *)
let test_hw_sessions_fresh_nonce_odd () =
  let cost = Vtpm_util.Cost.create () in
  let mgr = Manager.create ~rsa_bits:256 ~seed:9 ~cost () in
  let seal_nonce () =
    let hw = Manager.hw_client mgr in
    let sent = ref "" in
    let sealed =
      Manager.with_hw_session hw (Manager.Oiap mgr.Manager.hw_srk_auth) (fun sess ->
          Vtpm_tpm.Client.authorized ~continue:false hw sess ~make_req:(fun auth ->
              sent := auth.Vtpm_tpm.Auth.nonce_odd;
              Vtpm_tpm.Cmd.Seal
                {
                  key = Vtpm_tpm.Types.kh_srk;
                  pcr_sel = Vtpm_tpm.Types.Pcr_selection.of_list [ Manager.manager_pcr ];
                  blob_auth = String.make 20 'b';
                  data = "nonce-probe";
                  auth;
                }))
    in
    (match sealed with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seal: %a" Vtpm_tpm.Client.pp_error e);
    !sent
  in
  let first = seal_nonce () in
  let second = seal_nonce () in
  check_b "nonceOdd sent" true (String.length first = Vtpm_tpm.Types.digest_size);
  check_b "second session's nonceOdd differs" false (String.equal first second)

let suite =
  [
    Alcotest.test_case "proto request roundtrip" `Quick test_proto_request_roundtrip;
    Alcotest.test_case "proto response roundtrip" `Quick test_proto_response_roundtrip;
    Alcotest.test_case "proto v2 integrity" `Quick test_proto_v2_integrity;
    Alcotest.test_case "proto frames match reference" `Quick test_proto_frames_match_reference;
    QCheck_alcotest.to_alcotest prop_proto_frames_match_reference;
    Alcotest.test_case "proto every flip and truncation rejected" `Quick
      test_proto_every_flip_and_truncation_rejected;
    Alcotest.test_case "manager instances" `Quick test_manager_instances;
    Alcotest.test_case "manager isolation" `Quick test_manager_instance_isolation;
    Alcotest.test_case "manager suspended rejects" `Quick test_manager_suspended_rejects;
    Alcotest.test_case "manager malformed wire" `Quick test_manager_malformed_wire;
    Alcotest.test_case "manager hw tpm owned" `Quick test_manager_hw_tpm_owned;
    Alcotest.test_case "state plain roundtrip" `Quick test_stateproc_plain_roundtrip;
    Alcotest.test_case "state sealed roundtrip" `Quick test_stateproc_sealed_roundtrip;
    Alcotest.test_case "state sealed wrong platform" `Quick test_stateproc_sealed_wrong_platform;
    Alcotest.test_case "state sealed pcr tamper" `Quick test_stateproc_sealed_pcr_tamper;
    Alcotest.test_case "state sealed blob tamper" `Quick test_stateproc_sealed_blob_tamper;
    Alcotest.test_case "state unknown format" `Quick test_stateproc_unknown_format;
    Alcotest.test_case "state suspend/resume" `Quick test_stateproc_suspend_resume;
    Alcotest.test_case "migration plaintext" `Quick test_migration_plaintext_roundtrip;
    Alcotest.test_case "migration protected" `Quick test_migration_protected_roundtrip;
    Alcotest.test_case "migration needs key" `Quick test_migration_protected_needs_key;
    Alcotest.test_case "migration wrong destination" `Quick test_migration_wrong_destination;
    Alcotest.test_case "migration snoop" `Quick test_migration_snoop;
    Alcotest.test_case "migration garbage" `Quick test_migration_garbage_stream;
    Alcotest.test_case "deep quote verifies" `Quick test_deep_quote_verifies;
    Alcotest.test_case "deep quote substitution" `Quick test_deep_quote_substitution_detected;
    Alcotest.test_case "deep quote evicts its AIK" `Quick test_deep_quote_evicts_aik;
    Alcotest.test_case "hw sessions send fresh nonceOdd" `Quick test_hw_sessions_fresh_nonce_odd;
    Alcotest.test_case "driver connect nodes" `Quick test_driver_connect_publishes_nodes;
    Alcotest.test_case "driver request roundtrip" `Quick test_driver_request_roundtrip;
    Alcotest.test_case "driver client transport" `Quick test_driver_client_transport;
    Alcotest.test_case "driver disconnect" `Quick test_driver_disconnect;
    Alcotest.test_case "driver denied surfaces" `Quick test_driver_denied_surfaces;
    Alcotest.test_case "driver bad frame" `Quick test_driver_bad_frame;
    Alcotest.test_case "driver reconnect roundtrip" `Quick test_driver_reconnect_roundtrip;
    Alcotest.test_case "driver crash/restart checkpoint" `Quick test_driver_crash_restart_checkpoint;
    Alcotest.test_case "driver drop-notify observable" `Quick test_driver_drop_notify_observable;
    Alcotest.test_case "driver resilient under faults" `Slow test_driver_resilient_under_faults;
    Alcotest.test_case "driver neighbour kick drains stranded" `Quick
      test_driver_neighbour_kick_drains_stranded;
    Alcotest.test_case "driver neighbour kick audits idle grant" `Quick
      test_driver_neighbour_kick_audits_idle_grant;
    Alcotest.test_case "driver kick revalidates after mid-kick grant change" `Quick
      test_driver_kick_revalidates_after_mid_kick_grant_change;
  ]
