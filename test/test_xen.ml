(* Tests for the simulated Xen substrate: domain lifecycle, memory,
   event channels, grant tables, rings, XenStore and hypervisor
   privilege enforcement. *)

open Vtpm_xen

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- Domain ------------------------------------------------------------------ *)

let mk_domain ?(id = 1) () =
  Domain.create ~id ~name:"test" ~privileged:false ~label:"tenant_t" ~max_pages:16

let test_domain_lifecycle_valid () =
  let d = mk_domain () in
  check_b "building" true (d.Domain.state = Domain.Building);
  check_b "to running" true (Domain.transition d Domain.Running = Ok ());
  check_b "to paused" true (Domain.transition d Domain.Paused = Ok ());
  check_b "back to running" true (Domain.transition d Domain.Running = Ok ());
  check_b "to shutdown" true (Domain.transition d (Domain.Shutdown "halt") = Ok ());
  check_b "to dying" true (Domain.transition d Domain.Dying = Ok ());
  check_b "to dead" true (Domain.transition d Domain.Dead = Ok ());
  check_b "dead is not alive" false (Domain.is_alive d)

let test_domain_lifecycle_invalid () =
  let d = mk_domain () in
  check_b "building cannot pause" true (Result.is_error (Domain.transition d Domain.Paused));
  ignore (Domain.transition d Domain.Running);
  check_b "running cannot go dead directly" true (Result.is_error (Domain.transition d Domain.Dead));
  ignore (Domain.transition d Domain.Dying);
  check_b "dying cannot run" true (Result.is_error (Domain.transition d Domain.Running))

let test_domain_memory_rw () =
  let d = mk_domain () in
  check_b "write" true (Domain.write_memory d ~frame:2 ~offset:100 "hello" = Ok ());
  check_b "read" true (Domain.read_memory d ~frame:2 ~offset:100 ~length:5 = Ok "hello");
  check_b "unwritten reads zero" true
    (Domain.read_memory d ~frame:3 ~offset:0 ~length:4 = Ok "\x00\x00\x00\x00")

let test_domain_memory_bounds () =
  let d = mk_domain () in
  check_b "frame out of range" true (Result.is_error (Domain.write_memory d ~frame:99 ~offset:0 "x"));
  check_b "offset beyond page" true
    (Result.is_error (Domain.write_memory d ~frame:0 ~offset:Domain.page_size "x"));
  check_b "straddling write" true
    (Result.is_error (Domain.write_memory d ~frame:0 ~offset:(Domain.page_size - 2) "xyz"))

let test_domain_memory_scan () =
  let d = mk_domain () in
  ignore (Domain.write_memory d ~frame:1 ~offset:10 "NEEDLE");
  ignore (Domain.write_memory d ~frame:4 ~offset:200 "NEEDLE");
  check_b "two hits" true (Domain.scan_memory d ~pattern:"NEEDLE" = [ (1, 10); (4, 200) ]);
  check_b "no hit" true (Domain.scan_memory d ~pattern:"ABSENT" = []);
  check_b "empty pattern" true (Domain.scan_memory d ~pattern:"" = [])

let test_domain_kernel_digest () =
  let d = mk_domain () in
  Domain.set_kernel d ~image:"vmlinuz";
  check_s "sha1 of image" (Vtpm_crypto.Sha1.digest "vmlinuz") d.Domain.kernel_digest

(* --- Event channels -------------------------------------------------------------- *)

let test_evtchn_bind_notify_poll () =
  let e = Evtchn.create () in
  let pa, pb = Evtchn.bind_interdomain e ~a:1 ~b:2 in
  check_b "notify a->b" true (Evtchn.notify e ~domid:1 ~port:pa = Ok ());
  check_b "b sees sender 1" true (Evtchn.poll e ~domid:2 ~port:pb = Some 1);
  check_b "queue drained" true (Evtchn.poll e ~domid:2 ~port:pb = None)

let test_evtchn_pending_count () =
  let e = Evtchn.create () in
  let pa, pb = Evtchn.bind_interdomain e ~a:1 ~b:2 in
  ignore (Evtchn.notify e ~domid:1 ~port:pa);
  ignore (Evtchn.notify e ~domid:1 ~port:pa);
  check_b "first" true (Evtchn.poll e ~domid:2 ~port:pb = Some 1);
  check_b "second" true (Evtchn.poll e ~domid:2 ~port:pb = Some 1);
  check_b "drained" true (Evtchn.poll e ~domid:2 ~port:pb = None)

let test_evtchn_identity_is_hypervisor_state () =
  let e = Evtchn.create () in
  let pa, pb = Evtchn.bind_interdomain e ~a:3 ~b:5 in
  check_b "remote of a is b" true (Evtchn.remote_domid e ~domid:3 ~port:pa = Some 5);
  check_b "remote of b is a" true (Evtchn.remote_domid e ~domid:5 ~port:pb = Some 3)

let test_evtchn_close () =
  let e = Evtchn.create () in
  let pa, pb = Evtchn.bind_interdomain e ~a:1 ~b:2 in
  Evtchn.close e ~domid:1 ~port:pa;
  check_b "notify on closed fails" true (Result.is_error (Evtchn.notify e ~domid:1 ~port:pa));
  check_b "peer also closed" true (Result.is_error (Evtchn.notify e ~domid:2 ~port:pb))

let test_evtchn_close_all_for () =
  let e = Evtchn.create () in
  let pa, _ = Evtchn.bind_interdomain e ~a:1 ~b:2 in
  let pc, _ = Evtchn.bind_interdomain e ~a:3 ~b:4 in
  Evtchn.close_all_for e 1;
  check_b "1's channel closed" true (Result.is_error (Evtchn.notify e ~domid:1 ~port:pa));
  check_b "others unaffected" true (Evtchn.notify e ~domid:3 ~port:pc = Ok ())

let test_evtchn_unknown_port () =
  let e = Evtchn.create () in
  check_b "unknown port" true (Result.is_error (Evtchn.notify e ~domid:1 ~port:42))

let test_evtchn_close_idempotent () =
  let e = Evtchn.create () in
  let pa, pb = Evtchn.bind_interdomain e ~a:1 ~b:2 in
  ignore (Evtchn.notify e ~domid:1 ~port:pa);
  Evtchn.close e ~domid:1 ~port:pa;
  Evtchn.close e ~domid:1 ~port:pa;
  Evtchn.close e ~domid:2 ~port:pb;
  check_b "pending cleared on close" true (Evtchn.poll e ~domid:2 ~port:pb = None)

(* --- Grant tables ------------------------------------------------------------------ *)

let test_gnttab_grant_and_map () =
  let g = Gnttab.create () in
  let r = Gnttab.grant_access g ~owner:1 ~grantee:2 ~frame:7 ~access:Gnttab.Read_write in
  (match Gnttab.map g ~caller:2 ~owner:1 ~gref:r with
  | Ok (frame, access) ->
      check_i "frame" 7 frame;
      check_b "access" true (access = Gnttab.Read_write)
  | Error e -> Alcotest.fail e)

let test_gnttab_wrong_grantee () =
  let g = Gnttab.create () in
  let r = Gnttab.grant_access g ~owner:1 ~grantee:2 ~frame:7 ~access:Gnttab.Read_only in
  check_b "third domain rejected" true (Result.is_error (Gnttab.map g ~caller:3 ~owner:1 ~gref:r));
  check_b "owner itself rejected" true (Result.is_error (Gnttab.map g ~caller:1 ~owner:1 ~gref:r))

let test_gnttab_revoke () =
  let g = Gnttab.create () in
  let r = Gnttab.grant_access g ~owner:1 ~grantee:2 ~frame:7 ~access:Gnttab.Read_only in
  ignore (Gnttab.map g ~caller:2 ~owner:1 ~gref:r);
  check_b "cannot revoke while mapped" true (Result.is_error (Gnttab.revoke g ~owner:1 ~gref:r));
  check_b "unmap by grantee" true (Gnttab.unmap g ~caller:2 ~owner:1 ~gref:r = Ok ());
  check_b "revoke after unmap" true (Gnttab.revoke g ~owner:1 ~gref:r = Ok ());
  check_b "map after revoke fails" true (Result.is_error (Gnttab.map g ~caller:2 ~owner:1 ~gref:r))

let test_gnttab_unknown_gref () =
  let g = Gnttab.create () in
  check_b "unknown" true (Result.is_error (Gnttab.map g ~caller:2 ~owner:1 ~gref:12))

(* --- Ring ----------------------------------------------------------------------------- *)

let test_ring_fifo_order () =
  let r = Ring.create ~frontend:1 ~backend:0 () in
  let id1 = Result.get_ok (Ring.push_request r "a") in
  let id2 = Result.get_ok (Ring.push_request r "b") in
  check_b "distinct ids" true (id1 <> id2);
  (match Ring.pop_request r with
  | Some { Ring.id; payload; _ } ->
      check_i "first id" id1 id;
      check_s "first payload" "a" payload
  | None -> Alcotest.fail "empty");
  (match Ring.pop_request r with
  | Some { Ring.payload; _ } -> check_s "second payload" "b" payload
  | None -> Alcotest.fail "empty")

let test_ring_capacity () =
  let r = Ring.create ~capacity:2 ~frontend:1 ~backend:0 () in
  ignore (Ring.push_request r "a");
  ignore (Ring.push_request r "b");
  check_b "full" true (Ring.push_request r "c" = Error "ring full");
  ignore (Ring.pop_request r);
  check_b "space again" true (Result.is_ok (Ring.push_request r "c"))

let test_ring_response_path () =
  let r = Ring.create ~frontend:1 ~backend:0 () in
  let id = Result.get_ok (Ring.push_request r "req") in
  (match Ring.pop_request r with
  | Some slot -> check_b "resp pushed" true (Ring.push_response r ~id:slot.Ring.id "resp" = Ok ())
  | None -> Alcotest.fail "no request");
  match Ring.pop_response r with
  | Some slot ->
      check_i "matching id" id slot.Ring.id;
      check_s "payload" "resp" slot.Ring.payload
  | None -> Alcotest.fail "no response"

let test_ring_identity_fields () =
  let r = Ring.create ~frontend:5 ~backend:0 () in
  check_i "frontend" 5 (Ring.frontend r);
  check_i "backend" 0 (Ring.backend r)

let test_ring_unknown_slot_id () =
  let r = Ring.create ~frontend:1 ~backend:0 () in
  let id = Result.get_ok (Ring.push_request r "req") in
  check_b "never-issued id refused" true (Result.is_error (Ring.push_response r ~id:(id + 99) "x"));
  ignore (Ring.pop_request r);
  check_b "known id accepted" true (Ring.push_response r ~id "resp" = Ok ());
  check_b "double answer refused" true (Result.is_error (Ring.push_response r ~id "again"))

let test_ring_request_space_floor () =
  let r = Ring.create ~capacity:1 ~frontend:1 ~backend:0 () in
  let id = Result.get_ok (Ring.push_request r "req") in
  ignore (Ring.pop_request r);
  ignore (Ring.push_response r ~id "resp");
  check_b "space never negative" true (Ring.request_space r >= 0)

let test_ring_request_pending () =
  let r = Ring.create ~frontend:1 ~backend:0 () in
  let id = Result.get_ok (Ring.push_request r "req") in
  check_b "queued" true (Ring.request_pending r ~id);
  check_b "other id not pending" false (Ring.request_pending r ~id:(id + 1));
  ignore (Ring.pop_request r);
  check_b "consumed" false (Ring.request_pending r ~id)

(* --- Ring bounds under index corruption (the fuzzer's ring adversary) --------- *)

(* A producer-index delta beyond the ring size must be refused outright by
   both pops: there is no frame to wrap around to, so a naive backend
   reading it would walk off the page. *)
let test_ring_prod_beyond_capacity () =
  let r = Ring.create ~capacity:4 ~frontend:1 ~backend:0 () in
  Ring.corrupt_req_prod r ~delta:5;
  check_b "naive pop refuses out-of-bounds delta" true (Ring.pop_request r = None);
  (match Ring.pop_request_validated r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validated pop accepted an out-of-bounds index");
  check_b "index flagged inconsistent" false (Ring.index_consistent r)

(* Within the ring size the naive pop believes the index, and once the
   corrupted index wraps back onto a consumed slot it re-serves the stale
   frame still occupying the page — the 2006-era replay window (capacity 1
   makes the wrap immediate). The validated pop treats the same divergence
   as an integrity error. *)
let test_ring_prod_within_capacity_stale_replay () =
  let naive = Ring.create ~capacity:1 ~frontend:1 ~backend:0 () in
  let id = Result.get_ok (Ring.push_request naive "secret-frame") in
  (match Ring.pop_request naive with
  | Some s -> check_i "genuine frame" id s.Ring.id
  | None -> Alcotest.fail "no genuine frame");
  Ring.corrupt_req_prod naive ~delta:1;
  (match Ring.pop_request naive with
  | Some s -> check_s "stale frame re-served by naive pop" "secret-frame" s.Ring.payload
  | None -> Alcotest.fail "naive pop did not re-serve the stale frame");
  let hardened = Ring.create ~capacity:1 ~frontend:1 ~backend:0 () in
  let id' = Result.get_ok (Ring.push_request hardened "secret-frame") in
  (match Ring.pop_request_validated hardened with
  | Ok (Some s) -> check_i "genuine frame (validated)" id' s.Ring.id
  | _ -> Alcotest.fail "validated pop lost the genuine frame");
  Ring.corrupt_req_prod hardened ~delta:1;
  match Ring.pop_request_validated hardened with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validated pop served a phantom slot"

let test_ring_sanitize_recovers () =
  let r = Ring.create ~capacity:4 ~frontend:1 ~backend:0 () in
  Ring.corrupt_req_prod r ~delta:3;
  check_b "corrupted" false (Ring.index_consistent r);
  Ring.sanitize_indices r;
  check_b "sanitized" true (Ring.index_consistent r);
  let id = Result.get_ok (Ring.push_request r "after-recovery") in
  match Ring.pop_request_validated r with
  | Ok (Some s) -> check_i "ring serves again after sanitize" id s.Ring.id
  | _ -> Alcotest.fail "ring dead after sanitize"

(* Injected frames carry the injector's provenance, and snooping is
   non-destructive — the capture side of capture-and-replay leaves no
   trace in the indices. *)
let test_ring_inject_provenance_and_snoop () =
  let r = Ring.create ~frontend:1 ~backend:0 () in
  ignore (Ring.push_request r "genuine");
  let before = Ring.pending_requests r in
  let snap1 = Ring.snoop_requests r in
  let snap2 = Ring.snoop_requests r in
  check_b "snoop is non-destructive" true (snap1 = snap2);
  check_i "snoop consumed nothing" before (Ring.pending_requests r);
  (match Ring.inject_request r ~pusher:0 "injected" with
  | Error e -> Alcotest.failf "inject: %s" e
  | Ok _ -> ());
  let pushers =
    List.map (fun (s : Ring.slot) -> (s.Ring.payload, s.Ring.pusher)) (Ring.snoop_requests r)
  in
  check_b "genuine frame keeps frontend provenance" true
    (List.mem ("genuine", 1) pushers);
  check_b "injected frame carries injector provenance" true
    (List.mem ("injected", 0) pushers)

(* --- Gnttab revoke/unmap edge cases (surfaced by the remap adversary) --------- *)

let test_gnttab_unmap_edge_cases () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:1 ~grantee:0 ~frame:42 ~access:Gnttab.Read_write in
  check_b "stranger cannot unmap" true (Result.is_error (Gnttab.unmap g ~caller:5 ~owner:1 ~gref));
  check_b "unknown gref refused" true
    (Result.is_error (Gnttab.unmap g ~caller:0 ~owner:1 ~gref:(gref + 99)));
  check_b "unmap before map refused" true (Result.is_error (Gnttab.unmap g ~caller:0 ~owner:1 ~gref));
  (match Gnttab.map g ~caller:0 ~owner:1 ~gref with
  | Ok (frame, _) -> check_i "mapped frame" 42 frame
  | Error e -> Alcotest.failf "map: %s" e);
  check_b "revoke while mapped must wait" true (Result.is_error (Gnttab.revoke g ~owner:1 ~gref));
  check_b "unmap by grantee" true (Gnttab.unmap g ~caller:0 ~owner:1 ~gref = Ok ());
  check_b "double unmap refused" true (Result.is_error (Gnttab.unmap g ~caller:0 ~owner:1 ~gref));
  check_b "revoke after unmap" true (Gnttab.revoke g ~owner:1 ~gref = Ok ());
  check_b "revoke idempotent" true (Gnttab.revoke g ~owner:1 ~gref = Ok ());
  check_b "map after revoke refused" true (Result.is_error (Gnttab.map g ~caller:0 ~owner:1 ~gref))

let test_gnttab_force_revoke_and_remap_visibility () =
  let g = Gnttab.create () in
  let gref = Gnttab.grant_access g ~owner:1 ~grantee:0 ~frame:42 ~access:Gnttab.Read_write in
  (match Gnttab.map g ~caller:0 ~owner:1 ~gref with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "map: %s" e);
  (* Remap swaps the backing frame while the mapping stays live... *)
  check_b "remap live grant" true (Gnttab.remap g ~owner:1 ~gref ~frame:77 = Ok ());
  (match Gnttab.inspect g ~owner:1 ~gref with
  | Some (frame, in_use, revoked) ->
      check_i "inspect sees the swapped frame" 77 frame;
      check_b "still mapped" true in_use;
      check_b "not yet revoked" false revoked
  | None -> Alcotest.fail "inspect lost the grant");
  (* ...and force-revoke succeeds even while mapped, visibly. *)
  check_b "force revoke while mapped" true (Gnttab.force_revoke g ~owner:1 ~gref = Ok ());
  match Gnttab.inspect g ~owner:1 ~gref with
  | Some (_, _, revoked) -> check_b "revocation visible to integrity check" true revoked
  | None -> Alcotest.fail "inspect lost the grant after force revoke"

(* --- XenStore ---------------------------------------------------------------------------- *)

let test_xs_write_read () =
  let xs = Xenstore.create () in
  check_b "write" true (Xenstore.write xs ~caller:0 "/a/b/c" "v" = Ok ());
  check_b "read" true (Xenstore.read xs ~caller:0 "/a/b/c" = Ok "v");
  check_b "intermediate created" true (Xenstore.read xs ~caller:0 "/a/b" = Ok "");
  check_b "missing" true (Xenstore.read xs ~caller:0 "/a/x" = Error Xenstore.Enoent)

let test_xs_directory () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/d/one" "1");
  ignore (Xenstore.write xs ~caller:0 "/d/two" "2");
  check_b "listing sorted" true (Xenstore.directory xs ~caller:0 "/d" = Ok [ "one"; "two" ])

let test_xs_rm () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/a/b/c" "v");
  check_b "rm subtree" true (Xenstore.rm xs ~caller:0 "/a/b" = Ok ());
  check_b "gone" true (Xenstore.read xs ~caller:0 "/a/b/c" = Error Xenstore.Enoent);
  check_b "parent kept" true (Result.is_ok (Xenstore.read xs ~caller:0 "/a"))

let test_xs_permissions () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/guarded" "secret");
  ignore
    (Xenstore.set_perms xs ~caller:0 "/guarded" ~owner:0 ~others:Xenstore.Pnone
       ~acl:[ (3, Xenstore.Pread) ]);
  check_b "acl read allowed" true (Xenstore.read xs ~caller:3 "/guarded" = Ok "secret");
  check_b "acl write denied" true (Xenstore.write xs ~caller:3 "/guarded" "x" = Error Xenstore.Eacces);
  check_b "others denied" true (Xenstore.read xs ~caller:4 "/guarded" = Error Xenstore.Eacces)

let test_xs_dom0_bypass () =
  (* The faithful weakness: dom0 ignores all node permissions. *)
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/guarded" "v");
  ignore
    (Xenstore.set_perms xs ~caller:0 "/guarded" ~owner:5 ~others:Xenstore.Pnone ~acl:[]);
  check_b "dom0 reads anyway" true (Xenstore.read xs ~caller:0 "/guarded" = Ok "v");
  check_b "dom0 writes anyway" true (Xenstore.write xs ~caller:0 "/guarded" "x" = Ok ())

let test_xs_owner_full_access () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/node" "v");
  ignore (Xenstore.set_perms xs ~caller:0 "/node" ~owner:7 ~others:Xenstore.Pnone ~acl:[]);
  check_b "owner reads" true (Xenstore.read xs ~caller:7 "/node" = Ok "v");
  check_b "owner writes" true (Xenstore.write xs ~caller:7 "/node" "w" = Ok ())

let test_xs_set_perms_requires_ownership () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/node" "v");
  ignore (Xenstore.set_perms xs ~caller:0 "/node" ~owner:7 ~others:Xenstore.Pread ~acl:[]);
  check_b "non-owner cannot chmod" true
    (Xenstore.set_perms xs ~caller:8 "/node" ~owner:8 ~others:Xenstore.Prdwr ~acl:[]
    = Error Xenstore.Eacces);
  check_b "owner can chmod" true
    (Xenstore.set_perms xs ~caller:7 "/node" ~owner:7 ~others:Xenstore.Pnone ~acl:[] = Ok ())

let test_xs_watch_fires () =
  let xs = Xenstore.create () in
  let fired = ref [] in
  Xenstore.watch xs ~token:"t" ~path:"/watched" (fun p -> fired := p :: !fired);
  ignore (Xenstore.write xs ~caller:0 "/watched/child" "v");
  ignore (Xenstore.write xs ~caller:0 "/elsewhere" "v");
  check_b "fired once for subtree" true (!fired = [ "/watched/child" ]);
  Xenstore.unwatch xs ~token:"t";
  ignore (Xenstore.write xs ~caller:0 "/watched/child2" "v");
  check_i "no more events" 1 (List.length !fired)

let test_xs_transaction_commit () =
  let xs = Xenstore.create () in
  let tx = Xenstore.tx_begin xs ~caller:0 in
  Xenstore.tx_write tx "/t/a" "1";
  Xenstore.tx_write tx "/t/b" "2";
  check_b "commit" true (Xenstore.tx_commit xs tx = Ok ());
  check_b "applied" true (Xenstore.read xs ~caller:0 "/t/a" = Ok "1")

let test_xs_transaction_conflict () =
  let xs = Xenstore.create () in
  let tx = Xenstore.tx_begin xs ~caller:0 in
  Xenstore.tx_write tx "/t/a" "1";
  (* Concurrent mutation bumps the generation. *)
  ignore (Xenstore.write xs ~caller:0 "/other" "v");
  check_b "EAGAIN" true (Xenstore.tx_commit xs tx = Error Xenstore.Eagain);
  check_b "nothing applied" true (Xenstore.read xs ~caller:0 "/t/a" = Error Xenstore.Enoent)

let test_xs_guest_cannot_write_root () =
  let xs = Xenstore.create () in
  (* Root is owned by dom0 with read-only default. *)
  check_b "guest write denied" true (Xenstore.write xs ~caller:3 "/evil" "v" = Error Xenstore.Eacces)

(* --- Hypervisor ------------------------------------------------------------------------------ *)

let test_hv_create_domain_privilege () =
  let hv = Hypervisor.create () in
  (match Hypervisor.create_domain hv ~caller:Hypervisor.dom0_id ~name:"g1" ~label:"l" () with
  | Ok id -> check_b "fresh domid" true (id > 0)
  | Error e -> Alcotest.fail e);
  check_b "guest cannot create" true
    (Result.is_error (Hypervisor.create_domain hv ~caller:1 ~name:"g2" ~label:"l" ()))

let test_hv_lifecycle_via_domctl () =
  let hv = Hypervisor.create () in
  let id = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"g" ~label:"l" ()) in
  check_b "unpause" true (Hypervisor.unpause_domain hv ~caller:0 id = Ok ());
  check_b "pause" true (Hypervisor.pause_domain hv ~caller:0 id = Ok ());
  check_b "destroy" true (Hypervisor.destroy_domain hv ~caller:0 id = Ok ());
  check_b "gone" true (Result.is_error (Hypervisor.find_domain hv id))

let test_hv_cannot_destroy_dom0 () =
  let hv = Hypervisor.create () in
  check_b "dom0 immortal" true (Result.is_error (Hypervisor.destroy_domain hv ~caller:0 0))

let test_hv_foreign_memory_privilege () =
  let hv = Hypervisor.create () in
  let id = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Hypervisor.unpause_domain hv ~caller:0 id);
  let d = Hypervisor.domain_exn hv id in
  ignore (Domain.write_memory d ~frame:1 ~offset:0 "guest-secret");
  check_b "dom0 reads foreign" true
    (Hypervisor.read_foreign_memory hv ~caller:0 ~target:id ~frame:1 ~offset:0 ~length:12
    = Ok "guest-secret");
  check_b "guest cannot read foreign" true
    (Result.is_error
       (Hypervisor.read_foreign_memory hv ~caller:id ~target:0 ~frame:1 ~offset:0 ~length:1))

let test_hv_domain_home_perms () =
  let hv = Hypervisor.create () in
  let id = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"mydom" ~label:"l" ()) in
  let home = Printf.sprintf "/local/domain/%d/name" id in
  check_b "guest reads own name" true (Hypervisor.xs_read hv ~caller:id home = Ok "mydom");
  let id2 = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"other" ~label:"l" ()) in
  check_b "other guest cannot read" true
    (Hypervisor.xs_read hv ~caller:id2 home = Error Xenstore.Eacces)

let test_hv_destroy_cleans_up () =
  let hv = Hypervisor.create () in
  let id = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"g" ~label:"l" ()) in
  let pa, _ = Hypervisor.bind_evtchn hv ~a:id ~b:0 in
  ignore (Hypervisor.destroy_domain hv ~caller:0 id);
  check_b "evtchn closed" true (Result.is_error (Hypervisor.notify hv ~domid:id ~port:pa));
  check_b "xenstore home removed" true
    (Hypervisor.xs_read hv ~caller:0 (Printf.sprintf "/local/domain/%d/name" id)
    = Error Xenstore.Enoent)

let test_hv_shutdown_self () =
  let hv = Hypervisor.create () in
  let id = Result.get_ok (Hypervisor.create_domain hv ~caller:0 ~name:"g" ~label:"l" ()) in
  ignore (Hypervisor.unpause_domain hv ~caller:0 id);
  check_b "self shutdown" true (Hypervisor.shutdown_self hv id ~reason:"poweroff" = Ok ());
  let d = Hypervisor.domain_exn hv id in
  check_b "state" true (d.Domain.state = Domain.Shutdown "poweroff")

(* --- XenStore model-based property -----------------------------------------------

   Random op sequences (as dom0, so permissions never interfere) against
   a reference model: a sorted association list of path -> value with
   mkdir-on-write and recursive-rm semantics. *)

type xs_op = XWrite of string list * string | XRm of string list | XRead of string list

let gen_xs_ops : xs_op list QCheck.Gen.t =
  let open QCheck.Gen in
  let seg = oneofl [ "a"; "b"; "c" ] in
  let path = list_size (int_range 1 3) seg in
  let op =
    frequency
      [
        (4, map2 (fun p v -> XWrite (p, v)) path (oneofl [ "x"; "y"; "z" ]));
        (1, map (fun p -> XRm p) path);
        (3, map (fun p -> XRead p) path);
      ]
  in
  list_size (int_range 1 40) op

(* Reference model: value map over exact paths, with implicit parents. *)
module Model = struct
  type t = (string list * string) list

  let rec is_prefix pre full =
    match (pre, full) with
    | [], _ -> true
    | p :: pre', f :: full' -> p = f && is_prefix pre' full'
    | _ :: _, [] -> false

  let write (m : t) path value : t =
    (* Create implicit parents with "" values, then set the leaf. *)
    let rec parents acc = function
      | [] -> acc
      | seg :: rest ->
          let p = acc @ [ seg ] in
          ignore p;
          parents p rest
    in
    ignore parents;
    let with_parents =
      List.fold_left
        (fun (m, prefix) seg ->
          let prefix = prefix @ [ seg ] in
          if List.mem_assoc prefix m then (m, prefix) else ((prefix, "") :: m, prefix))
        (m, []) path
      |> fst
    in
    (path, value) :: List.remove_assoc path with_parents

  let rm (m : t) path : t = List.filter (fun (p, _) -> not (is_prefix path p)) m

  let read (m : t) path : string option = List.assoc_opt path m
end

let prop_xenstore_matches_model =
  QCheck.Test.make ~name:"xenstore agrees with reference model" ~count:200
    (QCheck.make gen_xs_ops) (fun ops ->
      let xs = Xenstore.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | XWrite (path, v) ->
              let r = Xenstore.write xs ~caller:0 (Xenstore.join_path path) v in
              model := Model.write !model path v;
              r = Ok ()
          | XRm path ->
              let r = Xenstore.rm xs ~caller:0 (Xenstore.join_path path) in
              let existed = Model.read !model path <> None in
              model := Model.rm !model path;
              if existed then r = Ok () else r = Error Xenstore.Enoent
          | XRead path -> (
              let r = Xenstore.read xs ~caller:0 (Xenstore.join_path path) in
              match Model.read !model path with
              | Some v -> r = Ok v
              | None -> r = Error Xenstore.Enoent))
        ops)

(* --- Credit scheduler ---------------------------------------------------------- *)

let share_of shares domid = List.assoc domid shares

let test_sched_equal_weights () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:256 ();
  Sched.add s ~domid:2 ~weight:256 ();
  let shares = Sched.shares s ~total_us:3_000_000.0 ~slice_us:1000.0 in
  check_b "about 50/50" true (abs_float (share_of shares 1 -. 0.5) < 0.05);
  check_b "complementary" true (abs_float (share_of shares 1 +. share_of shares 2 -. 1.0) < 1e-9)

let test_sched_weighted_shares () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:512 ();
  Sched.add s ~domid:2 ~weight:256 ();
  let shares = Sched.shares s ~total_us:3_000_000.0 ~slice_us:1000.0 in
  let ratio = share_of shares 1 /. share_of shares 2 in
  check_b (Printf.sprintf "2:1 ratio (got %.2f)" ratio) true (ratio > 1.7 && ratio < 2.3)

let test_sched_cap_limits () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:256 ~cap_pct:25 ();
  Sched.add s ~domid:2 ~weight:256 ();
  let shares = Sched.shares s ~total_us:3_000_000.0 ~slice_us:1000.0 in
  check_b "capped domain stays near 25%" true (share_of shares 1 < 0.30)

let test_sched_all_capped_idles () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:256 ~cap_pct:10 ();
  (* With only one capped vcpu, most ticks return None. *)
  let ran = ref 0 and idle = ref 0 in
  for _ = 1 to 1000 do
    match Sched.tick s ~slice_us:1000.0 with Some _ -> incr ran | None -> incr idle
  done;
  check_b "mostly idle" true (!idle > !ran);
  check_b "still got its cap" true (!ran > 0)

let test_sched_remove_and_bad_weight () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:256 ();
  Sched.remove s ~domid:1;
  check_b "gone" true (Sched.find s 1 = None);
  Alcotest.check_raises "zero weight" (Invalid_argument "Sched.add: weight must be positive")
    (fun () -> Sched.add s ~domid:2 ~weight:0 ())

let test_sched_latecomer_gets_share () =
  let s = Sched.create () in
  Sched.add s ~domid:1 ~weight:256 ();
  ignore (Sched.shares s ~total_us:500_000.0 ~slice_us:1000.0);
  Sched.add s ~domid:2 ~weight:256 ();
  (* From here on the newcomer should get roughly half of new time. *)
  let before = match Sched.find s 2 with Some v -> v.Sched.runtime_us | None -> 0.0 in
  ignore (Sched.shares s ~total_us:2_000_000.0 ~slice_us:1000.0);
  let after = match Sched.find s 2 with Some v -> v.Sched.runtime_us | None -> 0.0 in
  check_b "latecomer served" true (after -. before > 700_000.0)

(* Path edge cases read the same way the component-list walk did: empty
   components are skipped, "" and "/" name the root, a missing component
   is ENOENT and only the final node's permission counts. *)
let test_xs_path_edges () =
  let xs = Xenstore.create () in
  ignore (Xenstore.write xs ~caller:0 "/a/b" "v");
  List.iter
    (fun p -> check_b ("reads " ^ p) true (Xenstore.read xs ~caller:0 p = Ok "v"))
    [ "/a/b"; "//a///b/"; "a/b"; "a/b//"; "///a/b" ];
  List.iter
    (fun p -> check_b ("root " ^ p) true (Xenstore.read xs ~caller:3 p = Ok ""))
    [ ""; "/"; "///" ];
  List.iter
    (fun p -> check_b ("enoent " ^ p) true (Xenstore.read xs ~caller:0 p = Error Xenstore.Enoent))
    [ "/a/x"; "/a/b/c"; "/a//x//"; "/ab"; "/a/b/ " ];
  ignore (Xenstore.set_perms xs ~caller:0 "/a/b" ~owner:0 ~others:Xenstore.Pnone ~acl:[]);
  List.iter
    (fun p -> check_b ("eacces " ^ p) true (Xenstore.read xs ~caller:3 p = Error Xenstore.Eacces))
    [ "/a/b"; "//a//b"; "a/b/" ];
  check_b "missing below unreadable is enoent" true
    (Xenstore.read xs ~caller:3 "/a/b/zz" = Error Xenstore.Enoent);
  check_b "directory through empty components" true
    (Xenstore.directory xs ~caller:0 "//a/" = Ok [ "b" ])

let suite =
  [
    Alcotest.test_case "domain lifecycle valid" `Quick test_domain_lifecycle_valid;
    Alcotest.test_case "domain lifecycle invalid" `Quick test_domain_lifecycle_invalid;
    Alcotest.test_case "domain memory rw" `Quick test_domain_memory_rw;
    Alcotest.test_case "domain memory bounds" `Quick test_domain_memory_bounds;
    Alcotest.test_case "domain memory scan" `Quick test_domain_memory_scan;
    Alcotest.test_case "domain kernel digest" `Quick test_domain_kernel_digest;
    Alcotest.test_case "evtchn bind/notify/poll" `Quick test_evtchn_bind_notify_poll;
    Alcotest.test_case "evtchn pending count" `Quick test_evtchn_pending_count;
    Alcotest.test_case "evtchn identity" `Quick test_evtchn_identity_is_hypervisor_state;
    Alcotest.test_case "evtchn close" `Quick test_evtchn_close;
    Alcotest.test_case "evtchn close all" `Quick test_evtchn_close_all_for;
    Alcotest.test_case "evtchn unknown port" `Quick test_evtchn_unknown_port;
    Alcotest.test_case "evtchn close idempotent" `Quick test_evtchn_close_idempotent;
    Alcotest.test_case "gnttab grant and map" `Quick test_gnttab_grant_and_map;
    Alcotest.test_case "gnttab wrong grantee" `Quick test_gnttab_wrong_grantee;
    Alcotest.test_case "gnttab revoke" `Quick test_gnttab_revoke;
    Alcotest.test_case "gnttab unknown gref" `Quick test_gnttab_unknown_gref;
    Alcotest.test_case "ring fifo order" `Quick test_ring_fifo_order;
    Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
    Alcotest.test_case "ring response path" `Quick test_ring_response_path;
    Alcotest.test_case "ring identity fields" `Quick test_ring_identity_fields;
    Alcotest.test_case "ring unknown slot id" `Quick test_ring_unknown_slot_id;
    Alcotest.test_case "ring request space floor" `Quick test_ring_request_space_floor;
    Alcotest.test_case "ring request pending" `Quick test_ring_request_pending;
    Alcotest.test_case "ring prod beyond capacity refused" `Quick test_ring_prod_beyond_capacity;
    Alcotest.test_case "ring stale replay: naive vs validated" `Quick
      test_ring_prod_within_capacity_stale_replay;
    Alcotest.test_case "ring sanitize recovers" `Quick test_ring_sanitize_recovers;
    Alcotest.test_case "ring inject provenance + snoop" `Quick
      test_ring_inject_provenance_and_snoop;
    Alcotest.test_case "gnttab unmap edge cases" `Quick test_gnttab_unmap_edge_cases;
    Alcotest.test_case "gnttab force-revoke/remap visibility" `Quick
      test_gnttab_force_revoke_and_remap_visibility;
    Alcotest.test_case "xs write/read" `Quick test_xs_write_read;
    Alcotest.test_case "xs directory" `Quick test_xs_directory;
    Alcotest.test_case "xs rm" `Quick test_xs_rm;
    Alcotest.test_case "xs permissions" `Quick test_xs_permissions;
    Alcotest.test_case "xs dom0 bypass" `Quick test_xs_dom0_bypass;
    Alcotest.test_case "xs owner full access" `Quick test_xs_owner_full_access;
    Alcotest.test_case "xs set_perms ownership" `Quick test_xs_set_perms_requires_ownership;
    Alcotest.test_case "xs watch fires" `Quick test_xs_watch_fires;
    Alcotest.test_case "xs transaction commit" `Quick test_xs_transaction_commit;
    Alcotest.test_case "xs transaction conflict" `Quick test_xs_transaction_conflict;
    Alcotest.test_case "xs guest cannot write root" `Quick test_xs_guest_cannot_write_root;
    Alcotest.test_case "xs path edges" `Quick test_xs_path_edges;
    Alcotest.test_case "hv create privilege" `Quick test_hv_create_domain_privilege;
    Alcotest.test_case "hv lifecycle domctl" `Quick test_hv_lifecycle_via_domctl;
    Alcotest.test_case "hv dom0 immortal" `Quick test_hv_cannot_destroy_dom0;
    Alcotest.test_case "hv foreign memory privilege" `Quick test_hv_foreign_memory_privilege;
    Alcotest.test_case "hv domain home perms" `Quick test_hv_domain_home_perms;
    Alcotest.test_case "hv destroy cleans up" `Quick test_hv_destroy_cleans_up;
    Alcotest.test_case "hv self shutdown" `Quick test_hv_shutdown_self;
    Alcotest.test_case "sched equal weights" `Quick test_sched_equal_weights;
    Alcotest.test_case "sched weighted shares" `Quick test_sched_weighted_shares;
    Alcotest.test_case "sched cap limits" `Quick test_sched_cap_limits;
    Alcotest.test_case "sched all capped idles" `Quick test_sched_all_capped_idles;
    Alcotest.test_case "sched remove/bad weight" `Quick test_sched_remove_and_bad_weight;
    Alcotest.test_case "sched latecomer" `Quick test_sched_latecomer_gets_share;
    QCheck_alcotest.to_alcotest prop_xenstore_matches_model;
  ]
