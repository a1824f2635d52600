(* The TPM 1.2 engine: owns the PCR bank, NV storage, key hierarchy,
   authorization sessions and monotonic counters, and executes structured
   commands ([Cmd.request]) at a given locality.

   One [Engine.t] backs each vTPM instance, and one more plays the
   hardware TPM at the bottom of the trust chain. Determinism: all
   randomness flows from the per-instance DRBG and the keygen RNG, both
   seeded at creation. *)

open Vtpm_crypto

type owner = { owner_auth : string; mutable srk : Keystore.material }
type counter = { label : string; mutable value : int; counter_auth : string }

type t = {
  rsa_bits : int;
  pcrs : Pcr.t;
  nv : Nvram.t;
  keys : Keystore.t;
  sessions : Auth.t;
  drbg : Drbg.t;
  keygen_rng : Vtpm_util.Rng.t;
  ek : Keystore.material;
  mutable owner : owner option;
  counters : (int, counter) Hashtbl.t;
  mutable next_counter_handle : int;
  mutable started : bool;
}

let seal_context = "tpm-sealed-data"
let well_known_auth = String.make Types.digest_size '\x00'

let make_material ~rng ~bits ~usage ~usage_auth ~migratable ~pcr_bound ~pcr_digest =
  {
    Keystore.usage;
    rsa = Rsa.generate ~bits rng;
    usage_auth;
    migratable;
    pcr_bound;
    pcr_digest_at_creation = pcr_digest;
  }

let create ?(rsa_bits = 512) ~seed () =
  let drbg = Drbg.instantiate ~seed:(Printf.sprintf "tpm-%d" seed) in
  let keygen_rng = Vtpm_util.Rng.create ~seed:(seed * 2654435761) in
  let ek =
    make_material ~rng:keygen_rng ~bits:rsa_bits ~usage:Types.Legacy
      ~usage_auth:well_known_auth ~migratable:false
      ~pcr_bound:(Types.Pcr_selection.of_list []) ~pcr_digest:None
  in
  {
    rsa_bits;
    pcrs = Pcr.create ();
    nv = Nvram.create ();
    keys = Keystore.create ();
    sessions = Auth.create ~drbg ();
    drbg;
    keygen_rng;
    ek;
    owner = None;
    counters = Hashtbl.create 4;
    next_counter_handle = 0x03000000;
    started = false;
  }

let composite_now t sel = Pcr.composite_hash t.pcrs sel
let pcr_value t i = Pcr.read t.pcrs i
let has_owner t = t.owner <> None

(* Resolve a key handle to its material. *)
let find_key t handle : (Keystore.material, int) result =
  if handle = Types.kh_srk then
    match t.owner with
    | Some o -> Ok o.srk
    | None -> Error Types.tpm_nosrk
  else if handle = Types.kh_ek then Ok t.ek
  else Result.map (fun (l : Keystore.loaded) -> l.material) (Keystore.find t.keys handle)

(* A key bound to PCRs is only usable while the composite matches. *)
let key_pcr_ok t (m : Keystore.material) =
  match m.pcr_digest_at_creation with
  | None -> true
  | Some digest ->
      Types.Pcr_selection.is_empty m.pcr_bound
      || String.equal (composite_now t m.pcr_bound) digest

let verify_auth t ~proof ~usage_secret ~entity_handle ~req =
  Auth.verify t.sessions ~proof ~usage_secret ~entity_handle
    ~param_digest:(Cmd.param_digest req)

(* Owner-authorized commands authenticate against the owner secret with the
   reserved owner "entity" handle. *)
let owner_entity_handle = 0x40000001

let with_owner_auth t ~proof ~req k =
  match t.owner with
  | None -> Cmd.error Types.tpm_nosrk
  | Some o -> (
      match
        verify_auth t ~proof ~usage_secret:o.owner_auth ~entity_handle:owner_entity_handle ~req
      with
      | Error rc -> Cmd.error rc
      | Ok nonce_even ->
          let resp = k o in
          { resp with Cmd.nonce_even = Some nonce_even })

let with_key_auth t ~proof ~handle ~req k =
  match find_key t handle with
  | Error rc -> Cmd.error rc
  | Ok m -> (
      match verify_auth t ~proof ~usage_secret:m.Keystore.usage_auth ~entity_handle:handle ~req with
      | Error rc -> Cmd.error rc
      | Ok nonce_even ->
          if not (key_pcr_ok t m) then Cmd.error Types.tpm_wrongpcrval
          else begin
            let resp = k m in
            { resp with Cmd.nonce_even = Some nonce_even }
          end)

(* --- Sealed blobs ------------------------------------------------------- *)

let serialize_sealed ~pcr_sel ~composite ~blob_auth ~data =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_sized w (Types.Pcr_selection.to_bitmap pcr_sel);
  Vtpm_util.Codec.write_bytes w composite;
  Vtpm_util.Codec.write_sized w blob_auth;
  Vtpm_util.Codec.write_sized w data;
  Vtpm_util.Codec.contents w

let deserialize_sealed s =
  match
    let r = Vtpm_util.Codec.reader s in
    let sel = Types.Pcr_selection.of_bitmap (Vtpm_util.Codec.read_sized r) in
    let composite = Vtpm_util.Codec.read_bytes r Types.digest_size in
    let blob_auth = Vtpm_util.Codec.read_sized r in
    let data = Vtpm_util.Codec.read_sized r in
    (sel, composite, blob_auth, data)
  with
  | v -> Ok v
  | exception Vtpm_util.Codec.Truncated _ -> Error Types.tpm_notsealed_blob

(* --- Quote --------------------------------------------------------------- *)

(* TPM_QUOTE_INFO: version, "QUOT", composite hash, external data. *)
let quote_info ~composite ~external_data = "\x01\x01\x00\x00" ^ "QUOT" ^ composite ^ external_data

let verify_quote ~(pubkey : Rsa.public) ~composite ~external_data ~signature =
  Rsa.verify pubkey
    ~digest:(Sha1.digest (quote_info ~composite ~external_data))
    ~signature

(* --- Whole-TPM state (vTPM suspend/resume/migration) --------------------

   Serializes everything persistent *and* the loaded transient keys, so a
   suspended vTPM resumes exactly where it stopped. Auth sessions are
   deliberately dropped (TPM semantics: sessions do not survive a save),
   which the replay-across-migration test depends on. *)

let serialize_state (t : t) : string =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_u16 w t.rsa_bits;
  Vtpm_util.Codec.write_u8 w (if t.started then 1 else 0);
  Pcr.serialize t.pcrs w;
  Nvram.serialize t.nv w;
  Vtpm_util.Codec.write_sized w (Keystore.serialize_material t.ek);
  (match t.owner with
  | None -> Vtpm_util.Codec.write_u8 w 0
  | Some o ->
      Vtpm_util.Codec.write_u8 w 1;
      Vtpm_util.Codec.write_sized w o.owner_auth;
      Vtpm_util.Codec.write_sized w (Keystore.serialize_material o.srk));
  (* Counters *)
  let counters = Hashtbl.fold (fun h c acc -> (h, c) :: acc) t.counters [] in
  let counters = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) counters in
  Vtpm_util.Codec.write_u32_int w (List.length counters);
  List.iter
    (fun (h, c) ->
      Vtpm_util.Codec.write_u32_int w h;
      Vtpm_util.Codec.write_sized w c.label;
      Vtpm_util.Codec.write_u32_int w c.value;
      Vtpm_util.Codec.write_sized w c.counter_auth)
    counters;
  Vtpm_util.Codec.write_u32_int w t.next_counter_handle;
  (* DRBG + keygen RNG *)
  Vtpm_util.Codec.write_sized w t.drbg.Drbg.v;
  Vtpm_util.Codec.write_u64 w t.keygen_rng.Vtpm_util.Rng.state;
  (* Loaded transient keys *)
  let keys = Hashtbl.fold (fun h l acc -> (h, l) :: acc) t.keys.Keystore.handles [] in
  let keys = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) keys in
  Vtpm_util.Codec.write_u32_int w (List.length keys);
  List.iter
    (fun (h, (l : Keystore.loaded)) ->
      Vtpm_util.Codec.write_u32_int w h;
      Vtpm_util.Codec.write_u32_int w l.parent;
      Vtpm_util.Codec.write_sized w (Keystore.serialize_material l.material))
    keys;
  Vtpm_util.Codec.write_u32_int w t.keys.Keystore.next_handle;
  Vtpm_util.Codec.contents w

let deserialize_state (s : string) : (t, string) result =
  let material_exn what bytes =
    match Keystore.deserialize_material bytes with
    | Ok m -> m
    | Error _ -> failwith ("bad key material: " ^ what)
  in
  match
    let r = Vtpm_util.Codec.reader s in
    let rsa_bits = Vtpm_util.Codec.read_u16 r in
    let started = Vtpm_util.Codec.read_u8 r = 1 in
    let pcrs = Pcr.deserialize r in
    let nv = Nvram.deserialize r in
    let ek = material_exn "ek" (Vtpm_util.Codec.read_sized r) in
    let owner =
      if Vtpm_util.Codec.read_u8 r = 1 then begin
        let owner_auth = Vtpm_util.Codec.read_sized r in
        let srk = material_exn "srk" (Vtpm_util.Codec.read_sized r) in
        Some { owner_auth; srk }
      end
      else None
    in
    let counters = Hashtbl.create 4 in
    let n_counters = Vtpm_util.Codec.read_u32_int r in
    for _ = 1 to n_counters do
      let h = Vtpm_util.Codec.read_u32_int r in
      let label = Vtpm_util.Codec.read_sized r in
      let value = Vtpm_util.Codec.read_u32_int r in
      let counter_auth = Vtpm_util.Codec.read_sized r in
      Hashtbl.replace counters h { label; value; counter_auth }
    done;
    let next_counter_handle = Vtpm_util.Codec.read_u32_int r in
    let drbg_v = Vtpm_util.Codec.read_sized r in
    let rng_state = Vtpm_util.Codec.read_u64 r in
    let keys = Keystore.create () in
    let n_keys = Vtpm_util.Codec.read_u32_int r in
    for _ = 1 to n_keys do
      let h = Vtpm_util.Codec.read_u32_int r in
      let parent = Vtpm_util.Codec.read_u32_int r in
      let material = material_exn "loaded" (Vtpm_util.Codec.read_sized r) in
      Hashtbl.replace keys.Keystore.handles h { Keystore.material; parent }
    done;
    keys.Keystore.next_handle <- Vtpm_util.Codec.read_u32_int r;
    let drbg = { Drbg.v = drbg_v; reseed_counter = 0 } in
    {
      rsa_bits;
      pcrs;
      nv;
      keys;
      sessions = Auth.create ~drbg ();
      drbg;
      keygen_rng = { Vtpm_util.Rng.state = rng_state };
      ek;
      owner;
      counters;
      next_counter_handle;
      started;
    }
  with
  | t -> Ok t
  | exception Vtpm_util.Codec.Truncated m -> Error ("truncated TPM state: " ^ m)
  | exception Failure m -> Error m

(* --- Command execution --------------------------------------------------- *)

let execute t ~locality (req : Cmd.request) : Cmd.response =
  match req with
  | Cmd.Startup _ ->
      t.started <- true;
      Cmd.ok Cmd.R_ok
  | Cmd.Self_test_full -> Cmd.ok Cmd.R_ok
  | Cmd.Get_capability { cap; sub } ->
      let payload =
        if cap = Types.cap_property && sub = Types.cap_prop_pcr then
          let w = Vtpm_util.Codec.writer () in
          Vtpm_util.Codec.write_u32_int w Types.pcr_count;
          Some (Vtpm_util.Codec.contents w)
        else if cap = Types.cap_property && sub = Types.cap_prop_manufacturer then Some "OCML"
        else if cap = Types.cap_version then Some "\x01\x02\x00\x00"
        else if cap = Types.cap_handle && (sub = Types.rt_auth || sub = Types.rt_key) then begin
          (* TPM_KEY_HANDLE_LIST: u16 count, then the handles *)
          let hs =
            if sub = Types.rt_auth then Auth.handles t.sessions
            else List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.keys.Keystore.handles [])
          in
          let w = Vtpm_util.Codec.writer () in
          Vtpm_util.Codec.write_u16 w (List.length hs);
          List.iter (Vtpm_util.Codec.write_u32_int w) hs;
          Some (Vtpm_util.Codec.contents w)
        end
        else None
      in
      (match payload with
      | Some p -> Cmd.ok (Cmd.R_capability p)
      | None -> Cmd.error Types.tpm_bad_parameter)
  | Cmd.Extend { pcr; digest } -> (
      match Pcr.extend t.pcrs ~locality pcr digest with
      | Ok v -> Cmd.ok (Cmd.R_extend { new_value = v })
      | Error rc -> Cmd.error rc)
  | Cmd.Pcr_read { pcr } -> (
      match Pcr.read t.pcrs pcr with
      | Ok v -> Cmd.ok (Cmd.R_pcr_value v)
      | Error rc -> Cmd.error rc)
  | Cmd.Pcr_reset { pcr } -> (
      match Pcr.reset t.pcrs ~locality pcr with
      | Ok () -> Cmd.ok Cmd.R_ok
      | Error rc -> Cmd.error rc)
  | Cmd.Get_random { length } ->
      if length <= 0 || length > 4096 then Cmd.error Types.tpm_bad_parameter
      else Cmd.ok (Cmd.R_random (Drbg.generate t.drbg length))
  | Cmd.Stir_random { data } ->
      Drbg.reseed t.drbg ~entropy:data;
      Cmd.ok Cmd.R_ok
  | Cmd.Oiap -> (
      match Auth.start_oiap t.sessions with
      | Ok (handle, nonce_even) ->
          Cmd.ok (Cmd.R_session { handle; nonce_even; nonce_even_osap = None })
      | Error rc -> Cmd.error rc)
  | Cmd.Osap { entity_handle; nonce_odd_osap } -> (
      let usage_secret =
        if entity_handle = owner_entity_handle then
          match t.owner with Some o -> Ok o.owner_auth | None -> Error Types.tpm_nosrk
        else Result.map (fun (m : Keystore.material) -> m.usage_auth) (find_key t entity_handle)
      in
      match usage_secret with
      | Error rc -> Cmd.error rc
      | Ok usage_secret -> (
          match Auth.start_osap t.sessions ~entity_handle ~usage_secret ~nonce_odd_osap with
          | Ok (handle, nonce_even, nonce_even_osap) ->
              Cmd.ok (Cmd.R_session { handle; nonce_even; nonce_even_osap = Some nonce_even_osap })
          | Error rc -> Cmd.error rc))
  | Cmd.Take_ownership { owner_auth; srk_auth } ->
      if has_owner t then Cmd.error Types.tpm_owner_set
      else begin
        let srk =
          make_material ~rng:t.keygen_rng ~bits:t.rsa_bits ~usage:Types.Storage
            ~usage_auth:srk_auth ~migratable:false
            ~pcr_bound:(Types.Pcr_selection.of_list []) ~pcr_digest:None
        in
        t.owner <- Some { owner_auth; srk };
        Cmd.ok (Cmd.R_pubkey srk.rsa.pub)
      end
  | Cmd.Owner_clear { auth } ->
      with_owner_auth t ~proof:auth ~req (fun _o ->
          t.owner <- None;
          Keystore.clear t.keys;
          Hashtbl.reset t.counters;
          Cmd.ok Cmd.R_ok)
  | Cmd.Force_clear ->
      (* Physical-presence clear: only from locality 4 (platform). *)
      if locality < 4 then Cmd.error Types.tpm_bad_locality
      else begin
        t.owner <- None;
        Keystore.clear t.keys;
        Hashtbl.reset t.counters;
        Cmd.ok Cmd.R_ok
      end
  | Cmd.Read_pubek ->
      if has_owner t then Cmd.error Types.tpm_no_endorsement
      else Cmd.ok (Cmd.R_pubkey t.ek.rsa.pub)
  | Cmd.Create_wrap_key { parent; usage; key_auth; migratable; pcr_bound; auth } ->
      if usage <> Types.Signing && usage <> Types.Storage && usage <> Types.Bind then
        Cmd.error Types.tpm_invalid_keyusage
      else
        with_key_auth t ~proof:auth ~handle:parent ~req (fun parent_m ->
            if parent_m.Keystore.usage <> Types.Storage then Cmd.error Types.tpm_invalid_keyusage
            else begin
              let pcr_digest =
                if Types.Pcr_selection.is_empty pcr_bound then None
                else Some (composite_now t pcr_bound)
              in
              let child =
                make_material ~rng:t.keygen_rng ~bits:t.rsa_bits ~usage ~usage_auth:key_auth
                  ~migratable ~pcr_bound ~pcr_digest
              in
              let blob = Keystore.wrap ~parent:parent_m child in
              Cmd.ok (Cmd.R_key_blob { blob; pubkey = child.rsa.pub })
            end)
  | Cmd.Load_key2 { parent; blob; auth } ->
      with_key_auth t ~proof:auth ~handle:parent ~req (fun parent_m ->
          if parent_m.Keystore.usage <> Types.Storage then Cmd.error Types.tpm_invalid_keyusage
          else
            match Keystore.unwrap ~parent:parent_m blob with
            | Error rc -> Cmd.error rc
            | Ok child -> (
                match Keystore.insert t.keys ~parent child with
                | Ok handle -> Cmd.ok (Cmd.R_key_handle handle)
                | Error rc -> Cmd.error rc))
  | Cmd.Flush_specific { handle } ->
      (* TPM_RT_AUTH-style flush: auth-session handles (0x02000000+) and
         transient key handles (0x01000000+) occupy disjoint ranges, so one
         command serves both resource types as in TPM 1.2. *)
      if Auth.mem t.sessions handle then begin
        Auth.terminate t.sessions handle;
        Cmd.ok Cmd.R_ok
      end
      else (
        match Keystore.evict t.keys handle with
        | Ok () -> Cmd.ok Cmd.R_ok
        | Error rc -> Cmd.error rc)
  | Cmd.Seal { key; pcr_sel; blob_auth; data; auth } ->
      with_key_auth t ~proof:auth ~handle:key ~req (fun key_m ->
          if key_m.Keystore.usage <> Types.Storage then Cmd.error Types.tpm_invalid_keyusage
          else begin
            let composite = composite_now t pcr_sel in
            let plain = serialize_sealed ~pcr_sel ~composite ~blob_auth ~data in
            let nonce8 = String.sub (Drbg.generate t.drbg 8) 0 8 in
            let sealed = Keystore.protect ~key:key_m ~context:seal_context ~nonce8 plain in
            Cmd.ok (Cmd.R_sealed sealed)
          end)
  | Cmd.Unseal { key; blob; key_auth; data_auth } -> (
      (* AUTH2: first session proves the key's usage secret ... *)
      match find_key t key with
      | Error rc -> Cmd.error rc
      | Ok key_m -> (
          match
            verify_auth t ~proof:key_auth ~usage_secret:key_m.Keystore.usage_auth
              ~entity_handle:key ~req
          with
          | Error rc -> Cmd.error rc
          | Ok nonce_even -> (
              if key_m.Keystore.usage <> Types.Storage then Cmd.error Types.tpm_invalid_keyusage
              else
                match Keystore.unprotect ~key:key_m ~context:seal_context blob with
                | Error _ -> Cmd.error Types.tpm_notsealed_blob
                | Ok plain -> (
                    match deserialize_sealed plain with
                    | Error rc -> Cmd.error rc
                    | Ok (sel, composite, blob_auth, data) -> (
                        (* ... second session proves the blob secret. *)
                        match
                          verify_auth t ~proof:data_auth ~usage_secret:blob_auth
                            ~entity_handle:key ~req
                        with
                        | Error rc -> Cmd.error rc
                        | Ok _ ->
                            if
                              (not (Types.Pcr_selection.is_empty sel))
                              && not (String.equal (composite_now t sel) composite)
                            then Cmd.error Types.tpm_wrongpcrval
                            else { (Cmd.ok (Cmd.R_unsealed data)) with nonce_even = Some nonce_even })))))
  | Cmd.Sign { key; digest; auth } ->
      with_key_auth t ~proof:auth ~handle:key ~req (fun key_m ->
          if key_m.Keystore.usage <> Types.Signing then Cmd.error Types.tpm_invalid_keyusage
          else Cmd.ok (Cmd.R_signature (Rsa.sign key_m.rsa ~digest)))
  | Cmd.Quote { key; external_data; pcr_sel; auth } ->
      if String.length external_data <> Types.digest_size then Cmd.error Types.tpm_bad_parameter
      else
        with_key_auth t ~proof:auth ~handle:key ~req (fun key_m ->
            if key_m.Keystore.usage <> Types.Signing && key_m.Keystore.usage <> Types.Identity
            then Cmd.error Types.tpm_invalid_keyusage
            else begin
              let composite = composite_now t pcr_sel in
              let digest = Sha1.digest (quote_info ~composite ~external_data) in
              let signature = Rsa.sign key_m.rsa ~digest in
              Cmd.ok (Cmd.R_quote { composite; signature; sig_pubkey = key_m.rsa.pub })
            end)
  | Cmd.Nv_define_space { index; size; attrs; auth } -> (
      let define () =
        match Nvram.define t.nv ~index ~size ~attrs with
        | Ok () -> Cmd.ok Cmd.R_ok
        | Error rc -> Cmd.error rc
      in
      match auth with
      | Some proof -> with_owner_auth t ~proof ~req (fun _ -> define ())
      | None -> if has_owner t then Cmd.error Types.tpm_authfail else define ())
  | Cmd.Nv_write_value { index; offset; data; auth } -> (
      let owner_authorized = auth <> None in
      let write () =
        match
          Nvram.write t.nv ~index ~offset ~data ~owner_authorized
            ~composite_now:(composite_now t)
            ~expected_digest:None
        with
        | Ok () -> Cmd.ok Cmd.R_ok
        | Error rc -> Cmd.error rc
      in
      match auth with
      | Some proof -> with_owner_auth t ~proof ~req (fun _ -> write ())
      | None -> write ())
  | Cmd.Nv_read_value { index; offset; length; auth } -> (
      let owner_authorized = auth <> None in
      let read () =
        match
          Nvram.read t.nv ~index ~offset ~length ~owner_authorized
            ~composite_now:(composite_now t)
            ~expected_digest:None
        with
        | Ok data -> Cmd.ok (Cmd.R_nv_data data)
        | Error rc -> Cmd.error rc
      in
      match auth with
      | Some proof -> with_owner_auth t ~proof ~req (fun _ -> read ())
      | None -> read ())
  | Cmd.Create_counter { label; counter_auth; auth } ->
      if String.length label <> 4 then Cmd.error Types.tpm_bad_parameter
      else
        with_owner_auth t ~proof:auth ~req (fun _ ->
            let handle = t.next_counter_handle in
            t.next_counter_handle <- t.next_counter_handle + 1;
            Hashtbl.replace t.counters handle { label; value = 0; counter_auth };
            Cmd.ok (Cmd.R_counter { handle; label; value = 0 }))
  | Cmd.Increment_counter { handle; auth } -> (
      match Hashtbl.find_opt t.counters handle with
      | None -> Cmd.error Types.tpm_bad_counter
      | Some c -> (
          match
            verify_auth t ~proof:auth ~usage_secret:c.counter_auth ~entity_handle:handle ~req
          with
          | Error rc -> Cmd.error rc
          | Ok nonce_even ->
              c.value <- c.value + 1;
              {
                (Cmd.ok (Cmd.R_counter { handle; label = c.label; value = c.value })) with
                nonce_even = Some nonce_even;
              }))
  | Cmd.Read_counter { handle } -> (
      match Hashtbl.find_opt t.counters handle with
      | None -> Cmd.error Types.tpm_bad_counter
      | Some c -> Cmd.ok (Cmd.R_counter { handle; label = c.label; value = c.value }))
  | Cmd.Release_counter { handle; auth } -> (
      match Hashtbl.find_opt t.counters handle with
      | None -> Cmd.error Types.tpm_bad_counter
      | Some c -> (
          match
            verify_auth t ~proof:auth ~usage_secret:c.counter_auth ~entity_handle:handle ~req
          with
          | Error rc -> Cmd.error rc
          | Ok nonce_even ->
              Hashtbl.remove t.counters handle;
              { (Cmd.ok Cmd.R_ok) with nonce_even = Some nonce_even }))
  | Cmd.Save_state -> Cmd.ok (Cmd.R_saved_state (serialize_state t))
