(* One hardware-TPM anchor slot: the code every anchor shares (see the
   interface). The raw ops return the client's error untouched so the
   journaled service in [Vtpm_access.Anchor] can classify and retry
   them; [commit] and [read] are the single-attempt paths. *)

open Vtpm_tpm
module Verror = Vtpm_util.Verror

type slot = {
  label : string;
  nv_index : int;
  counter_handle : int;
  counter_auth : string;
  size : int;
}

let ( let* ) = Result.bind

(* Typed boundary for raw client errors: transient chip trouble keeps
   its retryability ([Unavailable]), TPM codes keep their identity. *)
let error what (e : Client.error) : Verror.t =
  if Client.transient e then Verror.Unavailable (Fmt.str "%s: %a" what Client.pp_error e)
  else
    match e with
    | Client.Tpm rc -> Verror.Tpm_error rc
    | Client.Transport m -> Verror.Internal (Printf.sprintf "%s: %s" what m)

let counter_of_resp (resp : Cmd.response) =
  match resp.Cmd.body with
  | Cmd.R_counter { handle; value; _ } -> Ok (handle, value)
  | _ -> Error (Client.Transport "unexpected counter response")

(* One-time: define the NV space (owner-write) and create the counter. *)
let define (mgr : Manager.t) ~label ~nv_index ~size ~counter_label ~auth_prefix :
    (slot, Verror.t) result =
  let hw = Manager.hw_client mgr in
  let counter_auth = Vtpm_crypto.Sha1.digest (auth_prefix ^ mgr.Manager.hw_owner_auth) in
  let attrs = { Types.nv_attrs_default with Types.nv_owner_write = true } in
  Result.map_error (error (label ^ " define"))
    (Manager.with_hw_session hw (Manager.Oiap mgr.Manager.hw_owner_auth) (fun sess ->
         let* () = Client.nv_define hw ~session:sess ~continue:true ~index:nv_index ~size ~attrs () in
         let* resp =
           Client.authorized ~continue:false hw sess ~make_req:(fun auth ->
               Cmd.Create_counter { label = counter_label; counter_auth; auth })
         in
         let* counter_handle, _ = counter_of_resp resp in
         Ok { label; nv_index; counter_handle; counter_auth; size }))

let write_nv hw ~owner_auth slot data =
  Manager.with_hw_session hw (Manager.Oiap owner_auth) (fun sess ->
      Client.nv_write hw ~session:sess ~continue:false ~index:slot.nv_index ~offset:0 ~data ())

let read_nv hw slot = Client.nv_read hw ~index:slot.nv_index ~offset:0 ~length:slot.size ()

let bump_counter hw slot =
  Manager.with_hw_session hw (Manager.Oiap slot.counter_auth) (fun sess ->
      let* resp =
        Client.authorized ~continue:false hw sess ~make_req:(fun auth ->
            Cmd.Increment_counter { handle = slot.counter_handle; auth })
      in
      Result.map snd (counter_of_resp resp))

let read_counter hw slot =
  let* resp = Client.exchange hw (Cmd.Read_counter { handle = slot.counter_handle }) in
  Result.map snd (counter_of_resp resp)

let commit (mgr : Manager.t) slot ~data : (int, Verror.t) result =
  let hw = Manager.hw_client mgr in
  let* () =
    Result.map_error (error (slot.label ^ " nv-write"))
      (write_nv hw ~owner_auth:mgr.Manager.hw_owner_auth slot data)
  in
  Result.map_error (error (slot.label ^ " counter-bump")) (bump_counter hw slot)

let read (mgr : Manager.t) slot : (string * int, Verror.t) result =
  let hw = Manager.hw_client mgr in
  let* data = Result.map_error (error (slot.label ^ " nv-read")) (read_nv hw slot) in
  let* counter = Result.map_error (error (slot.label ^ " counter-read")) (read_counter hw slot) in
  Ok (data, counter)
