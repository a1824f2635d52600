(* The baseline: the 2006-design manager front-end, reproduced faithfully
   so every experiment can compare against it.

   Properties (all of which the attacks in [Vtpm_attacks] exploit):
   - requests are routed by the *claimed* instance number in the frame;
   - there is no per-command policy — any reachable instance accepts any
     command;
   - any dom0 process may perform any management operation, no credential;
   - state is saved in plaintext and migration streams are plaintext. *)

type t = { xen : Vtpm_xen.Hypervisor.t; mgr : Vtpm_mgr.Manager.t }

let create ~xen ~mgr = { xen; mgr }

(* Instance-number routing, exactly as vtpm_managerd did. *)
let router t : Vtpm_mgr.Driver.router =
 fun ~sender:_ ~claimed_instance ~wire ->
  match Vtpm_mgr.Manager.find t.mgr claimed_instance with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok inst -> (
      match Vtpm_mgr.Manager.execute_wire t.mgr inst ~wire with
      | Ok resp -> Ok resp
      | Error e -> Error (Vtpm_util.Verror.to_string e))

(* Management: no authentication, no policy, plaintext state. [process] is
   accepted and ignored — any dom0 tool may call these. *)
let save_instance t ~process:_ ~vtpm_id : (string, string) result =
  match Vtpm_mgr.Manager.find t.mgr vtpm_id with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok inst -> Vtpm_mgr.Stateproc.save t.mgr inst ~format:Vtpm_mgr.Stateproc.Plain

let restore_instance t ~process:_ ~blob : (int, string) result =
  match Vtpm_mgr.Stateproc.load t.mgr blob with
  | Error e -> Error e
  | Ok (engine, _) -> Ok (Vtpm_mgr.Manager.adopt_instance t.mgr engine).Vtpm_mgr.Manager.vtpm_id

let migrate_out t ~process:_ ~vtpm_id : (string, string) result =
  match Vtpm_mgr.Manager.find t.mgr vtpm_id with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok inst -> (
      match
        Vtpm_mgr.Migration.export t.mgr inst ~mode:Vtpm_mgr.Migration.Plaintext ~dest_key:None
      with
      | Error e -> Error e
      | Ok stream ->
          Vtpm_mgr.Migration.finalize_source t.mgr inst;
          Ok stream)

let migrate_in t ~process:_ ~stream : (int, string) result =
  Result.map
    (fun (i : Vtpm_mgr.Manager.instance) -> i.Vtpm_mgr.Manager.vtpm_id)
    (Vtpm_mgr.Migration.import t.mgr stream)
