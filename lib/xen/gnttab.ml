(* Grant tables: page sharing with explicit, revocable permission.

   A domain grants a specific foreign domain access to one of its frames;
   the grantee maps it by (granter, gref). The hypervisor enforces that
   only the named grantee maps the grant — a third domain holding a
   guessed gref gets nothing, which the unauthorized-mapping attack test
   verifies. *)

type gref = int

type access = Read_only | Read_write

type grant = {
  gref : gref;
  owner : Domain.domid;
  grantee : Domain.domid;
  frame : int;
  access : access;
  mutable in_use : bool; (* currently mapped by grantee *)
  mutable revoked : bool;
}

(* [generation] moves on every mutation of the table, so a mapping side
   that validated every grant it holds can skip re-validation until the
   generation moves again. *)
type t = {
  grants : (Domain.domid * gref, grant) Hashtbl.t;
  next_ref : (Domain.domid, int) Hashtbl.t;
  mutable generation : int;
}

let create () = { grants = Hashtbl.create 32; next_ref = Hashtbl.create 8; generation = 0 }
let generation t = t.generation
let bump t = t.generation <- t.generation + 1

let grant_access t ~owner ~grantee ~frame ~access : gref =
  let r = Option.value ~default:1 (Hashtbl.find_opt t.next_ref owner) in
  Hashtbl.replace t.next_ref owner (r + 1);
  Hashtbl.replace t.grants (owner, r)
    { gref = r; owner; grantee; frame; access; in_use = false; revoked = false };
  bump t;
  r

(* Map a foreign frame: the caller must be the named grantee. Returns the
   frame number in the owner's space (the simulation reads/writes through
   the owner's page table). *)
let map t ~caller ~owner ~gref : (int * access, string) result =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> Error (Printf.sprintf "no grant %d from domain %d" gref owner)
  | Some g ->
      if g.revoked then Error "grant revoked"
      else if g.grantee <> caller then
        Error (Printf.sprintf "grant %d from domain %d is for domain %d, not %d" gref owner g.grantee caller)
      else begin
        g.in_use <- true;
        bump t;
        Ok (g.frame, g.access)
      end

(* Unmapping is the grantee's own act; anyone else asking is a protocol
   violation and must hear about it — a silently ignored unmap is how a
   revoke-while-mapped turns into a use-after-revoke nobody noticed. *)
let unmap t ~caller ~owner ~gref : (unit, string) result =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> Error (Printf.sprintf "no grant %d from domain %d" gref owner)
  | Some g ->
      if g.grantee <> caller then
        Error
          (Printf.sprintf "grant %d from domain %d is mapped by domain %d, not %d" gref owner
             g.grantee caller)
      else if not g.in_use then
        Error (Printf.sprintf "grant %d from domain %d is not mapped" gref owner)
      else begin
        g.in_use <- false;
        bump t;
        Ok ()
      end

(* End a grant; fails while the grantee still has it mapped, as on real
   Xen where gnttab_end_foreign_access must wait. Idempotent on an
   already-revoked grant. *)
let revoke t ~owner ~gref : (unit, string) result =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> Error "no such grant"
  | Some g ->
      if g.in_use then Error "grant still mapped by grantee"
      else begin
        g.revoked <- true;
        bump t;
        Ok ()
      end

(* The misbehaving-owner variant: tear the grant away even while the
   grantee still has it mapped (what an owner yanking the page, or a
   rogue dom0 tool driving the owner's grant table, actually does). The
   mapping side must detect this before trusting the page again — the
   driver's transport-integrity check. *)
let force_revoke t ~owner ~gref : (unit, string) result =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> Error "no such grant"
  | Some g ->
      g.revoked <- true;
      bump t;
      Ok ()

(* Hetzelt-style page remapping: point the grant at a different backing
   frame. On real hardware this is a second-level address translation
   rewrite by a compromised hypervisor-side component; here it models the
   same capability — the grantee keeps reading and writing, but through a
   frame the adversary chose. *)
let remap t ~owner ~gref ~frame : (unit, string) result =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> Error "no such grant"
  | Some g ->
      Hashtbl.replace t.grants (owner, gref) { g with frame };
      bump t;
      Ok ()

(* Integrity view for the mapping side: does the grant still exist, what
   frame does it back, is it revoked? The driver compares this against
   what it recorded at connect time. *)
let inspect t ~owner ~gref : (int * bool * bool) option =
  match Hashtbl.find_opt t.grants (owner, gref) with
  | None -> None
  | Some g -> Some (g.frame, g.in_use, g.revoked)

let revoke_all_for t domid =
  Hashtbl.iter (fun _ g -> if g.owner = domid || g.grantee = domid then g.revoked <- true) t.grants;
  bump t
