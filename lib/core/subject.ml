(* Subjects: who is asking.

   The 2006 vTPM manager had a single notion of requester — "whatever
   wrote the instance number into the frame". The improvement's first
   move is an explicit subject identity with two provenances:

   - [Guest d]: an unprivileged domain, identified by the hypervisor
     (ring/event-channel endpoint). Unforgeable from inside the guest.
   - [Dom0_process name]: a process in the control domain. The hypervisor
     cannot tell dom0 processes apart; the manager daemon authenticates
     local callers by a per-process credential (modelled as a registered
     token), so "some root tool in dom0" is no longer equivalent to "the
     vTPM manager". *)

type t = Guest of Vtpm_xen.Domain.domid | Dom0_process of string

let equal a b =
  match (a, b) with
  | Guest x, Guest y -> x = y
  | Dom0_process x, Dom0_process y -> String.equal x y
  | _ -> false

let pp ppf = function
  | Guest d -> Fmt.pf ppf "guest:%d" d
  | Dom0_process p -> Fmt.pf ppf "dom0:%s" p

(* Same bytes as [pp], without a formatter: every audited request pays
   for this string. *)
let to_string = function Guest d -> "guest:" ^ string_of_int d | Dom0_process p -> "dom0:" ^ p

(* Stable key for decision caching. *)
let cache_key = function Guest d -> (0, string_of_int d) | Dom0_process p -> (1, p)

(* Resolve the security label of a subject. Guests carry the label the
   toolstack assigned at build time; dom0 processes are labelled by
   convention "dom0:<process>". *)
let label ~(xen : Vtpm_xen.Hypervisor.t) = function
  | Dom0_process p -> "dom0:" ^ p
  | Guest d -> (
      match Vtpm_xen.Hypervisor.find_domain xen d with
      | Ok dom -> dom.Vtpm_xen.Domain.label
      | Error _ -> "invalid")

(* Registered credentials for dom0 processes: the manager daemon holds a
   token table; a caller proves its process identity by presenting the
   matching token. The baseline has no such table — any dom0 process is
   fully trusted. *)
module Credentials = struct
  type nonrec t = (string, string) Hashtbl.t (* process -> token digest *)

  let create () = Hashtbl.create 4

  let register t ~process ~token =
    Hashtbl.replace t process (Vtpm_crypto.Sha256.digest token)

  let verify t ~process ~token =
    match Hashtbl.find_opt t process with
    | None -> false
    | Some digest -> Vtpm_crypto.Hmac.equal_ct digest (Vtpm_crypto.Sha256.digest token)
end
