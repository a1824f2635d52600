(* XenStore: the hierarchical configuration store shared by toolstack,
   backends and guests, modelled on oxenstored.

   Per-node permissions follow xenstored's model: each node has an owner
   (full access), a default permission for everyone else, and per-domain
   ACL overrides. Privileged callers (dom0) bypass all checks — faithfully
   reproducing the weakness the paper's improvement works around: any
   dom0-resident tool can rewrite the frontend/backend wiring of a vTPM.

   Watches fire on any mutation at or below the watched path. Transactions
   are optimistic: operations are buffered and the commit fails if the
   store generation moved underneath. *)

type perm = Pnone | Pread | Pwrite | Prdwr

let perm_allows_read = function Pread | Prdwr -> true | Pnone | Pwrite -> false
let perm_allows_write = function Pwrite | Prdwr -> true | Pnone | Pread -> false

let perm_of_char = function
  | 'n' -> Some Pnone
  | 'r' -> Some Pread
  | 'w' -> Some Pwrite
  | 'b' -> Some Prdwr
  | _ -> None

let perm_to_char = function Pnone -> 'n' | Pread -> 'r' | Pwrite -> 'w' | Prdwr -> 'b'

type node = {
  mutable value : string;
  children : (string, node) Hashtbl.t;
  mutable owner : Domain.domid;
  mutable others : perm;
  mutable acl : (Domain.domid * perm) list;
}

type watch = { token : string; path : string list; callback : string -> unit }

type t = {
  root : node;
  mutable generation : int;
  mutable watches : watch list;
  is_privileged : Domain.domid -> bool;
}

let make_node ?(acl = []) ~owner ~others () =
  { value = ""; children = Hashtbl.create 4; owner; others; acl }

let create ?(is_privileged = fun d -> d = 0) () =
  { root = make_node ~owner:0 ~others:Pread (); generation = 0; watches = []; is_privileged }

(* Paths are '/'-separated; internally lists of components. *)
let split_path (p : string) : string list =
  List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let join_path comps = "/" ^ String.concat "/" comps

let rec find_node node = function
  | [] -> Some node
  | c :: rest -> (
      match Hashtbl.find_opt node.children c with
      | None -> None
      | Some child -> find_node child rest)

(* [find_node node (split_path p)] without building the component list:
   walk [p] in place. Components are the maximal runs of non-'/'
   characters, so empty components ("//", leading or trailing slashes)
   are skipped and "" or "/" name the root, exactly as [split_path]
   reads them. Only each looked-up component is copied out. *)
let find_path node (p : string) =
  let len = String.length p in
  let rec component_end i = if i < len && p.[i] <> '/' then component_end (i + 1) else i in
  let rec walk node i =
    if i >= len then Some node
    else if p.[i] = '/' then walk node (i + 1)
    else
      let j = component_end i in
      match Hashtbl.find_opt node.children (String.sub p i (j - i)) with
      | None -> None
      | Some child -> walk child j
  in
  walk node 0

let node_perm_for node domid =
  if domid = node.owner then Prdwr
  else match List.assoc_opt domid node.acl with Some p -> p | None -> node.others

let can_read t ~caller node = t.is_privileged caller || perm_allows_read (node_perm_for node caller)

let can_write t ~caller node =
  t.is_privileged caller || perm_allows_write (node_perm_for node caller)

let fire_watches t (path : string list) =
  let rec is_prefix pre full =
    match (pre, full) with
    | [], _ -> true
    | p :: pre', f :: full' -> p = f && is_prefix pre' full'
    | _ :: _, [] -> false
  in
  let path_str = join_path path in
  List.iter (fun w -> if is_prefix w.path path then w.callback path_str) t.watches

type error = Eacces | Enoent | Eexist | Einval | Eagain

let error_name = function
  | Eacces -> "EACCES"
  | Enoent -> "ENOENT"
  | Eexist -> "EEXIST"
  | Einval -> "EINVAL"
  | Eagain -> "EAGAIN"

(* --- Core operations (non-transactional) ---------------------------------- *)

let read t ~caller path : (string, error) result =
  match find_path t.root path with
  | None -> Error Enoent
  | Some n -> if can_read t ~caller n then Ok n.value else Error Eacces

let directory t ~caller path : (string list, error) result =
  match find_path t.root path with
  | None -> Error Enoent
  | Some n ->
      if can_read t ~caller n then
        Ok (List.sort Stdlib.compare (Hashtbl.fold (fun k _ acc -> k :: acc) n.children []))
      else Error Eacces

(* Write creates intermediate nodes (xenstored mkdir-on-write semantics);
   created nodes are owned by the caller and inherit the parent's default
   permission. *)
let write t ~caller path value : (unit, error) result =
  let comps = split_path path in
  if comps = [] then Error Einval
  else begin
    let rec descend node = function
      | [] ->
          if can_write t ~caller node then begin
            node.value <- value;
            Ok ()
          end
          else Error Eacces
      | c :: rest -> (
          match Hashtbl.find_opt node.children c with
          | Some child -> descend child rest
          | None ->
              if not (can_write t ~caller node) then Error Eacces
              else begin
                (* Children inherit the parent's default permission and
                   ACL, as toolstacks rely on when pre-chmodding a dir. *)
                let child = make_node ~acl:node.acl ~owner:caller ~others:node.others () in
                Hashtbl.replace node.children c child;
                descend child rest
              end)
    in
    match descend t.root comps with
    | Ok () ->
        t.generation <- t.generation + 1;
        fire_watches t comps;
        Ok ()
    | Error e -> Error e
  end

let mkdir t ~caller path : (unit, error) result =
  match find_path t.root path with
  | Some _ -> Ok () (* mkdir on existing node is a no-op *)
  | None -> write t ~caller path ""

let rm t ~caller path : (unit, error) result =
  let comps = split_path path in
  match List.rev comps with
  | [] -> Error Einval
  | leaf :: rev_parent -> (
      let parent_path = List.rev rev_parent in
      match find_node t.root parent_path with
      | None -> Error Enoent
      | Some parent -> (
          match Hashtbl.find_opt parent.children leaf with
          | None -> Error Enoent
          | Some node ->
              if can_write t ~caller node || can_write t ~caller parent then begin
                Hashtbl.remove parent.children leaf;
                t.generation <- t.generation + 1;
                fire_watches t comps;
                Ok ()
              end
              else Error Eacces))

let get_perms t ~caller path : (Domain.domid * perm * (Domain.domid * perm) list, error) result =
  match find_path t.root path with
  | None -> Error Enoent
  | Some n -> if can_read t ~caller n then Ok (n.owner, n.others, n.acl) else Error Eacces

(* Only the node owner (or dom0) may change permissions. *)
let set_perms t ~caller path ~owner ~others ~acl : (unit, error) result =
  match find_path t.root path with
  | None -> Error Enoent
  | Some n ->
      if t.is_privileged caller || caller = n.owner then begin
        n.owner <- owner;
        n.others <- others;
        n.acl <- acl;
        t.generation <- t.generation + 1;
        Ok ()
      end
      else Error Eacces

(* --- Watches ---------------------------------------------------------------- *)

let watch t ~token ~path callback =
  t.watches <- { token; path = split_path path; callback } :: t.watches

let unwatch t ~token = t.watches <- List.filter (fun w -> w.token <> token) t.watches

(* --- Transactions ------------------------------------------------------------

   Optimistic: reads go straight to the store, writes are buffered;
   commit re-checks the generation and applies atomically or fails with
   EAGAIN (the caller retries, as real xenstore clients do). *)

type tx_op = Tx_write of string * string | Tx_rm of string

type transaction = { started_gen : int; mutable ops : tx_op list; caller : Domain.domid }

let tx_begin t ~caller = { started_gen = t.generation; ops = []; caller }
let tx_write tx path value = tx.ops <- Tx_write (path, value) :: tx.ops
let tx_rm tx path = tx.ops <- Tx_rm path :: tx.ops

let tx_commit t (tx : transaction) : (unit, error) result =
  if t.generation <> tx.started_gen then Error Eagain
  else begin
    let rec apply = function
      | [] -> Ok ()
      | Tx_write (p, v) :: rest -> (
          match write t ~caller:tx.caller p v with Ok () -> apply rest | Error e -> Error e)
      | Tx_rm p :: rest -> (
          match rm t ~caller:tx.caller p with Ok () -> apply rest | Error e -> Error e)
    in
    apply (List.rev tx.ops)
  end
