(* JSON values for the experiment records, and their one printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let fixed d x = if Float.is_nan x then Null else Float (float_of_string (Printf.sprintf "%.*f" d x))

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec inline = function
  | Null -> "null"
  | Bool x -> string_of_bool x
  | Int i -> string_of_int i
  | Float x -> if Float.is_finite x then float_repr x else "null"
  | String s -> quote s
  | List l -> "[" ^ String.concat ", " (List.map inline l) ^ "]"
  | Obj fields ->
      "{" ^ String.concat ", " (List.map (fun (k, x) -> quote k ^ ": " ^ inline x) fields) ^ "}"

(* Lists of scalars (or of such lists) stay on one line, and so does a
   list element that is an object of scalars: one table row per line. *)
let rec flat = function Obj _ -> false | List l -> List.for_all flat l | _ -> true
let row = function Obj fields -> List.for_all (fun (_, x) -> flat x) fields | v -> flat v

let to_string v =
  let b = Buffer.create 1024 in
  let rec emit ind = function
    | Obj (_ :: _ as fields) -> block ind "{" "}" (List.map (fun (k, x) -> (quote k ^ ": ", x)) fields)
    | List l when not (flat (List l)) -> block ind "[" "]" (List.map (fun x -> ("", x)) l)
    | v -> Buffer.add_string b (inline v)
  and block ind opening closing items =
    let inner = ind ^ "  " in
    Buffer.add_string b (opening ^ "\n");
    List.iteri
      (fun i (key, x) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (inner ^ key);
        if key = "" && row x then Buffer.add_string b (inline x) else emit inner x)
      items;
    Buffer.add_string b ("\n" ^ ind ^ closing)
  in
  emit "" v;
  Buffer.add_char b '\n';
  Buffer.contents b
