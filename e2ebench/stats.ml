(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 1]. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))

(* Median with the usual midpoint for even counts. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Samples ranked above the [p] percentile's rank: the p99 of a set
   needs at least ten of these to mean anything. *)
let beyond s p =
  let n = Array.length s in
  n - int_of_float (Float.ceil (p *. float_of_int n))

(* A growable float buffer with a fixed ceiling, allocated up front so a
   run's heap does not depend on how many samples the box produced. *)
module Buf = struct
  type t = { data : Float.Array.t; mutable len : int }

  let create cap = { data = Float.Array.make cap 0.0; len = 0 }

  let add b x =
    if b.len < Float.Array.length b.data then begin
      Float.Array.set b.data b.len x;
      b.len <- b.len + 1
    end

  let to_array b = Array.init b.len (Float.Array.get b.data)
  let length b = b.len
end
