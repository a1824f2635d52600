(* Credit scheduler (simplified Xen credit1).

   Each runnable domain holds credits refilled every accounting period in
   proportion to its weight; the scheduler always runs the domain with the
   most credit and burns credits for time consumed. An optional cap bounds
   a domain's share regardless of spare capacity.

   The workload driver uses it to decide which tenant issues the next vTPM
   request, so CPU-share policy shapes vTPM throughput per tenant — the
   weighted-share experiment checks the proportions come out right. *)

type vcpu = {
  domid : Domain.domid;
  weight : int; (* relative share, like xl sched-credit -w *)
  cap_pct : int option; (* hard ceiling in percent of one CPU *)
  mutable credit : float;
  mutable runtime_us : float; (* total time received *)
  mutable period_runtime_us : float; (* time received this accounting period *)
}

type t = {
  mutable vcpus : vcpu list;
  period_us : float; (* accounting period *)
  mutable period_elapsed_us : float;
}

let default_period_us = 30_000.0 (* Xen credit1 accounts every 30 ms *)

let create ?(period_us = default_period_us) () =
  { vcpus = []; period_us; period_elapsed_us = 0.0 }

(* Distribute one period's worth of credit proportionally to weight. *)
let refill t =
  let total_weight = List.fold_left (fun acc v -> acc + v.weight) 0 t.vcpus in
  if total_weight > 0 then
    List.iter
      (fun v ->
        let share = float_of_int v.weight /. float_of_int total_weight in
        (* Cap unused accumulation at one period's share so an idle domain
           cannot hoard unbounded credit. *)
        v.credit <- Float.min (t.period_us *. share) (v.credit +. (t.period_us *. share));
        v.period_runtime_us <- 0.0)
      t.vcpus

let add t ~domid ~weight ?cap_pct () =
  if weight <= 0 then invalid_arg "Sched.add: weight must be positive";
  let v =
    { domid; weight; cap_pct; credit = 0.0; runtime_us = 0.0; period_runtime_us = 0.0 }
  in
  t.vcpus <- t.vcpus @ [ v ];
  refill t

let remove t ~domid = t.vcpus <- List.filter (fun v -> v.domid <> domid) t.vcpus

let find t domid = List.find_opt (fun v -> v.domid = domid) t.vcpus

(* A vcpu is runnable unless its cap for this period is exhausted. *)
let runnable t v =
  match v.cap_pct with
  | None -> true
  | Some cap -> v.period_runtime_us < t.period_us *. (float_of_int cap /. 100.0)

(* The runnable vcpu with the most credit, without charging anything. *)
let pick t : Domain.domid option =
  let best =
    List.fold_left
      (fun acc v ->
        if not (runnable t v) then acc
        else
          match acc with
          | None -> Some v
          | Some b -> if v.credit > b.credit then Some v else acc)
      None t.vcpus
  in
  Option.map (fun v -> v.domid) best

let advance_period t ~us =
  t.period_elapsed_us <- t.period_elapsed_us +. us;
  if t.period_elapsed_us >= t.period_us then begin
    t.period_elapsed_us <- 0.0;
    refill t
  end

(* Charge [us] of consumed time to a domain (after the work ran, when its
   real duration is known). *)
let charge t ~domid ~us =
  (match find t domid with
  | Some v ->
      v.credit <- v.credit -. us;
      v.runtime_us <- v.runtime_us +. us;
      v.period_runtime_us <- v.period_runtime_us +. us
  | None -> ());
  advance_period t ~us

(* Pick the runnable vcpu with the most credit and charge it [slice_us].
   Returns [None] when nothing is runnable (all capped out). *)
let tick t ~slice_us : Domain.domid option =
  match pick t with
  | None ->
      (* Everyone capped: burn idle time toward the next period. *)
      advance_period t ~us:slice_us;
      None
  | Some domid ->
      charge t ~domid ~us:slice_us;
      Some domid

(* Run the scheduler for [total_us] in [slice_us] steps; returns each
   domain's share of the time actually handed out. *)
let shares t ~total_us ~slice_us : (Domain.domid * float) list =
  let steps = int_of_float (total_us /. slice_us) in
  for _ = 1 to steps do
    ignore (tick t ~slice_us)
  done;
  let granted = List.fold_left (fun acc v -> acc +. v.runtime_us) 0.0 t.vcpus in
  List.map
    (fun v -> (v.domid, if granted > 0.0 then v.runtime_us /. granted else 0.0))
    t.vcpus
