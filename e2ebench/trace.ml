(* In-memory spans for the traced run.

   The library carries no instrumentation: spans are opened and closed
   by the benchmark around its own calls into each layer's public entry
   points (and around the backend's router, a public mutable field). A
   span records kind, start, end, parent span and request id; a closed
   span adds its self time (duration minus the time its direct children
   cover) and its self allocation ([Gc.minor_words] delta minus the
   children's) to its kind's totals.

   Time is read from a monotonic clock from which {!excluded} removes
   work that is not part of the measured program — the twin replay —
   so that work neither inflates an open span nor the block timings. *)

type kind =
  | Client  (** one [Tenant.run_op] *)
  | Driver  (** one client transport round trip or one [Driver.pump_batch] *)
  | Submit  (** one [Driver.submit] *)
  | Monitor  (** one call of the backend's router *)
  | Save  (** [Host.suspend_vtpm] *)
  | Resume  (** [Host.resume_vtpm] *)
  | Export  (** [Migration.export] *)
  | Import  (** [Migration.import] on the standby host *)

let kinds = [ Client; Driver; Submit; Monitor; Save; Resume; Export; Import ]

let index = function
  | Client -> 0
  | Driver -> 1
  | Submit -> 2
  | Monitor -> 3
  | Save -> 4
  | Resume -> 5
  | Export -> 6
  | Import -> 7

let name = function
  | Client -> "client"
  | Driver -> "driver"
  | Submit -> "driver.submit"
  | Monitor -> "monitor"
  | Save -> "state.save"
  | Resume -> "state.resume"
  | Export -> "state.export"
  | Import -> "state.import"

let n_kinds = List.length kinds

(* --- Clock with exclusion ---------------------------------------------------- *)

(* [acc.{0}] excluded ns, [acc.{1}] excluded minor words; a float array so
   updates do not allocate. *)
let acc = Float.Array.make 2 0.0
let raw_ns () = Int64.to_float (Monotonic_clock.now ())
let now_ns () = raw_ns () -. Float.Array.get acc 0
let words () = Gc.minor_words () -. Float.Array.get acc 1

(* Run [f] outside the measured program and return its result with the
   host ns and minor words it took. *)
let excluded f =
  let w0 = Gc.minor_words () in
  let t0 = raw_ns () in
  let r = f () in
  let t1 = raw_ns () in
  let w1 = Gc.minor_words () in
  Float.Array.set acc 0 (Float.Array.get acc 0 +. (t1 -. t0));
  Float.Array.set acc 1 (Float.Array.get acc 1 +. (w1 -. w0));
  (r, t1 -. t0, w1 -. w0)

(* --- Span store ---------------------------------------------------------------- *)

let enabled = ref false

(* Spans closed while [window] is set also count towards the window's
   exact allocation totals (the seeded, fixed-size prefix of a run). *)
let window = ref false

let capacity = 1 lsl 18
let s_kind = Array.make capacity 0
let s_parent = Array.make capacity (-1)
let s_req = Array.make capacity 0
let s_start = Float.Array.make capacity 0.0
let s_end = Float.Array.make capacity 0.0
let stored = ref 0
let dropped = ref 0

(* Open spans: nesting is shallow (client > driver > monitor). *)
let max_depth = 16
let o_slot = Array.make max_depth (-1)
let o_kind = Array.make max_depth 0
let o_t0 = Float.Array.make max_depth 0.0
let o_w0 = Float.Array.make max_depth 0.0
let o_child_ns = Float.Array.make max_depth 0.0
let o_child_w = Float.Array.make max_depth 0.0
let depth = ref 0

(* Per-kind totals. *)
let calls = Array.make n_kinds 0
let self_ns = Float.Array.make n_kinds 0.0
let self_w = Float.Array.make n_kinds 0.0
let win_calls = Array.make n_kinds 0
let win_w = Float.Array.make n_kinds 0.0

(* Minor words the recorder itself allocates inside a parent per child
   span; measured by {!calibrate} and removed from parents' self words. *)
let child_overhead_w = ref 0.0

let enter kind req =
  let d = !depth in
  if d >= max_depth then invalid_arg "Trace: spans nested too deep";
  let slot =
    if !stored < capacity then begin
      let s = !stored in
      incr stored;
      s_kind.(s) <- index kind;
      s_parent.(s) <- (if d = 0 then -1 else o_slot.(d - 1));
      s_req.(s) <- req;
      s
    end
    else begin
      incr dropped;
      -1
    end
  in
  o_slot.(d) <- slot;
  o_kind.(d) <- index kind;
  Float.Array.set o_child_ns d 0.0;
  Float.Array.set o_child_w d 0.0;
  depth := d + 1;
  Float.Array.set o_w0 d (words ());
  Float.Array.set o_t0 d (now_ns ())

let leave () =
  let t1 = now_ns () in
  let w1 = words () in
  let d = !depth - 1 in
  depth := d;
  let t0 = Float.Array.get o_t0 d in
  let dur = t1 -. t0 and dw = w1 -. Float.Array.get o_w0 d in
  let k = o_kind.(d) in
  let slot = o_slot.(d) in
  if slot >= 0 then begin
    Float.Array.set s_start slot t0;
    Float.Array.set s_end slot t1
  end;
  let own_ns = dur -. Float.Array.get o_child_ns d in
  let own_w = dw -. Float.Array.get o_child_w d in
  calls.(k) <- calls.(k) + 1;
  Float.Array.set self_ns k (Float.Array.get self_ns k +. own_ns);
  Float.Array.set self_w k (Float.Array.get self_w k +. own_w);
  if !window then begin
    win_calls.(k) <- win_calls.(k) + 1;
    Float.Array.set win_w k (Float.Array.get win_w k +. own_w)
  end;
  if d > 0 then begin
    Float.Array.set o_child_ns (d - 1) (Float.Array.get o_child_ns (d - 1) +. dur);
    Float.Array.set o_child_w (d - 1)
      (Float.Array.get o_child_w (d - 1) +. dw +. !child_overhead_w)
  end

let span kind req f =
  if not !enabled then f ()
  else begin
    enter kind req;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let reset () =
  stored := 0;
  dropped := 0;
  depth := 0;
  Array.fill calls 0 n_kinds 0;
  Array.fill win_calls 0 n_kinds 0;
  Float.Array.fill self_ns 0 n_kinds 0.0;
  Float.Array.fill self_w 0 n_kinds 0.0;
  Float.Array.fill win_w 0 n_kinds 0.0

(* Measure the recorder's own allocation per child span: a parent with
   one empty child against a parent with none. *)
let calibrate () =
  let was = !enabled in
  enabled := true;
  child_overhead_w := 0.0;
  let parent_w with_child =
    reset ();
    span Client 0 (fun () -> if with_child then span Driver 0 (fun () -> ()));
    Float.Array.get self_w (index Client)
  in
  ignore (parent_w true);
  child_overhead_w := parent_w true -. parent_w false;
  reset ();
  enabled := was

let self_ns_of k = Float.Array.get self_ns (index k)
let calls_of k = calls.(index k)
let win_calls_of k = win_calls.(index k)
let win_words_of k = Float.Array.get win_w (index k)

(* Write the stored spans as tab-separated lines:
   id, name, start ns, end ns (relative to the first span), parent id
   (-1 for a root), request id. *)
let write_tsv path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
  let base = if !stored > 0 then Float.Array.get s_start 0 else 0.0 in
  let names = Array.of_list (List.map name kinds) in
  for i = 0 to !stored - 1 do
    Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\t%d\n" i names.(s_kind.(i))
      (Float.Array.get s_start i -. base)
      (Float.Array.get s_end i -. base)
      s_parent.(i) s_req.(i)
  done;
  close_out oc
