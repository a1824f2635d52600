(* SHA-256 (FIPS 180-4). Used for the hash-chained audit log and for the
   state-sealing MAC, where a longer digest than TPM 1.2's SHA-1 is
   appropriate. Incremental API mirroring [Sha1].

   Word-level hot path as in [Sha1]: native-int words masked to 32 bits
   (the worst-case temp1 sum of five 32-bit values stays under 2^35, well
   inside the 63-bit int), unrolled compression loop over a preallocated
   schedule, and full blocks compressed straight out of the caller's
   string. *)

type ctx = {
  h : int array; (* 8 words of chaining state *)
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int; (* message bytes so far; a native int never boxes *)
}

let digest_size = 32
let block_size = 64
let mask32 = 0xffffffff

let kt =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
    0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
  |]

let init () = { h = Array.copy iv; buf = Bytes.create block_size; buf_len = 0; total = 0 }

let w = Array.make 64 0
let kw = Array.make 16 0 (* w.(i) + kt.(i) for the first sixteen rounds *)

(* Two-round groups hand-unrolled in SSA form, as in [Sha1]: each round
   produces two new values (the next a and e), the other six roles are
   pure renaming, and after two rounds the names line up again. This
   build has no flambda, so the straight-line let-chain is what keeps
   the working words in registers; wider groups were measured slower
   here (the eight-word state plus round temporaries exceeds x86-64's
   register file and the allocator starts spilling). The message
   schedule for rounds 16..63 is fused into the groups, so its
   independent rotate/xor chains fill the stalls of the serially-
   dependent round sums; the first sixteen k+w sums are precomputed
   during the byte load. Sums are ordered so the previous round's
   result is added last (shortest critical path), [Ch]/[Maj] use the
   two-op forms, and intermediate sums skip masking (garbage above bit
   31 never carries downward); only rotation inputs are re-masked.
   Byte loads are unchecked under [feed_sub]'s bound check. *)
let process_block ctx (s : string) off =
  for i = 0 to 15 do
    let j = off + (4 * i) in
    let v =
      (Char.code (String.unsafe_get s j) lsl 24)
      lor (Char.code (String.unsafe_get s (j + 1)) lsl 16)
      lor (Char.code (String.unsafe_get s (j + 2)) lsl 8)
      lor Char.code (String.unsafe_get s (j + 3))
    in
    Array.unsafe_set w i v;
    Array.unsafe_set kw i (v + Array.unsafe_get kt i)
  done;
  let a = ref (Array.unsafe_get ctx.h 0) and b = ref (Array.unsafe_get ctx.h 1) in
  let c = ref (Array.unsafe_get ctx.h 2) and d = ref (Array.unsafe_get ctx.h 3) in
  let e = ref (Array.unsafe_get ctx.h 4) and f = ref (Array.unsafe_get ctx.h 5) in
  let g = ref (Array.unsafe_get ctx.h 6) and hh = ref (Array.unsafe_get ctx.h 7) in
  let i = ref 0 in
  while !i < 16 do
    let i0 = !i in
    let a0 = !a and b0 = !b and c0 = !c and d0 = !d in
    let e0 = !e and f0 = !f and g0 = !g and h0 = !hh in
    let t1 = h0 + Array.unsafe_get kw i0 + (g0 lxor (e0 land (f0 lxor g0))) + (((e0 lsr 6) lor (e0 lsl 26)) lxor ((e0 lsr 11) lor (e0 lsl 21)) lxor ((e0 lsr 25) lor (e0 lsl 7))) in
    let a1 = (t1 + ((a0 land b0) lor (c0 land (a0 lxor b0))) + (((a0 lsr 2) lor (a0 lsl 30)) lxor ((a0 lsr 13) lor (a0 lsl 19)) lxor ((a0 lsr 22) lor (a0 lsl 10)))) land mask32 in
    let e1 = (d0 + t1) land mask32 in
    let t1 = g0 + Array.unsafe_get kw (i0 + 1) + (f0 lxor (e1 land (e0 lxor f0))) + (((e1 lsr 6) lor (e1 lsl 26)) lxor ((e1 lsr 11) lor (e1 lsl 21)) lxor ((e1 lsr 25) lor (e1 lsl 7))) in
    let a2 = (t1 + ((a1 land a0) lor (b0 land (a1 lxor a0))) + (((a1 lsr 2) lor (a1 lsl 30)) lxor ((a1 lsr 13) lor (a1 lsl 19)) lxor ((a1 lsr 22) lor (a1 lsl 10)))) land mask32 in
    let e2 = (c0 + t1) land mask32 in
    a := a2;
    b := a1;
    c := a0;
    d := b0;
    e := e2;
    f := e1;
    g := e0;
    hh := f0;
    i := i0 + 2
  done;
  while !i < 64 do
    let i0 = !i in
    let a0 = !a and b0 = !b and c0 = !c and d0 = !d in
    let e0 = !e and f0 = !f and g0 = !g and h0 = !hh in
    let x0 = Array.unsafe_get w (i0 + -15) in
    let s00 = ((x0 lsr 7) lor (x0 lsl 25)) lxor ((x0 lsr 18) lor (x0 lsl 14)) lxor (x0 lsr 3) in
    let y0 = Array.unsafe_get w (i0 + -2) in
    let s10 = ((y0 lsr 17) lor (y0 lsl 15)) lxor ((y0 lsr 19) lor (y0 lsl 13)) lxor (y0 lsr 10) in
    let w0v =
      (Array.unsafe_get w (i0 + -16) + s00 + Array.unsafe_get w (i0 + -7) + s10) land mask32
    in
    Array.unsafe_set w (i0 + 0) w0v;
    let x1 = Array.unsafe_get w (i0 + -14) in
    let s01 = ((x1 lsr 7) lor (x1 lsl 25)) lxor ((x1 lsr 18) lor (x1 lsl 14)) lxor (x1 lsr 3) in
    let y1 = Array.unsafe_get w (i0 + -1) in
    let s11 = ((y1 lsr 17) lor (y1 lsl 15)) lxor ((y1 lsr 19) lor (y1 lsl 13)) lxor (y1 lsr 10) in
    let w1v =
      (Array.unsafe_get w (i0 + -15) + s01 + Array.unsafe_get w (i0 + -6) + s11) land mask32
    in
    Array.unsafe_set w (i0 + 1) w1v;
    let t1 = h0 + (Array.unsafe_get kt i0 + w0v) + (g0 lxor (e0 land (f0 lxor g0))) + (((e0 lsr 6) lor (e0 lsl 26)) lxor ((e0 lsr 11) lor (e0 lsl 21)) lxor ((e0 lsr 25) lor (e0 lsl 7))) in
    let a1 = (t1 + ((a0 land b0) lor (c0 land (a0 lxor b0))) + (((a0 lsr 2) lor (a0 lsl 30)) lxor ((a0 lsr 13) lor (a0 lsl 19)) lxor ((a0 lsr 22) lor (a0 lsl 10)))) land mask32 in
    let e1 = (d0 + t1) land mask32 in
    let t1 = g0 + (Array.unsafe_get kt (i0 + 1) + w1v) + (f0 lxor (e1 land (e0 lxor f0))) + (((e1 lsr 6) lor (e1 lsl 26)) lxor ((e1 lsr 11) lor (e1 lsl 21)) lxor ((e1 lsr 25) lor (e1 lsl 7))) in
    let a2 = (t1 + ((a1 land a0) lor (b0 land (a1 lxor a0))) + (((a1 lsr 2) lor (a1 lsl 30)) lxor ((a1 lsr 13) lor (a1 lsl 19)) lxor ((a1 lsr 22) lor (a1 lsl 10)))) land mask32 in
    let e2 = (c0 + t1) land mask32 in
    a := a2;
    b := a1;
    c := a0;
    d := b0;
    e := e2;
    f := e1;
    g := e0;
    hh := f0;
    i := i0 + 2
  done;
  ctx.h.(0) <- (ctx.h.(0) + !a) land mask32;
  ctx.h.(1) <- (ctx.h.(1) + !b) land mask32;
  ctx.h.(2) <- (ctx.h.(2) + !c) land mask32;
  ctx.h.(3) <- (ctx.h.(3) + !d) land mask32;
  ctx.h.(4) <- (ctx.h.(4) + !e) land mask32;
  ctx.h.(5) <- (ctx.h.(5) + !f) land mask32;
  ctx.h.(6) <- (ctx.h.(6) + !g) land mask32;
  ctx.h.(7) <- (ctx.h.(7) + !hh) land mask32

let feed_sub ctx (s : string) ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = block_size then begin
      process_block ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* Full blocks compress straight from the input, no staging copy. *)
  while stop - !pos >= block_size do
    process_block ctx s !pos;
    pos := !pos + block_size
  done;
  if stop - !pos > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let feed ctx (s : string) = feed_sub ctx s ~off:0 ~len:(String.length s)

let feed_bytes ctx (b : Bytes.t) ~off ~len =
  (* Read-only view during the call; the caller may reuse [b] afterwards. *)
  feed_sub ctx (Bytes.unsafe_to_string b) ~off ~len

(* Pad directly into the pending block: one compression (two when the
   length field does not fit) instead of per-byte [feed] round-trips. *)
let finalize_into ctx dst ~off =
  if off < 0 || off > Bytes.length dst - digest_size then invalid_arg "Sha256.finalize_into";
  let bit_len = Int64.mul (Int64.of_int ctx.total) 8L in
  let n = ctx.buf_len in
  Bytes.set ctx.buf n '\x80';
  if n >= 56 then begin
    Bytes.fill ctx.buf (n + 1) (block_size - n - 1) '\x00';
    process_block ctx (Bytes.unsafe_to_string ctx.buf) 0;
    Bytes.fill ctx.buf 0 56 '\x00'
  end
  else Bytes.fill ctx.buf (n + 1) (56 - (n + 1)) '\x00';
  Bytes.set_int64_be ctx.buf 56 bit_len;
  process_block ctx (Bytes.unsafe_to_string ctx.buf) 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out ~off:0;
  Bytes.unsafe_to_string out

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* One-shot digests reuse a module-level scratch context, so the hot path
   allocates only the 32-byte result. Safe: [digest] never nests (the
   module is already serialized by the shared message schedule [w]). *)
let scratch = lazy (init ())

let digest (s : string) : string =
  let ctx = Lazy.force scratch in
  reset ctx;
  feed ctx s;
  finalize ctx

(* Digest of the concatenation without building it: one context walk over
   the parts. Merkle-node hashing (tag ^ left ^ right) is the heavy
   caller. *)
let digest_concat (parts : string list) : string =
  let ctx = Lazy.force scratch in
  reset ctx;
  List.iter (fun s -> feed ctx s) parts;
  finalize ctx

let hexdigest s = Vtpm_util.Hex.encode (digest s)
