(* Arbitrary-precision natural numbers.

   The environment ships no bignum library (no zarith), and the vTPM key
   hierarchy needs RSA, so the repo carries its own naturals. Little-endian
   limbs in base 2^30: a 30x30-bit product plus carries stays below 2^62,
   inside OCaml's 63-bit native int, so schoolbook multiplication needs no
   intermediate boxing.

   Only naturals are provided; the one signed computation (extended
   Euclid for the RSA private exponent) tracks signs explicitly in
   [mod_inverse]. *)

type t = int array (* little-endian limbs, no trailing zero limb; zero = [||] *)

let limb_bits = 30
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1
let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec build v acc = if v = 0 then List.rev acc else build (v lsr limb_bits) ((v land limb_mask) :: acc) in
  Array.of_list (build v [])

let to_int_opt (a : t) =
  (* Fits when at most ~62 bits. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !v >= 1 lsl (62 - limb_bits) then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

(* a - b; requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Bignum.sub: underflow";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Bignum.sub: underflow";
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = (ai * b.(j)) + out.(i + j) + !carry in
        out.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    normalize out
  end

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la && bits > 0 then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Long division producing (quotient, remainder): limb-based Knuth
   Algorithm D. The earlier binary shift-subtract allocated two bignums
   per bit position, which made modular reduction — hence every RSA
   operation, hence keygen during the fuzzer's full-stack soaks — the
   repo's hottest path. One quotient limb per pass, all intermediates in
   native ints (30x30-bit products stay under 2^62). Output is bit-for-bit
   identical to the old routine, so deterministic key material is
   unchanged. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and lb = Array.length b in
    if lb = 1 then begin
      (* Single-limb divisor: one linear pass. *)
      let d = b.(0) in
      let q = Array.make la 0 in
      let r = ref 0 in
      for i = la - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, of_int !r)
    end
    else begin
      (* D1: normalize so the divisor's top limb has its high bit set —
         the quotient-digit estimate below is then off by at most 2. *)
      let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
      let s = limb_bits - width b.(lb - 1) 0 in
      let v = Array.make lb 0 in
      let carry = ref 0 in
      for i = 0 to lb - 1 do
        let x = (b.(i) lsl s) lor !carry in
        v.(i) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      let u = Array.make (la + 1) 0 in
      carry := 0;
      for i = 0 to la - 1 do
        let x = (a.(i) lsl s) lor !carry in
        u.(i) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      u.(la) <- !carry;
      let m = la - lb in
      let q = Array.make (m + 1) 0 in
      let vtop = v.(lb - 1) and vnext = v.(lb - 2) in
      for j = m downto 0 do
        (* D3: estimate the quotient digit from the top limbs, then
           correct the (rare) off-by-one-or-two overshoot. *)
        let num = (u.(j + lb) lsl limb_bits) lor u.(j + lb - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        let adjusting = ref true in
        while
          !adjusting
          && (!qhat >= limb_base
             || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + lb - 2))
        do
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= limb_base then adjusting := false
        done;
        (* D4: u[j..j+lb] -= qhat * v, fused multiply-subtract. *)
        let mul_carry = ref 0 and borrow = ref 0 in
        for i = 0 to lb - 1 do
          let p = (!qhat * v.(i)) + !mul_carry in
          mul_carry := p lsr limb_bits;
          let d = u.(i + j) - (p land limb_mask) - !borrow in
          if d < 0 then begin
            u.(i + j) <- d + limb_base;
            borrow := 1
          end
          else begin
            u.(i + j) <- d;
            borrow := 0
          end
        done;
        let d = u.(j + lb) - !mul_carry - !borrow in
        if d < 0 then begin
          (* D6: estimate was one too large — add the divisor back. *)
          u.(j + lb) <- d + limb_base;
          decr qhat;
          let add_carry = ref 0 in
          for i = 0 to lb - 1 do
            let x = u.(i + j) + v.(i) + !add_carry in
            u.(i + j) <- x land limb_mask;
            add_carry := x lsr limb_bits
          done;
          u.(j + lb) <- (u.(j + lb) + !add_carry) land limb_mask
        end
        else u.(j + lb) <- d;
        q.(j) <- !qhat
      done;
      (* D8: denormalize the remainder. *)
      (normalize q, shift_right (normalize (Array.sub u 0 lb)) s)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let is_even (a : t) = is_zero a || a.(0) land 1 = 0
let mod_add m a b = rem (add a b) m
let mod_mul m a b = rem (mul a b) m

(* Modular exponentiation, square-and-multiply MSB-first. Kept as the
   reference implementation: [mod_pow] below dispatches here for even
   moduli, and the differential property tests pin the Montgomery path
   against this one. *)
let mod_pow_schoolbook ~modulus base exp =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let base = rem base modulus in
    let result = ref one in
    for i = num_bits exp - 1 downto 0 do
      result := mod_mul modulus !result !result;
      if test_bit exp i then result := mod_mul modulus !result base
    done;
    !result
  end

(* Montgomery arithmetic for odd moduli. Every RSA private operation is a
   long chain of multiplications mod the same n; schoolbook [mod_mul] pays
   a full Knuth-D division per product. REDC replaces the division with
   multiply-accumulates and a shift: with R = 2^(30k) for a k-limb modulus,
   mont_mul computes a*b*R^-1 mod m in one fused pass (CIOS), so only the
   context setup (R^2 mod m) and the entry reduction touch [divmod]. *)
module Montgomery = struct
  (* Plain data, no closures: keys that embed a context keep structural
     equality. *)
  type ctx = {
    m : t; (* odd modulus, also the limb array of length k *)
    k : int;
    m0' : int; (* -m^-1 mod 2^30, for the REDC quotient digit *)
    r2 : int array; (* R^2 mod m zero-extended to k limbs: mont_mul by it enters Montgomery form *)
  }

  (* Zero-extend a value < m to [n] limbs. *)
  let widen n (a : t) =
    let out = Array.make n 0 in
    Array.blit a 0 out 0 (Array.length a);
    out

  let ctx ~modulus:(m : t) =
    if is_zero m || is_even m then invalid_arg "Bignum.Montgomery.ctx: modulus must be odd";
    if equal m one then invalid_arg "Bignum.Montgomery.ctx: modulus must exceed 1";
    let k = Array.length m in
    (* m.(0)^-1 mod 2^30 by Hensel lifting: x <- x*(2 - m0*x) doubles the
       number of correct low bits each step; m0 itself is correct mod 8. *)
    let m0 = m.(0) in
    let inv = ref m0 in
    for _ = 1 to 5 do
      inv := (!inv * (2 - (m0 * !inv))) land limb_mask
    done;
    let m0' = (limb_base - !inv) land limb_mask in
    let r2 = widen k (rem (shift_left one (2 * k * limb_bits)) m) in
    { m; k; m0'; r2 }

  (* Fused CIOS: t <- a*b*R^-1 mod m. [a] and [b] hold values < m in their
     low k limbs; [t] is a distinct (k+1)-limb buffer, and on return its
     top limb is zero. Round i adds a_i*b + u*m to the running value and
     drops its (zero) low limb, with u chosen from t[0] + a_i*b[0] before
     the inner loop. Each inner step sums a limb, two 30x30-bit products
     and a carry below 2^32: under 2^61 + 2^32 < 2^62, inside a native int.
     The running value stays < 2m, so t[k] is 0 or 1 and one conditional
     subtraction lands the result < m. Only [mod_pow] calls this, with
     buffers it sized itself, hence the unchecked accesses. *)
  let mont_mul c (a : int array) (b : int array) (t : int array) =
    let k = c.k and m = c.m and m0' = c.m0' in
    Array.fill t 0 (k + 1) 0;
    let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
    for i = 0 to k - 1 do
      let ai = Array.unsafe_get a i in
      let x0 = Array.unsafe_get t 0 + (ai * b0) in
      let u = ((x0 land limb_mask) * m0') land limb_mask in
      let carry = ref ((x0 + (u * m0)) lsr limb_bits) in
      for j = 1 to k - 1 do
        let x =
          Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (u * Array.unsafe_get m j) + !carry
        in
        Array.unsafe_set t (j - 1) (x land limb_mask);
        carry := x lsr limb_bits
      done;
      let x = Array.unsafe_get t k + !carry in
      Array.unsafe_set t (k - 1) (x land limb_mask);
      Array.unsafe_set t k (x lsr limb_bits)
    done;
    let ge =
      t.(k) > 0
      ||
      let rec cmp i = if i < 0 then true else if t.(i) <> m.(i) then t.(i) > m.(i) else cmp (i - 1) in
      cmp (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = t.(j) - m.(j) - !borrow in
        if d < 0 then begin
          t.(j) <- d + limb_base;
          borrow := 1
        end
        else begin
          t.(j) <- d;
          borrow := 0
        end
      done;
      t.(k) <- 0
    end

  (* Sliding-window size by exponent width: the odd-powers table costs
     2^(w-1) mont_muls up front and saves roughly one multiply per w-1
     squarings, so wider windows only pay off for longer exponents. *)
  let window_bits ebits = if ebits <= 24 then 1 else if ebits <= 96 then 3 else if ebits <= 512 then 4 else 5

  let mod_pow c base exp =
    let k = c.k in
    let e_bits = num_bits exp in
    if e_bits = 0 then rem one c.m
    else begin
      let base = rem base c.m in
      if is_zero base then zero
      else begin
        (* Every working buffer is k+1 limbs, the width mont_mul writes. *)
        let buf () = Array.make (k + 1) 0 in
        let g = buf () in
        mont_mul c (widen k base) c.r2 g;
        let w = window_bits e_bits in
        (* tbl.(i) = g^(2i+1) in Montgomery form. *)
        let tbl = Array.make (1 lsl (w - 1)) g in
        if w > 1 then begin
          let g2 = buf () in
          mont_mul c g g g2;
          for i = 1 to Array.length tbl - 1 do
            let x = buf () in
            mont_mul c tbl.(i - 1) g2 x;
            tbl.(i) <- x
          done
        end;
        (* Each product lands in [spare], which then becomes [acc]. *)
        let acc = ref (buf ()) and spare = ref (buf ()) in
        let step b =
          let a = !acc in
          mont_mul c a b !spare;
          acc := !spare;
          spare := a
        in
        let started = ref false in
        let i = ref (e_bits - 1) in
        while !i >= 0 do
          if not (test_bit exp !i) then begin
            if !started then step !acc;
            decr i
          end
          else begin
            (* Largest window [j..i] of width <= w ending on a set bit:
               its value is odd, so it indexes the odd-powers table. *)
            let lo = max 0 (!i - w + 1) in
            let j = ref lo in
            while not (test_bit exp !j) do
              incr j
            done;
            let v = ref 0 in
            for b = !i downto !j do
              v := (!v lsl 1) lor (if test_bit exp b then 1 else 0)
            done;
            if !started then begin
              for _ = 1 to !i - !j + 1 do
                step !acc
              done;
              step tbl.(!v lsr 1)
            end
            else begin
              Array.blit tbl.(!v lsr 1) 0 !acc 0 (k + 1);
              started := true
            end;
            i := !j - 1
          end
        done;
        (* Exit Montgomery form: multiply by 1 is a bare REDC. *)
        let one_k = buf () in
        one_k.(0) <- 1;
        step one_k;
        normalize !acc
      end
    end
end

(* Modular exponentiation: Montgomery + sliding window for odd moduli,
   schoolbook square-and-multiply otherwise. Results are bit-identical
   across the two paths. Callers that exponentiate repeatedly against one
   modulus (RSA keys) hold a [Montgomery.ctx] instead of paying its setup
   here on every call. *)
let mod_pow ~modulus base exp =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_even modulus then mod_pow_schoolbook ~modulus base exp
  else Montgomery.mod_pow (Montgomery.ctx ~modulus) base exp

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Modular inverse of [a] mod [m] via extended Euclid with explicit signs.
   Returns [None] when gcd(a, m) <> 1. *)
let mod_inverse ~modulus:m a =
  (* Invariants: r_old = s_old * a (mod m) with sign tracking. *)
  let rec go r_old s_old neg_old r s neg =
    if is_zero r then
      if equal r_old one then
        Some (if neg_old then sub m (rem s_old m) else rem s_old m)
      else None
    else begin
      let q, r' = divmod r_old r in
      (* s' = s_old - q * s, with signs. *)
      let qs = mul q s in
      let s', neg' =
        if neg_old = neg then
          if compare s_old qs >= 0 then (sub s_old qs, neg_old) else (sub qs s_old, not neg_old)
        else (add s_old qs, neg_old)
      in
      go r s neg r' s' neg'
    end
  in
  let a = rem a m in
  if is_zero a then None else go m zero false a one false

(* Big-endian byte-string conversions (the TPM wire format for keys), one
   linear bit-packing pass each: a native-int bit buffer collects bytes
   (from the string's end) into 30-bit limbs, or limbs into bytes. The
   buffer never holds more than 8 + 30 bits. *)
let of_bytes_be (s : string) : t =
  let len = String.length s in
  let out = Array.make (((len * 8) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for pos = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s pos) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!li) <- !acc land limb_mask;
      incr li;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then out.(!li) <- !acc;
  normalize out

(* Write the low [len] bytes of [a] big-endian into [out.(0 .. len-1)],
   zero-filling above the value's top limb. *)
let blit_be (a : t) (out : Bytes.t) len =
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for pos = len - 1 downto 0 do
    if !bits < 8 then begin
      if !li < Array.length a then acc := !acc lor (a.(!li) lsl !bits);
      incr li;
      bits := !bits + limb_bits
    end;
    Bytes.unsafe_set out pos (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done

let byte_length (a : t) = if is_zero a then 1 else (num_bits a + 7) / 8

(* Minimal width; zero encodes as one zero byte. *)
let to_bytes_be (a : t) : string =
  let n = byte_length a in
  let out = Bytes.create n in
  blit_be a out n;
  Bytes.unsafe_to_string out

(* Fixed-width big-endian encoding, left-padded with zeros. *)
let to_bytes_be_padded (a : t) ~width =
  if byte_length a > width then invalid_arg "Bignum.to_bytes_be_padded: value too wide";
  let out = Bytes.create width in
  blit_be a out width;
  Bytes.unsafe_to_string out

let to_hex a = Vtpm_util.Hex.encode (to_bytes_be a)

(* Uniformly random value with exactly [bits] bits (top bit set). *)
let random_bits rng ~bits =
  if bits <= 0 then invalid_arg "Bignum.random_bits";
  let nbytes = (bits + 7) / 8 in
  let raw = Bytes.of_string (Vtpm_util.Rng.bytes rng nbytes) in
  (* Clear excess high bits, then force the top bit. *)
  let excess = (nbytes * 8) - bits in
  let top = Char.code (Bytes.get raw 0) land (0xff lsr excess) in
  let top = top lor (1 lsl (7 - excess)) in
  Bytes.set raw 0 (Char.chr top);
  of_bytes_be (Bytes.unsafe_to_string raw)

(* Uniformly random in [lo, hi) by rejection. *)
let random_range rng ~lo ~hi =
  if compare lo hi >= 0 then invalid_arg "Bignum.random_range";
  let span = sub hi lo in
  let bits = num_bits span in
  let rec draw () =
    let nbytes = (bits + 7) / 8 in
    let raw = Bytes.of_string (Vtpm_util.Rng.bytes rng nbytes) in
    let excess = (nbytes * 8) - bits in
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
    let v = of_bytes_be (Bytes.unsafe_to_string raw) in
    if compare v span < 0 then add lo v else draw ()
  in
  draw ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

(* Miller–Rabin probabilistic primality test. *)
let is_probable_prime ?(rounds = 16) rng (n : t) =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if is_even n then false
  else begin
    let small_factor =
      List.exists
        (fun p ->
          let p = of_int p in
          compare p n < 0 && is_zero (rem n p))
        small_primes
    in
    if small_factor then false
    else begin
      let n_minus_1 = sub n one in
      (* n - 1 = d * 2^s with d odd *)
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let c = Montgomery.ctx ~modulus:n in
      let witness a =
        let x = ref (Montgomery.mod_pow c a d) in
        if equal !x one || equal !x n_minus_1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := mod_mul n !x !x;
               if equal !x n_minus_1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          let a = random_range rng ~lo:two ~hi:n_minus_1 in
          if witness a then false else rounds_left (k - 1)
        end
      in
      rounds_left rounds
    end
  end

(* Random probable prime of exactly [bits] bits. *)
let random_prime rng ~bits =
  let rec search () =
    let cand = random_bits rng ~bits in
    let cand = if is_even cand then add cand one else cand in
    if is_probable_prime rng cand then cand else search ()
  in
  search ()
