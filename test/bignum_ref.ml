(* Frozen copy of the byte conversions and the two-pass Montgomery kernel
   that [Vtpm_crypto.Bignum] replaced with linear bit-packing and a fused
   CIOS loop, kept only as a differential reference: the crypto suite
   checks that the live code returns the same values and bytes, so every
   key blob, signature and sealed envelope it produced before still
   matches. Not part of the library. *)

open Vtpm_crypto.Bignum

let limb_bits = 30
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* Big-endian byte-string conversions (the TPM wire format for keys). *)
let of_bytes_be (s : string) : t =
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) s;
  !acc

let to_bytes_be (a : t) : string =
  if is_zero a then "\x00"
  else begin
    let n = (num_bits a + 7) / 8 in
    let out = Bytes.create n in
    let v = ref a in
    for i = n - 1 downto 0 do
      let byte = match to_int_opt (rem !v (of_int 256)) with Some b -> b | None -> assert false in
      Bytes.set out i (Char.chr byte);
      v := shift_right !v 8
    done;
    Bytes.unsafe_to_string out
  end

(* Fixed-width big-endian encoding, left-padded with zeros. *)
let to_bytes_be_padded (a : t) ~width =
  let s = to_bytes_be a in
  let n = String.length s in
  if n > width then invalid_arg "Bignum.to_bytes_be_padded: value too wide"
  else String.make (width - n) '\x00' ^ s

module Montgomery = struct
  type ctx = {
    m : t; (* odd modulus, also the limb array of length k *)
    k : int;
    m0' : int; (* -m^-1 mod 2^30, for the REDC quotient digit *)
    r2 : t; (* R^2 mod m: multiplying by it (via mont_mul) enters Montgomery form *)
  }

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
    let r2 = rem (shift_left one (2 * k * limb_bits)) m in
    { m; k; m0'; r2 }

  (* CIOS: out <- a*b*R^-1 mod m. [a], [b], [out] are k-limb arrays with
     values < m; [tmp] is (k+2)-limb scratch. Each inner step accumulates
     limb + 30x30-bit product + carry, staying under 2^62. The running
     value is < 2m throughout, so one conditional subtraction at the end
     lands the result < m. *)
  let mont_mul c (a : int array) (b : int array) (out : int array) (tmp : int array) =
    let k = c.k and m = c.m and m0' = c.m0' in
    Array.fill tmp 0 (k + 2) 0;
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let carry = ref 0 in
      for j = 0 to k - 1 do
        let x = tmp.(j) + (ai * b.(j)) + !carry in
        tmp.(j) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      let x = tmp.(k) + !carry in
      tmp.(k) <- x land limb_mask;
      tmp.(k + 1) <- tmp.(k + 1) + (x lsr limb_bits);
      let u = (tmp.(0) * m0') land limb_mask in
      let x0 = tmp.(0) + (u * m.(0)) in
      let carry = ref (x0 lsr limb_bits) in
      for j = 1 to k - 1 do
        let x = tmp.(j) + (u * m.(j)) + !carry in
        tmp.(j - 1) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      let x = tmp.(k) + !carry in
      tmp.(k - 1) <- x land limb_mask;
      tmp.(k) <- tmp.(k + 1) + (x lsr limb_bits);
      tmp.(k + 1) <- 0
    done;
    let ge =
      tmp.(k) > 0
      ||
      let rec cmp i = if i < 0 then true else if tmp.(i) <> m.(i) then tmp.(i) > m.(i) else cmp (i - 1) in
      cmp (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = tmp.(j) - m.(j) - !borrow in
        if d < 0 then begin
          out.(j) <- d + limb_base;
          borrow := 1
        end
        else begin
          out.(j) <- d;
          borrow := 0
        end
      done
    end
    else Array.blit tmp 0 out 0 k

  (* Zero-extend a value < m to the fixed k-limb width mont_mul expects. *)
  let limbs k (a : t) =
    let out = Array.make k 0 in
    Array.blit a 0 out 0 (Array.length a);
    out

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
        let scratch = Array.make (k + 2) 0 in
        let tmp = Array.make k 0 in
        let g = Array.make k 0 in
        mont_mul c (limbs k base) (limbs k c.r2) g scratch;
        let w = window_bits e_bits in
        (* tbl.(i) = g^(2i+1) in Montgomery form. *)
        let tbl = Array.init (1 lsl (w - 1)) (fun _ -> Array.make k 0) in
        Array.blit g 0 tbl.(0) 0 k;
        let g2 = Array.make k 0 in
        mont_mul c g g g2 scratch;
        for i = 1 to Array.length tbl - 1 do
          mont_mul c tbl.(i - 1) g2 tbl.(i) scratch
        done;
        let acc = Array.make k 0 in
        let started = ref false in
        let square () =
          mont_mul c acc acc tmp scratch;
          Array.blit tmp 0 acc 0 k
        in
        let mult i =
          mont_mul c acc tbl.(i) tmp scratch;
          Array.blit tmp 0 acc 0 k
        in
        let i = ref (e_bits - 1) in
        while !i >= 0 do
          if not (test_bit exp !i) then begin
            if !started then square ();
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
                square ()
              done;
              mult (!v lsr 1)
            end
            else begin
              Array.blit tbl.(!v lsr 1) 0 acc 0 k;
              started := true
            end;
            i := !j - 1
          end
        done;
        (* Exit Montgomery form: multiply by 1 is a bare REDC. *)
        let onek = Array.make k 0 in
        onek.(0) <- 1;
        mont_mul c acc onek tmp scratch;
        normalize tmp
      end
    end
end
