(* Frozen copy of the scalar Int32 XTEA-CTR that the four-block kernel in
   [Vtpm_crypto.Xtea] replaced, kept only as a differential reference:
   the crypto suite checks that the live cipher produces byte-identical
   output, so every sealed blob, wrapped key and migration stream written
   by the old code still opens. Not part of the library. *)

let rounds = 32
let delta = 0x9E3779B9l

type key = { k : int32 array } (* 4 words *)

let key_of_string (s : string) : key =
  if String.length s <> 16 then invalid_arg "Xtea_ref.key_of_string: need 16 bytes";
  let word i =
    let b j = Int32.of_int (Char.code s.[(4 * i) + j]) in
    Int32.logor
      (Int32.shift_left (b 0) 24)
      (Int32.logor (Int32.shift_left (b 1) 16) (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
  in
  { k = [| word 0; word 1; word 2; word 3 |] }

let encrypt_block key (v0, v1) =
  let v0 = ref v0 and v1 = ref v1 and sum = ref 0l in
  for _ = 1 to rounds do
    let t =
      Int32.add
        (Int32.logxor
           (Int32.add (Int32.shift_left !v1 4) (Int32.shift_right_logical !v1 5))
           !v1)
        (Int32.add !sum key.k.(Int32.to_int (Int32.logand !sum 3l)))
    in
    v0 := Int32.add !v0 (Int32.logxor t 0l);
    sum := Int32.add !sum delta;
    let t2 =
      Int32.add
        (Int32.logxor
           (Int32.add (Int32.shift_left !v0 4) (Int32.shift_right_logical !v0 5))
           !v0)
        (Int32.add !sum key.k.(Int32.to_int (Int32.logand (Int32.shift_right_logical !sum 11) 3l)))
    in
    v1 := Int32.add !v1 t2
  done;
  (!v0, !v1)

(* Keystream block for counter [ctr]: ECB-encrypt the counter. *)
let keystream key ~nonce ~ctr =
  let v0 = Int32.of_int (nonce land 0xffffffff) in
  let v1 = Int32.of_int (ctr land 0xffffffff) in
  let c0, c1 = encrypt_block key (v0, v1) in
  let out = Bytes.create 8 in
  let put off (v : int32) =
    for j = 0 to 3 do
      Bytes.set out (off + j)
        (Char.chr (Int32.to_int (Int32.shift_right_logical v (8 * (3 - j))) land 0xff))
    done
  in
  put 0 c0;
  put 4 c1;
  Bytes.unsafe_to_string out

let ctr_transform key ~nonce (data : string) : string =
  let n = String.length data in
  let out = Bytes.create n in
  let i = ref 0 and ctr = ref 0 in
  while !i < n do
    let ks = keystream key ~nonce ~ctr:!ctr in
    let chunk = min 8 (n - !i) in
    for j = 0 to chunk - 1 do
      Bytes.set out (!i + j) (Char.chr (Char.code data.[!i + j] lxor Char.code ks.[j]))
    done;
    i := !i + 8;
    incr ctr
  done;
  Bytes.unsafe_to_string out
