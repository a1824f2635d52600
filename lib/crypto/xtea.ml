(* XTEA-shaped block cipher in counter mode: the symmetric primitive for
   sealing vTPM state at rest (any stream cipher preserves the behaviour
   under study — state dumps are useless without the sealed key). 64-bit
   block, 128-bit key, 32 cycles. Not Needham–Wheeler XTEA: the round
   function is [(((v << 4) + (v >> 5)) ^ v) + (sum + k)] where XTEA's is
   [(((v << 4) ^ (v >> 5)) + v) ^ (sum + k)]; a known-answer test pins
   the variant, since every sealed blob depends on it.

   Hot path: the round constants are precomputed per key, and the CTR
   kernel runs four independent counter blocks through one round loop so
   their serial chains overlap. Words are masked only where [lsr] reads
   them: [+], [lxor] and [lsl] never carry garbage above bit 31 down. *)

let mask = 0xffffffff
let delta = 0x9E3779B9

type key = int array (* 64 round constants, one per Feistel round *)

(* Round [2r] of cycle [r] adds [sum + k[sum & 3]]; round [2r + 1] adds
   [sum' + k[(sum' >> 11) & 3]] with [sum' = sum + delta]. *)
let key_of_string (s : string) : key =
  if String.length s <> 16 then invalid_arg "Xtea.key_of_string: need 16 bytes";
  let k i = Int32.to_int (String.get_int32_be s (4 * i)) land mask in
  let k = [| k 0; k 1; k 2; k 3 |] in
  let rk = Array.make 64 0 in
  let sum = ref 0 in
  for r = 0 to 31 do
    rk.(2 * r) <- (!sum + k.(!sum land 3)) land mask;
    sum := (!sum + delta) land mask;
    rk.((2 * r) + 1) <- (!sum + k.((!sum lsr 11) land 3)) land mask
  done;
  rk

let xor_word src dst off c =
  Bytes.set_int32_be dst off (Int32.of_int (Int32.to_int (String.get_int32_be src off) lxor c))

(* XOR the keystream of counter blocks [ctr .. ctr + 3] under [nonce]
   into the 32 bytes of [src] at [off], writing [dst] at [off]. [src] may
   alias [dst]: each word is read before it is written. *)
let xor_keystream4 (rk : key) ~nonce ~ctr src dst off =
  let a0 = ref nonce and a1 = ref (ctr land mask) in
  let b0 = ref nonce and b1 = ref ((ctr + 1) land mask) in
  let c0 = ref nonce and c1 = ref ((ctr + 2) land mask) in
  let d0 = ref nonce and d1 = ref ((ctr + 3) land mask) in
  for r = 0 to 31 do
    let k = Array.unsafe_get rk (2 * r) in
    a0 := !a0 + k + (((!a1 lsl 4) + ((!a1 land mask) lsr 5)) lxor !a1);
    b0 := !b0 + k + (((!b1 lsl 4) + ((!b1 land mask) lsr 5)) lxor !b1);
    c0 := !c0 + k + (((!c1 lsl 4) + ((!c1 land mask) lsr 5)) lxor !c1);
    d0 := !d0 + k + (((!d1 lsl 4) + ((!d1 land mask) lsr 5)) lxor !d1);
    let k = Array.unsafe_get rk ((2 * r) + 1) in
    a1 := !a1 + k + (((!a0 lsl 4) + ((!a0 land mask) lsr 5)) lxor !a0);
    b1 := !b1 + k + (((!b0 lsl 4) + ((!b0 land mask) lsr 5)) lxor !b0);
    c1 := !c1 + k + (((!c0 lsl 4) + ((!c0 land mask) lsr 5)) lxor !c0);
    d1 := !d1 + k + (((!d0 lsl 4) + ((!d0 land mask) lsr 5)) lxor !d0)
  done;
  xor_word src dst off !a0;
  xor_word src dst (off + 4) !a1;
  xor_word src dst (off + 8) !b0;
  xor_word src dst (off + 12) !b1;
  xor_word src dst (off + 16) !c0;
  xor_word src dst (off + 20) !c1;
  xor_word src dst (off + 24) !d0;
  xor_word src dst (off + 28) !d1

let encrypt_block key (v0, v1) =
  let b = Bytes.make 32 '\000' in
  xor_keystream4 key ~nonce:(Int32.to_int v0 land mask) ~ctr:(Int32.to_int v1)
    (Bytes.unsafe_to_string b) b 0;
  (Bytes.get_int32_be b 0, Bytes.get_int32_be b 4)

(* CTR mode: encryption and decryption are the same operation. The
   keystream block for counter [i] is the encryption of [(nonce, i)]. *)
let ctr_transform key ~nonce (data : string) : string =
  let n = String.length data in
  let out = Bytes.create n in
  let nonce = nonce land mask in
  let full = n land lnot 31 in
  let off = ref 0 in
  while !off < full do
    xor_keystream4 key ~nonce ~ctr:(!off lsr 3) data out !off;
    off := !off + 32
  done;
  if full < n then begin
    let pad = Bytes.make 32 '\000' in
    Bytes.blit_string data full pad 0 (n - full);
    xor_keystream4 key ~nonce ~ctr:(full lsr 3) (Bytes.unsafe_to_string pad) pad 0;
    Bytes.blit pad 0 out full (n - full)
  end;
  Bytes.unsafe_to_string out
