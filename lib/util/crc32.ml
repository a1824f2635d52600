(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   Frame-integrity checksum for the vTPM transport protocol: cheap enough
   to charge on every ring slot, strong enough to catch the byte flips and
   truncations the fault injector produces. Not a MAC — an adversary can
   forge it; adversarial integrity is the sealed-state layer's job.

   Runs on native ints: a 32-bit CRC fits an OCaml int on 64-bit hosts, so
   the per-byte loop allocates nothing. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let digest_bytes_sub (b : bytes) off len : int =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.digest_sub";
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* Reading through [unsafe_of_string] is sound: the digest never writes. *)
let digest_sub (s : string) off len = digest_bytes_sub (Bytes.unsafe_of_string s) off len
let digest (s : string) = digest_sub s 0 (String.length s)
