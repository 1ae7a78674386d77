(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-16.

    The one checksum of the repository: the 4-byte transactional checksum
    in each 64-byte operation-log entry (paper §3.3), the [data_crc] over
    staged bytes that recovery re-verifies, and the LSM write-ahead log's
    record checksum.

    [tables] holds sixteen 256-entry tables back to back: entry
    [k * 256 + b] is the CRC register contribution of byte [b] followed by
    [k] zero bytes, so table 0 is the classic bytewise table. The main
    loop folds 16 input bytes per step: four little-endian 32-bit loads,
    the first xored with the register, and one lookup per byte into the
    table for its distance from the end of the block. Whatever is left
    (under 16 bytes) goes through table 0 a byte at a time. Every input
    yields the classic bytewise algorithm's value, so checksums already
    on media stay valid. *)

let poly = 0xEDB88320

let tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] word buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFFFFFF

let[@inline] look k b = Array.unsafe_get tables ((k lsl 8) lor (b land 0xFF))

(** [update crc buf ~off ~len] extends the finished CRC [crc] (0 for a
    fresh one) over [len] bytes of [buf] from [off], so
    [update (update 0 b ~off:0 ~len:n) b ~off:n ~len:m] equals
    [update 0 b ~off:0 ~len:(n + m)]. Raises [Invalid_argument] if the
    range is not inside [buf]. *)
let update crc buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let stop16 = off + (len land lnot 15) in
  while !i < stop16 do
    let p = !i in
    let a = word buf p lxor !c
    and b = word buf (p + 4)
    and x = word buf (p + 8)
    and d = word buf (p + 12) in
    c :=
      look 15 a
      lxor look 14 (a lsr 8)
      lxor look 13 (a lsr 16)
      lxor look 12 (a lsr 24)
      lxor look 11 b
      lxor look 10 (b lsr 8)
      lxor look 9 (b lsr 16)
      lxor look 8 (b lsr 24)
      lxor look 7 x
      lxor look 6 (x lsr 8)
      lxor look 5 (x lsr 16)
      lxor look 4 (x lsr 24)
      lxor look 3 d
      lxor look 2 (d lsr 8)
      lxor look 1 (d lsr 16)
      lxor look 0 (d lsr 24);
    i := p + 16
  done;
  for j = stop16 to off + len - 1 do
    c := look 0 (!c lxor Char.code (Bytes.unsafe_get buf j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  update 0 buf ~off ~len

let string ?off ?len s = bytes ?off ?len (Bytes.unsafe_of_string s)
