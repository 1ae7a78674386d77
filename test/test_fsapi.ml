(** The shared POSIX surface: helper functions, flag semantics, the
    reference file system itself, and the jbd2-like journal accounting. *)

let tc = Alcotest.test_case

let test_flags () =
  let f = Fsapi.Flags.create_trunc in
  Alcotest.(check bool) "writable" true (Fsapi.Flags.writable f);
  Alcotest.(check bool) "not readable" false (Fsapi.Flags.readable f);
  Alcotest.(check bool) "creat" true f.Fsapi.Flags.creat;
  Alcotest.(check bool) "trunc" true f.Fsapi.Flags.trunc;
  let a = Fsapi.Flags.(append rdwr) in
  Alcotest.(check bool) "rdwr readable+writable" true
    (Fsapi.Flags.readable a && Fsapi.Flags.writable a && a.Fsapi.Flags.append)

let with_ref f = f (Fsapi.Ref_fs.make ())

let test_helpers_roundtrip () =
  with_ref (fun fs ->
      Fsapi.Fs.mkdir_p fs "/a/b/c";
      Fsapi.Fs.write_file fs "/a/b/c/x" "deep content";
      Util.check_str "read_file" "deep content" (Fsapi.Fs.read_file fs "/a/b/c/x");
      Util.check_int "file_size" 12 (Fsapi.Fs.file_size fs "/a/b/c/x");
      Alcotest.(check bool) "exists" true (Fsapi.Fs.exists fs "/a/b/c/x");
      Alcotest.(check bool) "not exists" false (Fsapi.Fs.exists fs "/a/b/nope");
      (* mkdir_p is idempotent *)
      Fsapi.Fs.mkdir_p fs "/a/b/c")

let test_pread_exact_raises_at_eof () =
  with_ref (fun fs ->
      Fsapi.Fs.write_file fs "/short" "abc";
      let fd = fs.Fsapi.Fs.open_ "/short" Fsapi.Flags.rdonly in
      Alcotest.check_raises "eof"
        (Fsapi.Errno.Error (Fsapi.Errno.EINVAL, "pread_exact: eof"))
        (fun () -> ignore (Fsapi.Fs.pread_exact fs fd ~len:10 ~at:0)))

let test_ref_fs_is_posixish () =
  with_ref (fun fs ->
      (* a quick sanity pass over the model itself, since every other file
         system is judged against it *)
      let fd = fs.Fsapi.Fs.open_ "/f" Fsapi.Flags.create_rw in
      Fsapi.Fs.pwrite_string fs fd "xyz" ~at:5;
      Util.check_int "sparse size" 8 (fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size;
      let s = Fsapi.Fs.pread_exact fs fd ~len:8 ~at:0 in
      Util.check_str "hole zeros" "\000\000\000\000\000xyz" s;
      fs.Fsapi.Fs.ftruncate fd 6;
      Util.check_int "truncated" 6 (fs.Fsapi.Fs.fstat fd).Fsapi.Fs.st_size;
      fs.Fsapi.Fs.close fd;
      Alcotest.check_raises "EBADF after close"
        (Fsapi.Errno.Error (Fsapi.Errno.EBADF, string_of_int fd))
        (fun () -> fs.Fsapi.Fs.fsync fd))

let test_errno_printer () =
  Util.check_str "printer registered" "ENOENT \"/x\""
    (Printexc.to_string (Fsapi.Errno.Error (Fsapi.Errno.ENOENT, "/x")))

let test_crc32_known_vector () =
  (* standard CRC-32 of "123456789" is 0xCBF43926 *)
  Util.check_int "check vector" 0xCBF43926 (Fsapi.Crc32.string "123456789");
  Util.check_int "empty" 0 (Fsapi.Crc32.string "")

(* Bit-at-a-time CRC-32: no tables, so it shares no code with the
   slice-by-16 implementation it checks. *)
let ref_crc32 buf ~off ~len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_matches_reference () =
  let rng = Random.State.make [| 0xC4C |] in
  let buf = Bytes.init 65536 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let check ~off ~len =
    let got = Fsapi.Crc32.bytes buf ~off ~len in
    if got <> ref_crc32 buf ~off ~len then
      Alcotest.failf "off %d len %d: got 0x%08x, reference 0x%08x" off len got
        (ref_crc32 buf ~off ~len)
  in
  (* every alignment against every tail length and several 16-byte blocks *)
  for off = 0 to 15 do
    for len = 0 to 300 do
      check ~off ~len
    done
  done;
  check ~off:0 ~len:(Bytes.length buf);
  for _ = 1 to 1000 do
    let off = Random.State.int rng (Bytes.length buf) in
    let len = Random.State.int rng (min 4096 (Bytes.length buf - off) + 1) in
    check ~off ~len
  done;
  (* a finished CRC extends over the next range *)
  let whole = Fsapi.Crc32.bytes buf ~off:3 ~len:1000 in
  let first = Fsapi.Crc32.bytes buf ~off:3 ~len:377 in
  Util.check_int "update chains" whole
    (Fsapi.Crc32.update first buf ~off:380 ~len:623);
  Util.check_int "string = bytes" (Fsapi.Crc32.bytes buf ~off:5 ~len:40)
    (Fsapi.Crc32.string (Bytes.to_string buf) ~off:5 ~len:40)

let test_crc32_rejects_bad_ranges () =
  let buf = Bytes.make 64 'x' in
  List.iter
    (fun (off, len) ->
      match Fsapi.Crc32.bytes buf ~off ~len with
      | _ -> Alcotest.failf "off %d len %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 65); (61, 4); (64, 1); (65, 0); (48, 17); (max_int, 16) ]

let test_journal_accounting () =
  let env = Util.make_env () in
  let j =
    Kernelfs.Journal.create ~env ~region_start:0 ~region_len:(1024 * 1024)
      ~block_size:4096 ()
  in
  let s = env.Pmem.Env.stats in
  Kernelfs.Journal.commit j ~meta_blocks:3;
  Util.check_int "one commit" 1 s.Pmem.Stats.journal_commits;
  (* descriptor + 3 metadata copies + commit record = 5 blocks *)
  Util.check_int "journal bytes" (5 * 4096) s.Pmem.Stats.journal_bytes;
  (* one fence per commit since the blocks-before-record fence was
     proven redundant and removed (PR 7 fence minimization) *)
  Util.check_int "one fence" 1 s.Pmem.Stats.fences;
  (* empty transactions are free *)
  Kernelfs.Journal.commit j ~meta_blocks:0;
  Util.check_int "still one commit" 1 s.Pmem.Stats.journal_commits;
  (* the journal region wraps rather than overflowing *)
  for _ = 1 to 200 do
    Kernelfs.Journal.commit j ~meta_blocks:4
  done;
  Util.check_int "commits counted" 201 (Kernelfs.Journal.commits j)

let test_zipf_deterministic () =
  let sample seed =
    let rng = Workloads.Rng.create seed in
    let z = Workloads.Zipf.create 100 in
    List.init 50 (fun _ -> Workloads.Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (sample 5) (sample 5)

let test_str_split () =
  Alcotest.(check (list string)) "basic" [ "a"; "b"; "c" ]
    (Apps.Str_split.split_on_string ~sep:"--" "a--b--c");
  Alcotest.(check (list string)) "no sep" [ "abc" ]
    (Apps.Str_split.split_on_string ~sep:"--" "abc");
  Alcotest.(check (list string)) "trailing" [ "a"; "" ]
    (Apps.Str_split.split_on_string ~sep:"--" "a--")

let suite =
  [
    tc "flag combinators" `Quick test_flags;
    tc "fs helpers" `Quick test_helpers_roundtrip;
    tc "pread_exact raises at EOF" `Quick test_pread_exact_raises_at_eof;
    tc "reference FS POSIX semantics" `Quick test_ref_fs_is_posixish;
    tc "errno printer" `Quick test_errno_printer;
    tc "crc32 check vector" `Quick test_crc32_known_vector;
    tc "crc32 slice-by-16 matches bitwise reference" `Quick
      test_crc32_matches_reference;
    tc "crc32 rejects out-of-range off/len" `Quick test_crc32_rejects_bad_ranges;
    tc "journal accounting" `Quick test_journal_accounting;
    tc "zipf deterministic" `Quick test_zipf_deterministic;
    tc "split_on_string" `Quick test_str_split;
  ]
