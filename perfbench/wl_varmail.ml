(** [varmail]: the Table 6 sequence on splitfs-strict, one closed-loop
    client, every syscall a timed request: create, then appends each
    followed by fsync, close, open, read the whole file, close, open,
    close, unlink, on a distinct file each iteration. Metadata-heavy:
    kernelfs (journal, syscall trap, kernel CPU) does most of the
    simulated work and there is no application work.

    Sizes are drawn from the seed, as Filebench's varmail draws them: a
    message is 2-6 appends (mean 4, as in Table 6) of 12-20 KB (mean 16 KB,
    Filebench varmail's mean append size), so the whole-file read averages
    64 KB. With fixed 4 KB appends every simulated latency would be the
    same at every seed, and the median syscall would be an open of an
    existing file, whose cost depends on no input. *)

let iterations = 800

let appends rng = 2 + Workloads.Rng.int rng 5
let append_size rng = 12288 + Workloads.Rng.int rng 8192
let max_syscalls = iterations * (8 + (2 * 6))

(* Append payloads are slices of one seeded pattern buffer. *)
let pattern_len = 65536

let run ?timing ~seed ~trace () =
  let t_start = Hspan.now_ns () in
  let stack = Harness.Fs_config.make ?timing Harness.Fs_config.Splitfs_strict in
  let env = stack.Harness.Fs_config.env in
  let stack_build_s = Common.seconds_since t_start in
  let fs = Common.fs_view ~trace stack.Harness.Fs_config.fs in
  (* inputs, drawn from the seed up front: per message its appends as
     (offset into the pattern, length) *)
  let rng = Workloads.Rng.create seed in
  let pattern = Bytes.of_string (Workloads.Rng.payload rng pattern_len) in
  let messages =
    Array.init iterations (fun _ ->
        Array.init (appends rng) (fun _ ->
            let len = append_size rng in
            (Workloads.Rng.int rng (pattern_len - len), len)))
  in
  let setup_s = Common.seconds_since t_start in
  let lat = Array.make max_syscalls 0. in
  let kinds = Array.make max_syscalls "" in
  let n = ref 0 and failures = ref 0 and user_bytes = ref 0 in
  (* one timed syscall: its simulated latency is one sample *)
  let call ~kind f =
    kinds.(!n) <- kind;
    let s0 = Pmem.Env.now env in
    let x = Hspan.span trace Hspan.Request f in
    lat.(!n) <- Pmem.Env.now env -. s0;
    incr n;
    x
  in
  let iteration i =
    let path = Printf.sprintf "/varmail-%d" i in
    let fd = call ~kind:"open" (fun () -> fs.open_ path Fsapi.Flags.create_rw) in
    Array.iter
      (fun (boff, len) ->
        let w =
          call ~kind:"write" (fun () -> fs.write fd ~buf:pattern ~boff ~len)
        in
        if w <> len then incr failures;
        user_bytes := !user_bytes + len;
        call ~kind:"fsync" (fun () -> fs.fsync fd))
      messages.(i);
    call ~kind:"close" (fun () -> fs.close fd);
    let size = Array.fold_left (fun acc (_, len) -> acc + len) 0 messages.(i) in
    let fd = call ~kind:"open" (fun () -> fs.open_ path Fsapi.Flags.rdonly) in
    let buf = Bytes.create size in
    let got = call ~kind:"pread" (fun () -> fs.pread fd ~buf ~boff:0 ~len:size ~at:0) in
    (* every byte read back must be the byte appended *)
    let pos = ref 0 and same = ref (got = size) in
    Array.iter
      (fun (boff, len) ->
        for j = 0 to len - 1 do
          if Bytes.unsafe_get buf (!pos + j) <> Bytes.unsafe_get pattern (boff + j)
          then same := false
        done;
        pos := !pos + len)
      messages.(i);
    if not !same then incr failures;
    call ~kind:"close" (fun () -> fs.close fd);
    let fd = call ~kind:"open" (fun () -> fs.open_ path Fsapi.Flags.rdonly) in
    call ~kind:"close" (fun () -> fs.close fd);
    call ~kind:"unlink" (fun () -> fs.unlink path)
  in
  Hspan.set_on trace true;
  let m0 = Common.mark env in
  let t0 = Hspan.now_ns () in
  let meas =
    Harness.Runner.measure stack "varmail" (fun () ->
        for i = 0 to iterations - 1 do
          (* a failed syscall abandons the rest of its iteration *)
          try iteration i with Fsapi.Errno.Error _ -> incr failures
        done;
        !n)
  in
  let timed_s = Common.seconds_since t0 in
  Hspan.set_on trace false;
  let layer = Common.sim_layers env m0 ~ops:!n in
  ignore (Pmem.Env.check_identity env);
  let d = Common.dist (Array.sub lat 0 !n) in
  {
    Common.requests = !n;
    failures = !failures;
    setups = [ setup_s ];
    stack_build_s;
    preload_s = setup_s -. stack_build_s;
    timed_s;
    sim =
      [
        ("sim_kops_per_s", "kops/s", Harness.Runner.kops meas);
        ("sim_p50_ns", "ns", Common.pct d 50.);
        ("sim_p999_ns", "ns", Common.pct d 99.9);
        ("sim_sw_overhead_ns", "ns", Harness.Runner.overhead_ns meas);
        ( "sim_write_amp",
          "ratio",
          float_of_int meas.Harness.Runner.stats.Pmem.Stats.pm_write_bytes
          /. float_of_int (max 1 !user_bytes) );
      ];
    layer;
    notes =
      (* per syscall, as paper Table 6 reports them *)
      Common.pct_note "varmail syscall latency (sim)" d
      :: List.map
           (fun k ->
             let xs = List.filteri (fun i _ -> kinds.(i) = k) (Array.to_list lat) in
             Common.pct_note ("  " ^ k) (Common.dist (Array.of_list xs)))
           [ "open"; "write"; "fsync"; "close"; "pread"; "unlink" ];
  }
