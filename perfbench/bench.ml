(** The repository's benchmark: one workload per run, repeated in rounds
    for [--seconds], printing every metric by name with its unit and the
    samples behind it, then one JSON line.

    bench.exe --workload ycsb-a|varmail|serve|crashcheck --seed N
              --seconds S --trace 0|1

    Two clocks: [sim_*] metrics are simulated ns from the program's cost
    model, a pure function of the seed, and must be bit-identical in every
    round; host throughput is the median round's, set-up time the median
    over set-ups, both without the first, warm-up round. [--trace 0]
    reports the end-to-end metrics from untraced rounds; [--trace 1] alternates
    untraced and traced rounds and reports the per-layer metrics, the
    tracing overhead, and a Perfetto span file. *)

type workload = {
  name : string;
  run :
    ?timing:Pmem.Timing.t -> seed:int -> trace:Hspan.t option -> unit -> Common.round;
}

let workloads =
  [
    { name = "ycsb-a"; run = Wl_ycsb.run };
    { name = "varmail"; run = Wl_varmail.run };
    { name = "serve"; run = Wl_serve.run };
    { name = "crashcheck"; run = Wl_crash.run };
  ]

(** Per-layer metrics reported by [--trace 1], in print order, with units.
    A layer that idles on a workload reports 0. *)
let per_layer =
  let ns = "ns" and c = "count" in
  [
    ("apps.host_self_ns_per_op", ns);
    ("apps.sim_app_ns_per_op", ns);
    ("apps.flushes", c);
    ("apps.compactions", c);
  ]
  @ List.map
      (fun op -> ("fsapi.host_ns." ^ op, ns))
      [ "open"; "close"; "pread"; "pwrite"; "write"; "fsync"; "unlink" ]
  @ [
      ("fsapi.calls_per_op", c);
      ("fsapi.errors", c);
      ("usplit.sim_cpu_ns_per_op", ns);
      ("usplit.sim_log_append_ns_per_op", ns);
      ("usplit.sim_relink_copy_ns_per_op", ns);
      ("usplit.staged_bytes_per_op", "B");
      ("usplit.relinks", c);
      ("usplit.log_entries_per_op", c);
      ("usplit.mmap_setups", c);
      ("usplit.page_faults", c);
      ("usplit.fast_path_ratio", "ratio");
      ("kernelfs.sim_syscall_ns_per_op", ns);
      ("kernelfs.sim_kernel_ns_per_op", ns);
      ("kernelfs.sim_journal_ns_per_op", ns);
      ("kernelfs.sim_alloc_ns_per_op", ns);
      ("kernelfs.syscalls_per_op", c);
      ("kernelfs.journal_commits", c);
      ("kernelfs.journal_bytes_per_op", "B");
      ("kernelfs.alloc_steals", c);
      ("pmem.sim_media_ns_per_op", ns);
      ("pmem.sim_lock_wait_ns_per_op", ns);
      ("pmem.sim_bw_wait_ns_per_op", ns);
      ("pmem.sim_background_ns_per_op", ns);
      ("pmem.write_bytes_per_op", "B");
      ("pmem.read_bytes_per_op", "B");
      ("pmem.fences_per_op", c);
      ("pmem.flushes_per_op", c);
      ("pmem.nt_stores_per_op", c);
      ("pmem.dirty_lines_hwm", c);
      ("sched.dispatches", c);
      ("sched.host_ns_per_dispatch", ns);
      ("sched.sim_idle_ns_per_op", ns);
    ]
  @ List.map
      (fun r -> (Printf.sprintf "sched.max_lateness_ns.r%d" r, ns))
      Wl_serve.rates
  @ [
      ("sim.total_ns_per_op", ns);
      ("sim_max_kops_at_slo", "kops/s");
      ("sim_p999_ns.r1000", ns);
      ("sim_p999_ns.r2000", ns);
      ("sim_p999_ns.r4000", ns);
      ("crashcheck.profile_s", "s");
      ("crashcheck.trial_host_ms.p50", "ms");
      ("crashcheck.trial_host_ms.p99", "ms");
      ("crashcheck.states", c);
    ]
  @ List.map (fun (m, _) -> ("crashcheck.host_s." ^ m, "s")) Wl_crash.modes
  @ [
      ("setup.stack_build_s", "s");
      ("setup.preload_s", "s");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", c);
      ("trace.untraced_host_ops_per_s", "1/s");
      ("trace.traced_host_ops_per_s", "1/s");
      ("trace.overhead_ratio", "ratio");
    ]

(* --- arguments --- *)

let workload_name = ref ""
let seed = ref 0x5EED
let seconds = ref 10.
let trace = ref 0
let nproc = ref (Domain.recommended_domain_count ())
let rev = ref "unknown"
let out_dir = ".perfbench-out"
let perturb = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload_name, "NAME ycsb-a|varmail|serve|crashcheck");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measuring time");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ("--nproc", Arg.Set_int nproc, "N host cores, recorded");
    ("--rev", Arg.Set_string rev, "REV source revision, recorded");
    ( "--host-slowdown",
      Arg.Set_float Common.host_slowdown,
      "F make every Fs.t call take (1+F) times its host time (self-check)" );
    ( "--perturb-timing",
      Arg.Set perturb,
      " build stacks with syscall trap, VFS path and U-Split bookkeeping 20% \
       dearer (sensitivity check)" );
  ]

(* --- rounds --- *)

let ops_per_s (r : Common.round) = float_of_int r.requests /. r.timed_s

let same_sim (a : Common.round) (b : Common.round) =
  List.length a.sim = List.length b.sim
  && List.for_all2
       (fun (n1, _, v1) (n2, _, v2) ->
         n1 = n2 && Int64.bits_of_float v1 = Int64.bits_of_float v2)
       a.sim b.sim

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload_name) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload_name;
        exit 2
  in
  let traced = !trace = 1 in
  let timing =
    if !perturb then
      let d = Pmem.Timing.default in
      Some
        {
          d with
          Pmem.Timing.syscall_trap = 1.2 *. d.Pmem.Timing.syscall_trap;
          vfs_path = 1.2 *. d.Pmem.Timing.vfs_path;
          usplit_bookkeeping = 1.2 *. d.Pmem.Timing.usplit_bookkeeping;
        }
    else None
  in
  Printf.printf
    "# perfbench %s seed=%d seconds=%g trace=%d | host: nproc=%d \
     recommended_domain_count=%d worker_domains=1 ocaml=%s rev=%s%s\n%!"
    w.name !seed !seconds !trace !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev
    ((if !perturb then " timing=perturbed" else "")
    ^
    if !Common.host_slowdown > 0. then
      Printf.sprintf " host_slowdown=%g" !Common.host_slowdown
    else "");
  let t_run = Hspan.now_ns () in
  let untraced = ref [] and traced_rounds = ref [] and last_tr = ref None in
  let one tr =
    Gc.full_major ();
    let r = w.run ?timing ~seed:!seed ~trace:tr () in
    match tr with
    | None -> untraced := r :: !untraced
    | Some t ->
        traced_rounds := r :: !traced_rounds;
        last_tr := Some t
  in
  (* rounds run while one more still fits in the measuring time; a traced
     run alternates which of its pair goes first *)
  let rec loop k =
    let t0 = Hspan.now_ns () in
    if traced && k mod 2 = 1 then one (Some (Hspan.create ()));
    one None;
    if traced && k mod 2 = 0 then one (Some (Hspan.create ()));
    let elapsed = Common.seconds_since t_run in
    if elapsed +. Common.seconds_since t0 <= !seconds then loop (k + 1)
  in
  let ok, err =
    match loop 0 with
    | () -> (true, "")
    | exception e -> (false, Printexc.to_string e)
  in
  let all = List.rev_append !untraced (List.rev !traced_rounds) in
  let deterministic =
    match all with [] -> false | r0 :: rest -> List.for_all (same_sim r0) rest
  in
  let attempted = List.fold_left (fun a (r : Common.round) -> a + r.requests) 0 all in
  let failed = List.fold_left (fun a (r : Common.round) -> a + r.failures) 0 all in
  let med f rs = Common.median (List.map f rs) in
  (* rounds repeat identical work, so the spread between them is the
     host's; the median round is the steadiest estimate, the best one is
     printed beside it *)
  let best f rs = List.fold_left (fun acc r -> Float.max acc (f r)) 0. rs in
  let gc = Gc.quick_stat () in
  let peak_heap_mb = float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let first = match all with r :: _ -> Some r | [] -> None in
  let rows = ref [] in
  let row name unit v basis = rows := (name, unit, v, basis) :: !rows in
  (* the first untraced round warms the process up (heap growth, page
     faults); host metrics leave it out when at least two others ran *)
  let timed =
    match List.rev !untraced with
    | _ :: (_ :: _ :: _ as rest) -> List.rev rest
    | _ -> !untraced
  in
  let nun = List.length timed in
  (match first with
  | None -> ()
  | Some r0 ->
      let setups = List.concat_map (fun (r : Common.round) -> r.setups) timed in
      row "host_ops_per_s" "1/s" (med ops_per_s timed)
        (Printf.sprintf "median of %d rounds of %d requests (best %.0f)" nun
           r0.requests (best ops_per_s timed));
      row "setup_s" "s" (Common.median setups)
        (Printf.sprintf "median of %d set-ups" (List.length setups));
      row "peak_heap_mb" "MB" peak_heap_mb "Gc top heap at end";
      List.iter
        (fun (n, u, v) -> row n u v "simulated, identical in every round")
        r0.sim);
  let e2e = List.rev !rows in
  let layer =
    if not traced then []
    else
      let rs = !traced_rounds in
      let value name =
        med
          (fun (r : Common.round) ->
            match List.assoc_opt name r.layer with Some v -> v | None -> 0.)
          rs
      in
      let host_layer =
        match (!last_tr, rs) with
        | Some tr, r :: _ -> Common.host_layers tr ~ops:r.requests
        | _ -> []
      in
      let traced_ops = med ops_per_s rs and untraced_ops = med ops_per_s timed in
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "trace.untraced_host_ops_per_s" -> untraced_ops
            | "trace.traced_host_ops_per_s" -> traced_ops
            | "trace.overhead_ratio" -> untraced_ops /. traced_ops
            | "setup.stack_build_s" -> med (fun (r : Common.round) -> r.stack_build_s) all
            | "setup.preload_s" -> med (fun (r : Common.round) -> r.preload_s) all
            | _ -> (
                match List.assoc_opt name host_layer with
                | Some v -> v
                | None -> value name)
          in
          (name, unit, v))
        per_layer
  in
  let correct = ok && deterministic && failed = 0 && first <> None in
  (* --- human-readable report --- *)
  (match first with
  | Some r0 -> List.iter (fun l -> Printf.printf "  %s\n" l) r0.notes
  | None -> ());
  Printf.printf "  host ops/s by round: %s%s\n"
    (String.concat " "
       (List.rev_map (fun r -> Printf.sprintf "%.0f" (ops_per_s r)) !untraced))
    (if List.length timed < List.length !untraced then " (first is warm-up)" else "");
  Printf.printf "  %-34s %16s  %-7s %s\n" "end-to-end metric" "value" "unit" "basis";
  List.iter
    (fun (n, u, v, b) -> Printf.printf "  %-34s %16.4f  %-7s %s\n" n v u b)
    e2e;
  Printf.printf "  %-34s %16.6f  %-7s %d failed of %d attempted\n" "error_frac"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "ratio" failed attempted;
  if traced then begin
    Printf.printf "  %-34s %16s  %-7s (%d traced rounds, medians)\n" "per-layer metric"
      "value" "unit" (List.length !traced_rounds);
    List.iter (fun (n, u, v) -> Printf.printf "  %-34s %16.4f  %-7s\n" n v u) layer;
    match !last_tr with
    | Some tr -> (
        let path =
          Filename.concat out_dir
            (Printf.sprintf "%s-seed%d.trace.json" w.name !seed)
        in
        try
          if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
          Hspan.write_perfetto tr path;
          Printf.printf "  spans: %d written to %s (Perfetto JSON)\n" tr.Hspan.n path
        with Sys_error e -> Printf.printf "  spans: not written (%s)\n" e)
    | None -> ()
  end;
  if not ok then Printf.printf "  ERROR: %s\n" err;
  if not deterministic then
    Printf.printf "  ERROR: simulated metrics differ between rounds\n";
  let metrics =
    if traced then layer
    else List.map (fun (n, u, v, _) -> (n, u, v)) e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics));
  exit (if ok then 0 else 1)
