(** [ycsb-a]: YCSB Load then YCSB-A (50% reads / 50% updates, Zipf 0.99,
    values of 512-1535 B, mean 1 KB, like YCSB's uniform field-length
    distribution) on the LSM store over splitfs-strict, one closed-loop
    client, 2,500 ns of application CPU per op as in
    [Harness.Experiments.ycsb_series]. 20k records (about 20 MB) against a
    512 KB memtable, so the store flushes and compacts throughout: the
    workload larger than the program's own cache, where the apps layer
    does most of the work. *)

let records = 20_000
let operations = 20_000
let value_size = 1024
let value rng = Workloads.Rng.payload rng (512 + Workloads.Rng.int rng 1024)
let app_cpu_ns = 2500.

let run ?timing ~seed ~trace () =
  let t_start = Hspan.now_ns () in
  let stack = Harness.Fs_config.make ?timing Harness.Fs_config.Splitfs_strict in
  let env = stack.Harness.Fs_config.env in
  let stack_build_s = Common.seconds_since t_start in
  let t_pre = Hspan.now_ns () in
  let fs = Common.fs_view ~trace stack.Harness.Fs_config.fs in
  let lsm =
    Apps.Lsm.open_ fs
      ~cfg:{ Apps.Lsm.default_config with Apps.Lsm.memtable_budget = 512 * 1024 }
      "/leveldb"
  in
  let think () = Pmem.Env.cpu env app_cpu_ns in
  let rng = Workloads.Rng.create seed in
  let model = Hashtbl.create records in
  for i = 0 to records - 1 do
    think ();
    let k = Workloads.Ycsb.key_of i and v = value rng in
    Apps.Lsm.put lsm k v;
    Hashtbl.replace model k v
  done;
  let preload_s = Common.seconds_since t_pre in
  let setup_s = Common.seconds_since t_start in
  let cfg =
    {
      Workloads.Ycsb.default_config with
      Workloads.Ycsb.records;
      operations;
      value_size;
      seed;
    }
  in
  let zipf = Workloads.Zipf.create records in
  let inserted = ref records in
  let lat = Array.make operations 0. in
  let failures = ref 0 and user_bytes = ref 0 in
  let flushes0, compactions0, _, _ = Apps.Lsm.stats lsm in
  Hspan.set_on trace true;
  let m0 = Common.mark env in
  let t0 = Hspan.now_ns () in
  let meas =
    Harness.Runner.measure stack "RunA" (fun () ->
        for i = 0 to operations - 1 do
          let s0 = Pmem.Env.now env in
          Hspan.span trace Hspan.Request (fun () ->
              think ();
              match Workloads.Ycsb.next_op Workloads.Ycsb.A cfg rng zipf ~inserted with
              | Workloads.Ycsb.Read k -> (
                  let key = Workloads.Ycsb.key_of k in
                  match Hspan.span trace Hspan.Lsm (fun () -> Apps.Lsm.get lsm key) with
                  | Some v when Some v = Hashtbl.find_opt model key -> ()
                  | _ -> incr failures)
              | Workloads.Ycsb.Update k ->
                  let key = Workloads.Ycsb.key_of k in
                  let v = value rng in
                  Hspan.span trace Hspan.Lsm (fun () -> Apps.Lsm.put lsm key v);
                  Hashtbl.replace model key v;
                  user_bytes := !user_bytes + String.length key + String.length v
              | _ -> incr failures);
          lat.(i) <- Pmem.Env.now env -. s0
        done;
        operations)
  in
  let timed_s = Common.seconds_since t0 in
  Hspan.set_on trace false;
  let layer = Common.sim_layers env m0 ~ops:operations in
  ignore (Pmem.Env.check_identity env);
  let flushes1, compactions1, _, _ = Apps.Lsm.stats lsm in
  Apps.Lsm.close lsm;
  let d = Common.dist lat in
  {
    Common.requests = operations;
    failures = !failures;
    setups = [ setup_s ];
    stack_build_s;
    preload_s;
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
    layer =
      layer
      @ [
          ("apps.flushes", float_of_int (flushes1 - flushes0));
          ("apps.compactions", float_of_int (compactions1 - compactions0));
        ];
    notes = [ Common.pct_note "YCSB-A op latency (sim)" d ];
  }
