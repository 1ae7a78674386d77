(** [crashcheck]: differential crash checking through
    [Crashcheck.Runner] in the four consistency modes (posix, sync,
    strict, fams): per mode [traces] 24-op traces, each profiled once,
    then [states] crash states per trace (200 per mode) sampled as
    [Crashcheck.check_mode] samples them, each replayed, crashed,
    recovered and checked against the [Ref_fs] oracle by
    [Runner.run_trial]. Several traces rather than one keep the host cost
    per state from hanging on a single trace's shape. Recovery, the
    explorer and the oracle run only here; an oracle violation is a
    failed request. Runs on one domain (the calling one), so host times
    are per trial.

    Its simulated figures come from the fault-free cost of the same kind
    of trace: [family] traces per mode drawn from the seed (the first
    [traces] are the crash-checked ones), each applied op a sample; enough
    ops for a p999 with 10 samples beyond it. *)

let modes =
  Splitfs.Config.[ ("posix", Posix); ("sync", Sync); ("strict", Strict); ("fams", Fams) ]

let nops = 24
let traces = 20
let states = 10
let family = 160
let worker_domains = 1

let trace_seed seed k = if k = 0 then seed else Workloads.Rng.derive seed k

(* Simulated cost of one fault-free trace on a fresh Runner stack: per-op
   latencies into [lat], and the phase's attribution into [acc]. *)
let fault_free (w : Crashcheck.Workload.t) ~lat ~n ~acc =
  let st = Crashcheck.Runner.build w.Crashcheck.Workload.mode in
  let env = st.Crashcheck.Runner.env in
  let fds = Crashcheck.Runner.setup w st.Crashcheck.Runner.fs in
  let m0 = Common.mark env in
  let user = ref 0 in
  List.iter
    (fun op ->
      let t0 = Pmem.Env.now env in
      Crashcheck.Runner.apply
        ~checkpoint:(fun () -> Splitfs.Usplit.relink_all st.Crashcheck.Runner.u)
        st.Crashcheck.Runner.fs fds op;
      lat.(!n) <- Pmem.Env.now env -. t0;
      incr n;
      match op with
      | Crashcheck.Workload.Write { len; _ } -> user := !user + len
      | _ -> ())
    w.Crashcheck.Workload.ops;
  ignore (Pmem.Env.check_identity env);
  Common.accumulate acc env m0 ~user_bytes:!user

(* The family's figures are a pure function of the seed: a process computes
   them once, and later rounds re-time only the crash checks. *)
let family_memo = Hashtbl.create 1

let family_figures seed =
  match Hashtbl.find_opt family_memo seed with
  | Some f -> f
  | None ->
      let lat = Array.make (family * nops * List.length modes) 0. in
      let n = ref 0 and acc = Common.acc_create () in
      List.iter
        (fun (_, mode) ->
          for k = 0 to family - 1 do
            let seed = trace_seed seed k in
            fault_free (Crashcheck.Workload.generate ~mode ~seed ~nops ()) ~lat ~n ~acc
          done)
        modes;
      let d = Common.dist (Array.sub lat 0 !n) in
      let f =
        ( [
            ("sim_kops_per_s", "kops/s", float_of_int !n /. (acc.Common.a_total /. 1e6));
            ("sim_p50_ns", "ns", Common.pct d 50.);
            ("sim_p999_ns", "ns", Common.pct d 99.9);
            ( "sim_sw_overhead_ns",
              "ns",
              (acc.Common.a_total -. acc.Common.a_media) /. float_of_int !n );
            ( "sim_write_amp",
              "ratio",
              float_of_int acc.Common.a_write_bytes
              /. float_of_int (max 1 acc.Common.a_user_bytes) );
          ],
          Common.acc_layers acc ~ops:!n,
          Common.pct_note "fault-free trace op latency (sim)" d )
      in
      Hashtbl.replace family_memo seed f;
      f

let run ?timing:_ ~seed ~trace () =
  let t_start = Hspan.now_ns () in
  let checked =
    List.map
      (fun (name, mode) ->
        ( name,
          List.init traces (fun k ->
              let seed = trace_seed seed k in
              let w = Crashcheck.Workload.generate ~mode ~seed ~nops () in
              let points =
                Hspan.span trace Hspan.Profile (fun () -> Crashcheck.Runner.profile w)
              in
              (seed, w, Array.of_list points)) ))
      modes
  in
  let setup_s = Common.seconds_since t_start in
  let trial_ms = Array.make (traces * states * List.length modes) 0. in
  let checked_n = ref 0 and failures = ref 0 in
  let g0 = Gc.quick_stat () in
  let t0 = Hspan.now_ns () in
  let per_mode =
    List.map
      (fun (name, ws) ->
        let m0 = Hspan.now_ns () in
        List.iter
          (fun (seed, w, points) ->
            for i = 0 to states - 1 do
              let point, survivors =
                Crashcheck.Explore.sample_point_indexed
                  ~seed:(seed lxor 0x5EED5EED) ~index:i points
              in
              let h0 = Hspan.now_ns () in
              let t =
                Hspan.span trace Hspan.Trial (fun () ->
                    Crashcheck.Runner.run_trial w ~point ~survivors)
              in
              trial_ms.(!checked_n) <- float_of_int (Hspan.now_ns () - h0) /. 1e6;
              incr checked_n;
              if t.Crashcheck.Runner.violations <> [] then incr failures
            done)
          ws;
        (name, Common.seconds_since m0))
      checked
  in
  let timed_s = Common.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let sim, sim_layer, sim_note = family_figures seed in
  let tm = Common.dist (Array.sub trial_ms 0 !checked_n) in
  {
    Common.requests = !checked_n;
    failures = !failures;
    setups = [ setup_s ];
    stack_build_s = 0.;
    preload_s = setup_s;
    timed_s;
    sim;
    layer =
      sim_layer
      @ [
          ("crashcheck.profile_s", setup_s);
          ("crashcheck.trial_host_ms.p50", Common.pct tm 50.);
          ("crashcheck.trial_host_ms.p99", Common.pct tm 99.);
          ("crashcheck.states", float_of_int !checked_n);
          ( "gc.minor_words_per_op",
            (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 !checked_n) );
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        ]
      @ List.map (fun (name, s) -> ("crashcheck.host_s." ^ name, s)) per_mode;
    notes =
      [
        Printf.sprintf
          "%d states checked in %d modes on %d worker domain(s), %d violation(s)"
          !checked_n (List.length modes) worker_domains !failures;
        Printf.sprintf
          "trial host time: p50 %.3f ms, p99 %.3f ms (n=%d, %d beyond p99)"
          (Common.pct tm 50.) (Common.pct tm 99.) !checked_n (Common.beyond tm 99.);
        sim_note;
      ];
  }
