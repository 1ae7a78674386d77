(** [serve]: the [Workloads.Multitenant] mix on splitfs-posix, 1000 actors
    in 32 tenants, driven open-loop. Each actor draws Poisson arrivals at
    the offered rate / 1000 and a request's latency counts from its
    intended start, so a stall is charged to every request it delays
    (no coordinated omission). The ladder runs 1000, 2000, 3000 and 4000
    kops/s, each on a fresh stack. The only workload with contention:
    Sched, pmem lock and bandwidth queueing and the journal streams do the
    work here. *)

let nactors = 1000
let tenants = 32
let shards = 16
let ops_per_actor = Workloads.Multitenant.default_cfg.Workloads.Multitenant.ops_per_actor

(* Arrivals span a fixed simulated window at every rate; throughput is
   counted over its last three quarters, once the fleet is in steady state. *)
let window_ns = 16e6

(* offered rates, kops/s *)
let rates = [ 1000; 2000; 3000; 4000 ]
let headline = 3000
let slo_ns = 2_000_000.

type rate_result = {
  rate : int;
  lat : float array;  (** from intended start, per request *)
  max_lateness : float;
  growing : bool;  (** generator lateness grows over the run *)
  achieved_kops : float;
  failures : int;
  setup_s : float;
  stack_build_s : float;
  run_s : float;  (** host seconds inside [Sched.run] *)
  dispatches : int;
  meas : Harness.Runner.measurement;
  user_bytes : int;
  layer : (string * float) list;
}

(* Mean lateness of the last third of requests (by due time) against the
   first third: a backlog that keeps growing shows as a rising mean. *)
let lateness_grows dues lateness =
  let n = Array.length dues in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare dues.(a) dues.(b)) idx;
  let mean lo hi =
    let s = ref 0. in
    for k = lo to hi - 1 do
      s := !s +. lateness.(idx.(k))
    done;
    !s /. float_of_int (max 1 (hi - lo))
  in
  mean (2 * n / 3) n > (2. *. mean 0 (n / 3)) +. (0.05 *. slo_ns)

let run_rate ?timing ~seed ~trace rate =
  let t_start = Hspan.now_ns () in
  let env =
    Pmem.Env.create
      ~capacity:(Harness.Multiclient.scale_capacity nactors)
      ?timing ()
  in
  let raw, kfs =
    Harness.Multiclient.build_scale Harness.Fs_config.Splitfs_posix ~nactors
      ~tenants ~shards env
  in
  let stack_build_s = Common.seconds_since t_start in
  let cfg =
    { Workloads.Multitenant.default_cfg with Workloads.Multitenant.seed }
  in
  Array.iteri (fun k fs -> Workloads.Multitenant.setup_tenant fs ~cfg ~tenant:k) raw;
  let user_bytes = ref 0 in
  (* the user bytes written, for write amplification: every pwrite the
     mix issues goes through here *)
  let count_writes (fs : Fsapi.Fs.t) =
    {
      fs with
      Fsapi.Fs.pwrite =
        (fun fd ~buf ~boff ~len ~at ->
          let n = fs.pwrite fd ~buf ~boff ~len ~at in
          user_bytes := !user_bytes + n;
          n);
    }
  in
  let fss =
    Array.map
      (fun fs ->
        count_writes (Common.fs_view ~trace fs))
      raw
  in
  let zipf =
    Workloads.Zipf.create ~theta:cfg.Workloads.Multitenant.zipf_theta
      cfg.Workloads.Multitenant.data_records
  in
  let think () = Pmem.Env.cpu env cfg.Workloads.Multitenant.think_ns in
  let mean_gap_ns = 1e6 *. float_of_int nactors /. float_of_int rate in
  (* open every actor's files in setup, on the main actor's clock, so the
     measured phase does not start with a burst of 1000 creates *)
  let actors =
    Array.init nactors (fun a ->
        let tenant = a mod tenants in
        let st =
          Workloads.Multitenant.make_actor ~fs:fss.(tenant) ~think ~zipf ~cfg
            ~tenant ~idx:a
        in
        ignore (Workloads.Multitenant.step cfg st 0);
        st)
  in
  let start = Pmem.Env.now env in
  let horizon = start +. window_ns in
  let cap = 2 * rate * int_of_float (window_ns /. 1e6) in
  let lat = Array.make cap 0. and dues = Array.make cap 0.
  and lateness = Array.make cap 0. and done_at = Array.make cap 0. in
  let nlat = ref 0 and failures = ref 0 and idle = ref 0. in
  let service_ns = ref 0. in
  let s = Sched.create env in
  for a = 0 to nactors - 1 do
    let st = actors.(a) in
    let arrivals = Workloads.Rng.create_derived seed a in
    let gap () = -.mean_gap_ns *. log (1. -. Workloads.Rng.float arrivals) in
    let due = ref (start +. gap ()) and k = ref 1 and closed = ref false in
    let step _ _ =
      if !due < horizon then begin
        let now = Pmem.Env.now env in
        if now < !due then begin
          (* idling is its own dispatch: an op run in the same step would
             reserve bandwidth ahead of actors whose clocks are behind *)
          Pmem.Env.advance env (!due -. now);
          idle := !idle +. (!due -. now)
        end
        else begin
          (* [Multitenant.step] runs op [k] of the mix for k in
             1..ops_per_actor; past that it would close, so cycle *)
          (try
             Hspan.span trace Hspan.Request (fun () ->
                 ignore (Workloads.Multitenant.step cfg st !k))
           with Fsapi.Errno.Error _ | Assert_failure _ -> incr failures);
          let fin = Pmem.Env.now env in
          let i = !nlat in
          lat.(i) <- fin -. !due;
          dues.(i) <- !due;
          lateness.(i) <- now -. !due;
          done_at.(i) <- fin;
          service_ns := !service_ns +. (fin -. now);
          incr nlat;
          due := !due +. gap ();
          k := (!k mod ops_per_actor) + 1
        end;
        true
      end
      else if not !closed then begin
        ignore (Workloads.Multitenant.step cfg st (ops_per_actor + 1));
        closed := true;
        true
      end
      else false
    in
    ignore (Sched.spawn s ~name:(Printf.sprintf "a%d" a) ~step)
  done;
  let setup_s = Common.seconds_since t_start in
  let steals () =
    match kfs with
    | Some k -> Kernelfs.Alloc.steals (Kernelfs.Ext4.allocator k)
    | None -> 0
  in
  let steals0 = steals () in
  let m0 = Common.mark env in
  Hspan.set_on trace true;
  let t0 = Hspan.now_ns () in
  Hspan.span trace Hspan.Sched_run (fun () -> Sched.run s);
  let run_s = Common.seconds_since t0 in
  Hspan.set_on trace false;
  let s1 = Pmem.Stats.diff env.Pmem.Env.stats m0.Common.m_stats in
  let layer =
    Common.sim_layers ~idle_ns:!idle ~alloc_steals:(steals () - steals0) env m0
      ~ops:!nlat
  in
  ignore (Pmem.Env.check_identity env);
  let n = !nlat in
  let lat = Array.sub lat 0 n in
  {
    rate;
    lat;
    max_lateness = Array.fold_left Float.max 0. (Array.sub lateness 0 n);
    growing = lateness_grows (Array.sub dues 0 n) (Array.sub lateness 0 n);
    achieved_kops =
      (let lo = start +. (window_ns /. 4.) in
       let c = ref 0 in
       for i = 0 to n - 1 do
         if done_at.(i) >= lo && done_at.(i) < horizon then incr c
       done;
       float_of_int !c /. (0.75 *. window_ns /. 1e6));
    failures = !failures;
    setup_s;
    stack_build_s;
    run_s;
    dispatches = Sched.dispatches s;
    meas =
      {
        Harness.Runner.label = "serve";
        ops = n;
        sim_ns = !service_ns;
        media_ns = s1.Pmem.Stats.media_ns;
        stats = s1;
      };
    user_bytes = !user_bytes;
    layer;
  }

let run ?timing ~seed ~trace () =
  let results =
    List.map
      (fun rate ->
        Gc.full_major ();
        Hspan.span trace Hspan.Rate (fun () -> run_rate ?timing ~seed ~trace rate))
      rates
  in
  let at r = List.find (fun x -> x.rate = r) results in
  let head = at headline in
  let p999 r = Common.pct (Common.dist r.lat) 99.9 in
  let meets r = p999 r <= slo_ns && not r.growing in
  let max_at_slo =
    List.fold_left (fun acc r -> if meets r then max acc r.rate else acc) 0 results
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let run_s = List.fold_left (fun acc r -> acc +. r.run_s) 0. results in
  let d = Common.dist head.lat in
  let dispatches = sum (fun r -> r.dispatches) in
  let ladder =
    List.map
      (fun r ->
        let d = Common.dist r.lat in
        Printf.sprintf
          "rate %d kops/s offered: achieved %.1f, p50 %.0f ns, p999 %.0f ns \
           (n=%d, %d beyond), max lateness %.0f ns%s -> %s"
          r.rate r.achieved_kops (Common.pct d 50.) (Common.pct d 99.9)
          (Array.length r.lat) (Common.beyond d 99.9) r.max_lateness
          (if r.growing then ", growing" else "")
          (if meets r then "meets SLO" else "misses SLO"))
      results
  in
  {
    Common.requests = sum (fun r -> Array.length r.lat);
    failures = sum (fun r -> r.failures);
    setups = List.map (fun r -> r.setup_s) results;
    stack_build_s = Common.median (List.map (fun r -> r.stack_build_s) results);
    preload_s =
      Common.median (List.map (fun r -> r.setup_s -. r.stack_build_s) results);
    timed_s = run_s;
    sim =
      [
        ("sim_kops_per_s", "kops/s", head.achieved_kops);
        ("sim_p50_ns", "ns", Common.pct d 50.);
        ("sim_p999_ns", "ns", Common.pct d 99.9);
        ("sim_sw_overhead_ns", "ns", Harness.Runner.overhead_ns head.meas);
        ( "sim_write_amp",
          "ratio",
          float_of_int head.meas.Harness.Runner.stats.Pmem.Stats.pm_write_bytes
          /. float_of_int (max 1 head.user_bytes) );
      ];
    layer =
      head.layer
      @ [
          ("sim_max_kops_at_slo", float_of_int max_at_slo);
          ("sim_p999_ns.r1000", p999 (at 1000));
          ("sim_p999_ns.r2000", p999 (at 2000));
          ("sim_p999_ns.r4000", p999 (at 4000));
          ("sched.dispatches", float_of_int dispatches);
        ]
      @ (match trace with
        | Some tr ->
            (* Sched.run minus the Fs.t calls made inside it *)
            let _, total, _ = Hspan.find (Hspan.totals tr) "sched.run" in
            let fs = Hspan.inside tr ~outer:Hspan.Sched_run ~prefix:"fsapi." in
            [
              ( "sched.host_ns_per_dispatch",
                float_of_int (total - fs) /. float_of_int (max 1 dispatches) );
            ]
        | None -> [])
      @ List.map
          (fun r ->
            (Printf.sprintf "sched.max_lateness_ns.r%d" r.rate, r.max_lateness))
          results;
    notes =
      (Printf.sprintf "open loop, %d actors in %d tenants, SLO p999 <= %.0f ns"
         nactors tenants slo_ns
      :: ladder)
      @ [
          Printf.sprintf "sim_max_kops_at_slo = %d kops/s" max_at_slo;
          Common.pct_note
            (Printf.sprintf "request latency at %d kops/s (sim)" headline)
            d;
        ];
  }
