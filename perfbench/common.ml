(** What one round of a workload reports, and the helpers every workload
    shares: host timing, exact percentiles, and the per-layer split of
    simulated time read from the program's own attribution. *)

let seconds_since t0 = float_of_int (Hspan.now_ns () - t0) /. 1e9

type round = {
  requests : int;  (** timed requests attempted *)
  failures : int;
      (** errno, short count, wrong bytes read, or oracle violation *)
  setups : float list;
      (** host seconds from a stack's start to its first timed request;
          a workload that builds several stacks per round reports each *)
  stack_build_s : float;
  preload_s : float;
  timed_s : float;  (** host seconds of the timed phase, tracing as run *)
  sim : (string * string * float) list;
      (** simulated end-to-end metrics (name, unit, value); a pure
          function of the seed, so identical in every round *)
  layer : (string * float) list;  (** per-layer metrics of this round *)
  notes : string list;  (** human-readable lines: percentiles, ladders *)
}

(** Host-only slowdown factor applied to every [Fs.t] call the workloads
    make ([--host-slowdown], for the self-check); 0 leaves them alone. *)
let host_slowdown = ref 0.

(** The file-system view a workload drives: spans when tracing, and the
    self-check's host slowdown when asked for. *)
let fs_view ~trace fs =
  let fs = match trace with Some tr -> Hspan.wrap_fs tr fs | None -> fs in
  if !host_slowdown > 0. then Hspan.slow_fs !host_slowdown fs else fs

(* --- exact percentiles over raw samples --- *)

type dist = { sorted : float array }

let dist samples =
  let a = Array.copy samples in
  Array.sort compare a;
  { sorted = a }

(** Nearest-rank percentile, [p] in (0, 100]. *)
let pct d p =
  let n = Array.length d.sorted in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    d.sorted.(max 1 (min n r) - 1)

(** Samples strictly beyond the nearest-rank [p]-th percentile. *)
let beyond d p =
  let n = Array.length d.sorted in
  n - max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let pct_note label d =
  Printf.sprintf "%s: p50 %.1f ns, p99 %.1f ns, p999 %.1f ns (n=%d, %d beyond p999)"
    label (pct d 50.) (pct d 99.) (pct d 99.9) (Array.length d.sorted)
    (beyond d 99.9)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- simulated attribution of a timed phase --- *)

(** Attribution category -> per-layer metric. Every category maps to
    exactly one layer, so the per-layer sim values sum to the total. *)
let cat_metric = function
  | Obs.App -> "apps.sim_app_ns_per_op"
  | Obs.Usplit -> "usplit.sim_cpu_ns_per_op"
  | Obs.Log_append -> "usplit.sim_log_append_ns_per_op"
  | Obs.Relink_copy -> "usplit.sim_relink_copy_ns_per_op"
  | Obs.Syscall -> "kernelfs.sim_syscall_ns_per_op"
  | Obs.Kernel -> "kernelfs.sim_kernel_ns_per_op"
  | Obs.Journal -> "kernelfs.sim_journal_ns_per_op"
  | Obs.Alloc -> "kernelfs.sim_alloc_ns_per_op"
  | Obs.Media -> "pmem.sim_media_ns_per_op"
  | Obs.Lock_wait -> "pmem.sim_lock_wait_ns_per_op"
  | Obs.Bw_wait -> "pmem.sim_bw_wait_ns_per_op"
  | Obs.Background -> "pmem.sim_background_ns_per_op"

type mark = {
  m_cats : float array;
  m_accountable : float;
  m_stats : Pmem.Stats.t;
  m_gc : Gc.stat;
}

let mark (env : Pmem.Env.t) =
  {
    m_cats = Obs.snapshot env.Pmem.Env.obs;
    m_accountable = Pmem.Env.accountable_ns env;
    m_stats = Pmem.Stats.copy env.Pmem.Env.stats;
    m_gc = Gc.quick_stat ();
  }

(** Simulated totals of one or more timed phases, possibly on several
    environments. *)
type acc = {
  a_cats : float array;  (** per attribution category, in [Obs.all_cats] order *)
  mutable a_total : float;  (** accountable simulated ns *)
  mutable a_media : float;
  mutable a_write_bytes : int;  (** PM media bytes written *)
  mutable a_user_bytes : int;
  mutable a_deltas : Pmem.Stats.t list;
}

let acc_create () =
  {
    a_cats = Array.make Obs.ncats 0.;
    a_total = 0.;
    a_media = 0.;
    a_write_bytes = 0;
    a_user_bytes = 0;
    a_deltas = [];
  }

(** Add everything charged on [env] since [m]. Fails if the attribution
    categories do not sum to the accountable total. *)
let accumulate acc (env : Pmem.Env.t) m ~user_bytes =
  let cats = Obs.breakdown_since env.Pmem.Env.obs m.m_cats in
  let total = Pmem.Env.accountable_ns env -. m.m_accountable in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. cats in
  if Float.abs (attributed -. total) > (1e-8 *. Float.abs total) +. 1e-3 then
    failwith
      (Printf.sprintf "per-layer split %.3f ns <> simulated total %.3f ns"
         attributed total);
  List.iteri (fun i (_, v) -> acc.a_cats.(i) <- acc.a_cats.(i) +. v) cats;
  let d = Pmem.Stats.diff env.Pmem.Env.stats m.m_stats in
  acc.a_total <- acc.a_total +. total;
  acc.a_media <- acc.a_media +. d.Pmem.Stats.media_ns;
  acc.a_write_bytes <- acc.a_write_bytes + d.Pmem.Stats.pm_write_bytes;
  acc.a_user_bytes <- acc.a_user_bytes + user_bytes;
  acc.a_deltas <- d :: acc.a_deltas

(** Per-request simulated split and layer counters of [acc]. [idle_ns] is
    open-loop waiting for the next due time: it lands in the [App]
    category (it is charged with [Pmem.Env.advance]) and is split out as
    its own row, so the [*.sim_*_ns_per_op] rows and
    [sched.sim_idle_ns_per_op] sum to [sim.total_ns_per_op]. *)
let acc_layers ?(idle_ns = 0.) ?(alloc_steals = 0) acc ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  let fi = float_of_int in
  let sum f = List.fold_left (fun a d -> a + f d) 0 acc.a_deltas in
  let fast = sum (fun d -> d.Pmem.Stats.fast_path_hits)
  and slow = sum (fun d -> d.Pmem.Stats.slow_path_hits) in
  List.mapi
    (fun i c ->
      let v = acc.a_cats.(i) in
      (cat_metric c, per (if c = Obs.App then v -. idle_ns else v)))
    Obs.all_cats
  @ [
      ("sched.sim_idle_ns_per_op", per idle_ns);
      ("sim.total_ns_per_op", per acc.a_total);
      ("usplit.staged_bytes_per_op", per (fi (sum (fun d -> d.Pmem.Stats.staged_bytes))));
      ("usplit.relinks", fi (sum (fun d -> d.Pmem.Stats.relinks)));
      ("usplit.log_entries_per_op", per (fi (sum (fun d -> d.Pmem.Stats.log_entries))));
      ("usplit.mmap_setups", fi (sum (fun d -> d.Pmem.Stats.mmap_setups)));
      ("usplit.page_faults", fi (sum (fun d -> d.Pmem.Stats.page_faults)));
      ("usplit.fast_path_ratio", if fast + slow = 0 then 0. else fi fast /. fi (fast + slow));
      ("kernelfs.syscalls_per_op", per (fi (sum (fun d -> d.Pmem.Stats.syscalls))));
      ("kernelfs.journal_commits", fi (sum (fun d -> d.Pmem.Stats.journal_commits)));
      ("kernelfs.journal_bytes_per_op", per (fi (sum (fun d -> d.Pmem.Stats.journal_bytes))));
      ("kernelfs.alloc_steals", fi alloc_steals);
      ("pmem.write_bytes_per_op", per (fi acc.a_write_bytes));
      ("pmem.read_bytes_per_op", per (fi (sum (fun d -> d.Pmem.Stats.pm_read_bytes))));
      ("pmem.fences_per_op", per (fi (sum (fun d -> d.Pmem.Stats.fences))));
      ("pmem.flushes_per_op", per (fi (sum (fun d -> d.Pmem.Stats.flushes))));
      ("pmem.nt_stores_per_op", per (fi (sum (fun d -> d.Pmem.Stats.nt_stores))));
      ( "pmem.dirty_lines_hwm",
        fi (List.fold_left (fun a d -> max a d.Pmem.Stats.dirty_lines_hwm) 0 acc.a_deltas) );
    ]

(** [acc_layers] of a single timed phase on [env] since [m], plus the
    phase's GC work. *)
let sim_layers ?idle_ns ?alloc_steals (env : Pmem.Env.t) m ~ops =
  let acc = acc_create () in
  accumulate acc env m ~user_bytes:0;
  let g = Gc.quick_stat () in
  acc_layers ?idle_ns ?alloc_steals acc ~ops
  @ [
      ( "gc.minor_words_per_op",
        (g.Gc.minor_words -. m.m_gc.Gc.minor_words) /. float_of_int (max 1 ops) );
      ( "gc.major_collections",
        float_of_int (g.Gc.major_collections - m.m_gc.Gc.major_collections) );
    ]

(** Host per-layer metrics of a traced round, from its spans. *)
let host_layers (tr : Hspan.t) ~ops =
  let tot = Hspan.totals tr in
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let fs_calls =
    List.fold_left
      (fun acc (name, c, _, _) ->
        if String.length name > 6 && String.sub name 0 6 = "fsapi." then acc + c
        else acc)
      0 tot
  in
  let _, _, lsm_self = Hspan.find tot "apps.lsm" in
  [
    ("apps.host_self_ns_per_op", per lsm_self);
    ("fsapi.calls_per_op", per fs_calls);
    ("fsapi.errors", float_of_int tr.Hspan.fs_errors);
  ]
  @ List.map
      (fun op ->
        let c, total, _ = Hspan.find tot ("fsapi." ^ op) in
        ( "fsapi.host_ns." ^ op,
          if c = 0 then 0. else float_of_int total /. float_of_int c ))
      [ "open"; "close"; "pread"; "pwrite"; "write"; "fsync"; "unlink" ]
