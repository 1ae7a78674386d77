(** Host-clock spans recorded by the benchmark around its own calls into
    each layer of the program.

    A span is (kind, depth, start, end) in monotonic host nanoseconds.
    Spans are appended in start order into flat arrays, so a span's parent
    is the closest earlier span one level shallower; self time is a span's
    duration minus the durations of its direct children. Nothing here
    touches the simulated clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Request  (** one timed request of the workload *)
  | Lsm  (** one [Apps.Lsm] call *)
  | Fs of string  (** one [Fsapi.Fs.t] call, by operation *)
  | Rate  (** one offered rate of the open-loop ladder *)
  | Sched_run  (** one [Sched.run] *)
  | Profile  (** one [Crashcheck.Runner.profile] *)
  | Trial  (** one [Crashcheck.Runner.run_trial] *)

let kind_name = function
  | Request -> "request"
  | Lsm -> "apps.lsm"
  | Fs op -> "fsapi." ^ op
  | Rate -> "rate"
  | Sched_run -> "sched.run"
  | Profile -> "crashcheck.profile"
  | Trial -> "crashcheck.trial"

type t = {
  mutable n : int;
  mutable kinds : kind array;
  mutable depths : int array;
  mutable t0s : int array;
  mutable t1s : int array;
  mutable depth : int;
  mutable fs_errors : int;
  mutable on : bool;  (** [wrap_fs] records only while set: the timed phase *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    kinds = Array.make cap Request;
    depths = Array.make cap 0;
    t0s = Array.make cap 0;
    t1s = Array.make cap 0;
    depth = 0;
    fs_errors = 0;
    on = false;
  }

let grow t =
  let cap = 2 * Array.length t.kinds in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kinds <- extend t.kinds Request;
  t.depths <- extend t.depths 0;
  t.t0s <- extend t.t0s 0;
  t.t1s <- extend t.t1s 0

let open_ t k =
  if t.n = Array.length t.kinds then grow t;
  let i = t.n in
  t.kinds.(i) <- k;
  t.depths.(i) <- t.depth;
  t.depth <- t.depth + 1;
  t.n <- i + 1;
  t.t0s.(i) <- now_ns ();
  i

let close t i =
  t.t1s.(i) <- now_ns ();
  t.depth <- t.depth - 1

(** Switch [wrap_fs] recording on or off, when tracing. *)
let set_on tr on = match tr with Some t -> t.on <- on | None -> ()

(** [span tr k f] runs [f] inside a span of kind [k] when [tr] is given,
    and just runs it otherwise. *)
let span tr k f =
  match tr with
  | None -> f ()
  | Some t -> (
      let i = open_ t k in
      match f () with
      | x ->
          close t i;
          x
      | exception e ->
          close t i;
          raise e)

(** Per-kind totals: (kind name, calls, total ns, self ns). *)
let totals t =
  let dur i = t.t1s.(i) - t.t0s.(i) in
  let child = Array.make t.n 0 in
  let last_at = Array.make 64 (-1) in
  for i = 0 to t.n - 1 do
    let d = t.depths.(i) in
    if d > 0 && last_at.(d - 1) >= 0 then
      child.(last_at.(d - 1)) <- child.(last_at.(d - 1)) + dur i;
    last_at.(d) <- i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let name = kind_name t.kinds.(i) in
    let c, tot, self =
      Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0, 0)
    in
    Hashtbl.replace tbl name (c + 1, tot + dur i, self + dur i - child.(i))
  done;
  Hashtbl.fold (fun name (c, tot, self) acc -> (name, c, tot, self) :: acc) tbl []

let find totals name =
  match List.find_opt (fun (n, _, _, _) -> n = name) totals with
  | Some (_, c, tot, self) -> (c, tot, self)
  | None -> (0, 0, 0)

(** Sum of the total ns of every span kind whose name starts with [prefix]
    and that lies inside a span of kind [outer] (any depth). *)
let inside t ~outer ~prefix =
  let sum = ref 0 and open_outer = ref (-1) in
  let plen = String.length prefix in
  for i = 0 to t.n - 1 do
    let name = kind_name t.kinds.(i) in
    if t.kinds.(i) = outer then open_outer := i
    else if
      !open_outer >= 0
      && t.t0s.(i) < t.t1s.(!open_outer)
      && String.length name >= plen
      && String.sub name 0 plen = prefix
    then sum := !sum + (t.t1s.(i) - t.t0s.(i))
  done;
  !sum

(** Write the spans as a Chrome trace-event file (Perfetto's JSON
    importer): one complete ["X"] event per span, microsecond times
    relative to the first span. *)
let write_perfetto t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.t0s.(0) else 0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n"
      (if i = 0 then "" else ",")
      (kind_name t.kinds.(i))
      (float_of_int (t.t0s.(i) - base) /. 1e3)
      (float_of_int (t.t1s.(i) - t.t0s.(i)) /. 1e3)
  done;
  output_string oc "]}\n";
  close_out oc

(** Wrap every operation of [fs] in an [Fs] span; [Errno.Error]s raised
    by the file system are counted in [fs_errors] and re-raised. *)
let wrap_fs t (fs : Fsapi.Fs.t) : Fsapi.Fs.t =
  let call : 'a. string -> (unit -> 'a) -> 'a =
   fun op f ->
    if not t.on then f ()
    else
    let i = open_ t (Fs op) in
    match f () with
    | x ->
        close t i;
        x
    | exception (Fsapi.Errno.Error _ as e) ->
        close t i;
        t.fs_errors <- t.fs_errors + 1;
        raise e
    | exception e ->
        close t i;
        raise e
  in
  {
    fs with
    Fsapi.Fs.open_ = (fun p fl -> call "open" (fun () -> fs.open_ p fl));
    close = (fun fd -> call "close" (fun () -> fs.close fd));
    dup = (fun fd -> call "other" (fun () -> fs.dup fd));
    pread =
      (fun fd ~buf ~boff ~len ~at ->
        call "pread" (fun () -> fs.pread fd ~buf ~boff ~len ~at));
    pwrite =
      (fun fd ~buf ~boff ~len ~at ->
        call "pwrite" (fun () -> fs.pwrite fd ~buf ~boff ~len ~at));
    read =
      (fun fd ~buf ~boff ~len -> call "read" (fun () -> fs.read fd ~buf ~boff ~len));
    write =
      (fun fd ~buf ~boff ~len ->
        call "write" (fun () -> fs.write fd ~buf ~boff ~len));
    lseek = (fun fd off w -> call "other" (fun () -> fs.lseek fd off w));
    fsync = (fun fd -> call "fsync" (fun () -> fs.fsync fd));
    ftruncate = (fun fd n -> call "other" (fun () -> fs.ftruncate fd n));
    fstat = (fun fd -> call "other" (fun () -> fs.fstat fd));
    stat = (fun p -> call "other" (fun () -> fs.stat p));
    unlink = (fun p -> call "unlink" (fun () -> fs.unlink p));
    rename = (fun s d -> call "other" (fun () -> fs.rename s d));
    mkdir = (fun p -> call "other" (fun () -> fs.mkdir p));
    rmdir = (fun p -> call "other" (fun () -> fs.rmdir p));
    readdir = (fun p -> call "other" (fun () -> fs.readdir p));
  }

(** Wrap every operation of [fs] so that it takes [1 + factor] times its
    host time, by spinning after it returns: a host-only slowdown with no
    simulated effect, used by the self-check to show that host metrics
    see one. *)
let slow_fs factor (fs : Fsapi.Fs.t) : Fsapi.Fs.t =
  let call : 'a. (unit -> 'a) -> 'a =
   fun f ->
    let t0 = now_ns () in
    let x = f () in
    let until = t0 + int_of_float (float_of_int (now_ns () - t0) *. (1. +. factor)) in
    while now_ns () < until do
      ()
    done;
    x
  in
  {
    fs with
    Fsapi.Fs.open_ = (fun p fl -> call (fun () -> fs.open_ p fl));
    close = (fun fd -> call (fun () -> fs.close fd));
    pread =
      (fun fd ~buf ~boff ~len ~at -> call (fun () -> fs.pread fd ~buf ~boff ~len ~at));
    pwrite =
      (fun fd ~buf ~boff ~len ~at -> call (fun () -> fs.pwrite fd ~buf ~boff ~len ~at));
    write = (fun fd ~buf ~boff ~len -> call (fun () -> fs.write fd ~buf ~boff ~len));
    fsync = (fun fd -> call (fun () -> fs.fsync fd));
    unlink = (fun p -> call (fun () -> fs.unlink p));
  }
