(* Rounds, trials and the metrics they yield.

   A run is [rounds] rounds; each round runs every workload once, in an
   order rotated by one from the round before, so slow drift of the
   machine spreads over all workloads instead of landing on one. With
   tracing on, each workload's round holds an untraced and a traced
   trial, alternating which goes first.

   A trial is: fresh setup (timed), [Gc.full_major], the closed loop in
   every domain for the trial length, then the workload's quiescent
   checks and teardown. Untraced trials time every 16th op on its own;
   traced trials record spans for every 8th op. The position of the
   timed op inside its block rotates, so alternating op streams (the
   queue's enqueue/dequeue) are sampled evenly. *)

module C = Atomics.Counters
module W = Workloads
module Runner = Harness.Runner

type config = {
  workloads : W.t list;
  seed : int;
  trial_s : float;  (* length of one trial *)
  warmup_s : float;  (* untimed trials, over all workloads, before the rounds *)
  rounds : int;
  trace : bool;
  domains : int;
  keep_log : bool;  (* keep spans for --trace-out *)
}

type metric = {
  workload : string;
  name : string;
  unit_ : string;
  e2e : bool;  (* end-to-end (gated), else per-layer or diagnostic *)
  values : float list;  (* one per round, or one per run *)
}

type trial = {
  ops : int;
  elapsed_ns : int;
  setup_ns : int;
  rss_kb : int;
  pcts : int array;  (* latency at each of [quantiles]; empty when traced *)
  samples : int;  (* latency samples taken; 0 when traced *)
  agg : Trace.agg;  (* span sums; all zero when untraced *)
  ctr : int array;  (* counter deltas over the loop, as [C.all_events] *)
  tallies : int array;  (* summed over domains *)
  errors : string list;
  spans : Trace.logged list array;
}

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : (string * string) list;  (* workload, failed check *)
  per_call : (string * (string * float * float * float) list) list;
      (* workload -> span name, calls/op, ns/call, self ns/call *)
  spans : (string * Trace.logged list array) list;
}

(* Trials of about half a second: long enough to fill the caches and
   settle the free lists' helping pattern, short enough that the median
   over many rounds outvotes the slow spells of a shared machine. A
   smoke run is one round of 0.1 s trials. [seconds] is the measured
   time per workload. *)
let config ?(smoke = false) ?(seconds = 10.) ~workloads ~seed ~trace ~domains
    ~keep_log () =
  let per_round = if trace then 2. else 1. in
  let seconds = if smoke then 0.1 *. per_round else seconds in
  let rounds = max 1 (Float.to_int (Float.round (seconds /. (0.5 *. per_round)))) in
  {
    workloads;
    seed;
    trial_s = seconds /. (float_of_int rounds *. per_round);
    warmup_s = (if smoke then 0.1 else 2.0);
    rounds;
    trace;
    domains;
    keep_log;
  }

let ring_size = 1 lsl 16
let sample_cap = 1 lsl 16
let quantiles = [| 0.50; 0.99; 0.999; 1.0 |]

let default_domains () = min 2 (Domain.recommended_domain_count ())

(* Peak RSS of this process. Writing 5 to clear_refs resets the peak
   to the current RSS, so each trial reads its own peak. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let untraced_loop ~op ~ring ~samples ~trial_ns ~tid =
  let mask = Array.length ring - 1 and smask = Array.length samples - 1 in
  let start = Runner.now_ns () in
  let deadline = start + trial_ns in
  let rec go base k =
    let off = k land 15 in
    for j = base to base + off - 1 do
      op ~tid (Array.unsafe_get ring (j land mask))
    done;
    let t0 = Runner.now_ns () in
    op ~tid (Array.unsafe_get ring ((base + off) land mask));
    let t1 = Runner.now_ns () in
    Array.unsafe_set samples (k land smask) (t1 - t0);
    for j = base + off + 1 to base + 15 do
      op ~tid (Array.unsafe_get ring (j land mask))
    done;
    if t1 < deadline then go (base + 16) (k + 1) else (base + 16, k + 1)
  in
  let ops, taken = go 0 0 in
  (ops, taken, Runner.now_ns () - start)

let traced_loop ~op ~ring ~trial_ns ~tid =
  let mask = Array.length ring - 1 in
  let d = Trace.state tid in
  let start = Runner.now_ns () in
  let deadline = start + trial_ns in
  let rec go base k =
    let off = k land 7 in
    for j = base to base + off - 1 do
      op ~tid (Array.unsafe_get ring (j land mask))
    done;
    d.Trace.on <- true;
    let r = Trace.enter_if d Trace.K.op in
    op ~tid (Array.unsafe_get ring ((base + off) land mask));
    Trace.leave d r;
    d.on <- false;
    let t1 = d.stop.(r) in
    Trace.finish d;
    for j = base + off + 1 to base + 7 do
      op ~tid (Array.unsafe_get ring (j land mask))
    done;
    if t1 < deadline then go (base + 8) (k + 1) else base + 8
  in
  let ops = go 0 0 in
  (ops, 0, Runner.now_ns () - start)

(* Sorts each domain's samples in place (the unfilled tail of a buffer
   sorts last as max_int) and returns rank -> sample over all domains,
   by merging, so no trial allocates a merged copy. *)
let sorted_samples samples taken =
  let counts = Array.map (fun k -> min sample_cap k) taken in
  Array.iteri
    (fun tid buf ->
      Array.fill buf counts.(tid) (sample_cap - counts.(tid)) max_int;
      Array.sort (fun (a : int) b -> compare a b) buf)
    samples;
  let total = Array.fold_left ( + ) 0 counts in
  let rank r =
    let pos = Array.make (Array.length samples) 0 in
    let pick () =
      let best = ref (-1) in
      Array.iteri
        (fun tid p ->
          if p < counts.(tid)
             && (!best < 0 || samples.(tid).(p) < samples.(!best).(pos.(!best)))
          then best := tid)
        pos;
      let b = !best in
      pos.(b) <- pos.(b) + 1;
      samples.(b).(pos.(b) - 1)
    in
    let v = ref 0 in
    for _ = 0 to min r (total - 1) do
      v := pick ()
    done;
    !v
  in
  (rank, total)

let counter_totals ctr = Array.of_list (List.map (C.total ctr) C.all_events)

let run_trial cfg (w : W.t) ~rings ~samples ~trial_ns ~traced =
  let threads = cfg.domains in
  Trace.reset ~threads ~keep_log:(traced && cfg.keep_log);
  let tallies = Array.init threads (fun _ -> Array.make W.tally_width 0) in
  reset_peak_rss ();
  let t0 = Runner.now_ns () in
  let inst = w.setup ~timed:traced ~threads ~seed:cfg.seed ~tallies in
  let setup_ns = Runner.now_ns () - t0 in
  let ctr = Mm_intf.counters inst.mm in
  let before = counter_totals ctr in
  Gc.full_major ();
  let ops = Array.make threads 0
  and taken = Array.make threads 0
  and elapsed = Array.make threads 0 in
  ignore
    (Runner.run ~threads (fun ~tid ->
         let n, k, e =
           if traced then traced_loop ~op:inst.op ~ring:rings.(tid) ~trial_ns ~tid
           else
             untraced_loop ~op:inst.op ~ring:rings.(tid) ~samples:samples.(tid)
               ~trial_ns ~tid
         in
         ops.(tid) <- n;
         taken.(tid) <- k;
         elapsed.(tid) <- e));
  let rss_kb = vm_hwm_kb () in
  let after = counter_totals ctr in
  let agg = Trace.collect () in
  let spans = if traced && cfg.keep_log then Trace.logs () else [||] in
  let errors = inst.finish () in
  let pcts, nsamples =
    if traced then ([||], 0)
    else
      let lat, n = sorted_samples samples taken in
      (Array.map (fun q -> lat (Stats.rank ~n q)) quantiles, n)
  in
  Gc.full_major ();
  {
    ops = Array.fold_left ( + ) 0 ops;
    elapsed_ns = Array.fold_left max 1 elapsed;
    setup_ns;
    rss_kb;
    pcts;
    samples = nsamples;
    agg;
    ctr = Array.map2 ( - ) after before;
    tallies = Array.init W.tally_width (W.total tallies);
    errors;
    spans;
  }

let ops_per_s t = float_of_int t.ops /. (float_of_int t.elapsed_ns /. 1e9)

let ctr t ev =
  let rec find i = function
    | [] -> 0
    | e :: rest -> if e = ev then t.ctr.(i) else find (i + 1) rest
  in
  find 0 C.all_events

(* End-to-end values of one untraced trial. *)
let e2e (t : trial) =
  [
    ("ops_per_s", "ops/s", ops_per_s t);
    ("p50_ns", "ns", float_of_int t.pcts.(0));
    ("setup_s", "s", float_of_int t.setup_ns /. 1e9);
    ("peak_rss_mb", "MB", float_of_int t.rss_kb /. 1024.);
  ]

(* Tails of one untraced trial: diagnostics, not gated. *)
let tails (t : trial) =
  [
    ("p99_ns", "ns", float_of_int t.pcts.(1));
    ("p999_ns", "ns", float_of_int t.pcts.(2));
    ("max_ns", "ns", float_of_int t.pcts.(3));
    ("latency_samples", "count", float_of_int t.samples);
  ]

let wfrc_fns =
  [ "alloc"; "deref"; "release"; "copy_ref"; "cas_link"; "store_link"; "terminate" ]

let structure_fns = [ "enqueue"; "dequeue"; "lookup"; "insert"; "remove" ]
let actor_fns = [ "send"; "receive" ]

let kind_of name =
  let rec find i = if Trace.names.(i) = name then i else find (i + 1) in
  find 0

let frac name a b = (name, "frac", Stats.ratio a b)
let count name a b = (name, "count", Stats.ratio a b)

(* Per-layer values of one traced trial, against the untraced trial of
   the same round. Times of functions some workload never calls are
   given as shares of the op's time, never as ns, so every ns metric
   is measured on every workload. *)
let layer (t : trial) ~(untraced : trial) =
  let a = t.agg in
  let sampled = a.calls.(Trace.K.op) and op_ns = a.incl_ns.(Trace.K.op) in
  let self_of l =
    let s = ref 0 in
    Array.iteri (fun k v -> if Trace.layer k = l then s := !s + v) a.self_ns;
    !s
  in
  let fn_metrics prefix fns =
    List.concat_map
      (fun f ->
        let name = prefix ^ "." ^ f in
        let k = kind_of name in
        [
          count (name ^ ".calls_per_op") a.calls.(k) sampled;
          frac (name ^ ".time_frac") a.incl_ns.(k) op_ns;
        ])
      fns
  in
  let c = ctr t and tl i = t.tallies.(i) in
  [
    ("trace.op_ns", "ns", Stats.ratio op_ns sampled);
    ("trace.overhead_frac", "frac", 1. -. (ops_per_s t /. ops_per_s untraced));
    frac "loop.self_frac" (self_of "loop") op_ns;
    frac "actor.self_frac" (self_of "actor") op_ns;
    frac "structures.self_frac" (self_of "structures") op_ns;
    frac "wfrc.self_frac" (self_of "wfrc") op_ns;
    ("wfrc.self_ns_per_op", "ns", Stats.ratio (self_of "wfrc") sampled);
  ]
  @ fn_metrics "wfrc" wfrc_fns
  @ [
      frac "wfrc.alloc_helped_frac" (c C.Alloc_helped) (c C.Alloc);
      frac "wfrc.free_gave_help_frac" (c C.Free_gave_help) (c C.Free);
      count "wfrc.alloc_retry_per_alloc" (c C.Alloc_retry) (c C.Alloc);
      count "wfrc.help_scan_per_op" (c C.Help_scan) t.ops;
      frac "wfrc.help_refused_frac" (c C.Help_refused)
        (c C.Help_answered + c C.Help_refused);
      frac "wfrc.deref_helped_frac" (c C.Deref_helped) (c C.Deref);
      frac "wfrc.cas_fail_frac" (c C.Cas_failure) (c C.Cas_attempt);
      count "shmem.cache_refill_per_alloc" (c C.Cache_refill) (c C.Alloc);
      count "shmem.cache_spill_per_free" (c C.Cache_spill) (c C.Free);
      frac "shmem.free_remote_frac" (c C.Free_remote) (c C.Free);
      count "shmem.steal_per_refill" (c C.Steal) (c C.Cache_refill);
      count "shmem.park_wait_per_op" (c C.Park_wait) t.ops;
    ]
  @ fn_metrics "structures" structure_fns
  @ [ frac "structures.lookup_hit_frac" (tl W.c_lookup_hit) (tl W.c_lookup) ]
  @ fn_metrics "actor" actor_fns
  @ [
      frac "actor.receive_hit_frac" (tl W.c_receive_hit) (tl W.c_receive);
      frac "actor.send_drop_frac" (tl W.c_send_drop) (tl W.c_send);
    ]

(* Single-domain cost of the clock and of each Native primitive, the
   median of five passes. *)
let calibrate () =
  let module P = (val Atomics.Backend.prims Atomics.Backend.Native) in
  let n = 200_000 in
  let cell = P.make 0 in
  let per_op f =
    Stats.median
      (List.init 5 (fun _ ->
           P.write cell 0;
           let t0 = Runner.now_ns () in
           f ();
           float_of_int (Runner.now_ns () - t0) /. float_of_int n))
  in
  [
    ( "atomics.clock_ns",
      "ns",
      per_op (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Runner.now_ns ()))
          done) );
    ( "atomics.read_ns",
      "ns",
      per_op (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (P.read cell))
          done) );
    ( "atomics.cas_ns",
      "ns",
      per_op (fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (P.cas cell ~old:(i - 1) ~nw:i))
          done) );
    ( "atomics.faa_ns",
      "ns",
      per_op (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (P.faa cell 1))
          done) );
    ( "atomics.swap_ns",
      "ns",
      per_op (fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (P.swap cell i))
          done) );
  ]

(* [(name, unit, value)] rows, one list per round -> metrics. *)
let collate ~e2e workload rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, unit_, _) ->
          {
            workload;
            name;
            unit_;
            e2e;
            values =
              List.map
                (fun row ->
                  let _, _, v = List.find (fun (n, _, _) -> n = name) row in
                  v)
                rounds;
          })
        first

(* Pooled per-call costs over the traced trials, for the human table. *)
let per_call traced =
  let sum f =
    Array.init Trace.kinds (fun k ->
        List.fold_left (fun acc t -> acc + (f t).(k)) 0 traced)
  in
  let calls = sum (fun t -> t.agg.calls)
  and incl = sum (fun t -> t.agg.incl_ns)
  and self = sum (fun t -> t.agg.self_ns) in
  List.filter_map
    (fun k ->
      if calls.(k) = 0 then None
      else
        Some
          ( Trace.names.(k),
            Stats.ratio calls.(k) calls.(Trace.K.op),
            Stats.ratio incl.(k) calls.(k),
            Stats.ratio self.(k) calls.(k) ))
    (List.init Trace.kinds Fun.id)

let run cfg =
  let threads = cfg.domains in
  let trial_ns = int_of_float (cfg.trial_s *. 1e9) in
  let ws = Array.of_list cfg.workloads in
  let nw = Array.length ws in
  let rings =
    Array.map
      (fun (w : W.t) ->
        Harness.Workload.per_thread ~threads ~seed:cfg.seed (fun rng ->
            let ring = Array.make ring_size 0 in
            for i = 0 to ring_size - 1 do
              ring.(i) <- w.gen rng i
            done;
            ring))
      ws
  in
  let samples = Array.init threads (fun _ -> Array.make sample_cap 0) in
  let atomics = if cfg.trace then calibrate () else [] in
  let trial i ~traced =
    run_trial cfg ws.(i) ~rings:rings.(i) ~samples ~trial_ns ~traced
  in
  (* A freshly started process runs its first trials at up to half
     speed and ramps up over a few seconds, so it first spends
     [cfg.warmup_s], split over the workloads, on trials that count only
     for the checks. *)
  let warm =
    let per = cfg.warmup_s /. (cfg.trial_s *. float_of_int nw) in
    let per = Float.to_int (Float.ceil per) in
    Array.init nw (fun i -> List.init (max 1 per) (fun _ -> trial i ~traced:false))
  in
  let untraced = Array.make nw [] and traced = Array.make nw [] in
  for r = 0 to cfg.rounds - 1 do
    for j = 0 to nw - 1 do
      let i = (j + r) mod nw in
      let kinds =
        if not cfg.trace then [ false ]
        else if r land 1 = 0 then [ false; true ]
        else [ true; false ]
      in
      List.iter
        (fun k ->
          let t = trial i ~traced:k in
          if k then traced.(i) <- t :: traced.(i)
          else untraced.(i) <- t :: untraced.(i))
        kinds
    done
  done;
  let untraced = Array.map List.rev untraced and traced = Array.map List.rev traced in
  let metrics =
    List.concat
      (List.init nw (fun i ->
           let name = ws.(i).W.name and u = untraced.(i) and tr = traced.(i) in
           collate ~e2e:true name (List.map e2e u)
           @
           if not cfg.trace then []
           else
             collate ~e2e:false name (List.map tails u)
             @ collate ~e2e:false name
                 (List.map2 (fun t untraced -> layer t ~untraced) tr u)
             @ List.map
                 (fun (n, unit_, v) ->
                   { workload = name; name = n; unit_; e2e = false; values = [ v ] })
                 atomics))
  in
  let all =
    List.concat
      (List.init nw (fun i ->
           List.map
             (fun t -> (ws.(i).W.name, t))
             (warm.(i) @ untraced.(i) @ traced.(i))))
  in
  let errors =
    List.concat_map
      (fun (name, (t : trial)) -> List.map (fun e -> (name, e)) t.errors)
      all
  in
  let sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 all in
  {
    metrics;
    attempted = sum (fun t -> t.ops);
    failed = sum (fun t -> t.tallies.(W.c_failed)) + List.length errors;
    errors;
    per_call = List.init nw (fun i -> (ws.(i).W.name, per_call traced.(i)));
    spans =
      List.concat
        (List.init nw (fun i ->
             match traced.(i) with
             | (t : trial) :: _ when Array.length t.spans > 0 ->
                 [ (ws.(i).W.name, t.spans) ]
             | _ -> []));
  }
