(* Machine-readable backend benchmark: the alloc/release churn loop
   (the managers' hottest path) timed per scheme × backend × thread
   count, with per-op latency percentiles.

   Per-op times are measured over batches of [batch_pairs] pairs.
   [Runner.now_ns] is monotonic with nanosecond resolution
   (CLOCK_MONOTONIC), but a single alloc/release pair runs in tens of
   nanoseconds — the same order as the clock read itself — so timing
   individual operations would mostly measure the timer. Each
   histogram sample is batch wall time divided by the batch size,
   recorded once per batch. *)

module B = Atomics.Backend
module Mm = Mm_intf

type point = {
  rev : string;         (* git revision the point was measured at *)
  scheme : string;
  backend : B.t;
  threads : int;
  shards : int;         (* free-store stripes (1 = legacy list) *)
  batch : int;          (* allocation-cache batch size *)
  ops : int;            (* completed alloc+release pairs *)
  wall_ns : int;
  ops_per_sec : float;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  max_ns : int;
  neg_samples : int;    (* negative timer samples — 0 unless broken *)
}

let batch_pairs = 64

(* The current git revision (7-hex short form), so BENCH points from
   different commits can coexist in one file. Reads .git directly —
   no subprocess — and degrades to "unknown" outside a checkout. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  let resolve_ref r =
    match read_line (".git/" ^ r) with
    | Some sha when String.length sha >= 7 -> Some sha
    | _ -> (
        (* packed refs: lines of the form "<sha> <refname>" *)
        try
          let ic = open_in ".git/packed-refs" in
          let rec scan () =
            match input_line ic with
            | line ->
                if
                  String.length line > 41
                  && line.[0] <> '#'
                  && String.sub line 41 (String.length line - 41) = r
                then Some (String.sub line 0 40)
                else scan ()
            | exception End_of_file -> None
          in
          let res = scan () in
          close_in ic;
          res
        with Sys_error _ -> None)
  in
  let sha =
    match read_line ".git/HEAD" with
    | Some head when String.length head > 5 && String.sub head 0 5 = "ref: "
      ->
        resolve_ref (String.sub head 5 (String.length head - 5))
    | Some sha when String.length sha >= 7 -> Some sha
    | _ -> None
  in
  match sha with
  | Some sha when String.length sha >= 7 -> String.sub sha 0 7
  | _ -> "unknown"

let run_point ?spine ?(shards = 1) ?(batch = 1) ?(oracle = false) ~scheme
    ~backend ~threads ~ops ~capacity () =
  if oracle && (backend <> B.Sim || threads <> 1) then
    invalid_arg
      "Bench.run_point: the oracle point is Sim-only and single-threaded \
       (the detector is not domain-safe, and Native has no Schedpoint \
       dispatch to measure)";
  let cfg =
    Mm.config ~backend ~shards ~batch ~threads ~capacity ~num_links:1
      ~num_data:1 ~num_roots:0 ()
  in
  let mm = Registry.instantiate scheme cfg in
  (* Exact per-thread split: completed always equals requested. Full
     [batch_pairs]-sized batches plus one short trailing batch for the
     remainder (its histogram sample is averaged over its own size). *)
  let counts = Workload.split_ops ~threads ~ops in
  let done_ops = ops in
  let hists = Array.init threads (fun _ -> Metrics.Hist.create ()) in
  let run () =
    Runner.run ~threads (fun ~tid ->
        let h = hists.(tid) in
        let batch size =
          let t0 = Runner.now_ns () in
          for _ = 1 to size do
            Mm.enter_op mm ~tid;
            (try
               let p = Mm.alloc mm ~tid in
               Mm.release mm ~tid p;
               Mm.terminate mm ~tid p
             with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ());
            Mm.exit_op mm ~tid
          done;
          Metrics.Hist.add h ((Runner.now_ns () - t0) / size)
        in
        let n = counts.(tid) in
        for _ = 1 to n / batch_pairs do
          batch batch_pairs
        done;
        if n mod batch_pairs > 0 then batch (n mod batch_pairs))
  in
  (* The analysis-overhead point: the same loop with the full
     {!Analysis.Reclaim} oracle armed — every instrumented Sim access
     dispatches through the hit_at validator into the detector, every
     alloc/free crosses the Events listener. The delta against the
     plain Sim point is the whole cost of the analysis layer; Native
     rows are untouched by construction (the hook stays [ignore]
     there, so there is nothing to switch off). *)
  let run =
    if not oracle then run
    else fun () ->
      let det =
        Analysis.Reclaim.create ~arena:(Mm.arena mm) ~threads:1 ()
      in
      Atomics.Schedpoint.with_validator
        (fun ~addr kind -> Analysis.Reclaim.on_access det ~tid:0 ~addr kind)
        (fun () ->
          Mm.Events.with_listener
            (fun ~tid node lc -> Analysis.Reclaim.on_event det ~tid node lc)
            run)
  in
  let result =
    match spine with
    | None -> run ()
    | Some s -> Exp_support.Spine.wrap s mm run
  in
  let hist = Metrics.Hist.create () in
  Array.iter (fun h -> Metrics.Hist.merge_into hist h) hists;
  {
    rev = git_rev ();
    scheme = (if oracle then scheme ^ "+oracle" else scheme);
    backend;
    threads;
    shards;
    batch;
    ops = done_ops;
    wall_ns = result.Runner.wall_ns;
    ops_per_sec = Runner.throughput ~ops:done_ops result;
    mean_ns = Metrics.Hist.mean hist;
    p50_ns = Metrics.Hist.percentile hist 0.50;
    p90_ns = Metrics.Hist.percentile hist 0.90;
    p99_ns = Metrics.Hist.percentile hist 0.99;
    max_ns = Metrics.Hist.max_value hist;
    neg_samples = Metrics.Hist.negatives hist;
  }

let run_suite ?spine ?(schemes = [ "wfrc" ]) ?(backends = [ B.Sim; B.Native ])
    ?(threads_list = [ 1; 2; 4 ]) ?(ops = 50_000) ?(capacity = 4096) () =
  let base =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun threads ->
            List.map
              (fun backend ->
                run_point ?spine ~scheme ~backend ~threads ~ops ~capacity ())
              backends)
          threads_list)
      schemes
  in
  (* The sharded hot path: one extra Native point per scheme at the
     highest thread count, with the striped free store and the
     domain-local cache switched on. *)
  let sharded =
    if not (List.mem B.Native backends) then []
    else
      let threads = List.fold_left max 1 threads_list in
      List.map
        (fun scheme ->
          run_point ?spine ~scheme ~backend:B.Native
            ~shards:(min 4 capacity) ~batch:8 ~threads ~ops ~capacity ())
        schemes
  in
  (* The analysis-layer cost: one single-threaded Sim point per scheme
     with the Reclaim oracle armed, to set against the plain 1T Sim
     row. *)
  let oracle =
    if not (List.mem B.Sim backends) then []
    else
      List.map
        (fun scheme ->
          run_point ?spine ~oracle:true ~scheme ~backend:B.Sim ~threads:1
            ~ops ~capacity ())
        schemes
  in
  base @ sharded @ oracle

(* The actor-service point: the same point shape measured over
   Actor.Service send/receive traffic instead of raw alloc/release
   churn — every message is an enqueue (alloc + two CASes) against a
   registry lookup, so this is the managers' hot path as a real
   service drives it (E18's steady-state mix, minus spawn/retire
   churn so ops are comparable run to run). Keyed into the JSON as
   "<scheme>+actor". *)
let run_actor_point ?spine ?(threads = 4) ?(actors = 10_000)
    ?(ops = 200_000) ~scheme () =
  let rec pow2 p n = if p >= n then p else pow2 (2 * p) n in
  let buckets = pow2 1 (max 64 (actors / 8)) in
  let capacity =
    (2 * buckets) + 2 + (2 * actors) + max 4_096 (ops / 8)
  in
  let cfg =
    Actor.Service.mm_config ~backend:B.Native ~threads ~capacity
      ~max_actors:actors ~buckets ()
  in
  let mm = Registry.instantiate scheme cfg in
  let run () =
    let svc =
      Actor.Service.create mm ~max_actors:actors ~buckets ~seed:67_000 ~tid:0
    in
    let ids = Array.make actors (-1) in
    let counts = Workload.split_ops ~threads ~ops:actors in
    ignore
      (Runner.run ~threads (fun ~tid ->
           for _ = 1 to counts.(tid) do
             match Actor.Service.spawn svc ~tid with
             | Some id -> ids.(id mod actors) <- id
             | None -> ()
           done));
    let counts = Workload.split_ops ~threads ~ops in
    let hists = Array.init threads (fun _ -> Metrics.Hist.create ()) in
    let rngs =
      Workload.per_thread ~threads ~seed:67_001 (fun rng -> rng)
    in
    let result =
      Runner.run ~threads (fun ~tid ->
          let rng = rngs.(tid) and h = hists.(tid) in
          let batch size =
            let t0 = Runner.now_ns () in
            for _ = 1 to size do
              if Sched.Rng.int rng 100 < 60 then
                ignore
                  (Actor.Service.send svc ~tid
                     ~dst:(ids.(Sched.Rng.int rng actors))
                     (Sched.Rng.int rng 1_000_000))
              else
                let self = ids.(Sched.Rng.int rng actors) in
                let drained = ref 0 in
                while
                  !drained < 8 && Actor.Service.receive svc ~tid ~self <> None
                do
                  incr drained
                done
            done;
            Metrics.Hist.add h ((Runner.now_ns () - t0) / size)
          in
          let n = counts.(tid) in
          for _ = 1 to n / batch_pairs do
            batch batch_pairs
          done;
          if n mod batch_pairs > 0 then batch (n mod batch_pairs))
    in
    ignore (Actor.Service.teardown svc ~tid:0);
    let audit = Audit.run mm in
    if audit.Audit.leaked > 0 then
      Printf.eprintf "bench: actor point (%s): %d nodes leaked\n" scheme
        audit.Audit.leaked;
    (result, hists)
  in
  let result, hists =
    match spine with
    | None -> run ()
    | Some s -> Exp_support.Spine.wrap s mm run
  in
  let hist = Metrics.Hist.create () in
  Array.iter (fun h -> Metrics.Hist.merge_into hist h) hists;
  {
    rev = git_rev ();
    scheme = scheme ^ "+actor";
    backend = B.Native;
    threads;
    shards = cfg.Mm.shards;
    batch = cfg.Mm.batch;
    ops;
    wall_ns = result.Runner.wall_ns;
    ops_per_sec = Runner.throughput ~ops result;
    mean_ns = Metrics.Hist.mean hist;
    p50_ns = Metrics.Hist.percentile hist 0.50;
    p90_ns = Metrics.Hist.percentile hist 0.90;
    p99_ns = Metrics.Hist.percentile hist 0.99;
    max_ns = Metrics.Hist.max_value hist;
    neg_samples = Metrics.Hist.negatives hist;
  }

(* Legacy flat JSON for the point list (BENCH_wfrc.json, consumed by
   CI plots). All fields are numbers or plain [a-z_] strings, so no
   escaping is needed. The typed-report document is produced by
   {!Sink} from {!report} instead. *)

let json_of_point p =
  Printf.sprintf
    "    {\"rev\": %S, \"scheme\": %S, \"backend\": %S, \"threads\": %d, \
     \"shards\": %d, \"batch\": %d, \"ops\": %d, \"wall_ns\": %d, \
     \"ops_per_sec\": %.1f, \"mean_ns\": %.1f, \"p50_ns\": %d, \
     \"p90_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d, \"neg_samples\": %d}"
    p.rev p.scheme (B.name p.backend) p.threads p.shards p.batch p.ops
    p.wall_ns p.ops_per_sec p.mean_ns p.p50_ns p.p90_ns p.p99_ns p.max_ns
    p.neg_samples

(* Identity of a point within the file: same (rev, scheme, backend,
   threads, shards, batch) = same measurement, latest run wins.
   Works on the serialised line so foreign points (older formats,
   other writers) can be carried through untouched. *)
let line_field line name =
  match
    let pat = Printf.sprintf "\"%s\": " name in
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    find 0
  with
  | None -> ""
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      String.trim (String.sub line start (!stop - start))

let point_key_of_line line =
  List.map (line_field line)
    [ "rev"; "scheme"; "backend"; "threads"; "shards"; "batch" ]

(* A point line from an older writer may predate one of the key
   fields (e.g. "batch" before that knob existed):
   [line_field] then returns "" and an exact key comparison would
   never match, so the stale line would survive every re-measure of
   the same configuration and duplicate it forever. An empty field in
   the existing line therefore matches any fresh value. *)
let key_matches ~old_key ~fresh_key =
  List.length old_key = List.length fresh_key
  && List.for_all2 (fun o f -> o = "" || o = f) old_key fresh_key

let to_json point_lines =
  String.concat "\n"
    ([ "{"; "  \"bench\": \"alloc_release_churn\","
     ; "  \"latency_unit\": \"ns_per_op\","; "  \"points\": [" ]
    @ [ String.concat ",\n" point_lines ]
    @ [ "  ]"; "}"; "" ])

(* Merge-write: BENCH_wfrc.json accumulates points across runs and
   revisions instead of being clobbered. Points already in the file
   survive unless the new run re-measured the same key. *)
let write_json ~path points =
  let fresh = List.map json_of_point points in
  let fresh_keys = List.map point_key_of_line fresh in
  let kept =
    if not (Sys.file_exists path) then []
    else begin
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines
      |> List.filter_map (fun line ->
             let t = String.trim line in
             if String.length t > 1 && t.[0] = '{' && line_field line "scheme" <> ""
             then
               let line =
                 if t.[String.length t - 1] = ',' then
                   String.sub line 0 (String.rindex line ',')
                 else line
               in
               let old_key = point_key_of_line line in
               if
                 List.exists
                   (fun fresh_key -> key_matches ~old_key ~fresh_key)
                   fresh_keys
               then None
               else Some line
             else None)
    end
  in
  let oc = open_out path in
  output_string oc (to_json (kept @ fresh));
  close_out oc

let report ?(counters = []) points =
  let negs = List.fold_left (fun a p -> a + p.neg_samples) 0 points in
  Report.make ~id:"BENCH"
    ~title:"alloc/release churn: sim vs native backend"
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "backend";
        Report.dim "threads";
        Report.dim "shards";
        Report.dim "batch";
        Report.measure ~unit_:"ops/s" "ops/s";
        Report.measure ~unit_:"ns" "p50";
        Report.measure ~unit_:"ns" "p90";
        Report.measure ~unit_:"ns" "p99";
      ]
    ~counters
    ~notes:
      ([
         "per-op latencies are batch-averaged (64 pairs per sample); \
          native drops the Schedpoint dispatch and pads hot words";
         "shards/batch > 1 = sharded free store with domain-local caches";
         "<scheme>+oracle = the same Sim loop with the Analysis.Reclaim \
          detector armed (hit_at validator + Events listener): the delta \
          against the plain 1T Sim row bounds the analysis layer's cost; \
          Native rows carry no detector because the hook stays ignore \
          there";
       ]
      @
      if negs > 0 then
        [
          Printf.sprintf
            "WARNING: %d negative timer samples dropped — non-monotonic \
             clock?"
            negs;
        ]
      else [])
    (List.map
       (fun p ->
         [
           Report.Str p.scheme;
           Report.Str (B.name p.backend);
           Report.Int p.threads;
           Report.Int p.shards;
           Report.Int p.batch;
           Report.Ops p.ops_per_sec;
           Report.Ns p.p50_ns;
           Report.Ns p.p90_ns;
           Report.Ns p.p99_ns;
         ])
       points)
