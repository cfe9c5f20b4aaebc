(* E15: native scaling sweep — alloc/release churn throughput across
   domain count × free-store configuration.

   Every row runs on the Native raw word store (one C stub crossing
   per protocol fragment, no per-cell box, no GC card traffic). The
   legacy rows (shards = 1) run the paper's allocator verbatim; the
   sharded rows add the striped free store with domain-local caches.
   No park/wake columns: wfrc, the default and only scheme CI runs
   here, never parks, so they would always read 0.

   Rows with more domains than the host has cores time-share them, so
   absolute throughput drops there regardless of the memory layer;
   the portable signal is the sharded rows against the legacy rows at
   the same domain count. The report ends in the 1→N scaling verdict
   ([scaling_verdict]): the best row at the highest domain count must
   not fall below the best at the lowest. CI's native-perf job runs
   the full sweep on a multi-core runner and fails on
   "scaling FAIL". It also fails when a legacy row at 2 or 4 domains
   reports [aretry] above 0.1% of its [pairs]: steady churn is
   thread-local (FreeNode parks each node in its freer's own annAlloc
   cell and the next A4 takes it back), so A3 retries there mean a
   cross-core hand-off is back. *)

module Mm = Mm_intf
module B = Atomics.Backend
open Exp_support

let churn mm ~threads ~ops =
  let counts = Workload.split_ops ~threads ~ops in
  Runner.run ~threads (fun ~tid ->
      for _ = 1 to counts.(tid) do
        try
          let p = Mm.alloc mm ~tid in
          Mm.release mm ~tid p;
          Mm.terminate mm ~tid p
        with Mm.Out_of_nodes _ -> ()
      done)

(* The scaling gate over (domains, pairs/s) rows: any row counts,
   legacy or sharded, so it asks "does the best configuration at the
   highest domain count beat the best at the lowest?". *)
let scaling_verdict rows =
  match rows with
  | [] -> Error "scaling FAIL: no rows measured"
  | _ ->
      let ds = List.map fst rows in
      let lo = List.fold_left min max_int ds
      and hi = List.fold_left max min_int ds in
      let best d =
        List.fold_left
          (fun acc (d', r) -> if d' = d then Float.max acc r else acc)
          0. rows
      in
      let blo = best lo and bhi = best hi in
      if hi = lo then
        Ok (Printf.sprintf "scaling ok: only one domain count measured (%d)" lo)
      else if bhi < blo then
        Error
          (Printf.sprintf
             "scaling FAIL: best %.0f pairs/s at %d domains < %.0f pairs/s \
              at %d"
             bhi hi blo lo)
      else
        Ok
          (Printf.sprintf
             "scaling ok: best %.0f pairs/s at %d domains >= %.0f pairs/s \
              at %d"
             bhi hi blo lo)

let e15 ?(schemes = [ "wfrc" ]) ?(threads_list = [ 1; 2; 4 ])
    ?(ops = 2_000_000) ?(capacity = 1 lsl 13) ?(shards = 4) ?(batch = 8) () =
  let spine = Spine.create () in
  let rows = ref [] and points = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun threads ->
          List.iter
            (fun sharded ->
              let shards = if sharded then shards else 1 in
              let batch = if sharded then batch else 1 in
              let cfg =
                Mm.config ~backend:B.Native ~shards ~batch ~threads ~capacity
                  ~num_links:1 ~num_data:1 ~num_roots:0 ()
              in
              let mm = Registry.instantiate scheme cfg in
              let row_spine = Spine.create () in
              let result =
                Spine.wrap row_spine mm (fun () -> churn mm ~threads ~ops)
              in
              let pairs = Spine.total row_spine Alloc in
              let rate = Runner.throughput ~ops:pairs result in
              Spine.merge_into spine row_spine;
              points := (threads, rate) :: !points;
              rows :=
                [
                  Report.Str scheme;
                  Report.Int threads;
                  Report.Int shards;
                  Report.Int batch;
                  Report.Int pairs;
                  Report.Ops rate;
                  Report.Int (Spine.total row_spine Alloc_retry);
                ]
                :: !rows)
            [ false; true ])
        threads_list)
    schemes;
  Report.make ~id:"E15"
    ~title:"native scaling sweep: churn throughput vs domains x free store"
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "threads";
        Report.dim "shards";
        Report.dim "batch";
        Report.measure ~unit_:"count" "pairs";
        Report.measure ~unit_:"ops/s" "pairs/s";
        Report.measure ~unit_:"count" "aretry";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~backend:B.Native
         ~params:
           [
             ("ops", string_of_int ops);
             ("capacity", string_of_int capacity);
             ("shards", string_of_int shards);
             ("batch", string_of_int batch);
           ]
         ())
    ~notes:
      [
        "every row runs on the Native raw word store driven by fused \
         __atomic stubs (see DESIGN.md §6)";
        "shards=1/batch=1 is the paper's allocator verbatim; sharded \
         rows add the striped free store with domain-local caches";
        "rows with more domains than cores time-share them and absolute \
         throughput drops; the sharded-vs-legacy delta at equal domains \
         is the portable signal, and the scaling verdict below is a real \
         gate only with at least as many cores as domains";
        (match scaling_verdict !points with Ok v | Error v -> v);
      ]
    (List.rev !rows)

let specs =
  [
    Exp.spec ~id:"e15"
      ~descr:"native scaling: churn vs domains x free store"
      (fun { Exp.quick } ->
        if quick then
          e15 ~threads_list:[ 1; 2 ] ~ops:200_000 ~capacity:2048 ()
        else e15 ());
  ]
