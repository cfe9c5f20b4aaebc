(* E15: native scaling sweep — alloc/release churn throughput across
   domain count × free-store configuration.

   Every row runs on the Native raw word store (one C stub crossing
   per protocol fragment, no per-cell box, no GC card traffic). The
   legacy rows (shards = 1) run the paper's allocator verbatim; the
   sharded rows add the striped free store with domain-local caches.
   Park_wait / Park_wake count the futex-parked backoff path — zero in
   a pure churn loop unless a domain actually drains a stripe and
   blocks, which is itself a signal worth recording.

   Rows with more domains than the host has cores time-share them, so
   absolute throughput drops there regardless of the memory layer;
   the portable signal is the sharded rows against the legacy rows at
   the same domain count. On real multi-core hardware the sharded
   curve is the one the CI scaling gate (bench --check-scaling)
   enforces to be non-inverting. *)

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
        with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ()
      done)

let e15 ?(schemes = [ "wfrc" ]) ?(threads_list = [ 1; 2; 4 ])
    ?(ops = 2_000_000) ?(capacity = 1 lsl 13) ?(shards = 4) ?(batch = 8) () =
  let spine = Spine.create () in
  let rows = ref [] in
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
              Spine.merge_into spine row_spine;
              rows :=
                [
                  Report.Str scheme;
                  Report.Int threads;
                  Report.Int shards;
                  Report.Int batch;
                  Report.Ops (Runner.throughput ~ops:pairs result);
                  Report.Int (Spine.total row_spine Alloc_retry);
                  Report.Int (Spine.total row_spine Park_wait);
                  Report.Int (Spine.total row_spine Park_wake);
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
        Report.measure ~unit_:"ops/s" "pairs/s";
        Report.measure ~unit_:"count" "aretry";
        Report.measure ~unit_:"count" "park";
        Report.measure ~unit_:"count" "wake";
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
         is the portable signal (the CI scaling gate runs on multi-core \
         runners)";
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
