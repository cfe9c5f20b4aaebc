(* E14: the sharded native free store — alloc/free churn throughput
   and free-list CAS retries vs shard count × domain count.

   The shards = 1 row is the unsharded baseline — the legacy
   allocator the sharded store replaces (for lfrc the single stamped
   Treiber list, batch = 1, one head CAS per alloc and per free).
   Sharded rows (shards ≥ 2) run the striped store with the
   domain-local cache, so head CASes happen once per batch transfer,
   and at shards = threads each domain owns its home stripe outright
   and the heads see no cross-domain traffic at all. The free-list
   retry counters (Alloc_retry / Free_retry — failed head-CAS
   attempts, plus empty full passes on the alloc side) are the direct
   measure of that head contention; Steal and Free_remote count the
   cross-stripe traffic striping introduces.

   lfrc is the interesting subject: its legacy allocator is exactly
   that single Treiber list. wfrc rides along as a control — its 2N
   per-thread free-lists already shard the traffic (§3.1), so
   [shards] barely moves its rows.

   [max_burst] must exceed the cache capacity (2 × [batch]): a burst
   that fits in the cache is absorbed entirely by it and the stripe
   heads are never touched, which would make every sharded row look
   identical. With bursts of up to 4 × [batch], each burst forces
   batch-sized refills and spills through the heads.

   On a single-core host the retry counts are preemption-driven (a
   head CAS only fails if the OS switches domains inside the
   read→CAS window), so they sit orders of magnitude below a true
   multi-core run and scale with the fraction of runtime spent inside
   such windows: per-op head CASes (shards = 1) spend several times
   more time in windows than per-batch ones, and private stripes
   (shards = threads) eliminate cross-domain head traffic entirely —
   so the counters still order 1 > 2 > 4, which is the structural
   signal this experiment is after. [ops] defaults high to keep the
   counts well clear of noise. *)

module Mm = Mm_intf
open Exp_support

let e14 ?(schemes = [ "lfrc"; "wfrc" ]) ?(shards_list = [ 1; 2; 4 ])
    ?(threads_list = [ 2; 4 ]) ?(ops = 2_400_000) ?(capacity = 1 lsl 13)
    ?(batch = 8) ?(max_burst = 32) ?(seed = 14_000) () =
  let spine = Spine.create () in
  let rows = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun threads ->
          List.iter
            (fun shards ->
              (* shards = 1 is the unsharded baseline: legacy list,
                 no cache. *)
              let batch = if shards = 1 then 1 else batch in
              let cfg =
                Mm.config ~backend:Atomics.Backend.Native ~shards ~batch
                  ~threads ~capacity ~num_links:1 ~num_data:1 ~num_roots:0 ()
              in
              let mm = Registry.instantiate scheme cfg in
              let row_spine = Spine.create () in
              let result =
                Spine.wrap row_spine mm (fun () ->
                    churn ~alloc:(Mm.alloc mm) ~release:(Mm.release mm)
                      ~threads ~ops ~max_burst ~seed)
              in
              let allocs = Spine.total row_spine Alloc in
              Spine.merge_into spine row_spine;
              rows :=
                [
                  Report.Str scheme;
                  Report.Int threads;
                  Report.Int shards;
                  Report.Int batch;
                  Report.Ops (Runner.throughput ~ops:allocs result);
                  Report.Int (Spine.total row_spine Alloc_retry);
                  Report.Int (Spine.total row_spine Free_retry);
                  Report.Int (Spine.total row_spine Steal);
                  Report.Int (Spine.total row_spine Free_remote);
                ]
                :: !rows)
            shards_list)
        threads_list)
    schemes;
  Report.make ~id:"E14"
    ~title:
      "sharded free store: churn throughput and free-list CAS retries vs \
       shard count x domains (native)"
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "threads";
        Report.dim "shards";
        Report.dim "batch";
        Report.measure ~unit_:"ops/s" "allocs/s";
        Report.measure ~unit_:"count" "aretry";
        Report.measure ~unit_:"count" "fretry";
        Report.measure ~unit_:"count" "steal";
        Report.measure ~unit_:"count" "remote";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~backend:Atomics.Backend.Native
         ~params:
           [
             ("ops", string_of_int ops);
             ("capacity", string_of_int capacity);
             ("batch", string_of_int batch);
             ("max_burst", string_of_int max_burst);
           ]
         ())
    ~notes:
      [
        "retries are failed free-list head CASes (+ empty alloc \
         passes); shards=1 is the unsharded baseline (legacy list, \
         batch=1, one head CAS per op), shards=threads gives each \
         domain a private stripe with batched transfers";
        "wfrc is a control: its 2N per-thread lists already shard the \
         free traffic, so the shards knob is inert there and its rows \
         stay flat";
        "single-core hosts show preemption-driven (small) retry counts; \
         the cross-shard ordering is the signal, not the magnitude";
      ]
    (List.rev !rows)

let specs =
  [
    Exp.spec ~id:"e14"
      ~descr:"sharded free store: churn retries vs shards x domains"
      (fun { Exp.quick } ->
        if quick then
          e14 ~schemes:[ "lfrc" ] ~threads_list:[ 2; 4 ] ~ops:400_000
            ~capacity:2048 ()
        else e14 ());
  ]
