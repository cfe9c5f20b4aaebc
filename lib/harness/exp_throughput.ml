(* Throughput/space family: E1 (priority-queue throughput, paper §5),
   E9 (ordered set on all five schemes — the §1 applicability
   boundary), E11 (metadata space vs thread count). *)

module Mm = Mm_intf
module Rng = Sched.Rng
open Exp_support

(* ------------------------------------------------------------------ *)
(* E1: priority-queue throughput, WFRC vs baselines (paper §5).       *)
(* ------------------------------------------------------------------ *)

let e1 ?(schemes = Registry.rc_names) ?(threads_list = [ 1; 2; 4; 8 ])
    ?(ops = 40_000) ?(capacity = 1 lsl 14) ?(key_range = 1 lsl 16)
    ?(seed = 42_001) () =
  let spine = Spine.create () in
  let rows =
    List.map
      (fun scheme ->
        Report.Str scheme
        :: List.map
             (fun threads ->
               let mm, pq, streams, total_ops =
                 pq_setup ~scheme ~threads ~ops ~capacity ~key_range ~seed
               in
               let result =
                 Spine.wrap spine mm (fun () ->
                     Runner.run ~threads (fun ~tid ->
                         pq_worker pq ~tid streams.(tid)))
               in
               Report.Ops (Runner.throughput ~ops:total_ops result))
             threads_list)
      schemes
  in
  Report.make ~id:"E1"
    ~title:"priority-queue throughput (ops/s), 50/50 insert/delete-min"
    ~cols:
      (Report.cols_of_sweep ~dim:"scheme" ~unit_:"ops/s"
         (List.map (fun t -> Printf.sprintf "%dT" t) threads_list))
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~backend:Atomics.Backend.Native
         ~params:
           [
             ("ops", string_of_int ops);
             ("capacity", string_of_int capacity);
             ("key_range", string_of_int key_range);
           ]
         ())
    ~notes:
      [
        "paper §5: WFRC is asymptotically similar to the default \
         lock-free (Valois) scheme on this workload";
        "single hardware core: threads interleave by preemption; compare \
         ratios across schemes, not absolute scaling";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: the applicability boundary in numbers — the ordered set runs   *)
(* on all five schemes (Michael's unlink-then-retire discipline),     *)
(* while the skiplist cannot leave reference counting (§1).           *)
(* ------------------------------------------------------------------ *)

let e9 ?(schemes = Registry.names) ?(threads_list = [ 1; 2; 4 ])
    ?(ops = 30_000) ?(capacity = 4096) ?(key_range = 512) ?(seed = 19_000) ()
    =
  let spine = Spine.create () in
  let rows =
    List.map
      (fun scheme ->
        Report.Str scheme
        :: List.map
             (fun threads ->
               let cfg =
                 Mm.config ~backend:Atomics.Backend.Native ~threads
                   ~capacity ~num_links:1 ~num_data:2 ~num_roots:0 ()
               in
               let mm = Registry.instantiate scheme cfg in
               let set = Structures.Oset.create mm ~tid:0 in
               (* prefill to ~half the key range *)
               let rng = Rng.create (seed + 1) in
               for _ = 1 to key_range / 2 do
                 ignore
                   (Structures.Oset.insert set ~tid:0
                      (1 + Rng.int rng key_range)
                      0)
               done;
               let counts = Workload.split_ops ~threads ~ops in
               let result =
                 Spine.wrap spine mm (fun () ->
                     Runner.run ~threads (fun ~tid ->
                         let rng = Rng.create (seed + 2 + tid) in
                         for _ = 1 to counts.(tid) do
                           let k = 1 + Rng.int rng key_range in
                           match Rng.int rng 10 with
                           | 0 | 1 -> (
                               try
                                 ignore
                                   (Structures.Oset.insert set ~tid k tid)
                               with Mm.Out_of_nodes _ -> ())
                           | 2 | 3 ->
                               ignore (Structures.Oset.remove set ~tid k)
                           | _ -> ignore (Structures.Oset.mem set ~tid k)
                         done))
               in
               Report.Ops (Runner.throughput ~ops result))
             threads_list)
      schemes
  in
  Report.make ~id:"E9"
    ~title:"ordered-set throughput, ALL schemes (20% ins / 20% del / 60% mem)"
    ~cols:
      (Report.cols_of_sweep ~dim:"scheme" ~unit_:"ops/s"
         (List.map (fun t -> Printf.sprintf "%dT" t) threads_list))
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~backend:Atomics.Backend.Native
         ~params:
           [
             ("ops", string_of_int ops);
             ("capacity", string_of_int capacity);
             ("key_range", string_of_int key_range);
           ]
         ())
    ~notes:
      [
        "the set follows Michael's unlink-then-retire discipline, so \
         hazard pointers and epochs run it too — contrast with E1's \
         skiplist, which only reference counting supports (§1)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: metadata space cost per scheme as the thread count grows.     *)
(* The paper's wait-freedom is bought with an O(N^2) announcement     *)
(* pool and 2N free-lists; the baselines are O(N) or O(1). This       *)
(* table makes the trade explicit (words of scheme metadata,          *)
(* excluding the arena itself, which is identical for all).           *)
(* ------------------------------------------------------------------ *)

let e11 ?(threads_list = [ 2; 4; 8; 16; 32; 64 ]) () =
  (* Word counts by construction (see each scheme's [create]):
     wfrc : annReadAddr N^2 + annBusy N^2 + annIndex N
            + freeList 2N + annAlloc N + currentFreeList + helpCurrent
     lfrc : stamped head = 1
     hp   : K slots/thread (K = max 16 (2*links+8); links=1 here)
            + head = K*N + 1  (retired lists are transient)
     ebr  : global + head + per-thread (active + epoch) = 2N + 2
     lockrc: lock + head = 2 *)
  let rows =
    List.map
      (fun n ->
        let k = 16 in
        [
          Report.Int n;
          Report.Int ((2 * n * n) + n + (2 * n) + n + 2);
          Report.Int 1;
          Report.Int ((k * n) + 1);
          Report.Int ((2 * n) + 2);
          Report.Int 2;
        ])
      threads_list
  in
  Report.make ~id:"E11" ~title:"scheme metadata (words) vs thread count N"
    ~cols:
      [
        Report.dim "N";
        Report.measure ~unit_:"words" "wfrc";
        Report.measure ~unit_:"words" "lfrc";
        Report.measure ~unit_:"words" "hp(K=16)";
        Report.measure ~unit_:"words" "ebr";
        Report.measure ~unit_:"words" "lockrc";
      ]
    ~notes:
      [
        "wfrc's wait-freedom costs O(N^2) announcement cells (Figure 4) \
         plus 2N free-lists (Figure 5); at N=64 that is ~8.6k words — \
         negligible next to any real arena, but the asymptotic trade \
         is worth stating";
        "counts derive from each scheme's create(); the arena itself \
         (capacity x node_size cells) is identical for every scheme \
         and excluded";
      ]
    rows

let specs =
  [
    Exp.spec ~id:"e1" ~descr:"priority-queue throughput per scheme (paper §5)"
      (fun { Exp.quick } ->
        if quick then e1 ~threads_list:[ 1; 2 ] ~ops:4_000 ~capacity:2048 ()
        else e1 ());
    Exp.spec ~id:"e9"
      ~descr:"ordered-set throughput on all schemes (the §1 boundary)"
      (fun { Exp.quick } ->
        if quick then e9 ~threads_list:[ 1; 2 ] ~ops:6_000 ~capacity:1024 ()
        else e9 ());
    Exp.spec ~id:"e11"
      ~descr:"metadata space vs thread count (the O(N^2) pool)"
      (fun { Exp.quick } ->
        if quick then e11 ~threads_list:[ 2; 4; 8 ] () else e11 ());
  ]
