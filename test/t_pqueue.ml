(* Skiplist priority queue (the paper's evaluation workload):
   sequential semantics vs the sorted-list model, duplicate keys,
   level distribution sanity, concurrent conservation and order, and
   deterministic-scheduler sweeps. RC schemes only (see pqueue.mli). *)

open Helpers
module Pq = Structures.Pqueue
module Model = Structures.Seqmodels.Pqueue_model
module Mm = Mm_intf

let mk scheme ?(threads = 2) ?(capacity = 128) ?(links = 4) () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:links ~num_data:3 ~num_roots:1 ()
  in
  let mm = mm_of scheme cfg in
  (mm, Pq.create mm ~seed:515 ~tid:0)

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "delete_min returns ascending keys") (fun () ->
        let mm, pq = mk scheme () in
        List.iter (fun k -> Pq.insert pq ~tid:0 k (k * 10)) [ 5; 1; 4; 2; 3 ];
        let out = Pq.drain pq ~tid:0 in
        check_bool "sorted keys" true (List.map fst out = [ 1; 2; 3; 4; 5 ]);
        check_bool "values ride along" true
          (List.map snd out = [ 10; 20; 30; 40; 50 ]);
        ignore mm);
    tc (pre "empty queue") (fun () ->
        let mm, pq = mk scheme () in
        check_bool "delmin empty" true (Pq.delete_min pq ~tid:0 = None);
        check_bool "is_empty" true (Pq.is_empty pq ~tid:0);
        Pq.insert pq ~tid:0 7 0;
        check_bool "not empty" false (Pq.is_empty pq ~tid:0);
        ignore (Pq.delete_min pq ~tid:0);
        check_bool "empty again" true (Pq.is_empty pq ~tid:0);
        ignore mm);
    tc (pre "duplicate keys all delivered") (fun () ->
        let mm, pq = mk scheme () in
        List.iter (fun v -> Pq.insert pq ~tid:0 5 v) [ 1; 2; 3 ];
        Pq.insert pq ~tid:0 1 0;
        Pq.insert pq ~tid:0 9 9;
        let out = Pq.drain pq ~tid:0 in
        check_bool "keys sorted" true (List.map fst out = [ 1; 5; 5; 5; 9 ]);
        check_bool "dup values all present" true
          (List.sort compare
             (List.filter_map
                (fun (k, v) -> if k = 5 then Some v else None)
                out)
          = [ 1; 2; 3 ]);
        ignore mm);
    tc (pre "reserved keys rejected") (fun () ->
        let mm, pq = mk scheme () in
        fails_with (fun () -> Pq.insert pq ~tid:0 max_int 0);
        fails_with (fun () -> Pq.insert pq ~tid:0 min_int 0);
        ignore mm);
    tc (pre "memory fully recycled after drain") (fun () ->
        let mm, pq = mk scheme ~capacity:64 () in
        for round = 0 to 20 do
          for i = 1 to 20 do
            Pq.insert pq ~tid:0 ((round * 20) + i) i
          done;
          ignore (Pq.drain pq ~tid:0)
        done;
        assert_all_free ~reserved:2 mm);
    qc ~count:60
      (pre "differential vs sorted-list model")
      QCheck.(list_of_size (Gen.int_range 0 80) (option (int_range 1 20)))
      (fun script ->
        let mm, pq = mk scheme ~capacity:256 () in
        let m = Model.create () in
        let ok =
          List.for_all
            (fun op ->
              match op with
              | Some k ->
                  Pq.insert pq ~tid:0 k k;
                  Model.insert m k k;
                  true
              | None -> (
                  (* equal keys may come out in any order: compare keys *)
                  match (Pq.delete_min pq ~tid:0, Model.delete_min m) with
                  | None, None -> true
                  | Some (k1, _), Some (k2, _) -> k1 = k2
                  | _ -> false))
            script
        in
        ignore mm;
        ok
        && List.map fst (Pq.drain pq ~tid:0) = Model.sorted_keys m);
  ]

let conc_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "concurrent conservation of (key,value) multiset") (fun () ->
        let threads = 4 in
        let mm, pq = mk scheme ~threads ~capacity:256 ~links:6 () in
        let ins = Array.init threads (fun _ -> ref []) in
        let del = Array.init threads (fun _ -> ref []) in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 17) in
               for i = 1 to 1_000 do
                 if Sched.Rng.bool rng then begin
                   let k = 1 + Sched.Rng.int rng 500 in
                   let v = (tid * 1_000_000) + i in
                   try
                     Pq.insert pq ~tid k v;
                     ins.(tid) := (k, v) :: !(ins.(tid))
                   with Mm.Out_of_nodes _ -> ()
                 end
                 else
                   match Pq.delete_min pq ~tid with
                   | Some kv -> del.(tid) := kv :: !(del.(tid))
                   | None -> ()
               done));
        let rest = Pq.drain pq ~tid:0 in
        check_bool "drained ascending" true
          (List.map fst rest = List.sort compare (List.map fst rest));
        let all_ins = List.concat_map (fun r -> !r) (Array.to_list ins) in
        let all_del =
          rest @ List.concat_map (fun r -> !r) (Array.to_list del)
        in
        check_bool "multiset conserved" true
          (List.sort compare all_ins = List.sort compare all_del);
        assert_all_free ~reserved:2 mm);
    tc (pre "delete_min never invents keys") (fun () ->
        let threads = 2 in
        let mm, pq = mk scheme ~threads ~capacity:128 () in
        let inserted = Array.make 1001 false in
        let bad = Atomic.make 0 in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 23) in
               for _ = 1 to 1_500 do
                 if tid = 0 then begin
                   let k = 1 + Sched.Rng.int rng 1000 in
                   (* flag before insert: the flag must be visible by
                      the time the key can possibly be dequeued *)
                   inserted.(k) <- true;
                   try Pq.insert pq ~tid k k with Mm.Out_of_nodes _ -> ()
                 end
                 else
                   match Pq.delete_min pq ~tid with
                   | Some (k, _) ->
                       if k < 1 || k > 1000 || not inserted.(k) then
                         Atomic.incr bad
                   | None -> ()
               done));
        check_int "no invented keys" 0 (Atomic.get bad);
        ignore (Pq.drain pq ~tid:0);
        assert_all_free ~reserved:2 mm);
  ]

let sim_tests =
  [
    tc "wfrc pq: deterministic sweep conserves keys + memory" (fun () ->
        sweep_ok ~runs:120 ~threads:2 (fun () ->
            let mm, pq = mk "wfrc" ~capacity:32 ~links:3 () in
            Pq.insert pq ~tid:0 50 0;
            let got = Array.make 2 [] in
            let body tid =
              Pq.insert pq ~tid (10 + tid) tid;
              match Pq.delete_min pq ~tid with
              | Some (k, _) -> got.(tid) <- k :: got.(tid)
              | None -> failwith "delete_min lost a key"
            in
            let check () =
              let rest = List.map fst (Pq.drain pq ~tid:0) in
              let all = List.sort compare (rest @ got.(0) @ got.(1)) in
              if all <> [ 10; 11; 50 ] then
                failwith
                  ("keys not conserved: "
                  ^ String.concat "," (List.map string_of_int all));
              Mm.validate mm;
              if Mm.free_count mm <> 30 then failwith "leak"
            in
            (body, check)));
    tc "wfrc pq: concurrent inserts all land (sweep)" (fun () ->
        sweep_ok ~runs:120 ~threads:2 (fun () ->
            let mm, pq = mk "wfrc" ~capacity:32 ~links:3 () in
            let body tid = Pq.insert pq ~tid (tid + 1) tid in
            let check () =
              let rest = List.map fst (Pq.drain pq ~tid:0) in
              if rest <> [ 1; 2 ] then failwith "lost insert";
              Mm.validate mm;
              if Mm.free_count mm <> 30 then failwith "leak"
            in
            (body, check)));
    tc "wfrc pq: concurrent delete_min hands out distinct nodes (sweep)"
      (fun () ->
        sweep_ok ~runs:120 ~threads:2 (fun () ->
            let mm, pq = mk "wfrc" ~capacity:32 ~links:3 () in
            Pq.insert pq ~tid:0 1 100;
            Pq.insert pq ~tid:0 2 200;
            let got = Array.make 2 (-1) in
            let body tid =
              match Pq.delete_min pq ~tid with
              | Some (_, v) -> got.(tid) <- v
              | None -> failwith "nothing to delete"
            in
            let check () =
              if got.(0) = got.(1) then failwith "same element twice";
              if List.sort compare [ got.(0); got.(1) ] <> [ 100; 200 ] then
                failwith "wrong elements";
              Mm.validate mm;
              if Mm.free_count mm <> 30 then failwith "leak"
            in
            (body, check)));
  ]

(* Equal keys ordered by link time, separately at each level, let two
   deleted duplicates link to each other (level 0 B -> A, level 1
   A -> B) and pin each other in a reference cycle once unlinked; a
   node kept by such a cycle shows in [free_count] or the audit. *)
let dup_key_sim_tests =
  [
    tc "wfrc pq: duplicate keys leave no reference cycle (sweep)" (fun () ->
        sweep_ok ~runs:200 ~threads:2 (fun () ->
            let mm, pq = mk "wfrc" ~capacity:32 ~links:4 () in
            let body tid =
              for i = 1 to 3 do
                Pq.insert pq ~tid 5 ((tid * 10) + i)
              done;
              ignore (Pq.delete_min pq ~tid)
            in
            let check () =
              let rest = Pq.drain pq ~tid:0 in
              if List.length rest <> 4 then failwith "lost a key";
              Mm.validate mm;
              if Mm.free_count mm <> 30 then
                failwith
                  (Printf.sprintf "leak: %d of 30 nodes free"
                     (Mm.free_count mm))
            in
            (body, check)));
    tc "duplicate keys leak nothing on real domains (wfrc x2, lockrc x4)"
      (fun () ->
        (* 1 in 8 keys equal, a third delete_min, then drain and
           audit. *)
        List.iter
          (fun (scheme, threads) ->
            for run = 1 to 3 do
              let cfg =
                Mm.config ~backend:Atomics.Backend.Native ~threads
                  ~capacity:20_000 ~num_links:6 ~num_data:3 ~num_roots:1 ()
              in
              let mm = mm_of scheme cfg in
              let pq = Pq.create mm ~seed:(run * 31) ~tid:0 in
              Mm.store_link mm ~tid:0
                (Shmem.Arena.root_addr (Mm.arena mm) 0)
                (Pq.head_ptr pq);
              ignore
                (Harness.Runner.run ~threads (fun ~tid ->
                     let rng = Sched.Rng.create ((run * 101) + tid) in
                     for _ = 1 to 3_000 do
                       if Sched.Rng.int rng 3 = 0 then
                         ignore (Pq.delete_min pq ~tid)
                       else
                         let k =
                           if Sched.Rng.int rng 8 = 0 then max_int - 1
                           else Sched.Rng.int rng 1_000_000
                         in
                         try Pq.insert pq ~tid k 0
                         with Mm.Out_of_nodes _ -> ()
                     done));
              ignore (Pq.drain pq ~tid:0);
              check_int
                (Printf.sprintf "%s x%d run %d leaked" scheme threads run)
                0 (Harness.Audit.run mm).leaked
            done)
          [ ("wfrc", 2); ("lockrc", 4) ]);
  ]

let level_tests =
  [
    tc "level distribution is geometric-ish" (fun () ->
        (* insert many, verify the structure still works and memory is
           conserved — the level distribution shows indirectly through
           functioning multi-level search *)
        let mm, pq = mk "wfrc" ~capacity:2048 ~links:8 () in
        let rng = Sched.Rng.create 9 in
        let keys = Array.init 1_500 (fun _ -> 1 + Sched.Rng.int rng 100_000) in
        Array.iter (fun k -> Pq.insert pq ~tid:0 k k) keys;
        let out = List.map fst (Pq.drain pq ~tid:0) in
        check_bool "all inserted delivered sorted" true
          (out = List.sort compare (Array.to_list keys));
        assert_all_free ~reserved:2 mm);
  ]

let suite =
  List.concat_map seq_tests rc_schemes
  @ List.concat_map conc_tests rc_schemes
  @ sim_tests @ dup_key_sim_tests @ level_tests
  @ [
      tc "non-RC schemes are rejected (the §1 applicability gap)" (fun () ->
          let cfg =
            Mm.config ~threads:2 ~capacity:32 ~num_links:4 ~num_data:3
              ~num_roots:1 ()
          in
          fails_with ~substring:"reference counting" (fun () ->
              Pq.create (mm_of "hp" cfg) ~seed:1 ~tid:0);
          fails_with ~substring:"reference counting" (fun () ->
              Pq.create (mm_of "ebr" cfg) ~seed:1 ~tid:0));
    ]
