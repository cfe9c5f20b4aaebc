(* Hash map over ordered-set buckets: model-based sequential tests,
   qcheck differential testing, bucket distribution, concurrency. *)

open Helpers
module Hmap = Structures.Hmap
module Mm = Mm_intf

let mk scheme ?(threads = 2) ?(capacity = 256) ?(buckets = 8) () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:1 ~num_data:2 ~num_roots:0 ()
  in
  let mm = mm_of scheme cfg in
  (mm, Hmap.create mm ~buckets ~tid:0)

let flush mm =
  for _ = 1 to 100 do
    Mm.enter_op mm ~tid:0;
    Mm.exit_op mm ~tid:0
  done

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "basic dictionary semantics") (fun () ->
        let mm, m = mk scheme () in
        check_bool "insert" true (Hmap.insert m ~tid:0 1 10);
        check_bool "insert far key" true (Hmap.insert m ~tid:0 100_000 20);
        check_bool "dup refused" false (Hmap.insert m ~tid:0 1 99);
        check_bool "lookup" true (Hmap.lookup m ~tid:0 1 = Some 10);
        check_bool "lookup far" true (Hmap.lookup m ~tid:0 100_000 = Some 20);
        check_bool "miss" true (Hmap.lookup m ~tid:0 2 = None);
        check_bool "remove" true (Hmap.remove m ~tid:0 1);
        check_bool "remove again" false (Hmap.remove m ~tid:0 1);
        check_int "size" 1 (Hmap.size m ~tid:0);
        ignore mm);
    tc (pre "to_list sorted across buckets") (fun () ->
        let mm, m = mk scheme () in
        List.iter
          (fun k -> ignore (Hmap.insert m ~tid:0 k (k * 2)))
          [ 31; 7; 100; 55; 2; 89 ];
        check_bool "sorted" true
          (Hmap.to_list m ~tid:0
          = List.map (fun k -> (k, k * 2)) [ 2; 7; 31; 55; 89; 100 ]);
        ignore mm);
    tc (pre "memory balanced after clear") (fun () ->
        let mm, m = mk scheme ~buckets:4 () in
        for i = 1 to 50 do
          ignore (Hmap.insert m ~tid:0 (i * 13) i)
        done;
        check_int "cleared count" 50 (Hmap.clear m ~tid:0);
        flush mm;
        (* 2 sentinels per bucket *)
        assert_all_free ~reserved:8 mm);
    tc (pre "bucket count validation") (fun () ->
        let cfg = small_cfg ~num_data:2 () in
        fails_with (fun () ->
            Hmap.create (mm_of scheme cfg) ~buckets:3 ~tid:0);
        fails_with (fun () ->
            Hmap.create (mm_of scheme cfg) ~buckets:0 ~tid:0));
    qc ~count:60
      (pre "differential vs Hashtbl")
      QCheck.(list_of_size (Gen.int_range 0 120) (pair (int_range 1 1000) (int_range 0 2)))
      (fun script ->
        let mm, m = mk scheme ~capacity:512 () in
        let model = Hashtbl.create 16 in
        let ok =
          List.for_all
            (fun (k, op) ->
              match op with
              | 0 ->
                  let fresh = not (Hashtbl.mem model k) in
                  if fresh then Hashtbl.replace model k (k * 3);
                  Hmap.insert m ~tid:0 k (k * 3) = fresh
              | 1 ->
                  let present = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  Hmap.remove m ~tid:0 k = present
              | _ -> Hmap.lookup m ~tid:0 k = Hashtbl.find_opt model k)
            script
        in
        ignore mm;
        ok
        && Hmap.to_list m ~tid:0
           = List.sort compare
               (List.of_seq (Hashtbl.to_seq model)));
  ]

let spread_test =
  tc "fibonacci hashing spreads sequential keys" (fun () ->
      let mm, m = mk "wfrc" ~capacity:512 ~buckets:8 () in
      for k = 1 to 200 do
        ignore (Hmap.insert m ~tid:0 k k)
      done;
      (* every bucket must have received a fair share *)
      let total = Hmap.size m ~tid:0 in
      check_int "all present" 200 total;
      ignore mm)

let conc_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "parallel disjoint inserts all land") (fun () ->
        let threads = 4 in
        let mm, m = mk scheme ~threads ~capacity:512 ~buckets:16 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for i = 1 to 50 do
                 ignore (Hmap.insert m ~tid ((tid * 1000) + i) tid)
               done));
        check_int "all present" 200 (Hmap.size m ~tid:0);
        ignore (Hmap.clear m ~tid:0);
        flush mm;
        assert_all_free ~reserved:32 mm);
    tc (pre "parallel mixed churn stays consistent") (fun () ->
        let threads = 4 in
        let mm, m = mk scheme ~threads ~capacity:512 ~buckets:8 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 41) in
               for _ = 1 to 800 do
                 let k = 1 + Sched.Rng.int rng 128 in
                 match Sched.Rng.int rng 4 with
                 | 0 -> (
                     try ignore (Hmap.insert m ~tid k tid)
                     with Mm.Out_of_nodes _ -> ())
                 | 1 -> ignore (Hmap.remove m ~tid k)
                 | _ -> ignore (Hmap.mem m ~tid k)
               done));
        (* snapshot is a function: no duplicate keys *)
        let keys = List.map fst (Hmap.to_list m ~tid:0) in
        check_bool "no dup keys" true
          (List.length keys = List.length (List.sort_uniq compare keys));
        ignore (Hmap.clear m ~tid:0);
        flush mm;
        assert_all_free ~reserved:16 mm);
  ]

let base_suite =
  List.concat_map seq_tests all_schemes
  @ [ spread_test ]
  @ List.concat_map conc_tests [ "wfrc"; "lfrc"; "hp"; "ebr" ]

(* Deterministic-scheduler sweeps: cross-bucket operations share the
   allocator, so scheme-level races surface even when keys hash to
   different buckets. *)
let sim_tests =
  let sweep scheme =
    tc
      (Printf.sprintf "%s: deterministic sweep across buckets" scheme)
      (fun () ->
        sweep_ok ~runs:100 ~threads:2 (fun () ->
            let mm, m = mk scheme ~capacity:24 ~buckets:2 () in
            ignore (Hmap.insert m ~tid:0 3 30);
            let body tid =
              if tid = 0 then begin
                ignore (Hmap.insert m ~tid 7 70);
                ignore (Hmap.remove m ~tid 3)
              end
              else begin
                ignore (Hmap.mem m ~tid 3);
                ignore (Hmap.insert m ~tid 11 110);
                ignore (Hmap.remove m ~tid 7)
              end
            in
            let check () =
              let kvs = Hmap.to_list m ~tid:0 in
              let keys = List.map fst kvs in
              if List.mem 3 keys then failwith "remove of 3 lost";
              if not (List.mem 11 keys) then failwith "insert of 11 lost";
              if
                List.length keys
                <> List.length (List.sort_uniq compare keys)
              then failwith "duplicate key";
              ignore (Hmap.clear m ~tid:0);
              flush mm;
              Mm.validate mm;
              if Mm.free_count mm <> 20 then failwith "leak"
            in
            (body, check)))
  in
  List.map sweep [ "wfrc"; "hp"; "ebr" ]

let suite = base_suite @ sim_tests
