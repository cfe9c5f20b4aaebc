(* Ordered set (Michael's list-based set): sequential semantics vs a
   map model, qcheck differential tests, concurrency, and sim sweeps —
   on ALL five schemes, including the retire-based ones. *)

open Helpers
module Oset = Structures.Oset
module Mm = Mm_intf
module C = Atomics.Counters
module Set_ops = Lincheck.Specs.Set_ops
module Set_check = Lincheck.Checker.Make (Set_ops)

let mk scheme ?(threads = 2) ?(capacity = 64) () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:1 ~num_data:2 ~num_roots:0 ()
  in
  let mm = mm_of scheme cfg in
  (mm, Oset.create mm ~tid:0)

let flush mm =
  for _ = 1 to 100 do
    Mm.enter_op mm ~tid:0;
    Mm.exit_op mm ~tid:0
  done

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "insert/mem/remove basics") (fun () ->
        let mm, s = mk scheme () in
        check_bool "insert 5" true (Oset.insert s ~tid:0 5 50);
        check_bool "insert 3" true (Oset.insert s ~tid:0 3 30);
        check_bool "insert dup refused" false (Oset.insert s ~tid:0 5 99);
        check_bool "mem 3" true (Oset.mem s ~tid:0 3);
        check_bool "mem 4" false (Oset.mem s ~tid:0 4);
        check_bool "lookup" true (Oset.lookup s ~tid:0 5 = Some 50);
        check_bool "lookup dup kept original" true
          (Oset.lookup s ~tid:0 5 = Some 50);
        check_bool "remove 3" true (Oset.remove s ~tid:0 3);
        check_bool "remove 3 again" false (Oset.remove s ~tid:0 3);
        check_bool "mem gone" false (Oset.mem s ~tid:0 3);
        ignore mm);
    tc (pre "keys come back sorted") (fun () ->
        let mm, s = mk scheme () in
        List.iter
          (fun k -> ignore (Oset.insert s ~tid:0 k k))
          [ 9; 1; 7; 3; 5 ];
        check_bool "sorted" true
          (List.map fst (Oset.to_list s ~tid:0) = [ 1; 3; 5; 7; 9 ]);
        check_int "size" 5 (Oset.size s ~tid:0);
        ignore mm);
    tc (pre "reserved keys rejected") (fun () ->
        let mm, s = mk scheme () in
        fails_with (fun () -> Oset.insert s ~tid:0 max_int 0);
        fails_with (fun () -> Oset.insert s ~tid:0 min_int 0);
        ignore mm);
    tc (pre "insert/remove cycles recycle memory") (fun () ->
        let mm, s = mk scheme ~capacity:16 () in
        for round = 0 to 40 do
          for i = 1 to 8 do
            ignore (Oset.insert s ~tid:0 ((round mod 3) + (i * 10)) i)
          done;
          ignore (Oset.clear s ~tid:0)
        done;
        flush mm;
        assert_all_free ~reserved:2 mm);
    qc ~count:80
      (pre "differential vs sorted association list")
      QCheck.(list_of_size (Gen.int_range 0 80) (pair (int_range 1 20) (int_range 0 2)))
      (fun script ->
        let mm, s = mk scheme ~capacity:128 () in
        let model = Hashtbl.create 16 in
        let ok =
          List.for_all
            (fun (k, op) ->
              match op with
              | 0 ->
                  let fresh = not (Hashtbl.mem model k) in
                  if fresh then Hashtbl.replace model k k;
                  Oset.insert s ~tid:0 k k = fresh
              | 1 ->
                  let present = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  Oset.remove s ~tid:0 k = present
              | _ -> Oset.mem s ~tid:0 k = Hashtbl.mem model k)
            script
        in
        ignore mm;
        ok
        && List.map fst (Oset.to_list s ~tid:0)
           = List.sort compare (List.of_seq (Hashtbl.to_seq_keys model)));
  ]

let conc_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "disjoint key ranges: all inserts land") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:256 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for i = 1 to 40 do
                 ignore (Oset.insert s ~tid ((tid * 100) + i) i)
               done));
        check_int "all present" 160 (Oset.size s ~tid:0);
        for tid = 0 to 3 do
          for i = 1 to 40 do
            if not (Oset.mem s ~tid:0 ((tid * 100) + i)) then
              Alcotest.failf "key %d missing" ((tid * 100) + i)
          done
        done;
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
    tc (pre "contended single key: exactly one winner per round") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:64 () in
        let wins = Array.make threads 0 in
        let removals = Array.make threads 0 in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for _ = 1 to 500 do
                 (* EBR can transiently exhaust the pool while a
                    preempted thread pins the epoch: an OOM'd insert
                    simply isn't a win *)
                 (match Oset.insert s ~tid 42 tid with
                 | true -> wins.(tid) <- wins.(tid) + 1
                 | false -> ()
                 | exception Mm.Out_of_memory | exception Mm.Out_of_nodes _ -> ());
                 if Oset.remove s ~tid 42 then
                   removals.(tid) <- removals.(tid) + 1
               done));
        let total_wins = Array.fold_left ( + ) 0 wins in
        let total_removals = Array.fold_left ( + ) 0 removals in
        let still = if Oset.mem s ~tid:0 42 then 1 else 0 in
        check_int "inserts = removals + residue" total_wins
          (total_removals + still);
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
    tc (pre "mixed churn conserves memory") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:128 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 31) in
               for _ = 1 to 1_000 do
                 let k = 1 + Sched.Rng.int rng 64 in
                 match Sched.Rng.int rng 3 with
                 | 0 -> (
                     try ignore (Oset.insert s ~tid k tid)
                     with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ())
                 | 1 -> ignore (Oset.remove s ~tid k)
                 | _ -> ignore (Oset.mem s ~tid k)
               done));
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
  ]

(* The tail sentinel: the head's first link in an empty set. *)
let tail_of mm s =
  let arena = Mm.arena mm in
  Value.unmark (Arena.read arena (Arena.link_addr arena (Oset.head s) 0))

let mm_ref_of mm p = Arena.read_mm_ref (Mm.arena mm) p

(* Client reference discipline (DESIGN.md §6.5): one deref and one
   release per node a traversal steps onto, none for the node it stops
   on, and neither sentinel is ever counted. *)
let budget_tests =
  let mixed s =
    List.iter (fun k -> ignore (Oset.insert s ~tid:0 k k)) [ 30; 10; 40; 20 ];
    ignore (Oset.remove s ~tid:0 20);
    ignore (Oset.mem s ~tid:0 20);
    ignore (Oset.lookup s ~tid:0 40);
    ignore (Oset.insert s ~tid:0 20 2);
    ignore (Oset.remove s ~tid:0 10);
    ignore (Oset.to_list s ~tid:0);
    ignore (Oset.clear s ~tid:0)
  in
  let lookup_costs name ~keys ~k ~found ~calls =
    tc name (fun () ->
        let mm, s = mk "wfrc" () in
        List.iter (fun k -> ignore (Oset.insert s ~tid:0 k k)) keys;
        let ctr = Mm.counters mm in
        let d0 = C.total ctr C.Deref and r0 = C.total ctr C.Release in
        check_bool "found" found (Oset.lookup s ~tid:0 k <> None);
        check_int "derefs" calls (C.total ctr C.Deref - d0);
        check_int "releases" calls (C.total ctr C.Release - r0))
  in
  [
    lookup_costs
      "wfrc: lookup of the last of four keys costs 4 derefs and 4 releases"
      ~keys:[ 10; 20; 30; 40 ] ~k:40 ~found:true ~calls:4;
    lookup_costs "wfrc: lookup hit on the first key costs 1 deref and 1 release"
      ~keys:[ 10; 20; 30; 40 ] ~k:10 ~found:true ~calls:1;
    lookup_costs "wfrc: lookup in an empty set costs no deref and no release"
      ~keys:[] ~k:10 ~found:false ~calls:0;
  ]
  @ List.concat_map
      (fun (which, sentinel, schemes) ->
        List.map
          (fun scheme ->
            tc
              (Printf.sprintf "%s: %s sentinel's mm_ref unchanged by a mixed run"
                 scheme which) (fun () ->
                let mm, s = mk scheme () in
                let p = sentinel mm s in
                let r0 = mm_ref_of mm p in
                mixed s;
                check_int (which ^ " mm_ref") r0 (mm_ref_of mm p)))
          schemes)
      [
        ("head", (fun _ s -> Oset.head s), [ "wfrc"; "lfrc" ]);
        ("tail", tail_of, [ "wfrc"; "lfrc"; "lockrc" ]);
      ]

(* An insert whose [alloc] runs out of nodes gives back the references
   its search took: after the set is cleared, every node but the two
   sentinels is free again. *)
let oom_tests scheme =
  [
    tc (scheme ^ ": inserts past capacity strand no node") (fun () ->
        let mm, s = mk scheme ~capacity:8 () in
        let refused = ref 0 in
        for i = 1 to 10 do
          match Oset.insert s ~tid:0 (10 * i) i with
          | ok -> check_bool "fresh key inserted" true ok
          | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> incr refused
        done;
        (* wfrc's own-cell hand-off may hold back a node of its own *)
        check_bool "inserts refused" true (!refused >= 4);
        check_int "cleared" (10 - !refused) (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
  ]

let sim_tests =
  (* the retire-based schemes are the interesting ones here: this is
     the structure that must be safe on them *)
  let sweep scheme =
    tc (Printf.sprintf "%s: deterministic sweep (insert/remove/mem races)"
          scheme) (fun () ->
        sweep_ok ~runs:150 ~threads:2 (fun () ->
            let mm, s = mk scheme ~capacity:16 () in
            ignore (Oset.insert s ~tid:0 10 0);
            let body tid =
              if tid = 0 then begin
                ignore (Oset.insert s ~tid 5 50);
                ignore (Oset.remove s ~tid 10)
              end
              else begin
                ignore (Oset.mem s ~tid 10);
                ignore (Oset.insert s ~tid 15 150);
                ignore (Oset.remove s ~tid 5)
              end
            in
            let check () =
              (* 10 removed; 15 present; 5 present iff t0's insert
                 preceded t1's remove — either way the set is
                 well-formed and memory balanced after clear *)
              let keys = List.map fst (Oset.to_list s ~tid:0) in
              if not (List.mem 15 keys) then failwith "lost insert of 15";
              if List.mem 10 keys then failwith "remove of 10 lost";
              if List.sort compare keys <> keys then failwith "unsorted";
              ignore (Oset.clear s ~tid:0);
              flush mm;
              Mm.validate mm;
              if Mm.free_count mm <> 14 then failwith "leak"
            in
            (body, check)))
  in
  List.map sweep [ "wfrc"; "lfrc"; "hp"; "ebr" ]

(* Two-thread race beds over a preloaded set: the reader's script runs
   on thread 0, the writer's on thread 1, and the writer leaves the
   set holding [keys] again. Every schedule must be linearizable and,
   under the reclamation oracle, free of any access to a reclaimed
   node, and the tail sentinel's count must balance. The biased half
   of the sweep starves the reader mid-walk. *)
type step = Mem of int | Lookup of int | Insert of int | Remove of int

let race_bed ~keys ~reader ~writer scheme =
  let factory () =
    let cfg =
      Mm.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:2 ~num_roots:0
        ()
    in
    let mm = mm_of scheme cfg in
    ( Mm.arena mm,
      fun () ->
        let s = Oset.create mm ~tid:0 in
        let tail = tail_of mm s in
        let tail_ref = mm_ref_of mm tail in
        List.iter (fun k -> ignore (Oset.insert s ~tid:0 k k)) keys;
        let hist = Lincheck.History.create ~threads:2 in
        let run tid = function
          | Mem k -> (Set_ops.Mem k, fun () -> Oset.mem s ~tid k)
          | Lookup k ->
              ( Set_ops.Mem k,
                fun () ->
                  match Oset.lookup s ~tid k with
                  | Some v when v <> k -> failwith "lookup: wrong value"
                  | r -> r <> None )
          | Insert k -> (Set_ops.Insert k, fun () -> Oset.insert s ~tid k k)
          | Remove k -> (Set_ops.Remove k, fun () -> Oset.remove s ~tid k)
        in
        let body tid =
          List.iter
            (fun st ->
              let o, f = run tid st in
              ignore
                (Lincheck.History.record hist ~tid o (fun () ->
                     Set_ops.Bool (f ()))))
            (if tid = 0 then reader else writer)
        in
        let check () =
          let pre =
            Array.of_list
              (List.mapi
                 (fun i k ->
                   {
                     Lincheck.History.tid = 0;
                     op = Set_ops.Insert k;
                     res = Set_ops.Bool true;
                     invoke = (2 * i) - 8;
                     return = (2 * i) - 7;
                   })
                 keys)
          in
          if not (Set_check.check (Array.append pre (Lincheck.History.events hist)))
          then failwith "not linearizable";
          if List.map fst (Oset.to_list s ~tid:0) <> keys then
            failwith "final set differs";
          ignore (Oset.clear s ~tid:0);
          flush mm;
          Mm.validate mm;
          if Mm.free_count mm <> 14 then failwith "leak";
          if mm_ref_of mm tail <> tail_ref then
            failwith "tail sentinel's count unbalanced"
        in
        (body, check) )
  in
  race_sweep_ok factory

let race_tests =
  let beds =
    [
      (* a traversal hands its reference on [cur.next] forward while
         the middle keys are removed and reinserted under it *)
      ( "walk races a middle remove/reinsert",
        [ "wfrc"; "lfrc"; "hp"; "ebr" ],
        [ 10; 20; 30; 40 ],
        [ Mem 40; Lookup 40; Mem 20; Lookup 30 ],
        [ Remove 20; Insert 20; Remove 30; Insert 30 ] );
      (* the reader stops on its target, and the writer may mark it
         between the reader's key test and its uncounted mark read;
         the reader's own remove of the key before it makes the
         writer's unlink CAS fail, so the writer's adopting find must
         itself stop on a marked node and unlink it *)
      ( "stop-node mark read races a remove of the target",
        [ "wfrc"; "lfrc"; "hp"; "ebr" ],
        [ 10; 20; 30; 40 ],
        [ Mem 30; Remove 20; Lookup 30; Insert 20; Mem 30 ],
        [ Remove 30; Insert 30; Remove 40; Insert 40 ] );
      (* the reader's [succ] read of 10.next sees 20, and the writer's
         remove of the last key makes its deref land on the tail: the
         give-back path *)
      ( "succ's deref lands on the tail after a last-key remove",
        [ "wfrc"; "lfrc"; "hp"; "ebr" ],
        [ 10; 20 ],
        [ Mem 30; Lookup 20; Mem 30; Lookup 30 ],
        [ Remove 20; Insert 20; Remove 20; Insert 20 ] );
    ]
  in
  List.concat_map
    (fun (name, schemes, keys, reader, writer) ->
      List.map
        (fun scheme ->
          tc
            (Printf.sprintf "%s: %s (lincheck + oracle)" scheme name)
            (fun () -> race_bed ~keys ~reader ~writer scheme))
        schemes)
    beds

let suite =
  List.concat_map seq_tests all_schemes
  @ List.concat_map conc_tests all_schemes
  @ budget_tests
  @ List.concat_map oom_tests all_schemes
  @ sim_tests
  @ race_tests
