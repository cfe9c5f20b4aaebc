(* Treiber stack: model-based sequential tests (per scheme),
   property-based differential testing against the list model,
   concurrent conservation, and deterministic-scheduler sweeps. *)

open Helpers
module Stack = Structures.Stack
module Model = Structures.Seqmodels.Stack_model
module Mm = Mm_intf
module Value = Shmem.Value

let mk scheme ?(threads = 2) ?(capacity = 64) () =
  let cfg = small_cfg ~threads ~capacity ~num_roots:1 () in
  let mm = mm_of scheme cfg in
  (mm, Stack.create mm ~root:0)

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "LIFO order") (fun () ->
        let mm, s = mk scheme () in
        List.iter (Stack.push s ~tid:0) [ 1; 2; 3 ];
        check_bool "pop 3" true (Stack.pop s ~tid:0 = Some 3);
        check_bool "pop 2" true (Stack.pop s ~tid:0 = Some 2);
        Stack.push s ~tid:0 9;
        check_bool "pop 9" true (Stack.pop s ~tid:0 = Some 9);
        check_bool "pop 1" true (Stack.pop s ~tid:0 = Some 1);
        check_bool "empty" true (Stack.pop s ~tid:0 = None);
        ignore mm);
    tc (pre "empty stack behaves") (fun () ->
        let mm, s = mk scheme () in
        check_bool "pop empty" true (Stack.pop s ~tid:0 = None);
        check_bool "is_empty" true (Stack.is_empty s ~tid:0);
        Stack.push s ~tid:0 5;
        check_bool "not empty" false (Stack.is_empty s ~tid:0);
        ignore (Stack.pop s ~tid:0);
        ignore mm);
    tc (pre "push/pop cycles recycle memory") (fun () ->
        let mm, s = mk scheme ~capacity:8 () in
        for round = 1 to 50 do
          for i = 1 to 6 do
            Stack.push s ~tid:0 (round + i)
          done;
          for _ = 1 to 6 do
            ignore (Stack.pop s ~tid:0)
          done
        done;
        check_bool "drained" true (Stack.drain s ~tid:0 = []);
        (* flush deferred reclamation for retire-based schemes *)
        for _ = 1 to 100 do
          Mm.enter_op mm ~tid:0;
          Mm.exit_op mm ~tid:0
        done;
        assert_all_free mm);
    qc ~count:100
      (pre "differential vs list model")
      QCheck.(list_of_size (Gen.int_range 0 80) (option (int_range 0 100)))
      (fun script ->
        let mm, s = mk scheme ~capacity:256 () in
        let m = Model.create () in
        let ok =
          List.for_all
            (fun op ->
              match op with
              | Some v ->
                  Stack.push s ~tid:0 v;
                  Model.push m v;
                  true
              | None -> Stack.pop s ~tid:0 = Model.pop m)
            script
        in
        ignore mm;
        ok && Stack.drain s ~tid:0 = Model.to_list m);
  ]

let conc_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "concurrent conservation of values") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:128 () in
        let pushed = Array.init threads (fun _ -> ref []) in
        let popped = Array.init threads (fun _ -> ref []) in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 11) in
               for i = 1 to 1_500 do
                 if Sched.Rng.bool rng then begin
                   let v = (tid * 1_000_000) + i in
                   try
                     Stack.push s ~tid v;
                     pushed.(tid) := v :: !(pushed.(tid))
                   with Mm.Out_of_nodes _ -> ()
                 end
                 else
                   match Stack.pop s ~tid with
                   | Some v -> popped.(tid) := v :: !(popped.(tid))
                   | None -> ()
               done));
        let rest = Stack.drain s ~tid:0 in
        let all_pushed =
          List.concat_map (fun r -> !r) (Array.to_list pushed)
        in
        let all_popped =
          rest @ List.concat_map (fun r -> !r) (Array.to_list popped)
        in
        check_int "len conserved" (List.length all_pushed)
          (List.length all_popped);
        check_bool "multiset conserved" true
          (List.sort compare all_pushed = List.sort compare all_popped);
        for _ = 1 to 100 do
          Mm.enter_op mm ~tid:0;
          Mm.exit_op mm ~tid:0
        done;
        assert_all_free mm);
    tc (pre "no value duplicated or invented") (fun () ->
        let threads = 2 in
        let mm, s = mk scheme ~threads ~capacity:32 () in
        let produced = Atomic.make 0 in
        let seen = Hashtbl.create 64 in
        let dupes = Atomic.make 0 in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               if tid = 0 then
                 for i = 1 to 2_000 do
                   (try
                      Stack.push s ~tid i;
                      Atomic.incr produced
                    with Mm.Out_of_nodes _ -> ());
                   ignore (Stack.pop s ~tid)
                 done
               else
                 for _ = 1 to 2_000 do
                   match Stack.pop s ~tid with
                   | Some v ->
                       if Hashtbl.mem seen v then Atomic.incr dupes
                       else Hashtbl.replace seen v ()
                   | None -> ()
                 done));
        ignore mm;
        check_int "no duplicates" 0 (Atomic.get dupes));
  ]

let sim_tests =
  [
    tc "wfrc stack: deterministic sweep preserves LIFO + memory" (fun () ->
        sweep_ok ~runs:200 ~threads:2 (fun () ->
            let mm, s = mk "wfrc" ~capacity:16 () in
            let results = Array.make 2 [] in
            let body tid =
              Stack.push s ~tid (10 + tid);
              (match Stack.pop s ~tid with
              | Some v -> results.(tid) <- v :: results.(tid)
              | None -> failwith "pop lost a value");
              ()
            in
            let check () =
              let rest = Stack.drain s ~tid:0 in
              let got =
                List.sort compare
                  (rest @ results.(0) @ results.(1))
              in
              if got <> [ 10; 11 ] then failwith "values not conserved";
              Mm.validate mm;
              if Mm.free_count mm <> 16 then failwith "leak"
            in
            (body, check)));
    tc "lfrc stack: deterministic sweep" (fun () ->
        sweep_ok ~runs:150 ~threads:2 (fun () ->
            let mm, s = mk "lfrc" ~capacity:16 () in
            let body tid =
              Stack.push s ~tid tid;
              ignore (Stack.pop s ~tid)
            in
            let check () =
              ignore (Stack.drain s ~tid:0);
              Mm.validate mm;
              if Mm.free_count mm <> 16 then failwith "leak"
            in
            (body, check)));
  ]

(* Pop reads the top node's next word uncounted: only the top is
   dereferenced. *)
let budget_tests =
  [
    tc "wfrc: pop from a non-empty stack costs exactly 1 deref" (fun () ->
        let mm, s = mk "wfrc" () in
        List.iter (Stack.push s ~tid:0) [ 1; 2 ];
        let ctr = Mm.counters mm in
        let d0 = Atomics.Counters.(total ctr Deref) in
        check_bool "pop 2" true (Stack.pop s ~tid:0 = Some 2);
        check_int "derefs" 1 (Atomics.Counters.(total ctr Deref) - d0));
  ]

let suite =
  List.concat_map seq_tests all_schemes
  @ List.concat_map conc_tests [ "wfrc"; "lfrc"; "hp"; "ebr" ]
  @ budget_tests
  @ sim_tests
