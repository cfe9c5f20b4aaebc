(* Michael–Scott queue: FIFO model tests per scheme, property-based
   differential testing, per-producer order preservation under
   concurrency, and deterministic sweeps. *)

open Helpers
module Queue_ = Structures.Queue
module Model = Structures.Seqmodels.Queue_model
module Mm = Mm_intf
module Queue_ops = Lincheck.Specs.Queue_ops
module Queue_check = Lincheck.Checker.Make (Queue_ops)

let mk scheme ?(threads = 2) ?(capacity = 64) () =
  let cfg = small_cfg ~threads ~capacity ~num_roots:2 () in
  let mm = mm_of scheme cfg in
  (mm, Queue_.create mm ~head_root:0 ~tail_root:1 ~tid:0)

let flush mm =
  for _ = 1 to 100 do
    Mm.enter_op mm ~tid:0;
    Mm.exit_op mm ~tid:0
  done

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "FIFO order") (fun () ->
        let mm, q = mk scheme () in
        List.iter (Queue_.enqueue q ~tid:0) [ 1; 2; 3 ];
        check_bool "deq 1" true (Queue_.dequeue q ~tid:0 = Some 1);
        Queue_.enqueue q ~tid:0 4;
        check_bool "deq 2" true (Queue_.dequeue q ~tid:0 = Some 2);
        check_bool "deq 3" true (Queue_.dequeue q ~tid:0 = Some 3);
        check_bool "deq 4" true (Queue_.dequeue q ~tid:0 = Some 4);
        check_bool "empty" true (Queue_.dequeue q ~tid:0 = None);
        ignore mm);
    tc (pre "empty queue behaves") (fun () ->
        let mm, q = mk scheme () in
        check_bool "deq empty" true (Queue_.dequeue q ~tid:0 = None);
        check_bool "is_empty" true (Queue_.is_empty q ~tid:0);
        Queue_.enqueue q ~tid:0 1;
        check_bool "not empty" false (Queue_.is_empty q ~tid:0);
        ignore (Queue_.dequeue q ~tid:0);
        check_bool "empty again" true (Queue_.is_empty q ~tid:0);
        ignore mm);
    tc (pre "sentinel accounting: one node held when empty") (fun () ->
        let mm, q = mk scheme ~capacity:8 () in
        for i = 1 to 30 do
          Queue_.enqueue q ~tid:0 i;
          ignore (Queue_.dequeue q ~tid:0)
        done;
        flush mm;
        assert_all_free ~reserved:1 mm);
    qc ~count:100
      (pre "differential vs two-list model")
      QCheck.(list_of_size (Gen.int_range 0 80) (option (int_range 0 100)))
      (fun script ->
        let mm, q = mk scheme ~capacity:256 () in
        let m = Model.create () in
        let ok =
          List.for_all
            (fun op ->
              match op with
              | Some v ->
                  Queue_.enqueue q ~tid:0 v;
                  Model.push m v;
                  true
              | None -> Queue_.dequeue q ~tid:0 = Model.pop m)
            script
        in
        ignore mm;
        ok && Queue_.drain q ~tid:0 = Model.to_list m);
  ]

let conc_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "concurrent conservation") (fun () ->
        let threads = 4 in
        let mm, q = mk scheme ~threads ~capacity:128 () in
        let enq = Array.init threads (fun _ -> ref []) in
        let deq = Array.init threads (fun _ -> ref []) in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 13) in
               for i = 1 to 1_500 do
                 if Sched.Rng.bool rng then begin
                   let v = (tid * 1_000_000) + i in
                   try
                     Queue_.enqueue q ~tid v;
                     enq.(tid) := v :: !(enq.(tid))
                   with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ()
                 end
                 else
                   match Queue_.dequeue q ~tid with
                   | Some v -> deq.(tid) := v :: !(deq.(tid))
                   | None -> ()
               done));
        let rest = Queue_.drain q ~tid:0 in
        let all_enq = List.concat_map (fun r -> !r) (Array.to_list enq) in
        let all_deq =
          rest @ List.concat_map (fun r -> !r) (Array.to_list deq)
        in
        check_bool "multiset conserved" true
          (List.sort compare all_enq = List.sort compare all_deq);
        flush mm;
        assert_all_free ~reserved:1 mm);
    tc (pre "per-producer FIFO preserved under concurrency") (fun () ->
        (* values of one producer must be dequeued in their enqueue
           order, whatever interleaving happens *)
        let threads = 3 in
        let mm, q = mk scheme ~threads ~capacity:128 () in
        let out = ref [] in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               if tid < 2 then
                 for i = 1 to 1_000 do
                   try Queue_.enqueue q ~tid ((tid * 1_000_000) + i)
                   with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ()
                 done
               else begin
                 let n = ref 0 in
                 let idle = ref 0 in
                 while !n < 2_000 && !idle < 2_000_000 do
                   match Queue_.dequeue q ~tid with
                   | Some v ->
                       out := v :: !out;
                       incr n;
                       idle := 0
                   | None ->
                       incr idle;
                       Domain.cpu_relax ()
                 done
               end));
        let consumed = List.rev !out @ Queue_.drain q ~tid:0 in
        let producer p =
          List.filter (fun v -> v / 1_000_000 = p) consumed
        in
        let is_sorted l = List.sort compare l = l in
        check_bool "producer 0 order kept" true (is_sorted (producer 0));
        check_bool "producer 1 order kept" true (is_sorted (producer 1));
        ignore mm);
  ]

(* Dequeue reads the tail root uncounted: only the head and the
   sentinel's next link are dereferenced. Enqueue reads [last.next]
   uncounted: only the tail is dereferenced. *)
let budget_tests =
  let derefs mm f =
    let ctr = Mm.counters mm in
    let d0 = Atomics.Counters.(total ctr Deref) in
    f ();
    Atomics.Counters.(total ctr Deref) - d0
  in
  [
    tc "wfrc: dequeue from a non-empty queue costs exactly 2 derefs"
      (fun () ->
        let mm, q = mk "wfrc" () in
        List.iter (Queue_.enqueue q ~tid:0) [ 1; 2 ];
        check_int "derefs" 2
          (derefs mm (fun () ->
               check_bool "deq 1" true (Queue_.dequeue q ~tid:0 = Some 1))));
    tc "wfrc: enqueue on a non-lagging tail costs exactly 1 deref" (fun () ->
        let mm, q = mk "wfrc" () in
        Queue_.enqueue q ~tid:0 1;
        check_int "derefs" 1 (derefs mm (fun () -> Queue_.enqueue q ~tid:0 2));
        check_bool "FIFO" true (Queue_.drain q ~tid:0 = [ 1; 2 ]));
  ]

(* The enqueuer on thread 0 reads [last.next] uncounted and may find
   the tail lagging behind thread 1's enqueue, while thread 1 also
   dequeues past the nodes it found. Every schedule must be
   linearizable and, under the reclamation oracle, free of any access
   to a reclaimed node. The biased half starves the enqueuer between
   its read and its tail swing. *)
let race_tests scheme =
  let factory () =
    let mm = mm_of scheme (small_cfg ~capacity:16 ~num_roots:2 ()) in
    ( Mm.arena mm,
      fun () ->
        let q = Queue_.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
        let hist = Lincheck.History.create ~threads:2 in
        let enq tid v =
          ignore
            (Lincheck.History.record hist ~tid (Queue_ops.Enq v) (fun () ->
                 Queue_.enqueue q ~tid v;
                 Queue_ops.Unit))
        in
        let deq tid =
          ignore
            (Lincheck.History.record hist ~tid Queue_ops.Deq (fun () ->
                 match Queue_.dequeue q ~tid with
                 | Some v -> Queue_ops.Value v
                 | None -> Queue_ops.Empty))
        in
        let body tid =
          if tid = 0 then begin
            enq tid 1;
            enq tid 2;
            enq tid 3
          end
          else begin
            enq tid 101;
            deq tid;
            enq tid 102;
            deq tid;
            deq tid
          end
        in
        let check () =
          let events = Lincheck.History.events hist in
          if not (Queue_check.check events) then failwith "not linearizable";
          let dequeued =
            Array.to_list events
            |> List.filter_map (fun (e : _ Lincheck.History.event) ->
                   match e.res with Queue_ops.Value v -> Some v | _ -> None)
          in
          let all = List.sort compare (dequeued @ Queue_.drain q ~tid:0) in
          if all <> [ 1; 2; 3; 101; 102 ] then failwith "values not conserved";
          flush mm;
          Mm.validate mm;
          if Mm.free_count mm <> 15 then failwith "leak"
        in
        (body, check) )
  in
  tc
    (Printf.sprintf "%s queue: enqueue meets a lagging tail (lincheck + oracle)"
       scheme) (fun () -> race_sweep_ok factory)

(* The dequeuer's uncounted tail read is scheme-generic, so both
   sweeps run on every scheme. *)
let sim_tests scheme =
  [
    tc (Printf.sprintf "%s queue: deterministic sweep conserves values + memory"
          scheme)
      (fun () ->
        sweep_ok ~runs:200 ~threads:2 (fun () ->
            let mm, q = mk scheme ~capacity:16 () in
            let got = Array.make 2 [] in
            let body tid =
              Queue_.enqueue q ~tid (100 + tid);
              match Queue_.dequeue q ~tid with
              | Some v -> got.(tid) <- v :: got.(tid)
              | None -> failwith "dequeue lost a value"
            in
            let check () =
              let rest = Queue_.drain q ~tid:0 in
              let all = List.sort compare (rest @ got.(0) @ got.(1)) in
              if all <> [ 100; 101 ] then failwith "values not conserved";
              flush mm;
              Mm.validate mm;
              if Mm.free_count mm <> 15 then failwith "leak"
            in
            (body, check)));
    tc (Printf.sprintf "%s queue: enq/enq then FIFO drain (exhaustive-ish)"
          scheme) (fun () ->
        sweep_ok ~runs:200 ~threads:2 (fun () ->
            let mm, q = mk scheme ~capacity:16 () in
            let body tid = Queue_.enqueue q ~tid tid in
            let check () =
              let rest = Queue_.drain q ~tid:0 in
              if List.sort compare rest <> [ 0; 1 ] then
                failwith "lost enqueue";
              flush mm;
              Mm.validate mm;
              if Mm.free_count mm <> 15 then failwith "leak"
            in
            (body, check)));
  ]

let suite =
  List.concat_map seq_tests all_schemes
  @ List.concat_map conc_tests [ "wfrc"; "lfrc"; "hp"; "ebr" ]
  @ budget_tests
  @ List.concat_map sim_tests all_schemes
  @ List.map race_tests all_schemes
