(* Correctness family: E7 (linearizability sweeps, Definition 1 /
   Lemmas 2–5) and E8 (exhaustion behaviour, paper footnote 4). *)

module Mm = Mm_intf
module Value = Shmem.Value
open Exp_support

module Link_check = Lincheck.Checker.Make (Lincheck.Specs.Link_ops)
module Alloc_check = Lincheck.Checker.Make (Lincheck.Specs.Alloc_ops)
module Stack_check = Lincheck.Checker.Make (Lincheck.Specs.Stack_ops)
module Queue_check = Lincheck.Checker.Make (Lincheck.Specs.Queue_ops)
module Pq_check = Lincheck.Checker.Make (Lincheck.Specs.Pqueue_ops)
module Set_check = Lincheck.Checker.Make (Lincheck.Specs.Set_ops)

exception Not_linearizable

(* Shared-link semantics on a given scheme: two readers + one updater
   over two links. *)
let e7_links ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg =
      Mm.config ~threads:3 ~capacity:32 ~num_links:1 ~num_data:1 ~num_roots:2
        ()
    in
    let mm = Registry.instantiate scheme cfg in
    let arena = Mm.arena mm in
    let l0 = Shmem.Arena.root_addr arena 0 in
    let l1 = Shmem.Arena.root_addr arena 1 in
    let a = Mm.alloc mm ~tid:0 and b = Mm.alloc mm ~tid:0 in
    Mm.store_link mm ~tid:0 l0 a;
    Mm.store_link mm ~tid:0 l1 b;
    Lincheck.Specs.Link_ops.set_initial [ (l0, a); (l1, b) ];
    Mm.release mm ~tid:0 a;
    Mm.release mm ~tid:0 b;
    let hist = Lincheck.History.create ~threads:3 in
    let deref tid l =
      let w =
        Lincheck.History.record hist ~tid (Lincheck.Specs.Link_ops.Deref l)
          (fun () -> Lincheck.Specs.Link_ops.Word (Mm.deref mm ~tid l))
      in
      match w with
      | Lincheck.Specs.Link_ops.Word p ->
          if not (Value.is_null p) then Mm.release mm ~tid p
      | _ -> ()
    in
    let body tid =
      match tid with
      | 0 | 1 ->
          deref tid l0;
          deref tid l1
      | _ ->
          (* updater: move a fresh node into l0 *)
          let n = Mm.alloc mm ~tid in
          let old = Mm.deref mm ~tid l0 in
          let _ =
            Lincheck.History.record hist ~tid
              (Lincheck.Specs.Link_ops.Cas (l0, old, n)) (fun () ->
                Lincheck.Specs.Link_ops.Bool
                  (Mm.cas_link mm ~tid l0 ~old ~nw:n))
          in
          if not (Value.is_null old) then Mm.release mm ~tid old;
          Mm.release mm ~tid n
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events = Lincheck.History.events hist in
      if not (Link_check.check events) then raise Not_linearizable
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:3 ~runs ~seed mk

(* AllocNode/FreeNode multiset semantics: concurrent alloc/release
   cycles must never hand the same node to two holders. *)
let e7_alloc ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg =
      Mm.config ~threads:3 ~capacity:8 ~num_links:0 ~num_data:1 ~num_roots:0
        ()
    in
    let mm = Registry.instantiate scheme cfg in
    let hist = Lincheck.History.create ~threads:3 in
    let body tid =
      for _ = 1 to 2 do
        match
          Lincheck.History.record hist ~tid Lincheck.Specs.Alloc_ops.Alloc
            (fun () ->
              Lincheck.Specs.Alloc_ops.Node (Value.handle (Mm.alloc mm ~tid)))
        with
        | Lincheck.Specs.Alloc_ops.Node h ->
            Lincheck.History.record hist ~tid
              (Lincheck.Specs.Alloc_ops.Free h) (fun () ->
                Mm.release mm ~tid (Value.of_handle h);
                Lincheck.Specs.Alloc_ops.Unit)
            |> ignore
        | _ -> ()
        | exception Mm.Out_of_memory | exception Mm.Out_of_nodes _ -> ()
      done
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events = Lincheck.History.events hist in
      if not (Alloc_check.check events) then raise Not_linearizable;
      Mm.validate mm
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:3 ~runs ~seed mk

(* A one-event sequential prehistory entry, prepended by the structure
   sweeps so the prefill is part of the checked history. *)
let prehistory op res =
  [| { Lincheck.History.tid = 0; op; res; invoke = -2; return = -1 } |]

let e7_stack ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg = list_layout ~backend:Atomics.Backend.Sim ~threads:2 ~capacity:16 in
    let mm = Registry.instantiate scheme cfg in
    let s = Structures.Stack.create mm ~root:0 in
    Structures.Stack.push s ~tid:0 100;
    let hist = Lincheck.History.create ~threads:2 in
    let body tid =
      let push v =
        ignore
          (Lincheck.History.record hist ~tid (Lincheck.Specs.Stack_ops.Push v)
             (fun () ->
               Structures.Stack.push s ~tid v;
               Lincheck.Specs.Stack_ops.Unit))
      in
      let pop () =
        ignore
          (Lincheck.History.record hist ~tid Lincheck.Specs.Stack_ops.Pop
             (fun () ->
               match Structures.Stack.pop s ~tid with
               | Some v -> Lincheck.Specs.Stack_ops.Value v
               | None -> Lincheck.Specs.Stack_ops.Empty))
      in
      if tid = 0 then begin
        push 1;
        pop ();
        pop ()
      end
      else begin
        pop ();
        push 2
      end
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events =
        Array.append
          (prehistory (Lincheck.Specs.Stack_ops.Push 100)
             Lincheck.Specs.Stack_ops.Unit)
          (Lincheck.History.events hist)
      in
      if not (Stack_check.check events) then raise Not_linearizable
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:2 ~runs ~seed mk

let e7_queue ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg = list_layout ~backend:Atomics.Backend.Sim ~threads:2 ~capacity:16 in
    let mm = Registry.instantiate scheme cfg in
    let q = Structures.Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
    Structures.Queue.enqueue q ~tid:0 100;
    let hist = Lincheck.History.create ~threads:2 in
    let body tid =
      let enq v =
        ignore
          (Lincheck.History.record hist ~tid (Lincheck.Specs.Queue_ops.Enq v)
             (fun () ->
               Structures.Queue.enqueue q ~tid v;
               Lincheck.Specs.Queue_ops.Unit))
      in
      let deq () =
        ignore
          (Lincheck.History.record hist ~tid Lincheck.Specs.Queue_ops.Deq
             (fun () ->
               match Structures.Queue.dequeue q ~tid with
               | Some v -> Lincheck.Specs.Queue_ops.Value v
               | None -> Lincheck.Specs.Queue_ops.Empty))
      in
      if tid = 0 then begin
        enq 1;
        deq ()
      end
      else begin
        deq ();
        enq 2;
        deq ()
      end
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events =
        Array.append
          (prehistory (Lincheck.Specs.Queue_ops.Enq 100)
             Lincheck.Specs.Queue_ops.Unit)
          (Lincheck.History.events hist)
      in
      if not (Queue_check.check events) then raise Not_linearizable
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:2 ~runs ~seed mk

let e7_pqueue ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg =
      Mm.config ~threads:2 ~capacity:32 ~num_links:3 ~num_data:3 ~num_roots:1
        ()
    in
    let mm = Registry.instantiate scheme cfg in
    let pq = Structures.Pqueue.create mm ~seed ~tid:0 in
    Structures.Pqueue.insert pq ~tid:0 50 0;
    let hist = Lincheck.History.create ~threads:2 in
    let body tid =
      let ins k =
        ignore
          (Lincheck.History.record hist ~tid
             (Lincheck.Specs.Pqueue_ops.Insert k) (fun () ->
               Structures.Pqueue.insert pq ~tid k tid;
               Lincheck.Specs.Pqueue_ops.Unit))
      in
      let delmin () =
        ignore
          (Lincheck.History.record hist ~tid Lincheck.Specs.Pqueue_ops.DelMin
             (fun () ->
               match Structures.Pqueue.delete_min pq ~tid with
               | Some (k, _) -> Lincheck.Specs.Pqueue_ops.Key k
               | None -> Lincheck.Specs.Pqueue_ops.Empty))
      in
      if tid = 0 then begin
        ins 10;
        delmin ()
      end
      else begin
        delmin ();
        ins 20
      end
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events =
        Array.append
          (prehistory (Lincheck.Specs.Pqueue_ops.Insert 50)
             Lincheck.Specs.Pqueue_ops.Unit)
          (Lincheck.History.events hist)
      in
      if not (Pq_check.check events) then raise Not_linearizable
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:2 ~runs ~seed mk

let e7_oset ~spine ~scheme ~runs ~seed =
  let mk () =
    let cfg =
      Mm.config ~threads:2 ~capacity:24 ~num_links:1 ~num_data:2 ~num_roots:0
        ()
    in
    let mm = Registry.instantiate scheme cfg in
    let set = Structures.Oset.create mm ~tid:0 in
    ignore (Structures.Oset.insert set ~tid:0 10 0);
    let hist = Lincheck.History.create ~threads:2 in
    let rec_op tid op f =
      ignore
        (Lincheck.History.record hist ~tid op (fun () ->
             Lincheck.Specs.Set_ops.Bool (f ())))
    in
    let body tid =
      if tid = 0 then begin
        rec_op tid (Lincheck.Specs.Set_ops.Insert 5) (fun () ->
            Structures.Oset.insert set ~tid 5 0);
        rec_op tid (Lincheck.Specs.Set_ops.Remove 10) (fun () ->
            Structures.Oset.remove set ~tid 10)
      end
      else begin
        rec_op tid (Lincheck.Specs.Set_ops.Mem 10) (fun () ->
            Structures.Oset.mem set ~tid 10);
        rec_op tid (Lincheck.Specs.Set_ops.Insert 5) (fun () ->
            Structures.Oset.insert set ~tid 5 1);
        rec_op tid (Lincheck.Specs.Set_ops.Remove 5) (fun () ->
            Structures.Oset.remove set ~tid 5)
      end
    in
    let check () =
      Spine.absorb spine (Mm.counters mm);
      let events =
        Array.append
          (prehistory (Lincheck.Specs.Set_ops.Insert 10)
             (Lincheck.Specs.Set_ops.Bool true))
          (Lincheck.History.events hist)
      in
      if not (Set_check.check events) then raise Not_linearizable
    in
    (body, check)
  in
  Sched.Explore.random_sweep ~threads:2 ~runs ~seed mk

let describe name scheme (r : Sched.Explore.result) =
  [
    Report.Str name;
    Report.Str scheme;
    Report.Int r.schedules_run;
    Report.Str
      (match r.failure with
      | None -> "none"
      | Some f ->
          Printf.sprintf "VIOLATION%s at schedule [%s]"
            (match f.seed with
            | Some s -> Printf.sprintf " (seed %d)" s
            | None -> "")
            (String.concat ";"
               (List.map string_of_int (Array.to_list f.schedule))));
  ]

let e7 ?(runs = 300) ?(seed = 23_000) () =
  let spine = Spine.create () in
  let rows =
    [
      describe "link-semantics" "wfrc"
        (e7_links ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "link-semantics" "lfrc"
        (e7_links ~spine ~scheme:"lfrc" ~runs ~seed);
      describe "alloc-multiset" "wfrc"
        (e7_alloc ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "alloc-multiset" "lfrc"
        (e7_alloc ~spine ~scheme:"lfrc" ~runs ~seed);
      describe "stack-LIFO" "wfrc" (e7_stack ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "stack-LIFO" "lfrc" (e7_stack ~spine ~scheme:"lfrc" ~runs ~seed);
      describe "stack-LIFO" "hp" (e7_stack ~spine ~scheme:"hp" ~runs ~seed);
      describe "queue-FIFO" "wfrc" (e7_queue ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "queue-FIFO" "ebr" (e7_queue ~spine ~scheme:"ebr" ~runs ~seed);
      describe "pqueue-min" "wfrc"
        (e7_pqueue ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "oset" "wfrc" (e7_oset ~spine ~scheme:"wfrc" ~runs ~seed);
      describe "oset" "hp" (e7_oset ~spine ~scheme:"hp" ~runs ~seed);
      describe "oset" "ebr" (e7_oset ~spine ~scheme:"ebr" ~runs ~seed);
    ]
  in
  Report.make ~id:"E7"
    ~title:
      "linearizability sweeps under the deterministic scheduler \
       (Wing–Gong check per schedule)"
    ~cols:
      [
        Report.dim "object";
        Report.dim "scheme";
        Report.measure "schedules";
        Report.measure "violations";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~params:[ ("runs", string_of_int runs) ] ())
    ~notes:
      [
        "checks Definition 1 / Lemmas 2–5 operationally: every recorded \
         history must have a legal sequential witness";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: exhaustion behaviour (paper footnote 4).                       *)
(* ------------------------------------------------------------------ *)

let e8 ?(threads_list = [ 1; 2; 4 ]) ?(capacity = 32) () =
  let spine = Spine.create () in
  let rows =
    List.map
      (fun threads ->
        let cfg =
          Mm.config ~backend:Atomics.Backend.Native ~threads ~capacity
            ~num_links:0 ~num_data:1 ~num_roots:0 ()
        in
        let mm = Registry.instantiate "wfrc" cfg in
        Spine.wrap spine mm @@ fun () ->
        let held = Array.make threads [] in
        let oom = Array.make threads 0 in
        ignore
          (Runner.run ~threads (fun ~tid ->
               try
                 while true do
                   held.(tid) <- Mm.alloc mm ~tid :: held.(tid)
                 done
               with Mm.Out_of_memory | Mm.Out_of_nodes _ -> oom.(tid) <- 1));
        let allocated =
          Array.fold_left (fun a l -> a + List.length l) 0 held
        in
        let parked = capacity - allocated - Mm.free_count mm in
        (* free_count counts annAlloc-parked nodes as free. *)
        let parked_in_ann = Mm.free_count mm in
        Array.iteri
          (fun tid l -> List.iter (fun p -> Mm.release mm ~tid p) l)
          held;
        (* A donation parked in annAlloc[tid] is retrieved by that
           thread's next allocation (A4) — demonstrate the recovery
           with one bounded alloc/release round per thread. *)
        for tid = 0 to threads - 1 do
          match Mm.alloc mm ~tid with
          | p -> Mm.release mm ~tid p
          | exception Mm.Out_of_memory | exception Mm.Out_of_nodes _ -> ()
        done;
        let final_free = Mm.free_count mm in
        Mm.validate mm;
        [
          Report.Int threads;
          Report.Int capacity;
          Report.Int allocated;
          Report.Int parked_in_ann;
          Report.Int parked;
          Report.Int final_free;
          Report.Str (if final_free = capacity then "ok" else "LEAK");
        ])
      threads_list
  in
  Report.make ~id:"E8"
    ~title:"allocation at exhaustion: OOM detection and conservation"
    ~cols:
      [
        Report.dim "threads";
        Report.measure ~unit_:"nodes" "capacity";
        Report.measure ~unit_:"nodes" "allocated@OOM";
        Report.measure ~unit_:"nodes" "parked";
        Report.measure ~unit_:"nodes" "lost";
        Report.measure ~unit_:"nodes" "free-after-drain";
        Report.measure "conservation";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~backend:Atomics.Backend.Native
         ~params:[ ("capacity", string_of_int capacity) ]
         ())
    ~notes:
      [
        "footnote 4: OOM is detected by a bounded retry budget";
        "up to N-1 nodes can be parked in annAlloc donations at OOM \
         time; they are recovered by later allocations";
      ]
    rows

let specs =
  [
    Exp.spec ~id:"e7"
      ~descr:"linearizability sweeps (Definition 1, Lemmas 2-5)"
      (fun { Exp.quick } -> if quick then e7 ~runs:60 () else e7 ());
    Exp.spec ~id:"e8" ~descr:"exhaustion/OOM behaviour (footnote 4)"
      (fun { Exp.quick } ->
        if quick then e8 ~threads_list:[ 1; 2 ] () else e8 ());
  ]
