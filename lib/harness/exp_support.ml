(* Shared machinery for the experiment family modules: arena layouts,
   canonical workers, the survivor-drain protocol of the fault
   experiments, and the instrumentation spine — one bracketing
   combinator that captures Atomics.Counters deltas for every report
   instead of each experiment hand-reading counters. *)

module Mm = Mm_intf
module Rng = Sched.Rng
module Value = Shmem.Value
module Counters = Atomics.Counters

(* ------------------------------------------------------------------ *)
(* Instrumentation spine.                                             *)
(* ------------------------------------------------------------------ *)

(* Accumulates counter-event deltas across the (many) manager
   instances an experiment creates — one instance per sweep cell or
   per seeded run. [bracket] snapshots totals around a section and
   adds the differences; the result lands verbatim in
   [Report.counters], so every report uniformly carries the scheme's
   CAS/FAA/SWAP counts, help events and alloc/free traffic. *)
module Spine = struct
  type t = (Counters.event, int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add t ev n =
    if n <> 0 then
      Hashtbl.replace t ev (n + Option.value ~default:0 (Hashtbl.find_opt t ev))

  let bracket t ctr f =
    let before =
      List.map (fun ev -> (ev, Counters.total ctr ev)) Counters.all_events
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (ev, b) -> add t ev (Counters.total ctr ev - b)) before)
      f

  (* Bracket over a manager instance's counter block. *)
  let wrap t mm f = bracket t (Mm.counters mm) f

  (* Fold a freshly-created-and-finished instance's totals in without
     bracketing (for runs driven inside Sched.Explore, where the
     instance is born and dies inside the sweep callback). *)
  let absorb t ctr =
    List.iter (fun (ev, n) -> add t ev n) (Counters.snapshot ctr)

  let total t ev = Option.value ~default:0 (Hashtbl.find_opt t ev)

  let merge_into dst src = Hashtbl.iter (fun ev n -> add dst ev n) src

  (* Non-zero totals in event-declaration order, ready for
     [Report.make ~counters]. *)
  let totals t =
    List.filter_map
      (fun ev ->
        match Hashtbl.find_opt t ev with
        | None | Some 0 -> None
        | Some n -> Some (Counters.event_name ev, n))
      Counters.all_events
end

(* ------------------------------------------------------------------ *)
(* Layouts. Each experiment states its backend explicitly: [Native]   *)
(* for the Domain-parallel throughput/latency runs (driven by         *)
(* [Runner.run], where no deterministic scheduler is installed and    *)
(* hook-free padded cells measure the real machine), [Sim] wherever   *)
(* [Sched.Engine] or [Sched.Explore] drives the interleaving — those  *)
(* threads only yield at scheduling points, so a [Native] manager     *)
(* would never hand control back.                                     *)
(* ------------------------------------------------------------------ *)

let pq_layout ~backend ~threads ~capacity =
  Mm.config ~backend ~threads ~capacity ~num_links:6 ~num_data:3 ~num_roots:1
    ()

let list_layout ~backend ~threads ~capacity =
  Mm.config ~backend ~threads ~capacity ~num_links:1 ~num_data:1 ~num_roots:4
    ()

(* ------------------------------------------------------------------ *)
(* Canonical workers.                                                 *)
(* ------------------------------------------------------------------ *)

let pq_worker pq ~tid ops =
  Array.iter
    (fun op ->
      match op with
      | Workload.Produce k -> (
          try Structures.Pqueue.insert pq ~tid (k + 1) tid
          with Mm.Out_of_nodes _ -> ())
      | Workload.Consume -> ignore (Structures.Pqueue.delete_min pq ~tid))
    ops

(* The E1 bench bed: a prefilled skiplist priority queue plus
   per-thread 50/50 operation streams. *)
let pq_setup ~scheme ~threads ~ops ~capacity ~key_range ~seed =
  let cfg = pq_layout ~backend:Atomics.Backend.Native ~threads ~capacity in
  let mm = Registry.instantiate scheme cfg in
  let pq = Structures.Pqueue.create mm ~seed ~tid:0 in
  (* Prefill to steady state. *)
  let rng = Rng.create (seed + 1) in
  for _ = 1 to capacity / 8 do
    Structures.Pqueue.insert pq ~tid:0 (1 + Rng.int rng key_range) 0
  done;
  let counts = Workload.split_ops ~threads ~ops in
  let streams =
    Workload.per_thread ~threads ~seed:(seed + 2) (fun rng -> rng)
    |> Array.mapi (fun tid rng ->
           Workload.mixed ~rng ~n:counts.(tid) ~produce_pct:50 ~key_range)
  in
  (mm, pq, streams, ops)

(* One root-churn operation (E12/E13): allocate, CAS into the root,
   retire the displaced node — and also retire the fresh node when the
   CAS fails, so HP/EBR do not leak on the failure path and every node
   the auditor finds stranded is stranded by the crash alone. *)
let churn_op mm ~root ~oom ~tid =
  Mm.enter_op mm ~tid;
  (match Mm.alloc mm ~tid with
  | b ->
      let old = Mm.deref mm ~tid root in
      let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
      if not (Value.is_null old) then begin
        Mm.release mm ~tid old;
        if ok then Mm.terminate mm ~tid old
      end;
      if not ok then Mm.terminate mm ~tid b;
      Mm.release mm ~tid b
  | exception Mm.Out_of_nodes _ -> oom := true);
  Mm.exit_op mm ~tid

(* Post-run drain: give every survivor a few empty operation brackets
   (EBR epoch advances/collections, nothing for the others), then for
   RC schemes one alloc/release round to pull in any annAlloc
   donation parked for a survivor (A4). *)
let drain_survivors mm ~survivors =
  List.iter
    (fun tid ->
      for _ = 1 to 8 do
        Mm.enter_op mm ~tid;
        Mm.exit_op mm ~tid
      done)
    survivors;
  if Mm.refcounted mm then
    List.iter
      (fun tid ->
        match Mm.alloc mm ~tid with
        | p -> Mm.release mm ~tid p
        | exception Mm.Out_of_nodes _ -> ())
      survivors

(* The burst-churn loop (E14, A3): each thread allocates bursts of up
   to [max_burst] nodes, then releases them, over seeded burst sizes
   that sum to its share of [ops]. An allocation that hits exhaustion
   ends the burst early. *)
let churn ~alloc ~release ~threads ~ops ~max_burst ~seed =
  let counts = Workload.split_ops ~threads ~ops in
  let bursts =
    Workload.per_thread ~threads ~seed (fun rng -> rng)
    |> Array.mapi (fun tid rng ->
           Workload.churn_bursts ~rng ~n:counts.(tid) ~max_burst)
  in
  Runner.run ~threads (fun ~tid ->
      let held = Array.make max_burst Value.null in
      Array.iter
        (fun burst ->
          let got = ref 0 in
          (try
             for i = 0 to burst - 1 do
               held.(i) <- alloc ~tid;
               incr got
             done
           with Mm.Out_of_nodes _ -> ());
          for i = 0 to !got - 1 do
            release ~tid held.(i)
          done)
        bursts.(tid))
