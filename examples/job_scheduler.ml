(* A real-time flavoured job scheduler — the motivating scenario of
   the paper's introduction: tasks on different processors coordinate
   through a shared dynamic data structure, and the memory manager
   underneath must never block or starve anyone.

   Producers submit jobs with deadlines into the wait-free-managed
   priority queue (priority = deadline); workers repeatedly pull the
   most urgent job and "execute" it. We report how many jobs met their
   deadline and the queueing-delay distribution.

   Run with:  dune exec examples/job_scheduler.exe *)

module Mm = Mm_intf

let producers = 2
let workers = 2
let threads = producers + workers
let jobs_per_producer = 2_000
let total_jobs = producers * jobs_per_producer

let () =
  let cfg =
    Mm.config ~threads ~capacity:(1 lsl 14) ~num_links:6 ~num_data:3
      ~num_roots:1 ()
  in
  let mm = Harness.Registry.instantiate "wfrc" cfg in
  let pq = Structures.Pqueue.create mm ~seed:2024 ~tid:0 in
  let submitted = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let met = Atomic.make 0 in
  let delays = Array.init threads (fun _ -> Harness.Metrics.Hist.create ()) in
  let t_start = Harness.Runner.now_ns () in
  (* Slack must cover OS time slices: with producers and workers
     multiplexed onto one core, a job can sit for a few scheduler
     quanta before any worker runs. *)
  let deadline_slack_ns = 50_000_000 (* 50ms *) in
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         if tid < producers then begin
           (* Producer: submit jobs with near-future deadlines. *)
           let rng = Sched.Rng.create (500 + tid) in
           for _ = 1 to jobs_per_producer do
             let now = Harness.Runner.now_ns () - t_start in
             let deadline = now + deadline_slack_ns in
             (* key = deadline in us (fits comfortably in a data word);
                value = submission time in us. *)
             (try
                Structures.Pqueue.insert pq ~tid (deadline / 1000)
                  (now / 1000);
                Atomic.incr submitted
              with Mm.Out_of_nodes _ -> ());
             (* small think time *)
             for _ = 1 to Sched.Rng.int rng 50 do
               Domain.cpu_relax ()
             done
           done
         end
         else begin
           (* Worker: drain most-urgent-first until producers finish
              and the queue is empty. *)
           let h = delays.(tid) in
           let rec serve idle =
             match Structures.Pqueue.delete_min pq ~tid with
             | Some (deadline_us, submit_us) ->
                 let now_us =
                   (Harness.Runner.now_ns () - t_start) / 1000
                 in
                 Harness.Metrics.Hist.add h ((now_us - submit_us) * 1000);
                 if now_us <= deadline_us then Atomic.incr met;
                 Atomic.incr executed;
                 serve 0
             | None ->
                 if Atomic.get executed >= total_jobs then ()
                 else if
                   Atomic.get submitted < total_jobs || idle < 100_000
                 then begin
                   Domain.cpu_relax ();
                   serve (idle + 1)
                 end
                 else ()
           in
           serve 0
         end));
  let h = Harness.Metrics.Hist.create () in
  Array.iter (fun h' -> Harness.Metrics.Hist.merge_into h h') delays;
  Printf.printf "jobs submitted: %d\n" (Atomic.get submitted);
  Printf.printf "jobs executed:  %d\n" (Atomic.get executed);
  Printf.printf "deadlines met:  %d (%.1f%%)\n" (Atomic.get met)
    (100.0 *. float_of_int (Atomic.get met)
    /. float_of_int (max 1 (Atomic.get executed)));
  Printf.printf "queueing delay: p50=%s p99=%s max=%s\n"
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.percentile h 0.5))
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.percentile h 0.99))
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.max_value h));
  (* Teardown: everything back to the free-list, zero leaks. *)
  let leftovers = Structures.Pqueue.drain pq ~tid:0 in
  Mm.validate mm;
  Printf.printf "leftover jobs drained: %d; free nodes: %d/%d (2 sentinels)\n"
    (List.length leftovers) (Mm.free_count mm) cfg.capacity
