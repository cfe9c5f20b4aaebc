(* A telemetry pipeline: bursty producers push samples through the
   Michael–Scott queue while a consumer aggregates them. The same
   client code runs on every memory-management scheme in the registry
   — that drop-in compatibility is the §3.2 design goal — and the
   example prints the per-scheme throughput and allocator traffic so
   the schemes can be eyeballed side by side.

   Run with:  dune exec examples/telemetry_pipeline.exe *)

module Mm = Mm_intf

let producers = 3
let threads = producers + 1
let samples_per_producer = 4_000

let run_pipeline scheme =
  let cfg =
    Mm.config ~threads ~capacity:4096 ~num_links:1 ~num_data:1 ~num_roots:2 ()
  in
  let mm = Harness.Registry.instantiate scheme cfg in
  let q = Structures.Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
  let produced = Atomic.make 0 in
  let consumed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let result =
    Harness.Runner.run ~threads (fun ~tid ->
        if tid < producers then begin
          let rng = Sched.Rng.create (900 + tid) in
          let sent = ref 0 in
          while !sent < samples_per_producer do
            (* bursts of 1..32 samples *)
            let burst =
              min (1 + Sched.Rng.int rng 32) (samples_per_producer - !sent)
            in
            for _ = 1 to burst do
              let v = 1 + Sched.Rng.int rng 1000 in
              (try
                 Structures.Queue.enqueue q ~tid v;
                 incr sent;
                 Atomic.incr produced
               with Mm.Out_of_nodes _ ->
                 (* queue full: drop the sample, as a real pipeline
                    under backpressure would *)
                 incr sent)
            done;
            for _ = 1 to Sched.Rng.int rng 200 do
              Domain.cpu_relax ()
            done
          done
        end
        else begin
          let idle = ref 0 in
          let target = producers * samples_per_producer in
          while Atomic.get consumed < Atomic.get produced
                || Atomic.get produced < target && !idle < 1_000_000 do
            match Structures.Queue.dequeue q ~tid with
            | Some v ->
                idle := 0;
                Atomic.incr consumed;
                ignore (Atomic.fetch_and_add sum v)
            | None ->
                incr idle;
                Domain.cpu_relax ()
          done
        end)
  in
  let leftovers = List.length (Structures.Queue.drain q ~tid:0) in
  Mm.validate mm;
  let ctr = Mm.counters mm in
  Printf.printf
    "%-8s produced=%5d consumed=%5d leftover=%3d  %6s samples/s  \
     (allocs=%d frees=%d free-now=%d/%d)\n"
    scheme (Atomic.get produced) (Atomic.get consumed) leftovers
    (Harness.Metrics.ops_to_string
       (Harness.Runner.throughput ~ops:(Atomic.get consumed) result))
    (Atomics.Counters.total ctr Alloc)
    (Atomics.Counters.total ctr Node_reclaimed)
    (Mm.free_count mm) cfg.capacity

let () =
  print_endline
    "telemetry pipeline: 3 bursty producers -> MS queue -> 1 aggregator";
  print_endline
    "same client code on every scheme (the paper's compatibility claim):";
  List.iter run_pipeline Harness.Registry.names
