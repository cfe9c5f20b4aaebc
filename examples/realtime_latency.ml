(* The paper's closing argument, §5: "the main strength of wait-free
   algorithms is not in high average performance, but rather in
   reliable execution guarantees".

   This example pits one latency-sensitive reader against hostile
   writers that flip a shared link as fast as they can, and compares
   the reader's de-reference latency distribution across schemes. The
   wait-free scheme's reader cost is bounded by construction (Lemma
   6); the Valois-style reader retries whenever a flip lands inside
   its read-validate window; the lock-based reader waits for writers'
   critical sections.

   It also reruns the duel under the deterministic scheduler, where
   the bound is exact in atomic steps rather than wall-clock noise.

   Run with:  dune exec examples/realtime_latency.exe *)

module Mm = Mm_intf
module Value = Shmem.Value

let writers = 3
let threads = writers + 1
let reads = 20_000
let flips_per_writer = 30_000

let duel scheme =
  let cfg =
    Mm.config ~threads ~capacity:256 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = Harness.Registry.instantiate scheme cfg in
  let arena = Mm.arena mm in
  let root = Shmem.Arena.root_addr arena 0 in
  let a = Mm.alloc mm ~tid:0 in
  Mm.store_link mm ~tid:0 root a;
  Mm.release mm ~tid:0 a;
  let h = Harness.Metrics.Hist.create () in
  let stop = Atomic.make false in
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         if tid = 0 then begin
           (* the latency-sensitive reader *)
           for _ = 1 to reads do
             let t0 = Harness.Runner.now_ns () in
             Mm.enter_op mm ~tid;
             let p = Mm.deref mm ~tid root in
             if not (Value.is_null p) then Mm.release mm ~tid p;
             Mm.exit_op mm ~tid;
             Harness.Metrics.Hist.add h (Harness.Runner.now_ns () - t0)
           done;
           Atomic.set stop true
         end
         else begin
           (* hostile writers *)
           let i = ref 0 in
           while (not (Atomic.get stop)) && !i < flips_per_writer do
             incr i;
             Mm.enter_op mm ~tid;
             (match Mm.alloc mm ~tid with
             | b ->
                 let old = Mm.deref mm ~tid root in
                 let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
                 if not (Value.is_null old) then begin
                   Mm.release mm ~tid old;
                   if ok then Mm.terminate mm ~tid old
                 end;
                 Mm.release mm ~tid b
             | exception Mm.Out_of_nodes _ -> ());
             Mm.exit_op mm ~tid
           done
         end));
  let ctr = Mm.counters mm in
  Printf.printf
    "%-8s reader deref: p50=%-7s p99=%-7s p99.9=%-8s max=%-8s retries=%d\n"
    scheme
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.percentile h 0.5))
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.percentile h 0.99))
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.percentile h 0.999))
    (Harness.Metrics.ns_to_string (Harness.Metrics.Hist.max_value h))
    (Atomics.Counters.total ctr Deref_retry)

(* The same duel with exact step accounting (no wall-clock noise):
   max scheduler steps the reader needs for ONE deref while a writer
   flips the link under an adversarial schedule. *)
let exact_steps scheme =
  let worst = ref 0 in
  for s = 0 to 19 do
    let cfg =
      Mm.config ~threads:2 ~capacity:64 ~num_links:1 ~num_data:1 ~num_roots:1
        ()
    in
    let mm = Harness.Registry.instantiate scheme cfg in
    let arena = Mm.arena mm in
    let root = Shmem.Arena.root_addr arena 0 in
    let a = Mm.alloc mm ~tid:0 in
    Mm.store_link mm ~tid:0 root a;
    Mm.release mm ~tid:0 a;
    let body tid =
      if tid = 0 then begin
        let p = Mm.deref mm ~tid root in
        if not (Value.is_null p) then Mm.release mm ~tid p
      end
      else
        for _ = 1 to 32 do
          match Mm.alloc mm ~tid with
          | b ->
              let old = Mm.deref mm ~tid root in
              ignore (Mm.cas_link mm ~tid root ~old ~nw:b);
              if not (Value.is_null old) then Mm.release mm ~tid old;
              Mm.release mm ~tid b
          | exception Mm.Out_of_nodes _ -> ()
        done
    in
    let policy = Sched.Policy.biased ~seed:(7000 + s) ~victim:0 ~weight:6 in
    let outcome = Sched.Engine.run ~threads:2 ~policy body in
    if outcome.steps.(0) > !worst then worst := outcome.steps.(0)
  done;
  Printf.printf "%-8s worst-case reader steps for one deref: %d\n" scheme
    !worst

let () =
  Printf.printf
    "1 reader vs %d hostile writers flipping a shared link (wall clock):\n"
    writers;
  List.iter duel [ "wfrc"; "lfrc"; "lockrc" ];
  print_endline "";
  print_endline
    "same duel under the deterministic scheduler (exact atomic steps):";
  List.iter exact_steps [ "wfrc"; "lfrc"; "lockrc" ];
  print_endline "";
  print_endline
    "wfrc's bound is independent of writer aggression (Lemma 6); the \
     lock-free reader's retries and the lock-based reader's waits are \
     not."
