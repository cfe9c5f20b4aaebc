(* A concurrent dictionary cache on the lock-free hash map — the
   workload where the §1 applicability boundary becomes practical
   advice. The same cache code runs on every reclamation scheme; the
   run prints a side-by-side hit-rate/throughput table so the schemes
   can be compared on read-heavy traffic.

   Run with:  dune exec examples/dictionary_cache.exe *)

module Mm = Mm_intf

let threads = 4
let ops_per_thread = 4_000
let key_space = 1_024

let run_cache scheme =
  let cfg =
    Mm.config ~threads ~capacity:8_192 ~num_links:1 ~num_data:2 ~num_roots:0
      ()
  in
  let mm = Harness.Registry.instantiate scheme cfg in
  let cache = Structures.Hmap.create mm ~buckets:64 ~tid:0 in
  (* warm the cache to ~50% *)
  let rng = Sched.Rng.create 11 in
  for _ = 1 to key_space / 2 do
    ignore
      (Structures.Hmap.insert cache ~tid:0 (1 + Sched.Rng.int rng key_space) 1)
  done;
  let hits = Array.make threads 0 in
  let misses = Array.make threads 0 in
  let result =
    Harness.Runner.run ~threads (fun ~tid ->
        let rng = Sched.Rng.create (100 + tid) in
        for _ = 1 to ops_per_thread do
          let k = 1 + Sched.Rng.int rng key_space in
          match Sched.Rng.int rng 10 with
          | 0 -> (
              (* fill *)
              try ignore (Structures.Hmap.insert cache ~tid k tid)
              with Mm.Out_of_nodes _ -> ())
          | 1 ->
              (* invalidate *)
              ignore (Structures.Hmap.remove cache ~tid k)
          | _ -> (
              (* lookup-dominated traffic *)
              match Structures.Hmap.lookup cache ~tid k with
              | Some _ -> hits.(tid) <- hits.(tid) + 1
              | None -> misses.(tid) <- misses.(tid) + 1)
        done)
  in
  let h = Array.fold_left ( + ) 0 hits
  and m = Array.fold_left ( + ) 0 misses in
  Printf.printf "%-8s %6s ops/s   hit-rate %4.1f%%   entries %4d\n" scheme
    (Harness.Metrics.ops_to_string
       (Harness.Runner.throughput ~ops:(threads * ops_per_thread) result))
    (100.0 *. float_of_int h /. float_of_int (max 1 (h + m)))
    (Structures.Hmap.size cache ~tid:0);
  (* teardown accounting: everything back except bucket sentinels *)
  ignore (Structures.Hmap.clear cache ~tid:0);
  for _ = 1 to 200 do
    Mm.enter_op mm ~tid:0;
    Mm.exit_op mm ~tid:0
  done;
  Mm.validate mm;
  assert (Mm.free_count mm = cfg.capacity - (2 * 64))

let () =
  Printf.printf
    "dictionary cache: %d threads, %d ops each, 80%% lookups, on every \
     scheme\n"
    threads ops_per_thread;
  List.iter run_cache Harness.Registry.names;
  print_endline "all schemes validated, zero leaks."
