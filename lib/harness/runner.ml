(* Native parallel runner: one Domain per thread id, released together
   by a spin barrier so measurement windows line up.

   On this container there is a single hardware core, so "parallel"
   means OS-preemptive time slicing of the domains; contention,
   retries and helping still occur (see EXPERIMENTS.md for how results
   are interpreted under time slicing). *)

type result = {
  wall_ns : int;              (* barrier release to last join *)
  per_thread_ns : int array;  (* per-thread busy time *)
}

(* Monotonic, nanosecond-resolution (clock_gettime CLOCK_MONOTONIC via
   clock_stubs.c); immune to wall-clock steps, unlike the former
   gettimeofday-based timer whose effective granularity was 1 µs. *)
external now_ns : unit -> int = "wfrc_monotonic_ns" [@@noalloc]

let run ~threads body =
  if threads < 1 then invalid_arg "Runner.run";
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let per_thread_ns = Array.make threads 0 in
  let worker tid () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let t0 = now_ns () in
    body ~tid;
    per_thread_ns.(tid) <- now_ns () - t0
  in
  let domains =
    Array.init (threads - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  (* tid 0 runs on the current domain. *)
  Atomic.incr ready;
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  (* Every domain is joined even when a body raises; the first
     exception in tid order is re-raised once all have returned. *)
  let failed = Array.make threads None in
  let t0 = now_ns () in
  Atomic.set go true;
  let s0 = now_ns () in
  (try
     body ~tid:0;
     per_thread_ns.(0) <- now_ns () - s0
   with e -> failed.(0) <- Some (e, Printexc.get_raw_backtrace ()));
  Array.iteri
    (fun i d ->
      try Domain.join d
      with e -> failed.(i + 1) <- Some (e, Printexc.get_raw_backtrace ()))
    domains;
  let wall = now_ns () - t0 in
  Array.iter
    (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt))
    failed;
  { wall_ns = wall; per_thread_ns }

(* Convenience: ops/second given a total operation count. *)
let throughput ~ops result =
  if result.wall_ns = 0 then infinity
  else float_of_int ops /. (float_of_int result.wall_ns /. 1e9)
