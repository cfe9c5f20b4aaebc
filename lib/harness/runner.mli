(** Native parallel runner: one Domain per thread id, released by a
    spin barrier so measurement windows align. *)

type result = {
  wall_ns : int;              (** barrier release to last join *)
  per_thread_ns : int array;  (** per-thread busy time *)
}

val now_ns : unit -> int
(** Monotonic nanoseconds since an arbitrary epoch
    ([clock_gettime(CLOCK_MONOTONIC)]): nanosecond resolution, never
    stepped by wall-clock adjustments. Only differences are
    meaningful. *)

val run : threads:int -> (tid:int -> unit) -> result
(** [run ~threads body] executes [body ~tid] for every tid in
    [0..threads-1]; tid 0 runs on the calling domain. It returns only
    after every domain has been joined; if any body raised, the
    exception of the lowest such tid is re-raised then. *)

val throughput : ops:int -> result -> float
(** Operations per second over the wall time. *)
