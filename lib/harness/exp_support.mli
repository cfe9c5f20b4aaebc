(** Shared machinery for the experiment family modules: the
    instrumentation spine, arena layouts, canonical workers and the
    fault-experiment drain protocol. *)

(** Counter-delta accumulator — the instrumentation spine. Bracket
    every measured section with {!Spine.wrap} (or {!Spine.bracket});
    {!Spine.totals} then feeds [Report.make ~counters], so every
    report uniformly carries the scheme's CAS/FAA/SWAP counts, help
    events and alloc/free traffic without hand-read counters. *)
module Spine : sig
  type t

  val create : unit -> t

  val bracket : t -> Atomics.Counters.t -> (unit -> 'a) -> 'a
  (** Snapshot totals around [f] (exception-safe) and accumulate the
      deltas. *)

  val wrap : t -> Mm_intf.instance -> (unit -> 'a) -> 'a
  (** {!bracket} over the instance's counter block. *)

  val absorb : t -> Atomics.Counters.t -> unit
  (** Fold a finished instance's totals in without bracketing (for
      instances born and dying inside a {!Sched.Explore} sweep). *)

  val total : t -> Atomics.Counters.event -> int
  val merge_into : t -> t -> unit

  val totals : t -> (string * int) list
  (** Non-zero totals by event name, in declaration order. *)
end

val pq_layout :
  backend:Atomics.Backend.t -> threads:int -> capacity:int -> Mm_intf.config
(** Skiplist priority-queue layout (6 links, 3 data, 1 root). *)

val list_layout :
  backend:Atomics.Backend.t -> threads:int -> capacity:int -> Mm_intf.config
(** Linked-list layout (1 link, 1 data, 4 roots). *)

val pq_worker :
  Structures.Pqueue.t -> tid:int -> Workload.op array -> unit

val pq_setup :
  scheme:string ->
  threads:int ->
  ops:int ->
  capacity:int ->
  key_range:int ->
  seed:int ->
  Mm_intf.instance * Structures.Pqueue.t * Workload.op array array * int
(** The E1 bench bed: instance, prefilled priority queue,
    per-thread 50/50 streams, and the per-thread op count. *)

val churn_op :
  Mm_intf.instance -> root:Shmem.Value.addr -> oom:bool ref -> tid:int -> unit
(** One root-churn operation (E12/E13), leak-free on the CAS-failure
    path so audits attribute stranded nodes to the crash alone. *)

val drain_survivors : Mm_intf.instance -> survivors:int list -> unit
(** Post-run drain: empty operation brackets (EBR collection), then
    for RC schemes one alloc/release round to retrieve parked
    donations (A4). *)

val churn :
  alloc:(tid:int -> Shmem.Value.ptr) ->
  release:(tid:int -> Shmem.Value.ptr -> unit) ->
  threads:int ->
  ops:int ->
  max_burst:int ->
  seed:int ->
  Runner.result
(** The burst-churn loop (E14, A3) on {!Runner.run}: each thread
    allocates seeded bursts of up to [max_burst] nodes and releases
    them, [ops] allocations in total; exhaustion ends a burst early. *)
