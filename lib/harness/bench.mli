(** Backend benchmark: the alloc/release churn loop per
    scheme × backend × thread count, with batch-averaged per-op
    latency percentiles. Timing uses the monotonic {!Runner.now_ns}
    (nanosecond resolution); single operations are still batched
    because one alloc/release pair costs about as much as the clock
    read itself. Exportable as flat JSON ([BENCH_wfrc.json]) or, via
    {!report} and {!Sink}, as a typed report document. *)

type point = {
  rev : string;
      (** the 7-hex git revision the point was measured at ("unknown"
          outside a checkout) — part of the point's identity in the
          accumulated JSON *)
  scheme : string;
  backend : Atomics.Backend.t;
  threads : int;
  shards : int;  (** free-store stripes (1 = legacy global free list) *)
  batch : int;  (** allocation-cache batch size (1 = cache disabled) *)
  ops : int;
      (** alloc+release pairs actually completed — the request rounds
          down to whole batches; a drop of more than 10% is warned
          about on stderr *)
  wall_ns : int;
  ops_per_sec : float;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  max_ns : int;
  neg_samples : int;
      (** negative timer samples dropped by {!Metrics.Hist.add} —
          always 0 unless the clock is broken *)
}

val git_rev : unit -> string
(** The current checkout's short (7-hex) revision, read straight from
    [.git] (HEAD, loose refs, packed-refs); ["unknown"] when not in a
    git checkout. *)

val run_point :
  ?spine:Exp_support.Spine.t ->
  ?shards:int ->
  ?batch:int ->
  ?oracle:bool ->
  scheme:string ->
  backend:Atomics.Backend.t ->
  threads:int ->
  ops:int ->
  capacity:int ->
  unit ->
  point
(** One cell of the suite. [spine] accumulates the instance's
    {!Atomics.Counters} deltas (see {!Exp_support.Spine}).
    [shards]/[batch] (default 1/1) select the sharded
    free store — Native backend only. [oracle] (Sim, single-threaded
    only) arms the full {!Analysis.Reclaim} detector for the measured
    loop and labels the point's scheme ["<scheme>+oracle"] — the delta
    against the plain Sim point is the analysis layer's whole cost;
    Native points cannot carry it because the hook there stays
    [ignore]. *)

val run_suite :
  ?spine:Exp_support.Spine.t ->
  ?schemes:string list ->
  ?backends:Atomics.Backend.t list ->
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  unit ->
  point list
(** Defaults: wfrc only, both backends, 1/2/4 threads, 50k pairs.
    When Native is among the backends, one extra sharded point per
    scheme (shards 4, batch 8, highest thread count) tracks the
    sharded hot path; when Sim is among them, one extra
    single-threaded oracle-armed point per scheme tracks the analysis
    layer's Sim cost. *)

val run_actor_point :
  ?spine:Exp_support.Spine.t ->
  ?threads:int ->
  ?actors:int ->
  ?ops:int ->
  scheme:string ->
  unit ->
  point
(** The actor-service point (Native only): [ops] send/receive
    operations (60/40 mix, batch-timed like {!run_point}) against an
    {!Actor.Service} of [actors] pre-spawned mailboxes — the managers'
    hot path as the E18 service drives it, steady-state (no
    spawn/retire churn, so runs are comparable op for op). Labelled
    ["<scheme>+actor"] so it lands rev-keyed next to the churn points
    in [BENCH_wfrc.json]. Defaults: 4 threads, 10k actors, 200k ops.
    The service is torn down and audited after the measured phase; a
    leak is reported on stderr but does not fail the run. *)

val json_of_point : point -> string
(** One point as its flat-JSON line (the unit {!write_json} merges
    by). *)

val to_json : string list -> string
(** Assemble serialised point lines (see {!write_json}) into the flat
    JSON document. *)

val write_json : path:string -> point list -> unit
(** Merge-write: points already in the file at [path] are preserved
    unless this run re-measured the same
    (rev, scheme, backend, threads, shards, batch) key — the
    file accumulates measurements across runs and revisions instead
    of being overwritten. A key field missing from an older line
    matches any value; fields outside the key (such as the retired
    ["rep"]) are ignored. *)

val report : ?counters:(string * int) list -> point list -> Report.t
(** The suite as a typed report (id ["BENCH"]); render or export it
    with {!Sink}. *)
