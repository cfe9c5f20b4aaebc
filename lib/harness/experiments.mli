(** The experiment suite — one entry point per experiment id of
    DESIGN.md §4 / EXPERIMENTS.md, aggregated from the family modules
    ({!Exp_throughput}, {!Exp_contention}, {!Exp_steps},
    {!Exp_lincheck}, {!Exp_ratio}, {!Exp_fault}, {!Exp_shard}). Every
    function
    returns a typed {!Report.t} (render it with {!Sink}); all
    randomness is seeded. *)

val specs : Exp.spec list
(** Every registered experiment, in canonical display order. *)

val ids : string list
(** All experiment ids accepted by {!run}. *)

val run : ?quick:bool -> string -> Report.t
(** Run an experiment by id; [quick] uses reduced parameters and is
    recorded in the report metadata. Raises [Invalid_argument] for an
    unknown id. *)

val e1 :
  ?schemes:string list ->
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  ?key_range:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Priority-queue throughput per scheme and thread count — the
    paper's §5 experiment. *)

val e2 :
  ?schemes:string list ->
  ?budgets:int list ->
  ?seeds:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Max victim steps for one DeRefLink vs adversary link-flip budget,
    under the deterministic scheduler: the wait-freedom evidence
    (Lemmas 6–10 vs the Valois unbounded retry). *)

val e4 :
  ?threads_list:int list ->
  ?ops:int ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Helping-mechanism accounting under the deterministic scheduler. *)

val e7 : ?runs:int -> ?seed:int -> unit -> Report.t
(** Linearizability sweeps (Wing–Gong check per schedule) for link
    semantics, the alloc multiset, stack, queue and priority queue. *)

val e8 : ?threads_list:int list -> ?capacity:int -> unit -> Report.t
(** Exhaustion behaviour: OOM detection (footnote 4) and node
    conservation. *)

val e9 :
  ?schemes:string list ->
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  ?key_range:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Ordered-set throughput on {e all} schemes — the applicability
    boundary of §1 in numbers (contrast with E1). *)

val e11 : ?threads_list:int list -> unit -> Report.t
(** Scheme metadata space (words) vs thread count: the O(N{^2})
    announcement-pool cost of wait-freedom, made explicit. *)

val e12 :
  ?schemes:string list ->
  ?ops_list:int list ->
  ?seeds:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Bounded loss under a crashed thread ({!Sched.Fault} + {!Audit}):
    one thread is crashed mid-operation without unwinding; after the
    survivors drain, the auditor partitions every node. WFRC strands a
    flat, envelope-bounded set; EBR's loss grows with survivor work
    until the arena is exhausted. *)

val e13 :
  ?schemes:string list ->
  ?ks:int list ->
  ?ops:int ->
  ?seeds:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Stall storm: k of N threads freeze for a fixed window; survivors'
    per-operation own-step costs are metered ({!Audit.Steps}) and the
    run is audited once everyone resumes and finishes. The empirical
    wait-freedom-bound experiment. *)

val e14 :
  ?schemes:string list ->
  ?shards_list:int list ->
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  ?batch:int ->
  ?max_burst:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Sharded free store: alloc/free churn throughput and free-list CAS
    retries vs shard count × domain count (Native). lfrc is the
    subject (its single Treiber list is what the striping replaces);
    wfrc rides along as a flat control. *)

val e15 :
  ?schemes:string list ->
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  ?shards:int ->
  ?batch:int ->
  unit ->
  Report.t
(** Native scaling sweep: alloc/release churn throughput across
    domain count × free-store configuration (legacy vs sharded). The
    sharded-vs-legacy delta at equal domain count is the portable
    signal; rows with more domains than cores cannot rise. The last
    note is the {!scaling_verdict} over every row. *)

val scaling_verdict : (int * float) list -> (string, string) result
(** E15's 1→N scaling gate over [(domains, pairs/s)] rows: [Ok] when
    the best rate at the highest domain count is >= the best at the
    lowest (or only one domain count was measured), [Error] on an
    inversion or no rows. Both carry the printed verdict line,
    ["scaling ok: …"] or ["scaling FAIL: …"]. *)

val e16 :
  ?schemes:string list ->
  ?ops:int ->
  ?native_ops:int ->
  ?seeds:int ->
  ?native_seeds:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Crash recovery: after E12-style crashes on both backends
    (deterministic Sim faults; {!Chaos} mid-fragment injection on real
    Domains), a survivor adopts the dead thread's state
    ({!Recovery.run}) and the audit's [recovered] class measures what
    came back — target >= 90% of [crash_held] with zero leaks. A third
    leg exhausts the sharded store against a crashed holder:
    allocation must surface typed [Mm_intf.Out_of_nodes] backpressure,
    and dead-cache adoption alone must unblock it. *)

val e18 :
  ?schemes:string list ->
  ?threads_list:int list ->
  ?actors:int ->
  ?ops:int ->
  ?chaos_seeds:int ->
  ?chaos_threads:int ->
  ?chaos_actors:int ->
  ?chaos_ops:int ->
  ?sim_seeds:int ->
  ?million_actors:int ->
  ?million_traffic:int ->
  ?waves:int ->
  ?million_schemes:string list ->
  ?seed:int ->
  unit ->
  Report.t
(** Actor service: {!Actor.Service} mailbox runtime (queue mailboxes,
    Pqueue timer wheel, one manager) under mixed
    spawn/send/receive/retire traffic. Legs: Native scheme × threads
    sweep with send-latency percentiles; {!Chaos} crash-mid-send plus
    {!Recovery} (zero leaks within the bounded-loss envelope); a
    deterministic Sim miniature with virtual-time ttl timers; and a
    full-run-only million-actor leg ([million_schemes] empty disables
    it) with wave retirement through the timer wheel. *)

val a1 : ?threads_list:int list -> ?seeds:int -> ?seed:int -> unit -> Report.t
(** Ablation: deref step bound vs thread count (O(N) scans). *)

val a3 :
  ?threads_list:int list ->
  ?ops:int ->
  ?capacity:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Ablation: allocation helping (A11–A15/F3) on vs off. *)

val a4 :
  ?schemes:string list ->
  ?churn_schedules:int ->
  ?contend_schedules:int ->
  ?hunt_runs:int ->
  ?seed:int ->
  unit ->
  Report.t
(** Reclamation-safety detector sweep ({!Analysis.Reclaim} over
    {!Sched.Explore}): every scheme explored clean over two small
    contended programs, then three seeded protocol mutations (HP
    validation skip, double release, dropped release) each caught with
    a replayable choice trace. *)
