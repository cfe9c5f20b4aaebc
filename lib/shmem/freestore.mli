(** Sharded free store for the [Native] backend: per-domain stripes of
    the node range behind padded stamped heads, fronted by
    unsynchronised per-thread caches that grab/return nodes [batch] at
    a time, with remote frees routed through per-stripe MPSC return
    buffers. The managers keep their reference-count conventions
    (free RC nodes carry [mm_ref = 1] throughout); this module only
    moves node pointers. Never constructed under the [Sim] backend —
    its schedules must stay byte-for-byte identical. *)

type t

val create :
  backend:Atomics.Backend.t ->
  arena:Arena.t ->
  counters:Atomics.Counters.t ->
  shards:int ->
  batch:int ->
  threads:int ->
  unit ->
  t
(** Builds the store over [arena] with every node free: the handle
    range is split into [shards] contiguous stripes and chained. The
    caller's prior free-list initialisation of [mm_next] is
    overwritten; [mm_ref] words are untouched. The stripe heads,
    return slots and cursors live on one {!Atomics.Hot} vector.
    Counter events
    ([Cache_refill]/[Cache_spill]/[Free_remote]/[Steal], plus
    [Alloc_retry]/[Free_retry] on head-CAS failures and
    [Park_wait]/[Park_wake] around {!wait_free}) are recorded in
    [counters]. *)

val shards : t -> int
val batch : t -> int

val alloc : t -> tid:int -> Value.ptr option
(** Pop from the cache, refilling it with one full pass (own return
    buffer, home stripe, round-robin steal) when empty. [None] when
    the pass found nothing — the caller owns the out-of-memory retry
    policy, since nodes may still be parked in other threads' caches. *)

val free : t -> tid:int -> Value.ptr -> unit
(** Return a privately-owned node (its [mm_next] is overwritten). On
    cache overflow, [batch] nodes are spilled: home nodes as one
    chain-push, others through their stripe's return buffer. *)

val adopt : t -> tid:int -> dead:int list -> int
(** Recovery: drain the [dead] threads' private caches back onto the
    shared stripes, returning the number of nodes recirculated (each
    also counts a [Recovery_adopt] event). Only sound once the owners
    are permanently stopped ({!Mm_intf.declare_dead} contract): the
    caches are unsynchronised. Concurrent adopters are serialised by a
    CAS guard — the loser returns 0 immediately. The winner's stripe
    pushes wake any {!wait_free} parkers. *)

(** {1 Parking} *)

val wait_free : t -> tid:int -> timeout_ns:int -> unit
(** Park until some thread publishes free nodes (a stripe-head push or
    return-slot install — the wakes ride on those operations), the
    timeout elapses, or nodes were already visible (returns at once).
    Callers must re-poll {!alloc} on return: nodes parked in other
    threads' caches are invisible and generate no wake, so use a
    finite timeout. [alloc] itself never blocks. *)

val waiters : t -> int
(** Threads currently registered on the store's parking spot
    (approximate under concurrency; for tests). *)

(** {1 Quiescent inspection} *)

val cached : t -> tid:int -> int
(** Nodes currently parked in [tid]'s cache. *)

val buffered : t -> int
(** Nodes currently parked in return-buffer slots. *)

val iter_free : t -> violation:(string -> unit) -> f:(Value.ptr -> unit) -> unit
(** Apply [f] to every node in the store — stripe chains, return
    buffers, caches. Cycles are reported through [violation];
    duplicate detection is the caller's job. Quiescent only. *)
