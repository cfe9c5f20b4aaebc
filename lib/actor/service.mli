(** Actor/mailbox runtime over the WFRC structures: each actor owns a
    {!Structures.Queue} as its MPSC mailbox, the registry is an
    {!Structures.Hmap} keyed by actor id, and a {!Timer} wheel (RC
    schemes only) drives timeouts — all drawing nodes from one
    {!Mm_intf} manager, so spawn/send/receive/retire exercise the
    memory scheme as the service's real allocator.

    Ids encode slot + generation (id = slot + max_actors * gen): a
    recycled slot never resurrects a dead id. [send] to a dead id is a
    counted drop, never a use-after-free — the slot-state/inflight
    guard protocol (see service.ml) makes mailbox destruction safe
    against concurrent senders, and parks a slot as a {e zombie} when
    the guard window never clears (e.g. a sender crashed inside it);
    zombie mailboxes are adopted by {!teardown}.

    Thread discipline: [spawn]/[retire]/[receive] may run from any
    thread; each free slot belongs to exactly one thread's list (a
    retired slot migrates to the retiring thread). [create],
    [teardown], [probe], [live] and [totals] are quiescent. *)

type t

type totals = {
  spawned : int;
  spawn_fail : int;     (** out of slots, or allocator exhausted *)
  sent : int;
  send_drop : int;      (** dead/unknown destination, or allocator exhausted *)
  received : int;
  recv_empty : int;
  retired : int;
  zombied : int;        (** slots parked closing; adopted at teardown *)
  discarded : int;      (** undelivered messages destroyed with mailboxes *)
}

val mm_config :
  ?backend:Atomics.Backend.t ->
  ?shards:int ->
  ?batch:int ->
  ?defer:int ->
  ?levels:int ->
  threads:int ->
  capacity:int ->
  max_actors:int ->
  buckets:int ->
  unit ->
  Mm_intf.config
(** Manager layout for a service of [max_actors] slots and [buckets]
    registry buckets: [2*max_actors + buckets + 1] root cells (mailbox
    head/tail pairs, registry anchors, wheel anchor), 3 data words,
    [levels] links (the timer skiplist's maximum level; default 4).
    [capacity] must additionally cover 2 sentinels per bucket, 2 for
    the wheel, 1 sentinel + 1 registry node per live actor, plus
    in-flight messages and armed timers. *)

val create :
  Mm_intf.instance -> max_actors:int -> buckets:int -> seed:int -> tid:int -> t
(** Builds the registry (anchoring every bucket sentinel in a root
    cell) and, on reference-counting schemes, the timer wheel; hp/ebr
    get [wheel t = None] — the paper's §1 applicability gap surfacing
    at the service level. Raises [Invalid_argument] if the manager's
    layout lacks the root cells {!mm_config} provisions. *)

val spawn : ?deadline:int -> t -> tid:int -> int option
(** Claim a slot from this thread's free list, build the mailbox and
    register a fresh id. [?deadline] (from {!Timer.deadline}) arms a
    retire-at timer when the scheme has a wheel; it is silently
    ignored otherwise. [None] when out of slots or nodes. *)

val send : t -> tid:int -> dst:int -> int -> bool
(** Registry lookup, then guarded enqueue. [false] — counted in
    {!totals}.send_drop — when [dst] is dead or the allocator is
    exhausted. *)

val receive : t -> tid:int -> self:int -> int option
(** Guarded dequeue from [self]'s mailbox ([None] when empty or
    dead). Any thread may run an actor; concurrent receives on one
    actor are safe but break FIFO delivery order per sender. *)

val retire : t -> tid:int -> int -> bool
(** Kill an actor: unregister, wait (bounded) for in-flight
    senders, destroy the mailbox (discarding undelivered messages) and
    recycle the slot onto this thread's free list. [false] if already
    dead. A guard window that never clears parks the slot as a zombie
    instead of blocking. *)

val tick : t -> tid:int -> now:int -> int
(** Fire every ripe ttl timer (retiring its actor); returns how many
    actors were retired. No-op without a wheel. *)

val wheel : t -> Timer.t option
(** The raw wheel, for driver-scheduled cohort timers. Do not mix
    cohort payloads with [spawn ?deadline] ids on the same wheel —
    {!tick} interprets every payload as an actor id. *)

val live : t -> int
(** Slots currently live (quiescent snapshot). *)

val probe : t -> tid:int -> Structures.Hmap.probe
(** Registry health: entries, longest bucket chain, load factor
    (quiescent). Surfaces silent degradation of the fixed-size
    registry — see the sizing note in hmap.mli. *)

val teardown : t -> tid:int -> int
(** Quiescent teardown: destroy every mailbox (live, closing or
    zombie), drain the wheel and clear the registry, leaving only the
    anchored sentinels allocated. Returns the number of undelivered
    messages discarded. Run the custody auditor on the manager
    afterwards. *)

val totals : t -> totals
(** Summed per-thread counters (quiescent). *)
