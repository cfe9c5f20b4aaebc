(** Actor/mailbox runtime over the WFRC structures: each actor owns a
    {!Structures.Queue} as its MPSC mailbox and a {!Timer} wheel (RC
    schemes only) drives timeouts — both drawing nodes from one
    {!Mm_intf} manager, so spawn/send/receive/retire exercise the
    memory scheme as the service's real allocator.

    Ids encode slot + generation (id = slot + max_actors * gen): a
    recycled slot never resurrects a dead id, so every entry point
    goes straight to the id's slot and the service keeps no id
    directory. [send] to a dead id is a counted drop, never a
    use-after-free — the slot-state/inflight guard protocol (see
    service.ml) makes mailbox destruction safe against concurrent
    senders, and parks a slot as a {e zombie} when
    the guard window never clears (e.g. a sender crashed inside it);
    zombie mailboxes are adopted by {!teardown}.

    Thread discipline: [spawn]/[retire]/[receive] may run from any
    thread; each free slot belongs to exactly one thread's list (a
    retired slot migrates to the retiring thread). [create],
    [teardown], [live] and [totals] are quiescent. *)

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
  ?levels:int ->
  ?buckets:int ->
  threads:int ->
  capacity:int ->
  max_actors:int ->
  unit ->
  Mm_intf.config
(** Manager layout for a service of [max_actors] slots: [2*max_actors
    + 1] root cells (mailbox head/tail pairs, then the wheel anchor),
    3 data words, [levels] links (the timer skiplist's maximum level;
    default 4). [capacity] must additionally cover 2 sentinels for
    the wheel, 1 mailbox sentinel per live actor, plus in-flight
    messages and armed timers.

    [?buckets] is ignored, here and on {!create}. It is kept only
    because [benchmark/workloads.ml], which is edited only by
    benchmark changes, still passes it; it goes with the next one. *)

val create :
  ?buckets:int -> Mm_intf.instance -> max_actors:int -> seed:int -> tid:int -> t
(** Builds the timer wheel on reference-counting schemes, anchored in
    root cell [2*max_actors]; hp/ebr get [wheel t = None] — the
    paper's §1 applicability gap surfacing at the service level.
    Raises [Invalid_argument] if the manager's layout lacks the root
    cells {!mm_config} provisions. *)

val spawn : ?deadline:int -> t -> tid:int -> int option
(** Claim a slot from this thread's free list, build the mailbox (its
    one sentinel node) and stamp a fresh id. [?deadline] (from
    {!Timer.deadline}) arms a retire-at timer when the scheme has a
    wheel; it is silently ignored otherwise. [None] when out of slots
    or nodes. *)

val send : t -> tid:int -> dst:int -> int -> bool
(** Guarded enqueue into the slot [dst] names; the slot's state word
    decides whether [dst] is live. [false] — counted in
    {!totals}.send_drop — when [dst] is dead, recycled, below 0, or
    the allocator is exhausted. *)

val receive : t -> tid:int -> self:int -> int option
(** Guarded dequeue from [self]'s mailbox ([None] when empty, dead
    or below 0). Any thread may run an actor; concurrent receives on
    one actor are safe but break FIFO delivery order per sender. *)

val retire : t -> tid:int -> int -> bool
(** Kill an actor: close its slot, wait (bounded) for in-flight
    senders, destroy the mailbox (discarding undelivered messages) and
    recycle the slot onto this thread's free list. [false] if already
    dead or below 0. A guard window that never clears parks the slot
    as a zombie instead of blocking. *)

val tick : t -> tid:int -> now:int -> int
(** Fire every ripe ttl timer (retiring its actor); returns how many
    actors were retired. No-op without a wheel. *)

val wheel : t -> Timer.t option
(** The raw wheel, for driver-scheduled cohort timers. Do not mix
    cohort payloads with [spawn ?deadline] ids on the same wheel —
    {!tick} interprets every payload as an actor id. *)

val live : t -> int
(** Slots currently live (quiescent snapshot). *)

val teardown : t -> tid:int -> int
(** Quiescent teardown: destroy every mailbox (live, closing or
    zombie) and drain the wheel, leaving only the wheel's anchored
    sentinels allocated. Returns the number of undelivered messages
    discarded. Run the custody auditor on the manager afterwards. *)

val totals : t -> totals
(** Summed per-thread counters (quiescent). *)
