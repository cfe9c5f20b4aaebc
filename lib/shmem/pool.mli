(** The free pool every comparison scheme (lfrc, hp, ebr, lockrc)
    draws from: one stamp-tagged Treiber list on a {!Atomics.Hot}
    slot, or the sharded {!Freestore} when the config asks for it.
    This module only moves node pointers and raises the one
    exhaustion signal; each scheme keeps its own reference-count step
    on the node it hands out, its own lifecycle events and its own
    exhaustion relief. *)

exception Out_of_nodes of { retries : int; waits : int }
(** Raised by {!claim} when its bounded budget is spent: [retries]
    empty passes and [waits] timed parks found no node, and one
    attempt to adopt declared-dead threads' caches came up empty.
    Re-exported as {!Mm_intf.Out_of_nodes}, where clients catch it. *)

type t

val create :
  backend:Atomics.Backend.t ->
  arena:Arena.t ->
  counters:Atomics.Counters.t ->
  threads:int ->
  sharded:bool ->
  shards:int ->
  batch:int ->
  t
(** Every node of [arena] starts free. Without [sharded] the nodes
    are chained by handle, 1 first, and [shards]/[batch] are
    ignored; with it, {!Freestore.create} stripes them. [mm_ref]
    words are untouched. *)

val sharded : t -> bool

val free : t -> tid:int -> Value.ptr -> unit
(** Return a privately-owned node (its [mm_next] is overwritten). *)

type guard = { pin : Value.ptr -> unit; unpin : tid:int -> Value.ptr -> unit }
(** A reference-count pin around the single list's [mm_next] read:
    [pin] the candidate head before reading its [mm_next], [unpin]
    it when the head CAS is lost. The sharded store ignores it. *)

val pop : ?guard:guard -> t -> tid:int -> Value.ptr
(** One pass: the single list's pop, retried on a lost head CAS, or
    one {!Freestore.alloc}. Null when the pass found nothing. A node
    popped under [guard] is still pinned. *)

val claim :
  ?guard:guard ->
  ?park:bool ->
  ?relief:(int -> bool) ->
  t ->
  tid:int ->
  dead:bool array ->
  Value.ptr
(** The bounded allocation: {!pop} until a node turns up. After the
    [n]th empty pass, [relief n] may reclaim something and answer
    [true] to ask for another pass at once. Failing that, with [park]
    on the sharded store, the caller parks up to [16 * threads + 16]
    timed rounds. Then the caches of the threads flagged in [dead]
    are adopted once (a fresh park budget follows); then
    {!Out_of_nodes}, whose [retries] counts the empty passes. *)

val adopt : t -> tid:int -> dead:bool array -> int
(** Drain the caches of the threads flagged in [dead] (indexed by
    tid) back into the pool ({!Freestore.adopt}); the single list has
    no caches and answers 0. *)

(** {1 Quiescent inspection} *)

val walk : t -> violation:(string -> unit) -> bool array
(** Mark every node in the pool — the single chain, or the stripes,
    return buffers and caches — in a fresh array indexed by handle
    (slot 0 unused). A cycle or a node met twice goes to
    [violation]. *)

val scratch_blocks : t -> Atomics.Backend.owned list
(** The sharded store's per-thread caches, for layout checks. *)
