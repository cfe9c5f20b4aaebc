(** Lock-free hash map: a fixed power-of-two array of {!Oset} buckets
    sharing one memory manager (Michael's hash-map construction).
    Scheme-generic like {!Oset}. Each map consumes two sentinel nodes
    per bucket.

    {b Sizing.} The bucket count is fixed forever at {!create} — there
    is no rehashing — so every operation on a map holding [n] entries
    walks a chain of [n / buckets] nodes on average. Size for the
    expected {e peak} population: keep the load factor ([n / buckets])
    below ~4 for O(1)-ish operations, and remember each bucket costs
    two sentinel nodes up front (so [buckets] also trades arena
    capacity against chain length). A million-entry map wants
    2{^15}–2{^18} buckets, not the low hundreds; {!size} over
    {!num_buckets} is the realised load factor. *)

type t

val create : Mm_intf.instance -> buckets:int -> tid:int -> t
(** [buckets] must be a positive power of two. *)

val num_buckets : t -> int

val heads : t -> Shmem.Value.ptr array
(** The immortal head sentinel of every bucket, in bucket order. As
    with {!Oset.head}: anchor these in arena root cells if root-based
    audits must see the map's nodes as reachable. *)

val insert : t -> tid:int -> int -> int -> bool
val remove : t -> tid:int -> int -> bool
val mem : t -> tid:int -> int -> bool
val lookup : t -> tid:int -> int -> int option

val size : t -> tid:int -> int
(** Quiescent count (sums bucket snapshots). *)

val to_list : t -> tid:int -> (int * int) list
(** Quiescent ascending (key, value) snapshot. *)

val clear : t -> tid:int -> int
