(** Lock-free skiplist priority queue (Sundell–Tsigas style [18]) —
    the workload of the paper's §5 evaluation.

    Runs only on reference-counting managers (wfrc, lfrc, lockrc): a
    logically deleted node can transiently be re-exposed by racing
    unlinks, which reference counts tolerate but retire-based schemes
    (hazard pointers, epochs) do not — the applicability gap the
    paper's §1 describes. {!create} rejects non-RC schemes.

    Layout requirements: [num_links] = maximum skiplist level,
    [num_data >= 3] (key, value, level). Two nodes are permanently
    consumed as sentinels. Keys must lie strictly between [min_int]
    and [max_int]; duplicates are allowed. *)

type t

val create : Mm_intf.instance -> seed:int -> tid:int -> t

val head_ptr : t -> Shmem.Value.ptr
(** The immortal head sentinel. Anchor it in an arena root cell if
    root-based audits must see the queue's nodes as reachable (see
    {!Oset.head}). *)

val scratch_blocks : t -> Atomics.Backend.owned list
(** Each thread's padded level generator, for layout checks. *)

val insert : t -> tid:int -> int -> int -> unit
(** [insert t ~tid k v] inserts value [v] with priority [k]. *)

val delete_min : t -> tid:int -> (int * int) option
(** Remove and return a minimal (key, value) pair, or [None] when
    empty. *)

val is_empty : t -> tid:int -> bool

val drain : t -> tid:int -> (int * int) list
(** Delete-min until empty (ascending key order). Quiescent helper. *)
