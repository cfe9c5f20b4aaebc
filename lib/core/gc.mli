(** The paper's wait-free reference counting (Figure 4) and wait-free
    free-list (Figure 5), line-for-line.

    This is the low-level engine; {!Wfrc} packages it behind the
    scheme-independent {!Mm_intf.S} signature. All operations are
    wait-free: each finishes in a number of atomic primitives bounded
    by a function of the thread count (Lemmas 6–10). *)

type t

val create : ?help_alloc:bool -> Mm_intf.config -> t
(** Build the manager: arena, announcement pool, [2N] free-lists with
    every node initially chained into [freeList\[0\]] with
    [mm_ref = 1]. [help_alloc:false] disables the A11–A15 helping and
    FreeNode's own-cell hand-off, so no [annAlloc] cell is ever
    written (ablation E-A3: allocation becomes merely lock-free). The default
    is the paper's algorithm. *)

val arena : t -> Shmem.Arena.t
val counters : t -> Atomics.Counters.t
val config : t -> Mm_intf.config
val announcements : t -> Ann.t

val alloc : t -> tid:int -> Shmem.Value.ptr
(** [AllocNode] (A1–A18): returns a node with one reference
    ([mm_ref = 2]). Raises {!Mm_intf.Out_of_nodes} after the bounded
    retry budget of the paper's footnote 4. *)

val deref : t -> tid:int -> Shmem.Value.addr -> int
(** [DeRefLink] (D1–D10): read the link and acquire a reference on the
    target. Returns the raw word (null or a possibly-marked pointer). *)

val deref_d1_d6 : t -> tid:int -> Shmem.Value.addr -> int * int * int
(** DeRefLink's D1–D6 alone, as {!deref} runs them: [(n1, node, slot)]
    — D6's retracted word, the node D4 read (its reference counted by
    D5) and the slot D1 chose. The caller owns what D7–D10 would do
    with them. Exposed so the [Native] stub can be tested against the
    [Sim] sequence word for word. *)

val release : t -> tid:int -> Shmem.Value.ptr -> unit
(** [ReleaseRef] (R1–R4); cascade reclamation runs with constant
    stack. The pointer may be marked; must not be null. *)

val release_park : t -> tid:int -> Shmem.Value.ptr -> out:int array -> int
(** ReleaseRef's R1–R3 and FreeNode's own-cell park on one unmarked
    node, as {!release} runs them, without the cascade, the counters
    and the cache or free-list push. The non-null link words R3
    collects are deposited in order into [out] (length ≥ the layout's
    [num_links]). Returns [-1] when not claimed, else twice the
    deposit count, plus 1 when the node was parked in
    [annAlloc\[tid\]]. Exposed so the [Native] stub, which runs it in
    one call, can be tested against the [Sim] sequence word for
    word. *)

val help_deref : t -> tid:int -> Shmem.Value.addr -> unit
(** [HelpDeRef] (H1–H8). Per §3.2, must be called after every
    successful CAS on a shared link, before releasing the old
    target. *)

val fix_ref : t -> Shmem.Value.ptr -> int -> Shmem.Value.ptr
(** [FixRef]: adjust the reference count by the given amount and
    return the node. [FixRef(node, 2)] duplicates a held reference. *)

val custody : t -> Mm_intf.custody
(** The quiescent accounting snapshot the auditor, {!validate} and
    [Mm_intf.free_count] all read: free chains and domain-local caches
    walked defensively (damage reported in [violations], never raised),
    [annAlloc] donations as [pending] under the cell owner,
    unretracted announcement answers as [pinned] by the announcer. *)

val scratch_blocks : t -> Atomics.Backend.owned list
(** Each thread's hot-path scratch (D1–D6 context, R3 collect buffer,
    under [Native] the R1–R4 context and, when sharded, the allocation cache record and its slots),
    with its used length, for layout checks: each block is
    {!Atomics.Backend.padded}. *)

val validate : t -> unit
(** {!Mm_intf.check_custody} over
    {!custody} (free chains acyclic and disjoint with [mm_ref = 1],
    allocated nodes with even non-negative counts), then the
    quiescence residue: announcement pool clear, donated nodes with
    [mm_ref = 3], global indices in range. *)

(** {1 Crash recovery} *)

val declare_dead : t -> tid:int -> unit
(** Mark [tid] permanently stopped ({!Mm_intf.S.declare_dead}
    contract). Idempotent; consulted by {!recover} and by the sharded
    A7 exhaustion path, which adopts dead threads' caches before
    surfacing {!Mm_intf.Out_of_nodes}. *)

val recover : t -> tid:int -> Mm_intf.recovery
(** Quiescent-survivors recovery pass run by survivor [tid]: wipe the
    dead threads' announcement rows (releasing un-retracted helper
    answers) and stale busy counts, resolve reference-count anomalies
    to a fixpoint (excess drops released, stranded zero-inbound nodes
    revived onto the free-lists), then drain dead [annAlloc] cells and
    domain-local caches back into allocator custody. Donation is
    suppressed for the duration so every reclaimed node lands as
    [free], not [pending]. Idempotent; no-op when nothing is dead. *)
