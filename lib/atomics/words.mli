(** Unboxed atomic word store for the [Native] backend.

    A page-aligned out-of-heap block of machine words accessed through
    C stubs compiling to single [__atomic] SEQ_CST operations. Values
    are OCaml immediates (untagged in the buffer); the block never
    moves, so word addresses are stable for the store's lifetime. The
    buffer is freed by a GC finalizer.

    This is a raw-memory primitive on the same trust tier as
    {!Primitives}: only the [atomics]/[shmem]/[core] layers may touch
    it directly (enforced by [wfrc_lint]); everything else goes
    through {!Shmem.Arena} or {!Hot}. *)

type t

val make : int -> t
(** [make len] allocates [len] zeroed words. Raises on [len < 1] or
    allocation failure. *)

val length : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit
val cas : t -> int -> old:int -> nw:int -> bool

val faa : t -> int -> int -> int
(** Fetch-and-add, returning the previous value. *)

val swap : t -> int -> int -> int
(** Atomic exchange, returning the previous value. *)

(** {1 Fused protocol fragments}

    Each call performs a short fixed sequence of atomic operations in
    one stub crossing — per-word behaviour identical to issuing the
    ops individually, which is what the [Sim] stores do. The ops run
    back to back, without an OCaml wrapper call and a crossing per
    op. The two release stubs drop up to three operations that such
    a back-to-back run makes redundant; the words they leave are the
    same. *)

val take : t -> int -> int
(** [take t i]: load the word; if non-zero, atomically exchange it
    with 0 and return the taken value, else return 0 (the paper's A4
    collect on an annAlloc word). *)

val read_clear : t -> int -> int
(** [read_clear t i]: load the word, store 0, return the loaded value
    (R3's per-link collect; the caller must own the enclosing node). *)

val release_collect : t -> ref_addr:int -> links:int -> nl:int ->
  out:int array -> int
(** [release_collect t ~ref_addr ~links ~nl ~out]: R1–R3 whole.
    FAA the word at [ref_addr] by [-2] and, if the FAA returned 2,
    claim it with CAS(0 → 1) (the paper's R1–R2 on an [mm_ref] word);
    if claimed, collect the [nl] contiguous link words at [links],
    depositing the non-null values in order into [out] (length ≥
    [nl]), storing 0 into those, and returning how many; [-1] when not
    claimed. The words it leaves are those of the unfused R1–R3
    (DESIGN.md §6.0). *)

val take_fix : t -> int -> arena:t -> geom:int array -> int
(** [take_fix t slot ~arena ~geom]: A4 whole. As {!take} on [slot];
    if a node was taken, FixRef(node, -1) on its [mm_ref] word in
    [arena]. [geom] is [| nodes_base; node_stride |] — the arena's
    physical node geometry ([mm_ref] at word 0 of a block). *)

val release_park :
  t -> arena:t -> node:int -> ctx:int array -> out:int array -> int
(** [release_park t ~arena ~node ~ctx ~out]: ReleaseRef's R1–R3 and
    the own-cell park of R4's FreeNode whole, on hot block [t] and
    arena block [arena]. [ctx] is the caller's
    [| cell; nodes_base; node_stride; links_off; nl |]: the word of the
    caller's [annAlloc] cell in [t], or [-1] when the hand-off is off,
    then the node geometry as in {!take_fix}, the offset of link 0
    from [mm_ref] and the link count. R1 FAAs [node]'s [mm_ref] by
    [-2] and goes on only if the FAA returned 2. R2 claims with
    CAS(0 → 3) when the cell reads empty (the claim and the park's +2
    inflation in one CAS), else CAS(0 → 1). R3 deposits the non-null
    link words in order into [out] (length ≥ [nl]) and stores 0 into
    those alone. After a CAS(0 → 3) the cell is CASed from 0 to
    [node], and an FAA(-2) undoes the inflation if that fails.
    Returns [-1] when not claimed, else twice the deposit count, plus
    1 when parked. The words it leaves are those of {!release_collect}
    followed by FreeNode's unfused park; DESIGN.md §6.0 gives the
    three operations it drops. [ctx] may be longer than 5 words (a
    padded context); the stub reads only the first 5. *)

val deref_link : t -> arena:t -> link:int -> enc:int -> ctx:int array -> int
(** [deref_link t ~arena ~link ~enc ~ctx]: DeRefLink's D1–D6 whole on
    the announcement block [t] and the arena block [arena]. [ctx] is
    the caller's
    [| node; slot; idx; busy; ra; stride; n; nodes_base; node_stride |]:
    the first two words are outputs, then the offsets of the caller's
    [annIndex] word and of busy and [annReadAddr] slot 0, the slot
    stride and the row length, then the node geometry as in
    {!take_fix}. D1 picks the first slot whose busy word is 0; D2
    stores the slot into the index word only if the word differs; D3
    stores [enc] into the slot; D4 reads the word at [link]; D5 FAAs
    the read node's [mm_ref] by [+2] unless it is null; D6 swaps the
    slot to 0. Returns the swapped-out word and leaves the node and the
    slot in [ctx]. If every busy word is non-zero, nothing is written
    but slot [-1], and 0 is returned. [ctx] may be longer than 9 words
    (a padded context); the stub touches only the first 9. *)

val ann_scan : t -> geom:int array -> from:int -> int -> int
(** [ann_scan t ~geom ~from target] is the batched announcement-row
    scan: for each row [id] in [from..n-1] it loads the row's slot
    index then the announced word at that slot, returning the first
    [id] whose announced word equals [target], or [-1]. One stub call
    replaces [2*(n-from)] separate word reads. [geom] is
    [| idx_base; idx_stride; ra_base; row_stride; slot_stride; n |]
    (word offsets/strides into the store). *)
