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
    ops individually, which is what the [Sim] stores do.
    These exist because call overhead, not the atomics, dominates the
    native hot path. *)

val release_ref : t -> int -> bool
(** [release_ref t i]: FAA the word at [i] by [-2], then, if it then
    reads 0, claim it with CAS(0 → 1). True iff claimed (the paper's
    R1–R2 on an [mm_ref] word). *)

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
    As {!release_ref} on [ref_addr]; if claimed, read-and-clear the
    [nl] contiguous link words at [links], depositing the non-null
    values in order into [out] (length ≥ [nl]) and returning how many;
    [-1] when not claimed. *)

val take_fix : t -> int -> arena:t -> geom:int array -> int
(** [take_fix t slot ~arena ~geom]: A4 whole. As {!take} on [slot];
    if a node was taken, FixRef(node, -1) on its [mm_ref] word in
    [arena]. [geom] is [| nodes_base; node_stride |] — the arena's
    physical node geometry ([mm_ref] at word 0 of a block). *)

val free_park : t -> int -> arena:t -> ref_addr:int -> node:int -> bool
(** [free_park t slot ~arena ~ref_addr ~node]: FreeNode's own-cell
    hand-off whole on hot block [t]. Load the freeing thread's
    [annAlloc] word at [slot]; only if it is empty, FAA the node's
    [mm_ref] at [ref_addr] (in [arena]) by [+2] and CAS [node] into
    the word, undoing the FAA on failure — the donation-count
    correction. True iff parked. *)

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
    but slot [-1], and 0 is returned. *)

val rc_flush : t -> nodes:int array -> n:int -> geom:int array -> int
(** [rc_flush t ~nodes ~n ~geom]: batched rc-buffer flush — R1–R2
    applied to each of the first [n] node handles in [nodes] (each one
    buffered decrement): FAA its [mm_ref] by [-2] and, if the count is
    then zero, claim with CAS(0 → 1). Claimed handles are compacted to
    the front of [nodes]; returns how many. The caller finishes R3 and
    FreeNode for the claimed nodes. [geom] is
    [| nodes_base; node_stride |] as in {!take_fix}. *)

val ann_scan : t -> geom:int array -> from:int -> int -> int
(** [ann_scan t ~geom ~from target] is the batched announcement-row
    scan: for each row [id] in [from..n-1] it loads the row's slot
    index then the announced word at that slot, returning the first
    [id] whose announced word equals [target], or [-1]. One stub call
    replaces [2*(n-from)] separate word reads. [geom] is
    [| idx_base; idx_stride; ra_base; row_stride; slot_stride; n |]
    (word offsets/strides into the store). *)
