(** Michael's hazard pointers [11, 12] behind the common MM signature
    — the §1 comparison point that protects only a {e fixed} number of
    references per thread.

    [deref] publishes the target in one of K per-thread slots and
    re-validates the link (lock-free, not wait-free); [terminate]
    retires the node; a scan frees retired nodes absent from every
    slot. [deref]/[copy_ref] raise [Failure _] when the K slots are
    exhausted — the applicability limit the paper's introduction
    criticises (and why {!Structures.Pqueue} refuses this scheme). *)

include Mm_intf.S

val scratch_blocks : t -> Atomics.Backend.owned list
(** Each thread's padded record and hazard counts and, when sharded,
    its free-store cache, for layout checks. *)

val slots_per_thread : t -> int
(** The K of this instance (derived from the node layout). *)

val scan : t -> tid:int -> unit
(** Force a retirement scan for [tid]'s retired list (normally
    triggered automatically past the retirement threshold). *)

val unsafe_skip_validation : t -> unit
(** Seed the classic hazard-pointer bug into this instance: [deref]
    still publishes the slot but skips the link re-validation, so a
    node retired-and-scanned between the read and the publish is used
    after reclamation. For detector non-vacuity tests only. *)
