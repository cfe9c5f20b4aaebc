(** The announcement pool of the paper's Figure 4
    ([annReadAddr]/[annIndex]/[annBusy]).

    Thread [tid] owns row [tid]: it announces a pending de-reference
    in a busy-free slot, and helpers answer through {!answer_cas}.
    Busy counts prevent a slot from being reused while a helper still
    holds a pending answer CAS against it (the ABA defence of §3). *)

type t

val create : ?backend:Atomics.Backend.t -> threads:int -> unit -> t
(** [backend] (default [Sim]) picks the pool's store: instrumented
    cells under [Sim]; under [Native], one raw {!Atomics.Words} block
    with every announcement word on its own cache-line pair (they are
    cross-thread CAS targets by definition), which {!scan_announced}
    sweeps with a single stub call. *)

val threads : t -> int

val read_busy : t -> id:int -> slot:int -> int
(** The busy count D1 reads. *)

val choose_slot : t -> tid:int -> int
(** Line D1: index of a slot with busy count 0. Bounded single scan;
    fails only if the busy-count invariant is broken. *)

val set_index : t -> tid:int -> int -> unit
(** Line D2: publish which slot the next announcement uses. The store
    is skipped when [annIndex[tid]] already holds the slot — [tid] is
    the word's only writer, so no reader can tell. *)

val announce : t -> tid:int -> slot:int -> Shmem.Value.addr -> unit
(** Line D3: publish the link being de-referenced. *)

val retract : t -> tid:int -> slot:int -> int
(** Line D6: atomically clear the slot, returning the previous word —
    the link encoding if unhelped, a helper's node-pointer answer
    otherwise. *)

val deref_ctx : t -> tid:int -> node_geom:int array -> int array
(** Thread [tid]'s D1–D6 context. Words 0 and 1 receive the node D4
    read and the slot D1 chose. Under [Native] the rest is the row and
    node geometry {!deref_fused} hands to
    {!Atomics.Words.deref_link}; [node_geom] is the arena's
    [[| nodes_base; node_stride |]]. *)

val deref_fused : t -> arena:Atomics.Words.t -> ctx:int array ->
  Shmem.Value.addr -> int
(** [Native] only: DeRefLink's D1–D6 in one stub call — the same steps
    as {!choose_slot}, {!set_index}, {!announce}, the link read, the
    [+2] on the target's [mm_ref] (unless null) and {!retract}.
    Returns D6's word and leaves the node and slot in [ctx]. Fails as
    {!choose_slot} does when every busy count is non-zero. *)

val read_index : t -> id:int -> int
(** Line H2. *)

val read_slot : t -> id:int -> slot:int -> int
(** Line H3 read. *)

val busy_incr : t -> id:int -> slot:int -> unit
(** Line H4. *)

val busy_decr : t -> id:int -> slot:int -> unit
(** Line H8. *)

val answer_cas : t -> id:int -> slot:int -> link:Shmem.Value.addr -> int -> bool
(** Line H6: try to replace the announced link with the answer. *)

val scan_announced : t -> from:int -> int -> int
(** [scan_announced t ~from target]: the first row [id >= from] whose
    currently-indexed slot holds exactly [target] (a
    [Shmem.Value.enc_link] word), or [-1] — the H2+H3 read pass of a
    helping sweep, batched. One C stub call under [Native]; a
    per-word loop with the same reads under [Sim]. The result is a
    hint: callers must re-read the row (H2/H3) before acting, which
    the helping protocol requires anyway. *)

val answers : t -> (int * Shmem.Value.ptr) list
(** Tolerant sweep for the auditor: [(owner_tid, node)] for every slot
    still holding a helper's node-pointer answer (mark stripped). A
    crashed owner never retracts, leaving the answer's reference
    pinned. Never raises. *)

val clear_row : t -> tid:int -> int * Shmem.Value.ptr list
(** Recovery (quiescent-survivors protocol): wipe a declared-dead
    owner's row. Swaps every slot to 0; returns
    [(slots_cleared, answers)] where each answer node still holds the
    reference H6 acquired on the dead announcer's behalf — the caller
    must release it. Also prevents future helpers from answering into
    the row. *)

val clear_busy : t -> int
(** Recovery: zero every stale busy claim, returning how many were
    cleared. Sound only at quiescence with the survivors drained,
    when a non-zero count can only belong to a crashed helper. *)

val validate : t -> unit
(** Quiescent check: all busy counts and announcements cleared. *)
