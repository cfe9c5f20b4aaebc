(** Epoch-based reclamation (3-epoch scheme) behind the common MM
    signature.

    Clients bracket each operation with [enter_op]/[exit_op]; a node
    retired by [terminate] in epoch [e] is recycled only after the
    global epoch has advanced twice. Reclamation is {e blocking}: one
    stalled reader pins the epoch and stops recycling — the trade-off
    the paper's §1 surveys (observable via the [Epoch_advance]
    counter). *)

include Mm_intf.S

val scratch_blocks : t -> Atomics.Backend.owned list
(** Each thread's padded record, limbo bags and bag sizes and, when
    sharded, its free-store cache, for layout checks. *)

val try_advance : t -> tid:int -> unit
(** Attempt one global-epoch advance (normally driven by
    [exit_op]). *)
