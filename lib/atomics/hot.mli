(** A vector of contention-padded global hot words, stored per
    backend.

    [Sim] slots are plain {!Primitives} cells, preserving one
    scheduling point per access; [Native] slots live in one {!Words}
    block, one cache-line pair per slot. The managers put their cross-thread globals — free-list
    heads, [currentFreeList], [helpCurrent], [annAlloc] — on one of
    these. Same trust tier as {!Primitives}/{!Words}: client layers go
    through the managers, not this module. *)

type t

val create : backend:Backend.t -> int -> init:(int -> int) -> t
(** [create ~backend n ~init] builds [n] slots, slot [i] holding
    [init i]. *)

val length : t -> int
val read : t -> int -> int
val write : t -> int -> int -> unit
val cas : t -> int -> old:int -> nw:int -> bool
val faa : t -> int -> int -> int
val swap : t -> int -> int -> int

(** {1 Fused fragments}

    One stub crossing under [Native]; under [Sim], the identical
    per-word op sequence issued individually (one scheduling point per
    op, as ever). *)

val take : t -> int -> int
(** [take t i]: read slot [i]; if non-zero, exchange it with 0 and
    return the taken value, else 0. *)

val raw : t -> Words.t option
(** The backing {!Words} block ([Native] only) — for fusions spanning
    two stores (see {!Words.take_fix} and {!Words.free_park}). *)

val word_of_slot : int -> int
(** Physical word offset of slot [i] inside {!raw}'s block. *)
