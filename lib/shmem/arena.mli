(** The simulated shared memory: root link cells followed by
    fixed-size node blocks, behind a backend-dispatched facade.

    Cells live for the lifetime of the arena, so the [mm_ref] word of
    a reclaimed node stays accessible — the paper's §3 assumption. All
    word operations are atomic; under [Sim] each crosses one
    scheduling point. *)

type t

val create :
  ?backend:Atomics.Backend.t ->
  layout:Layout.t ->
  capacity:int ->
  num_roots:int ->
  unit ->
  t
(** [create ~layout ~capacity ~num_roots] builds an arena of
    [capacity] nodes (handles [1..capacity]) preceded by [num_roots]
    root link cells. All cells start at 0 (= null pointer).

    [backend] (default [Sim]) selects the store and its cost model.
    [Sim] is a dense [int Atomic.t] array whose every word operation
    crosses one {!Atomics.Schedpoint} (the deterministic scheduler's
    granularity). [Native] is a single page-aligned out-of-heap
    {!Atomics.Words} block, hook-free, in which each root has a
    16-word (128-byte) slot and each node a block of [node_size]
    rounded up to a multiple of 8 words, starting on a 64-byte
    boundary, with the fields in logical order ([mm_ref] at +0,
    [mm_next] at +1, links and data from +2). The two stores have
    different physical geometries — always address through the
    functions below. *)

val layout : t -> Layout.t
val capacity : t -> int
val num_roots : t -> int

val num_cells : t -> int
(** Logical cell count, [num_roots + capacity * node_size] —
    independent of physical padding. *)

val addr_base : t -> int
(** Global address of this arena's cell 0. Each arena claims a
    contiguous window of a process-wide address space, so
    [addr_base t + local] identifies one cell uniquely across arenas;
    these are the addresses a {!Atomics.Schedpoint} validator
    receives. Under [Sim] every word operation reports
    [addr_base + local addr]; [Native] reports nothing. *)

(** {1 Addressing}

    All functions return {e physical} addresses valid only for this
    arena's store. *)

val root_addr : t -> int -> Value.addr
val node_base : t -> int -> Value.addr
val mm_ref_addr : t -> Value.ptr -> Value.addr
val mm_next_addr : t -> Value.ptr -> Value.addr
val link_addr : t -> Value.ptr -> int -> Value.addr
val data_addr : t -> Value.ptr -> int -> Value.addr

val owner_of : t -> Value.addr -> [ `Root of int | `Node of int * int ]
(** Inverse mapping: root index, or (node handle, {e logical} cell
    offset: 0 = [mm_ref], 1 = [mm_next], then links and data) —
    uniform across stores. Rejects out-of-range addresses and
    ([Native]) padding words. *)

(** {1 Atomic word operations (paper Figure 2)} *)

val read : t -> Value.addr -> int
val write : t -> Value.addr -> int -> unit
val cas : t -> Value.addr -> old:int -> nw:int -> bool
val faa : t -> Value.addr -> int -> int
val swap : t -> Value.addr -> int -> int

(** {1 mm-field conveniences} *)

val read_mm_ref : t -> Value.ptr -> int
val faa_mm_ref : t -> Value.ptr -> int -> unit
val cas_mm_ref : t -> Value.ptr -> old:int -> nw:int -> bool
val read_mm_next : t -> Value.ptr -> Value.ptr
val write_mm_next : t -> Value.ptr -> Value.ptr -> unit
val read_link : t -> Value.ptr -> int -> int
val write_link : t -> Value.ptr -> int -> int -> unit
val read_data : t -> Value.ptr -> int -> int
val write_data : t -> Value.ptr -> int -> int -> unit

(** {1 Fused reference-count fragments}

    One stub crossing under [Native]; under [Sim] the same per-word
    ops are issued individually (one scheduling point each). *)

val read_clear_link : t -> Value.ptr -> int -> int
(** R3's per-link collect: read link [i] and store 0. Caller must own
    the node exclusively (post-R2). *)

val release_collect : t -> Value.ptr -> out:int array -> int
(** R1–R3 whole: FAA the node's [mm_ref] by [-2]; if it then reads 0,
    claim it with CAS(0 → 1), and if this caller claimed it,
    read-and-clear every link word, depositing the non-null values in
    slot order into [out] (length ≥ the layout's [num_links]).
    Returns the deposit count, or [-1] when not claimed. The [Native]
    stub tests the FAA's return instead of reloading and skips the
    store into null links ({!Atomics.Words.release_collect}); the
    words left are the same. *)

val raw : t -> Atomics.Words.t option
(** The backing {!Atomics.Words} block ([Native] only) — for fusions
    spanning the arena and a hot vector (see
    {!Atomics.Words.take_fix} and {!Atomics.Words.release_park}).
    Address it with the {e physical} addresses from the addressing
    section above. *)

val node_geom : t -> int array
(** [[| nodes_base; node_stride |]] — the physical node geometry the
    cross-store fusion stubs need ([mm_ref] is word 0 of a node
    block). *)

(** {1 Iteration and debugging} *)

val iter_nodes : t -> (Value.ptr -> unit) -> unit
(** Apply to every node pointer, in handle order. Not atomic; for
    quiescent checks only. *)

val iter_chain :
  t ->
  head:Value.ptr ->
  violation:(unit -> unit) ->
  f:(Value.ptr -> bool) ->
  unit
(** [iter_chain t ~head ~violation ~f] follows the [mm_next] chain
    from [head] (null = empty), applying [f] to each node; [f]
    returning [false] stops the walk (a caller's duplicate check cuts
    a revisit short). A chain longer than [capacity] nodes is a cycle:
    [violation] is called once and the walk stops. Not atomic; for
    quiescent checks only. This is the one [mm_next] chain walk every
    free store's quiescent inspection goes through. *)

val mark_free :
  bool array -> violation:(string -> unit) -> twice:(int -> string) ->
  Value.ptr -> bool
(** A free-store walk's step, for {!iter_chain}'s [f]: mark [p] in
    the handle-indexed [free] array and answer [true]; a node already
    marked is reported as [twice h] through [violation] and answers
    [false], which stops the walk at the revisit. *)

val dump_node : Format.formatter -> t -> Value.ptr -> unit
