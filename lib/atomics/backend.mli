(** Pluggable shared-memory backends.

    [Sim] routes every word operation through {!Primitives}, crossing
    one {!Schedpoint} scheduling point per primitive — required by the
    deterministic scheduler, the schedule explorer and the lincheck
    sweeps. [Native] performs the [Atomic] operation directly with
    zero hook dispatch, and pads designated hot cells
    ({!make_contended}) so FAA-heavy words do not false-share under
    real [Domain] parallelism.

    The backend also decides the store behind the arena, the hot
    vectors and the announcement pool: [Sim] keeps instrumented
    [int Atomic.t] cells, [Native] uses raw out-of-heap {!Words}
    blocks. The functions below operate on [int Atomic.t] cells — the
    [Sim] stores, and the few padded cells the managers keep for
    their own bookkeeping under either backend. *)

type t = Sim | Native

val name : t -> string
(** ["sim"] / ["native"]. *)

val of_string : string -> t
(** Inverse of {!name}; raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit

val cache_line_words : int
(** Padding granularity of {!make_contended} cells, in words (16 =
    128 bytes: one cache line plus its prefetch partner, matching
    OCaml 5.2's [Atomic.make_contended]). *)

(** First-class backend view, for code that abstracts over a backend
    wholesale (benchmarks, equivalence tests). *)
module type PRIMS = sig
  type cell = int Atomic.t

  val name : string
  val make : int -> cell

  val make_contended : int -> cell
  (** A cell padded to its own cache-line pair (Native); plain
      {!make} under [Sim], where there is no cache to contend for. *)

  val read : cell -> int
  val write : cell -> int -> unit
  val cas : cell -> old:int -> nw:int -> bool
  val faa : cell -> int -> int
  val swap : cell -> int -> int
end

module Sim_prims : PRIMS
module Native_prims : PRIMS

val prims : t -> (module PRIMS)

(** {1 Direct dispatch}

    Branch-dispatched word operations used on hot paths. The [Sim] arm
    crosses a scheduling point; the [Native] arm never consults
    {!Schedpoint}. *)

val make : t -> int -> int Atomic.t
val make_contended : t -> int -> int Atomic.t
val read : t -> int Atomic.t -> int
val write : t -> int Atomic.t -> int -> unit
val cas : t -> int Atomic.t -> old:int -> nw:int -> bool
val faa : t -> int Atomic.t -> int -> int
val swap : t -> int Atomic.t -> int -> int
