(* Pluggable shared-memory backends.

   The backend decides both what one word operation *costs* and where
   the shared words live:

   - [Sim] keeps every word in an [int Atomic.t] cell and routes every
     primitive through {!Primitives}, i.e. across one {!Schedpoint}
     scheduling point. This is what the deterministic scheduler
     ([Sched.Engine]), the schedule explorer and the lincheck sweeps
     require: one scheduling decision per atomic primitive, the
     granularity at which the paper's interleavings are defined.

   - [Native] keeps the arena, the managers' hot globals and the
     announcement pool on raw out-of-heap {!Words} blocks, where each
     access is one C stub crossing and one [__atomic] instruction —
     no box per cell, no hook dispatch.

   The cell operations below serve the [Sim] stores and the padded
   [int Atomic.t] cells some managers keep for their own bookkeeping
   under either backend (hazard slots, epochs, locks): a predictable
   two-way branch on the backend value. The [PRIMS]
   first-class-module view is provided for code that wants to
   abstract over a backend wholesale (benchmarks, tests). Native pads
   designated hot cells to a cache-line pair ([make_contended]) so
   FAA-heavy words do not false-share.

   [make_contended]: OCaml 5.2 gained [Atomic.make_contended]; this
   tree builds on 5.1, so we reproduce it with [Obj]: an atomic cell is
   a one-field mutable block whose payload lives in field 0, and the
   atomic primitives only ever touch field 0, so a *larger* block with
   the payload in field 0 is observationally identical while forcing
   the allocator to give the cell a cache-line pair of its own. The
   spare fields hold immediate ints, so the GC scans them trivially. *)

type t = Sim | Native

let name = function Sim -> "sim" | Native -> "native"

let of_string = function
  | "sim" -> Sim
  | "native" -> Native
  | s -> invalid_arg (Printf.sprintf "Backend.of_string: %S" s)

let pp ppf b = Fmt.string ppf (name b)

(* 16 words = 128 bytes: a 64-byte line plus its prefetch partner,
   matching what [Atomic.make_contended] pads to on OCaml 5.2+. *)
let cache_line_words = 16

let make_padded (v : int) : int Atomic.t =
  let b = Obj.new_block 0 cache_line_words in
  Obj.set_field b 0 (Obj.repr v);
  (Obj.obj b : int Atomic.t)

(* The backend signature: Figure 2's word operations plus the two cell
   constructors (plain and contention-padded). *)
module type PRIMS = sig
  type cell = int Atomic.t

  val name : string

  val make : int -> cell

  val make_contended : int -> cell
  (** A cell padded to its own cache-line pair (Native); under [Sim]
      there is no cache to contend for and this is plain {!make}. *)

  val read : cell -> int
  val write : cell -> int -> unit
  val cas : cell -> old:int -> nw:int -> bool
  val faa : cell -> int -> int
  val swap : cell -> int -> int
end

module Sim_prims : PRIMS = struct
  type cell = int Atomic.t

  let name = "sim"
  let make = Primitives.make
  let make_contended = Primitives.make
  let read = Primitives.read
  let write = Primitives.write
  let cas = Primitives.cas
  let faa = Primitives.faa
  let swap = Primitives.swap
end

module Native_prims : PRIMS = struct
  type cell = int Atomic.t

  let name = "native"
  let make = Atomic.make
  let make_contended = make_padded
  let[@inline] read c = Atomic.get c
  let[@inline] write c v = Atomic.set c v
  let[@inline] cas c ~old ~nw = Atomic.compare_and_set c old nw
  let[@inline] faa c delta = Atomic.fetch_and_add c delta
  let[@inline] swap c v = Atomic.exchange c v
end

let prims : t -> (module PRIMS) = function
  | Sim -> (module Sim_prims)
  | Native -> (module Native_prims)

(* Direct dispatch used on hot paths: a two-way branch the compiler can
   inline, instead of a call through a first-class module. The [Sim]
   arm crosses the scheduling point; the [Native] arm never consults
   {!Schedpoint} at all. *)

let[@inline] make b v =
  match b with Sim -> Primitives.make v | Native -> Atomic.make v

let[@inline] make_contended b v =
  match b with Sim -> Primitives.make v | Native -> make_padded v

let[@inline] read b c =
  match b with Sim -> Primitives.read c | Native -> Atomic.get c

let[@inline] write b c v =
  match b with Sim -> Primitives.write c v | Native -> Atomic.set c v

let[@inline] cas b c ~old ~nw =
  match b with
  | Sim -> Primitives.cas c ~old ~nw
  | Native -> Atomic.compare_and_set c old nw

let[@inline] faa b c delta =
  match b with
  | Sim -> Primitives.faa c delta
  | Native -> Atomic.fetch_and_add c delta

let[@inline] swap b c v =
  match b with Sim -> Primitives.swap c v | Native -> Atomic.exchange c v
