(** Per-thread event counters for the memory managers and experiments.

    Each thread increments only its own padded row, so increments are
    plain stores with no cross-thread contention; totals are intended
    to be read after the worker threads have joined. *)

type event =
  | Cas_attempt      (** every CAS issued by an algorithm *)
  | Cas_failure      (** CAS that returned [false] *)
  | Faa
  | Swap
  | Read
  | Write
  | Deref            (** completed [DeRefLink]-style operations *)
  | Deref_retry      (** re-read loops in lock-free deref (Valois/HP) *)
  | Deref_helped     (** WFRC derefs whose answer came from a helper *)
  | Help_scan        (** [HelpDeRef] announcement rows inspected *)
  | Help_answered    (** successful H6 answer CASes *)
  | Help_refused     (** H6 CAS failed; answer discarded *)
  | Alloc            (** completed allocations *)
  | Alloc_retry      (** A3 loop iterations beyond the first *)
  | Alloc_helped     (** allocations satisfied via [annAlloc] (A4) *)
  | Alloc_gave_help  (** nodes donated to another thread (A12) *)
  | Free             (** completed frees *)
  | Free_retry       (** F7 loop iterations beyond the first *)
  | Free_gave_help   (** frees parked in the freer's own annAlloc cell *)
  | Release          (** completed [ReleaseRef]-style operations *)
  | Node_reclaimed   (** nodes actually returned to a free-list *)
  | Hp_scan          (** hazard-pointer scan passes *)
  | Epoch_advance    (** successful global-epoch advances *)
  | Lock_acquire     (** mutex acquisitions in the lock-based scheme *)
  | Cache_refill     (** domain-local allocation-cache refills (sharded) *)
  | Cache_spill      (** cache overflow spills back to a stripe *)
  | Free_remote      (** frees routed through a remote stripe's buffer *)
  | Steal            (** refill probes of a non-home stripe *)
  | Park_wait        (** threads that parked (futex/condvar wait) *)
  | Park_wake        (** wakes delivered to at least one parked thread *)
  | Recovery_adopt   (** nodes adopted from a dead thread's custody *)
  | Recovery_release (** surplus references released on a dead thread's
                         behalf during recovery *)
  | Oom_backpressure (** allocations that gave up with [Out_of_nodes]
                         after bounded waiting + a recovery attempt *)
  | Rc_defer         (** rc mutations absorbed by a per-domain buffer
                         (a buffered decrement, or a deref whose
                         increment cancelled a buffered decrement) *)
  | Rc_flush         (** per-domain rc-buffer flushes (any trigger:
                         buffer-full, quiescence, [declare_dead],
                         recovery, or the allocator's OOM path) *)

val all_events : event list
val event_name : event -> string
val num_events : int

type t

val create : ?backend:Backend.t -> threads:int -> unit -> t
(** [create ~threads] makes a counter block with one row per thread id
    in [0..threads-1]. The backend (default [Sim]) selects the row
    padding stride: [Native] rows are padded to 256-byte multiples to
    defeat the adjacent-line prefetcher under real parallelism. *)

val incr : t -> tid:int -> event -> unit
val add : t -> tid:int -> event -> int -> unit
val get : t -> tid:int -> event -> int
val total : t -> event -> int
val reset : t -> unit
val threads : t -> int

val snapshot : t -> (event * int) list
(** Non-zero totals, in declaration order. *)

val pp : Format.formatter -> t -> unit
