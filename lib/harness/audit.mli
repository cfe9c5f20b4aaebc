(** Post-run invariant auditor over any {!Mm_intf.S} instance.

    Partitions every node of a quiescent instance into
    free / reachable-from-roots / pending under a live thread /
    held by a crashed thread / leaked, checks refcount conservation
    and use-after-free on the way, and compares the crash-held count
    against the paper's Theorem-1-style per-crash envelope. Built for
    the fault-injection experiments (E12/E13): it needs no cooperation
    from crashed threads — attribution works from the scheme's custody
    records and, for RC schemes, from reference surpluses alone.

    See DESIGN.md §7 for the fault model and the exact invariants. *)

type report = {
  scheme : string;
  capacity : int;
  threads : int;
  crashed : int list;       (** sorted tids the caller declared crashed *)
  free : int;               (** allocatable now *)
  reachable : int;          (** reachable from the arena's root links *)
  pending_live : int;
      (** parked under a surviving thread (retired list, limbo bag);
          reclaimable by that thread later *)
  crash_held : int;
      (** stranded by a crashed thread: its custody entries, its
          published pins, its surplus references, and everything those
          nodes link to *)
  leaked : int;             (** none of the above — an audit failure *)
  lost : int;               (** [capacity - free - reachable] *)
  loss_bound : int;
      (** envelope [crash_held] is judged against; 0 with no crashes *)
  recovered : int;
      (** nodes a {!Recovery} pass returned to the free store; always
          0 from {!run} itself — patched in by [Recovery.run] as the
          free-count delta across the recovery pass *)
  violations : string list; (** conservation/UAF/custody violations *)
}

val run :
  ?crashed:int list -> ?loss_bound:int -> Mm_intf.instance -> report
(** Audit a quiescent instance. [crashed] (default none) declares
    which tids were crashed by the fault plan; [loss_bound] overrides
    the default envelope of [|crashed| * N * (N+1)] nodes. Never
    raises on damaged instances — damage lands in [violations]. *)

val ok : report -> bool
(** No violations, nothing leaked, crash-held within the bound. *)

val envelope :
  scheme:string -> threads:int -> crashes:int -> unit -> int option
(** Tighter per-scheme crash-loss envelopes, calibrated on the seeded
    E12 grid and pinned as regressions in test/t_fault.ml — e.g. wfrc
    strands at most [2N-1] nodes per crash there, far under the
    default Theorem-1 envelope. [None] when the scheme's loss is unbounded by design (ebr).
    Opt-in: pass as [run]'s [loss_bound]. *)

val check : report -> unit
(** Raise [Failure] with the rendered report unless [ok]. *)

val to_string : report -> string
(** Deterministic one-line rendering; two runs of the same schedule
    must produce identical strings (used by the replay tests). *)

(** Per-operation step recorder: empirical wait-freedom bounds.

    Wrap each client operation in {!Steps.around} while running under
    {!Sched.Engine}; afterwards {!Steps.max_own_steps} gives the
    maximum number of {e own} scheduling steps any one operation took,
    optionally restricted to operations overlapping a global-step
    window (e.g. a stall storm). *)
module Steps : sig
  type t

  val create : threads:int -> t

  val around : t -> tid:int -> (unit -> 'a) -> 'a
  (** Record one operation (also on exception). Must run inside an
      engine run on the fiber [tid]. *)

  val ops : t -> tid:int -> (int * int * int) list
  (** Chronological [(global_start, global_stop, own_steps)]. *)

  val max_own_steps : ?window:int * int -> t -> tids:int list -> int
  (** Max own-step cost over the recorded operations of [tids],
      restricted to operations overlapping [window] if given. 0 if
      nothing matches. *)
end
