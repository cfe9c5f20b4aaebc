(** Deterministic cooperative scheduler over OCaml effects.

    Runs [threads] fibers on one domain; each fiber is advanced one
    atomic primitive at a time (via the {!Atomics.Schedpoint} hook),
    with a {!Policy} choosing who steps next. This reproduces, exactly
    and reproducibly, the interleavings the paper's proofs quantify
    over, and counts each thread's steps — the unit of the paper's
    wait-freedom bounds. *)

exception Fiber_failed of int * exn
(** A fiber raised: carries its tid and the original exception. *)

exception Out_of_steps
(** The run exceeded [max_steps] with fibers still runnable. *)

type outcome = {
  steps : int array;       (** scheduling steps granted to each tid *)
  total_steps : int;
      (** all clock ticks, including idle ticks spent while every live
          fiber was stalled by a fault plan *)
  schedule : int array;    (** the tid chosen at each step, replayable;
                               idle ticks are not recorded *)
}

val run :
  ?max_steps:int ->
  ?faults:Fault.plan ->
  threads:int ->
  policy:Policy.t ->
  (int -> unit) ->
  outcome
(** [run ~threads ~policy body] executes [body 0 .. body (threads-1)]
    as fibers under [policy]. Runs until every fiber that [faults]
    does not crash has completed. Raises {!Fiber_failed} if any
    scheduled fiber raised. Not reentrant.

    [faults] (default: none) is interpreted by the engine: a crashed
    fiber is marked dead at its crash step without being unwound (its
    shared-memory footprint stays in place) and abandoned
    mid-operation — the crashed-process model of the fault-tolerance
    experiments; a stalled fiber is withheld from the policy during
    its window, with the step clock ticking idly if every live fiber
    is stalled at once. *)

val current_tid : unit -> int
(** The tid of the fiber currently executing (valid inside a run). *)

val now : unit -> int
(** The current global step number (valid inside a run); used as the
    logical clock for history recording. *)

val steps_of : int -> int
(** Scheduling steps granted to one tid so far in the current (or most
    recent) run — the unit of the paper's per-thread wait-freedom
    bounds, as sampled mid-run by {!Harness.Audit.Steps}. *)

val active : unit -> bool
(** Whether a run is in progress. *)
