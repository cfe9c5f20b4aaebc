(** Scheduling policies for the deterministic engine.

    Every built-in policy raises a descriptive [Invalid_argument] if
    consulted with an empty runnable list (a driver bug by
    definition). *)

type t

val name : t -> string
val next : t -> runnable:int list -> step:int -> int

val make : name:string -> (runnable:int list -> step:int -> int) -> t

val round_robin : unit -> t
(** Fair rotation over runnable threads. *)

val random : seed:int -> t
(** Uniform choice among runnable threads, reproducible from [seed]. *)

val replay : int array -> t
(** Follow a recorded schedule (e.g. a counterexample from
    {!Explore}), falling back to the lowest runnable id when the
    recording runs out. *)

val others_first : victim:int -> t
(** Run the victim only when nothing else is runnable — maximal
    starvation of one thread. Deterministic: always the lowest
    non-victim tid, and the victim itself exactly when it alone is
    runnable. *)

val biased : seed:int -> victim:int -> weight:int -> t
(** Run the victim with probability [1/(weight+1)] when others are
    runnable: interleaves victim steps with adversary steps, the
    schedule shape that forces lock-free retry loops (experiment E2). *)
