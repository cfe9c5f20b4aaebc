(** [wfrc_lint]: a parse-tree protocol checker for the reclamation
    API, run over the source tree in CI. Organised as a registry of
    passes (select with {!run_passes}, or run them all with {!run}).

    Passes and the rules they emit:
    - [protocol] —
      {ul
      {- [unbalanced-deref]: an identifier bound from
         [deref]/[alloc]/[copy_ref] must be discharged on every
         non-exceptional path: released ([release]/[terminate]/
         [make_immortal]), returned, stored, or handed to a
         {e consuming} function. Consumption is interprocedural:
         every function defined in the scanned tree carries a
         computed per-parameter consume/borrow summary (least
         fixpoint over the call graph), so handing a reference to an
         in-tree borrowing helper does {e not} discharge it. The
         accessor-name allowlist survives only as the fallback for
         callees outside the scan. The null-guard idiom
         [if not (is_null w) then ... release w ...] is understood.}
      {- [raw-primitives]: [Primitives], [Freestore] and [Words] may
         only be named inside the layers that own them ([Freestore]
         only in [lib/shmem]: the managers draw from [Shmem.Pool]);
         client code must go through [Mm_intf].}
      {- [parse]: a file that does not parse.}}
    - [counter-coverage] — every constructor of [Counters.event] must
      be constructed somewhere in the scanned tree ([.ml]
      constructors, or whole-word token occurrences in [.c] stubs —
      the park/futex paths may bump counters from C): a counter
      nobody can ever increment is dead telemetry.
    - [stub-ordering] — every [__atomic_*] call site in the scanned
      [.c] files must use memory orders the declared
      {!atomic_ordering_table} admits (today: [SEQ_CST]
      everywhere). Relaxing an ordering means editing the table —
      the contract any future perf work must touch explicitly.
    - [progress] — the static wait-freedom checker ({!Progress}):
      contract violations surface with rule ["progress"].

    The checks are purely syntactic (no typing), so they
    under-approximate: aliasing through data structures is not
    tracked. They are designed to be quiet on correct idiomatic code
    and loud on the protocol mistakes the paper's user model (§3.2)
    forbids. *)

module Progress = Progress
(** The static wait-freedom analyzer, re-exported ([lint] is a
    wrapped library: clients reach it as [Lint.Progress]). *)

type violation = { file : string; line : int; rule : string; msg : string }

val passes : (string * string) list
(** Registered pass names with one-line descriptions. *)

val pass_names : string list

val atomic_ordering_table : (string * string list) list
(** The declared ordering contract for the C stubs: builtin suffix
    (["*"] = default row) to admitted [__ATOMIC_*] tokens. *)

val run_passes :
  passes:string list -> roots:string list -> violation list
(** Run the selected passes over every [.ml]/[.c] file under [roots]
    (files or directories, recursively; [_build] and dot-directories
    are skipped) and return all violations, sorted by file and line.
    @raise Invalid_argument on an unknown pass name. *)

val run : roots:string list -> violation list
(** All registered passes. *)

val to_string : violation -> string
(** ["file:line: [rule] message"] — one line per violation. *)
