(** The git revision that stamps benchmark results. The module keeps
    the name [Bench] because [benchmark/output.ml] calls
    [Harness.Bench.git_rev]. *)

val git_rev : unit -> string
(** The current checkout's short (7-hex) revision, read straight from
    [.git] (HEAD, loose refs, packed-refs); ["unknown"] when not in a
    git checkout. *)
