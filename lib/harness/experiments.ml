(* The experiment suite, aggregated from the family modules. Each
   family exports an [Exp.spec list]; this module derives the
   registry, the id list and the by-id runner, and re-exports the
   individual entry points for direct (test) use. Every experiment
   returns a typed {!Report.t}; all randomness flows from explicit
   seeds. *)

let all : Exp.spec list =
  Exp.sort
    (Exp_throughput.specs @ Exp_contention.specs @ Exp_steps.specs
   @ Exp_lincheck.specs @ Exp_ratio.specs @ Exp_fault.specs
   @ Exp_shard.specs @ Exp_native.specs @ Exp_actor.specs)

let ids = Exp.ids all
let specs = all
let run ?quick id = Exp.run all ?quick id

(* Direct entry points (full-size defaults), family by family. *)
let e1 = Exp_throughput.e1
let e2 = Exp_contention.e2
let e4 = Exp_steps.e4
let e7 = Exp_lincheck.e7
let e8 = Exp_lincheck.e8
let e9 = Exp_throughput.e9
let e12 = Exp_fault.e12
let e13 = Exp_fault.e13
let e14 = Exp_shard.e14
let e15 = Exp_native.e15
let scaling_verdict = Exp_native.scaling_verdict
let e16 = Exp_fault.e16
let e18 = Exp_actor.e18
let a1 = Exp_ratio.a1
let a3 = Exp_ratio.a3
