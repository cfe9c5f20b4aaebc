(* Contention family: E2 (bounded de-reference steps under an
   adversarial updater). *)

module Mm = Mm_intf
module Value = Shmem.Value
open Exp_support

(* ------------------------------------------------------------------ *)
(* E2: bounded de-reference steps under an adversarial updater.       *)
(* ------------------------------------------------------------------ *)

(* One victim de-reference racing [budget] link flips by an adversary,
   under a biased deterministic schedule. Returns the maximum number
   of scheduler steps the victim needed over [seeds] schedules. *)
let e2_one ~spine ~scheme ~budget ~seeds ~seed =
  let victim_max = ref 0 in
  for s = 0 to seeds - 1 do
    let cfg =
      Mm.config ~threads:2 ~capacity:64 ~num_links:1 ~num_data:1
        ~num_roots:1 ()
    in
    let mm = Registry.instantiate scheme cfg in
    let arena = Mm.arena mm in
    let root = Shmem.Arena.root_addr arena 0 in
    let a = Mm.alloc mm ~tid:0 in
    Mm.store_link mm ~tid:0 root a;
    Mm.release mm ~tid:0 a;
    let body tid =
      if tid = 0 then begin
        let p = Mm.deref mm ~tid root in
        if not (Value.is_null p) then Mm.release mm ~tid p
      end
      else
        for _ = 1 to budget do
          let b = Mm.alloc mm ~tid in
          let rec flip () =
            let old = Mm.deref mm ~tid root in
            let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
            if not (Value.is_null old) then Mm.release mm ~tid old;
            if not ok then flip ()
          in
          flip ();
          Mm.release mm ~tid b
        done
    in
    let policy = Sched.Policy.biased ~seed:(seed + s) ~victim:0 ~weight:6 in
    let outcome =
      Spine.wrap spine mm (fun () -> Sched.Engine.run ~threads:2 ~policy body)
    in
    if outcome.steps.(0) > !victim_max then victim_max := outcome.steps.(0)
  done;
  !victim_max

let e2 ?(schemes = [ "wfrc"; "lfrc"; "lockrc" ]) ?(budgets = [ 0; 4; 16; 64 ])
    ?(seeds = 25) ?(seed = 7_000) () =
  let spine = Spine.create () in
  let rows =
    List.map
      (fun budget ->
        Report.Int budget
        :: List.map
             (fun scheme ->
               Report.Int (e2_one ~spine ~scheme ~budget ~seeds ~seed))
             schemes)
      budgets
  in
  Report.make ~id:"E2"
    ~title:
      "max victim steps for one DeRefLink vs adversary link-flip budget \
       (deterministic scheduler)"
    ~cols:(Report.cols_of_sweep ~dim:"flips" ~unit_:"steps" schemes)
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:[ ("seeds", string_of_int seeds) ]
         ())
    ~notes:
      [
        "wfrc: bounded regardless of budget (Lemma 6 wait-freedom)";
        "lfrc: retries grow with adversary budget (Valois unbounded \
         retry, paper §3)";
        "lockrc: victim spins while the preempted adversary holds the \
         lock";
      ]
    rows

let specs =
  [
    Exp.spec ~id:"e2"
      ~descr:"bounded DeRefLink steps vs adversary budget (Lemmas 6-10)"
      (fun { Exp.quick } ->
        if quick then e2 ~budgets:[ 0; 4; 16 ] ~seeds:8 () else e2 ());
  ]
