(* The ablation family: A1 (deref step bound vs N) and A3 (allocation
   helping on/off). *)

module Mm = Mm_intf
module Value = Shmem.Value
open Exp_support

(* ------------------------------------------------------------------ *)
(* Ablations.                                                         *)
(* ------------------------------------------------------------------ *)

(* E-A1: deref step bound vs thread count (the D1 slot scan and the
   helping scan are both O(N); the bound must grow linearly, not
   explode). *)
let a1 ?(threads_list = [ 2; 4; 8; 16 ]) ?(seeds = 15) ?(seed = 29_000) () =
  let spine = Spine.create () in
  let rows =
    List.map
      (fun threads ->
        let worst = ref 0 in
        for s = 0 to seeds - 1 do
          let cfg =
            Mm.config ~threads ~capacity:(4 * threads) ~num_links:1
              ~num_data:1 ~num_roots:1 ()
          in
          let mm = Registry.instantiate "wfrc" cfg in
          Spine.wrap spine mm @@ fun () ->
          let arena = Mm.arena mm in
          let root = Shmem.Arena.root_addr arena 0 in
          let a = Mm.alloc mm ~tid:0 in
          Mm.store_link mm ~tid:0 root a;
          Mm.release mm ~tid:0 a;
          let body tid =
            if tid = threads - 1 then begin
              (* one updater creates helping traffic *)
              for _ = 1 to 2 do
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
            end
            else begin
              let p = Mm.deref mm ~tid root in
              if not (Value.is_null p) then Mm.release mm ~tid p
            end
          in
          let policy = Sched.Policy.random ~seed:(seed + s) in
          let outcome = Sched.Engine.run ~threads ~policy body in
          for tid = 0 to threads - 2 do
            if outcome.steps.(tid) > !worst then worst := outcome.steps.(tid)
          done
        done;
        [ Report.Int threads; Report.Int !worst ])
      threads_list
  in
  Report.make ~id:"E-A1"
    ~title:"WFRC deref step bound vs thread count (announcement scans)"
    ~cols:
      [ Report.dim "threads"; Report.measure ~unit_:"steps" "max reader steps" ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~params:[ ("seeds", string_of_int seeds) ] ())
    ~notes:
      [ "the wait-free bound is O(N) in the thread count, by design (D1/H1)" ]
    rows

let a3 ?(threads_list = [ 2; 4; 8 ]) ?(ops = 40_000) ?(capacity = 4096)
    ?(seed = 37_000) () =
  let spine = Spine.create () in
  let rows = ref [] in
  List.iter
    (fun threads ->
      List.iter
        (fun (label, help_alloc) ->
          let cfg =
            list_layout ~backend:Atomics.Backend.Native ~threads ~capacity
          in
          let gc = Wfrc.Gc.create ~help_alloc cfg in
          let ctr = Wfrc.Gc.counters gc in
          let result =
            Spine.bracket spine ctr (fun () ->
                churn ~alloc:(Wfrc.Gc.alloc gc) ~release:(Wfrc.Gc.release gc)
                  ~threads ~ops ~max_burst:8 ~seed)
          in
          let total = Atomics.Counters.total ctr in
          let allocs = total Alloc in
          let per1k ev =
            if allocs = 0 then 0.0
            else 1000.0 *. float_of_int (total ev) /. float_of_int allocs
          in
          rows :=
            [
              Report.Int threads;
              Report.Str label;
              Report.Ops (Runner.throughput ~ops:allocs result);
              Report.Float (per1k Alloc_retry);
              Report.Float (per1k Free_retry);
              Report.Int (total Alloc_helped);
            ]
            :: !rows)
        [ ("help-on(wait-free)", true); ("help-off(lock-free)", false) ])
    threads_list;
  Report.make ~id:"E-A3"
    ~title:
      "allocation-helping ablation (A11-A15 + own-cell hand-off on vs off)"
    ~cols:
      [
        Report.dim "threads";
        Report.dim "variant";
        Report.measure ~unit_:"ops/s" "allocs/s";
        Report.measure ~unit_:"per_1k_allocs" "aretry/1k";
        Report.measure ~unit_:"per_1k_allocs" "fretry/1k";
        Report.measure "helped";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~backend:Atomics.Backend.Native
         ~params:
           [ ("ops", string_of_int ops); ("capacity", string_of_int capacity) ]
         ())
    ~notes:
      [
        "with helping off, AllocNode can starve (lock-free only); \
         average throughput is similar — the paper's point that \
         wait-freedom costs little on average";
      ]
    (List.rev !rows)

let specs =
  [
    Exp.spec ~id:"a1" ~descr:"ablation: deref step bound vs thread count"
      (fun { Exp.quick } ->
        if quick then a1 ~threads_list:[ 2; 4 ] ~seeds:5 () else a1 ());
    Exp.spec ~id:"a3" ~descr:"ablation: allocation helping on/off (A11-A15)"
      (fun { Exp.quick } ->
        if quick then a3 ~threads_list:[ 2 ] ~ops:8_000 ~capacity:1024 ()
        else a3 ());
  ]
