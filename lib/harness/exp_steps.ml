(* Step family: E4 (helping-rate accounting for the wait-free
   scheme). *)

module Mm = Mm_intf
module Rng = Sched.Rng
module Value = Shmem.Value
open Exp_support

(* ------------------------------------------------------------------ *)
(* E4: helping-rate accounting for the wait-free scheme.              *)
(* ------------------------------------------------------------------ *)

let e4 ?(threads_list = [ 2; 4; 8 ]) ?(ops = 24) ?(runs = 80)
    ?(seed = 13_000) () =
  (* Native time slicing almost never preempts inside the tiny D1–D6
     window, so helping would look inert; the deterministic scheduler
     interleaves at primitive granularity, where helping actually
     fires — the regime the paper's proofs quantify over. *)
  let spine = Spine.create () in
  let rows =
    List.map
      (fun threads ->
        let row_spine = Spine.create () in
        for r = 0 to runs - 1 do
          let cfg =
            Mm.config ~threads ~capacity:(8 * threads) ~num_links:1
              ~num_data:1 ~num_roots:2 ()
          in
          let mm = Registry.instantiate "wfrc" cfg in
          (* The bracket opens before the root setup: the historical
             accounting included those allocations in the totals. *)
          Spine.wrap row_spine mm @@ fun () ->
          let arena = Mm.arena mm in
          let roots =
            Array.init 2 (fun i -> Shmem.Arena.root_addr arena i)
          in
          Array.iter
            (fun root ->
              let a = Mm.alloc mm ~tid:0 in
              Mm.store_link mm ~tid:0 root a;
              Mm.release mm ~tid:0 a)
            roots;
          let body tid =
            let rng = Rng.create (seed + (r * 131) + tid) in
            for _ = 1 to ops do
              let root = roots.(Rng.int rng 2) in
              if Rng.int rng 100 < 60 then begin
                let p = Mm.deref mm ~tid root in
                if not (Value.is_null p) then Mm.release mm ~tid p
              end
              else begin
                match Mm.alloc mm ~tid with
                | b ->
                    let old = Mm.deref mm ~tid root in
                    ignore (Mm.cas_link mm ~tid root ~old ~nw:b);
                    if not (Value.is_null old) then Mm.release mm ~tid old;
                    Mm.release mm ~tid b
                | exception Mm.Out_of_nodes _ -> ()
              end
            done
          in
          let policy = Sched.Policy.random ~seed:(seed + r) in
          ignore (Sched.Engine.run ~threads ~policy body)
        done;
        let tot ev = Spine.total row_spine ev in
        Spine.merge_into spine row_spine;
        let derefs = tot Deref in
        let pct a b =
          if b = 0 then Report.Str "0.0%"
          else Report.Pct (100.0 *. float_of_int a /. float_of_int b)
        in
        [
          Report.Int threads;
          Report.Int derefs;
          pct (tot Deref_helped) derefs;
          Report.Int (tot Help_answered);
          Report.Int (tot Help_refused);
          pct (tot Alloc_helped) (tot Alloc);
          pct (tot Free_gave_help) (tot Free);
        ])
      threads_list
  in
  Report.make ~id:"E4"
    ~title:
      "WFRC helping-mechanism accounting (60% deref / 40% update mix, \
       deterministic scheduler)"
    ~cols:
      [
        Report.dim "threads";
        Report.measure "derefs";
        Report.measure ~unit_:"pct" "deref-helped";
        Report.measure "answers";
        Report.measure "refused";
        Report.measure ~unit_:"pct" "alloc-helped";
        Report.measure ~unit_:"pct" "free-donated";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:
           [ ("ops", string_of_int ops); ("runs", string_of_int runs) ]
         ())
    ~notes:
      [
        "helping is the price of wait-freedom: rates grow with \
         contention but each op stays bounded";
      ]
    rows

let specs =
  [
    Exp.spec ~id:"e4" ~descr:"WFRC helping-rate accounting (§3)"
      (fun { Exp.quick } ->
        if quick then e4 ~threads_list:[ 2; 4 ] ~ops:12 ~runs:25 ()
        else e4 ());
  ]
