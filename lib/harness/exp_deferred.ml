(* E17: the deferred-rc payoff — shared-counter FAA traffic on a
   read-heavy workload, eager wfrc vs wfrc_deferred (DESIGN.md §6.3).

   A reader's steady state under deferral is buffer-local: release
   parks the decrement (no FAA), and the next deref of the same node
   cancels it out of the buffer (no FAA on either side). Eager wfrc
   pays two shared FAAs per read. The experiment counts every
   instrumented arena FAA through the reclamation oracle's access
   tally — measured at the atomics layer, so a scheme cannot
   under-report its own traffic — while the oracle simultaneously
   checks the runs for use-after-free/double-free: the FAAs saved must
   not come at the cost of reclamation safety.

   [faa_traffic] is the measurement core of the deferred-rc gate, a
   tier-1 test (test/t_experiments.ml) that requires the
   eager/deferred FAA ratio at the most read-heavy mix to stay
   >= 5x. *)

module Mm = Mm_intf
module Rng = Sched.Rng
module Value = Shmem.Value
module C = Atomics.Counters
open Exp_support

(* One seeded Sim run: [reads_pct]% of operations deref+release the
   root, the rest churn it. Returns the arena FAA count plus the
   scheme's own defer/flush tallies. *)
let run_one ?spine ~scheme ~threads ~capacity ~reads_pct ~ops ~seed () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let faa = C.create ~threads () in
  let mm = Registry.instantiate scheme cfg in
  let wrap f =
    match spine with Some s -> Spine.wrap s mm f | None -> f ()
  in
  wrap @@ fun () ->
  Analysis.Reclaim.with_oracle @@ fun () ->
  let body, check =
    Analysis.Reclaim.instrument ~counters:faa ~expect_all_free:true
      ~reserved:1 ~threads
      (fun () ->
        ( Mm.arena mm,
          fun () ->
            let root = Shmem.Arena.root_addr (Mm.arena mm) 0 in
            let a = Mm.alloc mm ~tid:0 in
            Mm.store_link mm ~tid:0 root a;
            Mm.release mm ~tid:0 a;
            let rngs =
              Array.init threads (fun t -> Rng.create (seed + (31 * t)))
            in
            let body tid =
              let rng = rngs.(tid) in
              for _ = 1 to ops do
                Mm.enter_op mm ~tid;
                if Rng.int rng 100 < reads_pct then begin
                  let p = Mm.deref mm ~tid root in
                  if not (Value.is_null p) then Mm.release mm ~tid p
                end
                else begin
                  match Mm.alloc mm ~tid with
                  | b ->
                      let old = Mm.deref mm ~tid root in
                      let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
                      if not (Value.is_null old) then begin
                        Mm.release mm ~tid old;
                        if ok then Mm.terminate mm ~tid old
                      end;
                      Mm.release mm ~tid b
                  | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> ()
                end;
                Mm.exit_op mm ~tid
              done
            in
            (* quiescence drain inside the oracle bracket, so the
               buffered frees are observed before the all-free check *)
            (body, fun () -> ignore (Mm.free_count mm)) ))
      ()
  in
  ignore
    (Sched.Engine.run ~max_steps:5_000_000 ~threads
       ~policy:(Sched.Policy.random ~seed:(seed + 7)) body);
  check ();
  let ctr = Mm.counters mm in
  ( C.total faa Faa,
    C.total ctr Atomics.Counters.Rc_defer,
    C.total ctr Atomics.Counters.Rc_flush )

(* The gate's measurement: total arena FAAs for (wfrc, wfrc_deferred)
   at one read percentage, summed over [seeds] seeded runs. *)
let faa_traffic ?(threads = 3) ?(capacity = 32) ?(reads_pct = 99)
    ?(ops = 160) ?(seeds = 3) ?(seed = 53_000) () =
  let total scheme =
    let acc = ref 0 in
    for s = 0 to seeds - 1 do
      let f, _, _ =
        run_one ~scheme ~threads ~capacity ~reads_pct ~ops
          ~seed:(seed + (101 * s)) ()
      in
      acc := !acc + f
    done;
    !acc
  in
  (total "wfrc", total "wfrc_deferred")

let e17 ?(schemes = [ "wfrc"; "wfrc_deferred" ])
    ?(reads_list = [ 50; 90; 99 ]) ?(threads = 3) ?(capacity = 32)
    ?(ops = 160) ?(seeds = 3) ?(seed = 53_000) () =
  let spine = Spine.create () in
  let rows =
    List.concat_map
      (fun reads_pct ->
        List.map
          (fun scheme ->
            let faas = ref 0 and defers = ref 0 and flushes = ref 0 in
            for s = 0 to seeds - 1 do
              let f, d, fl =
                run_one ~spine ~scheme ~threads ~capacity ~reads_pct ~ops
                  ~seed:(seed + (101 * s)) ()
              in
              faas := !faas + f;
              defers := !defers + d;
              flushes := !flushes + fl
            done;
            [
              Report.Int reads_pct;
              Report.Str scheme;
              Report.Int !faas;
              Report.Int !defers;
              Report.Int !flushes;
            ])
          schemes)
      reads_list
  in
  Report.make ~id:"E17"
    ~title:
      (Printf.sprintf
         "read-heavy rc traffic: arena FAAs under deferred decrement \
          buffers (%d threads, %d ops/thread, %d seeds)"
         threads ops seeds)
    ~cols:
      [
        Report.dim "reads%";
        Report.dim "scheme";
        Report.measure ~unit_:"faa" "arena FAAs";
        Report.measure "defer hits";
        Report.measure "flushes";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:
           [
             ("threads", string_of_int threads);
             ("capacity", string_of_int capacity);
             ("ops", string_of_int ops);
             ("seeds", string_of_int seeds);
           ]
         ())
    ~notes:
      [
        "FAAs are counted at the atomics layer by the reclamation \
         oracle's access tally; every run is simultaneously checked \
         for use-after-free/double-free and drains to all-free";
        "the deferred reader's steady state is buffer-local: release \
         parks the decrement, the next deref cancels it — a tier-1 \
         test holds the eager/deferred FAA ratio at the read-heaviest \
         mix to >= 5x";
      ]
    rows

let specs =
  [
    Exp.spec ~id:"e17"
      ~descr:"read-heavy FAA traffic: eager vs deferred rc buffers (§6.3)"
      (fun { Exp.quick } ->
        if quick then e17 ~reads_list:[ 90 ] ~ops:60 ~seeds:2 ()
        else e17 ());
  ]
