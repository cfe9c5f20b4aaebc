(* Fault plans, engine crash/stall semantics, and the post-run
   auditor: the tier-1 face of experiments E12/E13 (DESIGN.md §7). *)

open Helpers
module Policy = Sched.Policy
module Engine = Sched.Engine
module Explore = Sched.Explore
module Fault = Sched.Fault
module Audit = Harness.Audit

(* ---------------- Plans and generators ------------------------------ *)

let plan_tests =
  [
    tc "constructors and validate reject bad arguments" (fun () ->
        fails_with ~substring:"negative tid" (fun () ->
            Fault.crash ~tid:(-1) ~at_step:5);
        fails_with ~substring:"duration" (fun () ->
            Fault.stall ~tid:0 ~from_step:5 ~duration:0);
        fails_with ~substring:"out of range" (fun () ->
            Fault.validate ~threads:2 [ Fault.crash ~tid:2 ~at_step:5 ]);
        fails_with ~substring:"out of range" (fun () ->
            Engine.run ~threads:2
              ~faults:[ Fault.stall ~tid:7 ~from_step:0 ~duration:10 ]
              ~policy:(Policy.round_robin ())
              (fun _ -> ())));
    tc "dead_at / stalled_at / survivors semantics" (fun () ->
        let plan =
          [
            Fault.crash ~tid:1 ~at_step:10;
            Fault.stall ~tid:0 ~from_step:5 ~duration:3;
          ]
        in
        check_bool "alive before" false (Fault.dead_at plan ~step:9 ~tid:1);
        check_bool "dead at" true (Fault.dead_at plan ~step:10 ~tid:1);
        check_bool "dead after" true (Fault.dead_at plan ~step:999 ~tid:1);
        check_bool "not stalled before" false
          (Fault.stalled_at plan ~step:4 ~tid:0);
        check_bool "stalled inside" true
          (Fault.stalled_at plan ~step:7 ~tid:0);
        check_bool "resumed at end" false
          (Fault.stalled_at plan ~step:8 ~tid:0);
        check_bool "crashed tids" true (Fault.crashed_tids plan = [ 1 ]);
        check_bool "stalled threads survive" true
          (Fault.survivors ~threads:3 plan = [ 0; 2 ]));
    tc "generators are deterministic per seed and respect avoid"
      (fun () ->
        let gen seed =
          Fault.random_crashes ~avoid:[ 0 ] ~seed ~threads:6 ~victims:3
            ~window:(10, 50) ()
        in
        check_string "same seed, same plan"
          (Fault.to_string (gen 42))
          (Fault.to_string (gen 42));
        check_bool "different seeds differ" true
          (Fault.to_string (gen 1) <> Fault.to_string (gen 2));
        for seed = 0 to 30 do
          let plan = gen seed in
          Fault.validate ~threads:6 plan;
          let tids = List.map Fault.tid_of plan in
          check_bool "victims distinct" true
            (List.sort_uniq compare tids = List.sort compare tids);
          check_bool "avoid respected" false (List.mem 0 tids);
          List.iter
            (function
              | Fault.Crash { at_step; _ } ->
                  check_bool "within window" true
                    (at_step >= 10 && at_step <= 50)
              | Fault.Stall _ -> Alcotest.fail "crash generator made a stall")
            plan
        done);
  ]

(* ---------------- Engine semantics ---------------------------------- *)

let engine_tests =
  [
    tc "crash removes the fiber at its step without unwinding it"
      (fun () ->
        let survivor_done = ref false in
        let o =
          Engine.run ~threads:2
            ~faults:[ Fault.crash ~tid:0 ~at_step:10 ]
            ~policy:(Policy.round_robin ())
            (fun tid ->
              if tid = 0 then
                (* infinite loop: only a crash can stop it *)
                let c = Atomics.Primitives.make 0 in
                while true do
                  ignore (Atomics.Primitives.faa c 1)
                done
              else begin
                let c = Atomics.Primitives.make 0 in
                for _ = 1 to 20 do
                  ignore (Atomics.Primitives.faa c 1)
                done;
                survivor_done := true
              end)
        in
        check_bool "survivor finished" true !survivor_done;
        check_bool
          (Printf.sprintf "victim stopped by its crash step (%d)" o.steps.(0))
          true
          (o.steps.(0) <= 10);
        check_bool "victim ran at all before the crash" true
          (o.steps.(0) > 0));
    tc "stalled fiber is withheld, idle ticks fill the gap, it resumes"
      (fun () ->
        let done_ = Array.make 2 false in
        let o =
          Engine.run ~threads:2
            ~faults:[ Fault.stall ~tid:1 ~from_step:0 ~duration:40 ]
            ~policy:(Policy.round_robin ())
            (fun tid ->
              let c = Atomics.Primitives.make 0 in
              for _ = 1 to 5 do
                ignore (Atomics.Primitives.faa c 1)
              done;
              done_.(tid) <- true)
        in
        check_bool "both finished" true (Array.for_all Fun.id done_);
        (* thread 0 finishes well before step 40; the engine must then
           tick idly until thread 1 resumes *)
        check_bool "clock passed the stall window" true (o.total_steps >= 40);
        check_int "idle ticks are not recorded in the schedule"
          (o.steps.(0) + o.steps.(1))
          (Array.length o.schedule);
        check_bool "idle ticks happened" true
          (o.total_steps > Array.length o.schedule));
  ]

let replay_trace_test =
  tc "replaying a schedule under the same plan reproduces the trace"
    (fun () ->
      let trace = ref [] in
      let body tid =
        let c = Atomics.Primitives.make 0 in
        for _ = 1 to 8 do
          ignore (Atomics.Primitives.faa c 1);
          trace := tid :: !trace
        done
      in
      let faults =
        [
          Fault.crash ~tid:2 ~at_step:25;
          Fault.stall ~tid:1 ~from_step:5 ~duration:15;
        ]
      in
      let o1 =
        Engine.run ~threads:3 ~faults ~policy:(Policy.random ~seed:7) body
      in
      let t1 = !trace in
      trace := [];
      let o2 =
        Engine.run ~threads:3 ~faults ~policy:(Policy.replay o1.schedule)
          body
      in
      check_bool "same schedule" true (o1.schedule = o2.schedule);
      check_bool "same trace" true (t1 = !trace);
      check_int "same clock" o1.total_steps o2.total_steps)

(* ---------------- WFRC under crash: audit invariants ----------------- *)

(* Mirror of the experiment churn operation: replace the root's node
   with a fresh one, retiring the displaced node. *)
let churn mm ~root ~tid =
  Mm.enter_op mm ~tid;
  (match Mm.alloc mm ~tid with
  | b ->
      let old = Mm.deref mm ~tid root in
      let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
      if not (Value.is_null old) then begin
        Mm.release mm ~tid old;
        if ok then Mm.terminate mm ~tid old
      end;
      if not ok then Mm.terminate mm ~tid b;
      Mm.release mm ~tid b
  | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> ());
  Mm.exit_op mm ~tid

(* One E12-shaped scenario: [threads-1] crashes mid-churn while the
   survivors keep working. Returns the instance, the crash victim and
   a cell recording a node handle the victim held when it died. *)
let crash_scenario ?(scheme = "wfrc") ~threads ~capacity ~ops ~at_step ~policy
    () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = mm_of scheme cfg in
  let root = Arena.root_addr (Mm.arena mm) 0 in
  let victim = threads - 1 in
  let held = ref 0 in
  let faults = [ Fault.crash ~tid:victim ~at_step ] in
  let body tid =
    if tid = victim then begin
      (* grab and hold a private reference, then churn until killed *)
      (match Mm.alloc mm ~tid with
      | p -> held := Value.handle p
      | exception Mm.Out_of_memory -> ());
      while true do
        churn mm ~root ~tid
      done
    end
    else
      for _ = 1 to ops do
        churn mm ~root ~tid
      done
  in
  let outcome =
    Engine.run ~max_steps:200_000 ~threads ~faults ~policy body
  in
  (mm, victim, !held, outcome)

let audit_tests =
  [
    tc "wfrc: a crashed thread's held node is never reclaimed" (fun () ->
        let mm, victim, held, _ =
          crash_scenario ~threads:3 ~capacity:24 ~ops:40 ~at_step:400
            ~policy:(Policy.random ~seed:11) ()
        in
        check_bool "victim recorded its held node" true (held > 0);
        (* the survivors churned long after the crash; the victim's
           private reference must have pinned its node throughout *)
        let c = Mm.custody mm in
        check_bool "held node is not in the free store" false
          c.Mm.free.(held);
        let r = Audit.run ~crashed:[ victim ] mm in
        check_bool
          ("audit accepts the run: " ^ Audit.to_string r)
          true (Audit.ok r);
        check_int "nothing leaked" 0 r.Audit.leaked;
        check_bool "the held node is accounted as crash-held" true
          (r.Audit.crash_held >= 1);
        check_bool "within the paper's loss envelope" true
          (r.Audit.crash_held <= r.Audit.loss_bound));
    tc "wfrc: audit is clean when nobody crashes" (fun () ->
        let cfg =
          Mm.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:1
            ~num_roots:1 ()
        in
        let mm = mm_of "wfrc" cfg in
        let root = Arena.root_addr (Mm.arena mm) 0 in
        ignore
          (Engine.run ~max_steps:100_000 ~threads:2
             ~policy:(Policy.random ~seed:3) (fun tid ->
               for _ = 1 to 30 do
                 churn mm ~root ~tid
               done));
        let r = Audit.run mm in
        check_bool ("clean: " ^ Audit.to_string r) true (Audit.ok r);
        check_int "no crash attribution without a crash" 0
          r.Audit.crash_held;
        check_int "zero loss bound without a crash" 0 r.Audit.loss_bound);
    tc "replayed fault plan reproduces the audit report bit-for-bit"
      (fun () ->
        let scenario policy =
          let mm, victim, _, outcome =
            crash_scenario ~threads:3 ~capacity:24 ~ops:24 ~at_step:250
              ~policy ()
          in
          (Audit.to_string (Audit.run ~crashed:[ victim ] mm), outcome)
        in
        let s1, o1 = scenario (Policy.random ~seed:77) in
        let s2, o2 = scenario (Policy.replay o1.schedule) in
        check_bool "same schedule" true (o1.schedule = o2.schedule);
        check_string "same audit report" s1 s2);
    tc "survivors stay within their own-step bound during a stall storm"
      (fun () ->
        let threads = 3 in
        let cfg =
          Mm.config ~threads ~capacity:24 ~num_links:1 ~num_data:1
            ~num_roots:1 ()
        in
        let mm = mm_of "wfrc" cfg in
        let root = Arena.root_addr (Mm.arena mm) 0 in
        let frozen = threads - 1 in
        let from_step = 60 and duration = 400 in
        let rec_ = Audit.Steps.create ~threads in
        ignore
          (Engine.run ~max_steps:100_000 ~threads
             ~faults:[ Fault.stall ~tid:frozen ~from_step ~duration ]
             ~policy:(Policy.random ~seed:5) (fun tid ->
               for _ = 1 to 12 do
                 Audit.Steps.around rec_ ~tid (fun () ->
                     churn mm ~root ~tid)
               done));
        let movers = [ 0; 1 ] in
        let worst =
          Audit.Steps.max_own_steps
            ~window:(from_step, from_step + duration)
            rec_ ~tids:movers
        in
        check_bool "survivors made progress during the storm" true
          (worst > 0);
        (* wfrc's per-operation work is bounded by a constant for fixed
           N; 200 own steps is far above the measured ceiling (~75 for
           N=4 in E13) but far below any retry-loop blowup *)
        check_bool
          (Printf.sprintf "own-step bound holds (%d)" worst)
          true (worst <= 200);
        (* the stalled thread resumed and finished, so the audit must
           be clean with no crash attribution *)
        let r = Audit.run mm in
        check_bool ("clean: " ^ Audit.to_string r) true (Audit.ok r));
    tc "Explore.random_sweep composes with a fault plan" (fun () ->
        let threads = 2 in
        let mk () =
          let cfg =
            Mm.config ~threads ~capacity:16 ~num_links:1 ~num_data:1
              ~num_roots:1 ()
          in
          let mm = mm_of "wfrc" cfg in
          let root = Arena.root_addr (Mm.arena mm) 0 in
          let body tid =
            if tid = 1 then
              while true do
                churn mm ~root ~tid
              done
            else
              for _ = 1 to 8 do
                churn mm ~root ~tid
              done
          in
          (body, fun () -> Audit.check (Audit.run ~crashed:[ 1 ] mm))
        in
        let r =
          Explore.random_sweep ~max_steps:100_000 ~threads ~runs:12 ~seed:21
            ~faults:[ Fault.crash ~tid:1 ~at_step:90 ]
            mk
        in
        match r.Explore.failure with
        | None -> check_int "all runs audited" 12 r.Explore.schedules_run
        | Some f ->
            Alcotest.failf "audit failed under sweep: %s at [%s]"
              (Printexc.to_string f.Explore.exn)
              (String.concat ";"
                 (List.map string_of_int (Array.to_list f.Explore.schedule))));
  ]

(* ---------------- Per-scheme loss envelopes -------------------------- *)

(* [Audit.envelope] pins the empirically-calibrated per-crash loss for
   each bounded scheme — much tighter than the default Theorem-1
   reading of |crashed| * N * (N+1). These regressions hold the
   observed crash_held under the calibrated envelope across a seeded
   grid; a scheme change that strands more per crash fails here before
   it moves E12. *)
let envelope_tests =
  let check_scheme scheme =
    tc (scheme ^ ": crash loss stays within the calibrated envelope")
      (fun () ->
        let threads = 3 in
        let bound =
          match Audit.envelope ~scheme ~threads ~crashes:1 () with
          | Some b -> b
          | None -> Alcotest.failf "%s: expected a calibrated envelope" scheme
        in
        let audited = ref 0 in
        for seed = 0 to 9 do
          match
            crash_scenario ~scheme ~threads ~capacity:24 ~ops:30
              ~at_step:(60 + (35 * seed))
              ~policy:(Policy.random ~seed:(100 + seed))
              ()
          with
          | mm, victim, _, _ ->
              incr audited;
              let r = Audit.run ~crashed:[ victim ] ~loss_bound:bound mm in
              check_bool
                (Printf.sprintf "seed %d within envelope %d: %s" seed bound
                   (Audit.to_string r))
                true
                (r.Audit.crash_held <= bound && r.Audit.violations = [])
          | exception Engine.Out_of_steps -> ()
          (* lockrc: the victim died holding the lock and the run never
             quiesced; recovery_tests covers that shape *)
        done;
        check_bool "grid produced audited runs" true (!audited > 0))
  in
  List.map check_scheme [ "wfrc"; "lfrc"; "lockrc"; "hp" ]
  @ [
      tc "ebr has no bounded envelope (unbounded by design)" (fun () ->
          check_bool "no envelope for ebr" true
            (Audit.envelope ~scheme:"ebr" ~threads:4 ~crashes:1 () = None));
    ]

(* ---------------- Crash recovery: dead-slot adoption ------------------ *)

module Recovery = Harness.Recovery
module Chaos = Harness.Chaos

let drain = Harness.Exp_support.drain_survivors

let recovery_tests =
  [
    tc "recovery returns >=90% of crash_held, every scheme, audit clean"
      (fun () ->
        List.iter
          (fun scheme ->
            let audited = ref 0 in
            for seed = 0 to 4 do
              match
                crash_scenario ~scheme ~threads:3 ~capacity:24 ~ops:24
                  ~at_step:(50 + (45 * seed))
                  ~policy:(Policy.random ~seed:(200 + seed))
                  ()
              with
              | mm, victim, _, _ ->
                  incr audited;
                  drain mm ~survivors:[ 0; 1 ];
                  let o = Recovery.run ~dead:[ victim ] ~by:0 mm in
                  let label what =
                    Printf.sprintf "%s seed %d %s: %s" scheme seed what
                      (Audit.to_string o.Recovery.post)
                  in
                  check_bool (label "post-audit ok") true
                    (Audit.ok o.Recovery.post);
                  check_int (label "crash_held collapsed") 0
                    o.Recovery.post.Audit.crash_held;
                  check_int (label "nothing leaked") 0
                    o.Recovery.post.Audit.leaked;
                  check_bool (label "recovered >= 90% of crash_held") true
                    (10 * o.Recovery.post.Audit.recovered
                    >= 9 * o.Recovery.pre.Audit.crash_held)
              | exception Engine.Out_of_steps -> ()
            done;
            check_bool (scheme ^ ": grid produced audited runs") true
              (!audited > 0))
          all_schemes);
    tc "Recovery.run rejects an empty dead set and a dead adopter"
      (fun () ->
        let mm = mm_of "wfrc" (small_cfg ()) in
        fails_with ~substring:"empty dead set" (fun () ->
            Recovery.run ~dead:[] ~by:0 mm);
        fails_with ~substring:"adopter is dead" (fun () ->
            Recovery.run ~dead:[ 0; 1 ] ~by:1 mm));
    tc "lockrc: a victim that died holding the lock is recoverable"
      (fun () ->
        (* Survivors spin on the dead thread's lock forever, so the
           E12 bed never quiesces (those runs are skipped there). With
           an idle peer the run does quiesce, and recovery must break
           the lock so the survivor can operate again. *)
        let any_cleared = ref false in
        for seed = 0 to 9 do
          let cfg =
            Mm.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:1
              ~num_roots:1 ()
          in
          let mm = mm_of "lockrc" cfg in
          let root = Arena.root_addr (Mm.arena mm) 0 in
          let faults = [ Fault.crash ~tid:1 ~at_step:(20 + (9 * seed)) ] in
          ignore
            (Engine.run ~max_steps:100_000 ~threads:2 ~faults
               ~policy:(Policy.random ~seed:(300 + seed))
               (fun tid ->
                 if tid = 1 then
                   while true do
                     churn mm ~root ~tid
                   done));
          let o = Recovery.run ~dead:[ 1 ] ~by:0 mm in
          if o.Recovery.stats.Mm.cleared > 0 then any_cleared := true;
          check_bool
            (Printf.sprintf "seed %d post-audit ok: %s" seed
               (Audit.to_string o.Recovery.post))
            true
            (Audit.ok o.Recovery.post);
          (* the lock is free again: the survivor can operate *)
          churn mm ~root ~tid:0;
          drain mm ~survivors:[ 0 ]
        done;
        check_bool "at least one victim died holding the lock" true
          !any_cleared);
    tc "native chaos: mid-fragment crash on Domains, then adoption"
      (fun () ->
        let cfg =
          Mm.config ~backend:Atomics.Backend.Native ~shards:2 ~batch:2
            ~threads:2 ~capacity:32 ~num_links:1 ~num_data:1 ~num_roots:1 ()
        in
        let mm = mm_of "wfrc" cfg in
        let root = Arena.root_addr (Mm.arena mm) 0 in
        let chaos = Chaos.of_plan ~threads:2 [ Fault.crash ~tid:1 ~at_step:9 ] in
        ignore
          (Chaos.run chaos (fun ~tid ->
               for _ = 1 to 200 do
                 churn mm ~root ~tid
               done));
        check_bool "the crash fired" true (Chaos.crashed chaos = [ 1 ]);
        check_bool "tid 0 survived" true (Chaos.survivors chaos = [ 0 ]);
        drain mm ~survivors:[ 0 ];
        let o = Recovery.run ~dead:[ 1 ] ~by:0 mm in
        check_bool
          ("post-audit ok: " ^ Audit.to_string o.Recovery.post)
          true
          (Audit.ok o.Recovery.post);
        check_int "crash_held collapsed" 0 o.Recovery.post.Audit.crash_held;
        check_int "nothing leaked" 0 o.Recovery.post.Audit.leaked);
    tc "native chaos: a stalled thread sleeps through its window and resumes"
      (fun () ->
        let cfg =
          Mm.config ~backend:Atomics.Backend.Native ~threads:2 ~capacity:16
            ~num_links:1 ~num_data:1 ~num_roots:1 ()
        in
        let mm = mm_of "wfrc" cfg in
        let root = Arena.root_addr (Mm.arena mm) 0 in
        let done_ops = Array.make 2 0 in
        let chaos =
          Chaos.of_plan ~threads:2
            [ Fault.stall ~tid:0 ~from_step:5 ~duration:500 ]
        in
        ignore
          (Chaos.run chaos (fun ~tid ->
               for _ = 1 to 50 do
                 churn mm ~root ~tid;
                 done_ops.(tid) <- done_ops.(tid) + 1
               done));
        check_bool "nobody crashed" true (Chaos.crashed chaos = []);
        check_int "stalled thread finished all its ops" 50 done_ops.(0);
        check_int "peer finished all its ops" 50 done_ops.(1);
        drain mm ~survivors:[ 0; 1 ];
        let r = Audit.run mm in
        check_bool ("clean: " ^ Audit.to_string r) true (Audit.ok r));
  ]

let suite =
  plan_tests @ engine_tests
  @ [ replay_trace_test ]
  @ audit_tests @ envelope_tests @ recovery_tests
