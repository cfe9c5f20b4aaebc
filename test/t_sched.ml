(* RNG, policies, the deterministic engine and exploration. *)

open Helpers
module Rng = Sched.Rng
module Policy = Sched.Policy
module Engine = Sched.Engine
module Explore = Sched.Explore

let rng_tests =
  [
    tc "deterministic per seed" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check_bool "same stream" true (Rng.next64 a = Rng.next64 b)
        done);
    tc "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref 0 in
        for _ = 1 to 50 do
          if Rng.next64 a = Rng.next64 b then incr same
        done;
        check_bool "streams diverge" true (!same < 5));
    tc "copy forks the stream" (fun () ->
        let a = Rng.create 3 in
        ignore (Rng.next64 a);
        let b = Rng.copy a in
        check_bool "same continuation" true (Rng.next64 a = Rng.next64 b));
    tc "int respects bounds" (fun () ->
        let r = Rng.create 11 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
        done;
        fails_with (fun () -> Rng.int r 0));
    tc "float in [0,1)" (fun () ->
        let r = Rng.create 13 in
        for _ = 1 to 1000 do
          let f = Rng.float r in
          if f < 0.0 || f >= 1.0 then Alcotest.failf "out of range: %f" f
        done);
    tc "shuffle permutes" (fun () ->
        let r = Rng.create 17 in
        let arr = Array.init 50 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check_bool "same multiset" true (sorted = Array.init 50 Fun.id);
        check_bool "actually moved" true (arr <> Array.init 50 Fun.id));
    qc "int always within bound"
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create seed in
        let v = Rng.int r bound in
        v >= 0 && v < bound);
    tc "int is uniform (chi-square)" (fun () ->
        (* Regression for the modulo-bias fix: [int] must draw each
           residue with equal probability. Pearson chi-square against
           the uniform expectation, deterministic seeds; the 1e-4
           quantile for the degrees of freedom involved stays below
           the thresholds used, so a correct generator passes with
           huge margin while a structurally biased one fails. *)
        let chi2 ~seed ~bound ~draws =
          let r = Rng.create seed in
          let counts = Array.make bound 0 in
          for _ = 1 to draws do
            let v = Rng.int r bound in
            counts.(v) <- counts.(v) + 1
          done;
          let exp_ = float_of_int draws /. float_of_int bound in
          Array.fold_left
            (fun acc c ->
              let d = float_of_int c -. exp_ in
              acc +. (d *. d /. exp_))
            0.0 counts
        in
        (* bound 7: df 6, chi2 < 33 is ~p=1e-5 *)
        check_bool "bound 7" true (chi2 ~seed:101 ~bound:7 ~draws:70_000 < 33.0);
        (* bound 64 (power of two, never rejects): df 63 *)
        check_bool "bound 64" true
          (chi2 ~seed:103 ~bound:64 ~draws:128_000 < 120.0);
        (* bound 1000: df 999, threshold ~ 999 + 4*sqrt(2*999) *)
        check_bool "bound 1000" true
          (chi2 ~seed:107 ~bound:1000 ~draws:1_000_000 < 1_180.0));
    tc "int handles boundary bounds" (fun () ->
        let r = Rng.create 19 in
        for _ = 1 to 100 do
          check_int "bound 1 is constant" 0 (Rng.int r 1)
        done;
        (* max_int: the rejection cutoff itself is max_int - 1; the
           draw must stay in range without looping forever. *)
        for _ = 1 to 100 do
          let v = Rng.int r max_int in
          if v < 0 || v >= max_int then Alcotest.failf "out of range: %d" v
        done);
  ]

let policy_tests =
  [
    tc "round_robin rotates fairly" (fun () ->
        let p = Policy.round_robin () in
        let runnable = [ 0; 1; 2 ] in
        let picks = List.init 6 (fun i -> Policy.next p ~runnable ~step:i) in
        check_bool "rotation" true (picks = [ 0; 1; 2; 0; 1; 2 ]));
    tc "round_robin skips finished threads" (fun () ->
        let p = Policy.round_robin () in
        check_int "first" 1 (Policy.next p ~runnable:[ 1; 3 ] ~step:0);
        check_int "second" 3 (Policy.next p ~runnable:[ 1; 3 ] ~step:1);
        check_int "wraps" 1 (Policy.next p ~runnable:[ 1; 3 ] ~step:2));
    tc "others_first starves the victim" (fun () ->
        let p = Policy.others_first ~victim:1 in
        check_int "prefers 0" 0 (Policy.next p ~runnable:[ 0; 1; 2 ] ~step:0);
        check_int "victim only when alone" 1
          (Policy.next p ~runnable:[ 1 ] ~step:1));
    tc "replay follows the schedule then falls back" (fun () ->
        let p = Policy.replay [| 2; 0 |] in
        check_int "first" 2 (Policy.next p ~runnable:[ 0; 1; 2 ] ~step:0);
        check_int "second" 0 (Policy.next p ~runnable:[ 0; 1; 2 ] ~step:1);
        check_int "fallback" 0 (Policy.next p ~runnable:[ 0; 1 ] ~step:2));
    tc "random stays within runnable" (fun () ->
        let p = Policy.random ~seed:5 in
        for step = 0 to 500 do
          let pick = Policy.next p ~runnable:[ 3; 5; 9 ] ~step in
          check_bool "member" true (List.mem pick [ 3; 5; 9 ])
        done);
    tc "every policy rejects an empty runnable list" (fun () ->
        List.iter
          (fun (name, p) ->
            match Policy.next p ~runnable:[] ~step:0 with
            | _ -> Alcotest.failf "%s accepted an empty runnable list" name
            | exception Invalid_argument msg ->
                check_bool
                  (Printf.sprintf "%s names itself (%s)" name msg)
                  true
                  (Helpers.contains msg "empty runnable"))
          [
            ("round_robin", Policy.round_robin ());
            ("random", Policy.random ~seed:1);
            ("replay", Policy.replay [| 0; 1 |]);
            ("replay(exhausted)", Policy.replay [||]);
            ("others_first", Policy.others_first ~victim:0);
            ("biased", Policy.biased ~seed:1 ~victim:0 ~weight:2);
          ]);
    tc "others_first is deterministic: lowest non-victim, else victim"
      (fun () ->
        let p = Policy.others_first ~victim:2 in
        check_int "lowest non-victim" 0
          (Policy.next p ~runnable:[ 0; 1; 2 ] ~step:0);
        check_int "still lowest" 1 (Policy.next p ~runnable:[ 1; 2 ] ~step:1);
        check_int "victim only alone" 2 (Policy.next p ~runnable:[ 2 ] ~step:2));
    tc "biased picks the victim sometimes" (fun () ->
        let p = Policy.biased ~seed:3 ~victim:0 ~weight:3 in
        let victim = ref 0 and other = ref 0 in
        for step = 0 to 999 do
          if Policy.next p ~runnable:[ 0; 1 ] ~step = 0 then incr victim
          else incr other
        done;
        check_bool "victim occasionally" true (!victim > 100);
        check_bool "others mostly" true (!other > !victim));
  ]

let engine_tests =
  [
    tc "runs all fibers to completion" (fun () ->
        let done_ = Array.make 3 false in
        let o =
          Engine.run ~threads:3 ~policy:(Policy.round_robin ()) (fun tid ->
              let c = Atomics.Primitives.make 0 in
              ignore (Atomics.Primitives.faa c 1);
              done_.(tid) <- true)
        in
        check_bool "all done" true (Array.for_all Fun.id done_);
        check_int "steps accounted" o.total_steps
          (Array.fold_left ( + ) 0 o.steps));
    tc "steps count primitive crossings" (fun () ->
        let o =
          Engine.run ~threads:1 ~policy:(Policy.round_robin ()) (fun _ ->
              let c = Atomics.Primitives.make 0 in
              for _ = 1 to 10 do
                ignore (Atomics.Primitives.faa c 1)
              done)
        in
        (* 10 yields + the final resume to completion *)
        check_int "steps" 11 o.steps.(0));
    tc "schedule is replayable" (fun () ->
        let trace = ref [] in
        let body tid =
          let c = Atomics.Primitives.make 0 in
          for _ = 1 to 3 do
            ignore (Atomics.Primitives.faa c 1);
            trace := tid :: !trace
          done
        in
        let o1 = Engine.run ~threads:2 ~policy:(Policy.random ~seed:99) body in
        let t1 = !trace in
        trace := [];
        let o2 =
          Engine.run ~threads:2 ~policy:(Policy.replay o1.schedule) body
        in
        check_bool "same schedule" true (o1.schedule = o2.schedule);
        check_bool "same trace" true (t1 = !trace));
    tc "fiber exceptions surface with tid" (fun () ->
        match
          Engine.run ~threads:2 ~policy:(Policy.round_robin ()) (fun tid ->
              Atomics.Schedpoint.hit ();
              if tid = 1 then failwith "kaboom")
        with
        | _ -> Alcotest.fail "expected Fiber_failed"
        | exception Engine.Fiber_failed (tid, Failure msg) ->
            check_int "failing tid" 1 tid;
            check_string "message" "kaboom" msg
        | exception e -> raise e);
    tc "max_steps guards runaway fibers" (fun () ->
        match
          Engine.run ~max_steps:100 ~threads:1
            ~policy:(Policy.round_robin ()) (fun _ ->
              let c = Atomics.Primitives.make 0 in
              while true do
                ignore (Atomics.Primitives.faa c 1)
              done)
        with
        | _ -> Alcotest.fail "expected Out_of_steps"
        | exception Engine.Out_of_steps -> ());
    tc "current_tid/now valid inside a run" (fun () ->
        let seen = ref [] in
        ignore
          (Engine.run ~threads:2 ~policy:(Policy.round_robin ()) (fun tid ->
               Atomics.Schedpoint.hit ();
               seen := (tid, Engine.current_tid (), Engine.now ()) :: !seen));
        List.iter
          (fun (tid, cur, now) ->
            check_int "tid matches" tid cur;
            check_bool "clock positive" true (now > 0))
          !seen);
    tc "atomicity: two fibers incrementing via faa" (fun () ->
        let c = Atomics.Primitives.make 0 in
        ignore
          (Engine.run ~threads:2 ~policy:(Policy.random ~seed:1) (fun _ ->
               for _ = 1 to 20 do
                 ignore (Atomics.Primitives.faa c 1)
               done));
        check_int "no lost updates" 40 (Atomic.get c));
    tc "read-modify-write race IS observable with plain ops" (fun () ->
        (* sanity that the engine actually interleaves: non-atomic
           increments lose updates under some schedule *)
        let lost = ref false in
        let s = ref 0 in
        while not !lost && !s < 200 do
          let c = Atomics.Primitives.make 0 in
          ignore
            (Engine.run ~threads:2 ~policy:(Policy.random ~seed:!s)
               (fun _ ->
                 for _ = 1 to 5 do
                   let v = Atomics.Primitives.read c in
                   Atomics.Primitives.write c (v + 1)
                 done));
          if Atomic.get c < 10 then lost := true;
          incr s
        done;
        check_bool "some schedule loses updates" true !lost);
  ]

let explore_tests =
  [
    tc "exhaustive covers the full tree of a tiny program" (fun () ->
        (* 2 fibers × 2 primitives each: C(4,2)=6 interleavings *)
        let r =
          exhaustive_ok ~threads:2 (fun () ->
              let c = Atomics.Primitives.make 0 in
              ( (fun _ ->
                  ignore (Atomics.Primitives.faa c 1);
                  ignore (Atomics.Primitives.faa c 1)),
                fun () -> check_int "sum" 4 (Atomic.get c) ))
        in
        check_bool "exhausted" true r.exhausted;
        (* each schedule has 6 decisions (3 per fiber incl. final), so
           more schedules than the 6 core interleavings are explored;
           at least those must be present *)
        check_bool "at least 6" true (r.schedules_run >= 6));
    tc "exhaustive finds a seeded bug and reports its schedule" (fun () ->
        let r =
          Explore.exhaustive ~threads:2 ~max_schedules:10_000 (fun () ->
              let c = Atomics.Primitives.make 0 in
              ( (fun _ ->
                  (* racy read-modify-write *)
                  let v = Atomics.Primitives.read c in
                  Atomics.Primitives.write c (v + 1)),
                fun () ->
                  if Atomic.get c <> 2 then failwith "lost update" ))
        in
        (match r.failure with
        | Some f ->
            check_bool "nonempty schedule" true (Array.length f.schedule > 0);
            (* replaying the counterexample reproduces it *)
            let again =
              Explore.replay ~threads:2 ~schedule:f.schedule (fun () ->
                  let c = Atomics.Primitives.make 0 in
                  ( (fun _ ->
                      let v = Atomics.Primitives.read c in
                      Atomics.Primitives.write c (v + 1)),
                    fun () ->
                      if Atomic.get c <> 2 then failwith "lost update" ))
            in
            check_bool "replay reproduces" true (again <> None)
        | None -> Alcotest.fail "expected to find the lost update"));
    tc "shrink minimises a failing schedule" (fun () ->
        (* the racy read-modify-write program: find a counterexample,
           then shrink it; the result must still fail and be no longer
           than the original *)
        let mk () =
          let c = Atomics.Primitives.make 0 in
          ( (fun _ ->
              let v = Atomics.Primitives.read c in
              Atomics.Primitives.write c (v + 1)),
            fun () -> if Atomic.get c <> 2 then failwith "lost update" )
        in
        let r = Explore.exhaustive ~threads:2 ~max_schedules:10_000 mk in
        match r.failure with
        | None -> Alcotest.fail "expected a counterexample"
        | Some f -> (
            match Explore.shrink ~threads:2 ~schedule:f.schedule mk with
            | None -> Alcotest.fail "shrink lost the failure"
            | Some small ->
                check_bool "no longer than original" true
                  (Array.length small <= Array.length f.schedule);
                check_bool "still fails" true
                  (Explore.replay ~threads:2 ~schedule:small mk <> None);
                (* the minimal lost-update needs at most 3 recorded
                   decisions (read A, read B, rest follows by fallback) *)
                check_bool
                  (Printf.sprintf "small enough (%d)" (Array.length small))
                  true
                  (Array.length small <= 3)));
    tc "shrink refuses non-reproducing schedules" (fun () ->
        let mk () =
          let c = Atomics.Primitives.make 0 in
          ( (fun _ -> ignore (Atomics.Primitives.faa c 1)),
            fun () -> check_int "sum" 2 (Atomic.get c) )
        in
        check_bool "none" true
          (Explore.shrink ~threads:2 ~schedule:[| 0; 1; 0; 1 |] mk = None));
    tc "random_sweep is reproducible per seed" (fun () ->
        let mk () =
          let c = Atomics.Primitives.make 0 in
          ( (fun _ -> ignore (Atomics.Primitives.faa c 1)),
            fun () -> check_int "sum" 2 (Atomic.get c) )
        in
        let r1 = Explore.random_sweep ~threads:2 ~runs:20 ~seed:5 mk in
        let r2 = Explore.random_sweep ~threads:2 ~runs:20 ~seed:5 mk in
        check_int "same runs" r1.schedules_run r2.schedules_run;
        check_bool "no failures" true (r1.failure = None && r2.failure = None));
  ]

let base_suite = rng_tests @ policy_tests @ engine_tests @ explore_tests

(* Crash modelling through a fault plan. *)
let crash_tests =
  [
    tc "wfrc survives a helper crashed inside H4..H8" (fun () ->
        (* worker 0 performs derefs; worker 1 updates (and thus helps);
           crash 1 at random points — 0 must always finish, and the
           announcement pool must still serve future derefs *)
        for s = 0 to 49 do
          let cfg =
            Mm_intf.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:1
              ~num_roots:1 ()
          in
          let mm = Helpers.mm_of "wfrc" cfg in
          let arena = Mm_intf.arena mm in
          let root = Shmem.Arena.root_addr arena 0 in
          let a = Mm_intf.alloc mm ~tid:0 in
          Mm_intf.store_link mm ~tid:0 root a;
          Mm_intf.release mm ~tid:0 a;
          let finished = ref false in
          let body tid =
            if tid = 0 then begin
              for _ = 1 to 6 do
                let p = Mm_intf.deref mm ~tid root in
                if not (Shmem.Value.is_null p) then Mm_intf.release mm ~tid p
              done;
              finished := true
            end
            else
              while true do
                match Mm_intf.alloc mm ~tid with
                | b ->
                    let old = Mm_intf.deref mm ~tid root in
                    ignore (Mm_intf.cas_link mm ~tid root ~old ~nw:b);
                    if not (Shmem.Value.is_null old) then
                      Mm_intf.release mm ~tid old;
                    Mm_intf.release mm ~tid b
                | exception Mm_intf.Out_of_nodes _ -> ()
              done
          in
          ignore
            (Engine.run ~max_steps:100_000
               ~faults:[ Sched.Fault.crash ~tid:1 ~at_step:(10 + (s * 3)) ]
               ~threads:2
               ~policy:(Policy.random ~seed:(777 + s))
               body);
          if not !finished then Alcotest.failf "seed %d: worker starved" s
        done);
  ]

let suite = base_suite @ crash_tests
