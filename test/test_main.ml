(* Aggregated alcotest runner for the whole repository.

   `dune runtest` runs the quick tests; slow suites (heavy stress,
   exhaustive exploration, experiment shape checks) are tagged `Slow
   and run with ALCOTEST_QUICK_TESTS unset / -e. *)

let () =
  Alcotest.run "wfrc-repro"
    [
      ("value", T_value.suite);
      ("shmem", T_shmem.suite);
      ("atomics", T_atomics.suite);
      ("backend", T_backend.suite);
      ("stubs", T_stubs.suite);
      ("sched", T_sched.suite);
      ("fault", T_fault.suite);
      ("oom", T_oom.suite);
      ("wfrc-unit", T_wfrc_unit.suite);
      ("wfrc-sim", T_wfrc_sim.suite);
      ("wfrc-conc", T_wfrc_conc.suite);
      ("baselines", T_baselines.suite);
      ("models", T_models.suite);
      ("stack", T_stack.suite);
      ("queue", T_queue.suite);
      ("pqueue", T_pqueue.suite);
      ("oset", T_oset.suite);
      ("hmap", T_hmap.suite);
      ("multiway", T_multiway.suite);
      ("lincheck", T_lincheck.suite);
      ("actor", T_actor.suite);
      ("harness", T_harness.suite);
      ("custody", T_custody.suite);
      ("experiments", T_experiments.suite);
      ("analysis", T_analysis.suite);
      ("lint", T_lint.suite);
      ("progress", T_progress.suite);
    ]
