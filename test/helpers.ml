(* Shared test utilities. *)

module Mm = Mm_intf
module Value = Shmem.Value
module Arena = Shmem.Arena

let tc name fn = Alcotest.test_case name `Quick fn
let tc_slow name fn = Alcotest.test_case name `Slow fn

(* QCheck_alcotest tags everything `Slow; re-tag as `Quick so the
   property tests run in every `dune runtest`. *)
let qc ?(count = 200) name gen prop =
  let n, _speed, fn =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
  in
  (n, `Quick, fn)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fails_with ?substring f =
  match f () with
  | _ -> Alcotest.fail "expected an exception"
  | exception e -> (
      match substring with
      | None -> ()
      | Some s ->
          let msg = Printexc.to_string e in
          if not (contains msg s) then
            Alcotest.failf "expected exception mentioning %S, got %S" s msg)

(* Standard configs *)
let small_cfg ?(threads = 2) ?(capacity = 16) ?(num_links = 1) ?(num_data = 1)
    ?(num_roots = 2) () =
  Mm.config ~threads ~capacity ~num_links ~num_data ~num_roots ()

let all_schemes = Harness.Registry.names
let rc_schemes = Harness.Registry.rc_names

let mm_of scheme cfg = Harness.Registry.instantiate scheme cfg

(* Assert no leak: every node is back in the allocator's custody. *)
let assert_all_free ?(reserved = 0) mm =
  let cfg = Mm.conf mm in
  Mm.validate mm;
  check_int "all nodes free (minus reserved)" (cfg.capacity - reserved)
    (Mm.free_count mm)

(* Run a deterministic-scheduler sweep and fail the test on the first
   counterexample, printing the schedule for replay. *)
let sweep_ok ?(runs = 200) ?(seed = 9_000) ~threads mk =
  match (Sched.Explore.random_sweep ~threads ~runs ~seed mk).failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "schedule violation: %s" (Sched.Explore.failure_message f)

(* Two-thread race bed under the reclamation oracle: a random sweep,
   then a biased one that starves thread 0 so the other thread's
   retirements (and HP scans, EBR advances) land while it is parked
   mid-operation. *)
let race_sweep_ok ?(runs = 150) mk =
  let mk = Analysis.Reclaim.instrument ~threads:2 mk in
  Analysis.Reclaim.with_oracle (fun () ->
      sweep_ok ~runs ~threads:2 mk;
      match
        (Sched.Explore.policy_sweep ~threads:2 ~runs
           ~policy:(fun i ->
             Sched.Policy.biased ~seed:(8_000 + i) ~victim:0 ~weight:24)
           mk)
          .failure
      with
      | None -> ()
      | Some f ->
          Alcotest.failf "schedule violation: %s"
            (Sched.Explore.failure_message f))

let exhaustive_ok ?(max_schedules = 20_000) ~threads mk =
  let r = Sched.Explore.exhaustive ~max_schedules ~threads mk in
  (match r.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "exhaustive violation: %s"
        (Sched.Explore.failure_message f));
  r
