(* Experiment shape checks: every experiment must run (at reduced
   parameters), produce a well-formed typed report, and reproduce the
   paper-shaped qualitative result it exists for. *)

open Helpers
module Report = Harness.Report

let wellformed (r : Report.t) =
  check_bool "has rows" true (r.rows <> []);
  let cols = List.length r.cols in
  List.iter
    (fun row -> check_int "row arity" cols (List.length row))
    r.rows

let cell_str = Report.cell_to_string

let cell_int = function
  | Report.Int i | Report.Ns i -> i
  | c -> Alcotest.failf "expected an integer cell, got %S" (cell_str c)

let suite =
  [
    tc_slow "E1 runs and covers all RC schemes" (fun () ->
        let r =
          Harness.Experiments.e1 ~threads_list:[ 1; 2 ] ~ops:2_000
            ~capacity:1024 ()
        in
        wellformed r;
        let schemes = List.map (fun row -> cell_str (List.hd row)) r.rows in
        check_bool "wfrc present" true (List.mem "wfrc" schemes);
        check_bool "lfrc present" true (List.mem "lfrc" schemes);
        check_bool "spine captured counters" true (r.counters <> []));
    tc_slow "E2 shape: wfrc bounded, lfrc grows" (fun () ->
        let r =
          Harness.Experiments.e2 ~schemes:[ "wfrc"; "lfrc" ]
            ~budgets:[ 0; 16 ] ~seeds:10 ()
        in
        wellformed r;
        match r.rows with
        | [ [ _; w0; l0 ]; [ _; w16; l16 ] ] ->
            let w0 = cell_int w0
            and l0 = cell_int l0
            and w16 = cell_int w16
            and l16 = cell_int l16 in
            (* the wait-free bound: a fixed constant for N=2 *)
            check_bool "wfrc bounded" true (w16 <= 60 && w0 <= 60);
            (* the lock-free baseline visibly grows *)
            check_bool "lfrc grows" true (l16 > l0)
        | _ -> Alcotest.fail "unexpected table shape");
    tc_slow "E4 helping counters are exercised" (fun () ->
        let r = Harness.Experiments.e4 ~threads_list:[ 2 ] ~ops:10 ~runs:20 () in
        wellformed r;
        match r.rows with
        | [ row ] ->
            let derefs = cell_int (List.nth row 1) in
            check_bool "derefs happened" true (derefs > 0);
            (* the spine saw the same traffic the row reports *)
            check_bool "deref counter present" true
              (match List.assoc_opt "deref" r.counters with
              | Some n -> n >= derefs
              | None -> false)
        | _ -> Alcotest.fail "one row expected");
    tc_slow "E7 finds no violations" (fun () ->
        let r = Harness.Experiments.e7 ~runs:25 () in
        wellformed r;
        List.iter
          (fun row ->
            check_string
              (Printf.sprintf "%s/%s clean"
                 (cell_str (List.nth row 0))
                 (cell_str (List.nth row 1)))
              "none"
              (cell_str (List.nth row 3)))
          r.rows);
    tc_slow "E8 conservation holds at exhaustion" (fun () ->
        let r = Harness.Experiments.e8 ~threads_list:[ 1; 2 ] ~capacity:16 () in
        wellformed r;
        List.iter
          (fun row ->
            check_string "conservation column" "ok" (cell_str (List.nth row 6));
            let allocated = cell_int (List.nth row 2) in
            let parked = cell_int (List.nth row 3) in
            let lost = cell_int (List.nth row 4) in
            check_int "nothing lost" 0 lost;
            check_int "allocated+parked = capacity" 16 (allocated + parked))
          r.rows);
    tc_slow "E9 covers all five schemes" (fun () ->
        let r =
          Harness.Experiments.e9 ~threads_list:[ 1; 2 ] ~ops:3_000
            ~capacity:512 ()
        in
        wellformed r;
        check_int "five schemes" 5 (List.length r.rows));
    tc_slow "E12 non-blocking schemes never stall; lockrc can" (fun () ->
        let r =
          Harness.Experiments.e12 ~schemes:Harness.Registry.names
            ~ops_list:[ 8 ] ~seeds:5 ()
        in
        wellformed r;
        check_int "one row per scheme"
          (List.length Harness.Registry.names)
          (List.length r.rows);
        List.iter
          (fun row ->
            let scheme = cell_str (List.nth row 0) in
            let stalled = cell_int (List.nth row 4) in
            if scheme <> "lockrc" then
              check_int (scheme ^ " never stalls") 0 stalled;
            if scheme = "wfrc" then
              check_string "wfrc audit" "ok" (cell_str (List.nth row 9)))
          r.rows);
    tc_slow "E14 burst churn: one unsharded row per scheme and domains"
      (fun () ->
        let r =
          Harness.Experiments.e14 ~threads_list:[ 2 ] ~shards_list:[ 1; 2 ]
            ~ops:20_000 ~capacity:512 ()
        in
        wellformed r;
        check_int "rows = schemes x threads x shards" 4 (List.length r.rows);
        List.iter
          (fun row ->
            let shards = cell_int (List.nth row 2) in
            let batch = cell_int (List.nth row 3) in
            check_bool
              (Printf.sprintf "batch = 1 exactly at shards = 1 (%d, %d)"
                 shards batch)
              true
              ((shards = 1) = (batch = 1));
            check_bool "allocs/s > 0" true
              (match List.nth row 4 with
              | Report.Ops x -> x > 0.0
              | c -> Alcotest.failf "expected an ops cell, got %S" (cell_str c)))
          r.rows);
    tc_slow "A1 bound grows at most linearly in N" (fun () ->
        let r =
          Harness.Experiments.a1 ~threads_list:[ 2; 8 ] ~seeds:6 ()
        in
        wellformed r;
        match r.rows with
        | [ [ _; s2 ]; [ _; s8 ] ] ->
            let s2 = cell_int s2 and s8 = cell_int s8 in
            (* linear-ish: N grew 4x; allow 8x slack but not explosion *)
            check_bool
              (Printf.sprintf "s2=%d s8=%d linearish" s2 s8)
              true
              (s8 <= 8 * s2)
        | _ -> Alcotest.fail "two rows expected");
    tc_slow "A3 runs" (fun () ->
        wellformed
          (Harness.Experiments.a3 ~threads_list:[ 2 ] ~ops:4_000
             ~capacity:512 ()));
    tc "scaling verdict fails on an inversion or no rows" (fun () ->
        List.iter
          (fun rows ->
            match Harness.Experiments.scaling_verdict rows with
            | Error v -> check_bool v true (contains v "scaling FAIL")
            | Ok v -> Alcotest.failf "expected FAIL, got %S" v)
          [ [ (1, 5e6); (1, 6e6); (2, 7e6); (4, 4e6); (4, 5.9e6) ]; [] ]);
    tc "scaling verdict passes equal or rising throughput" (fun () ->
        List.iter
          (fun rows ->
            match Harness.Experiments.scaling_verdict rows with
            | Ok v -> check_bool v true (contains v "scaling ok")
            | Error v -> Alcotest.failf "expected ok, got %S" v)
          [
            [ (1, 5e6); (4, 5e6) ];
            [ (1, 5e6); (1, 2e6); (2, 1e6); (4, 3e6); (4, 9e6) ];
          ]);
    tc "scaling verdict passes a single domain count" (fun () ->
        match Harness.Experiments.scaling_verdict [ (2, 9e6); (2, 1e6) ] with
        | Ok v -> check_bool v true (contains v "only one domain count")
        | Error v -> Alcotest.failf "expected ok, got %S" v);
    tc "experiment registry resolves every id" (fun () ->
        List.iter
          (fun id ->
            if not (List.mem id Harness.Experiments.ids) then
              Alcotest.failf "id %s missing" id)
          [
            "e1"; "e2"; "e4"; "e7"; "e8"; "e9"; "e12"; "e13"; "a1"; "a3";
          ];
        List.iter
          (fun id ->
            fails_with ~substring:"unknown experiment" (fun () ->
                Harness.Experiments.run id))
          [ "e99"; "e3"; "e5"; "e10"; "e11"; "a2"; "a4"; "e7d"; "e17" ]);
    tc "registry order: experiments by number, then ablations" (fun () ->
        check_bool "e1 first" true (List.hd Harness.Experiments.ids = "e1");
        (* lexicographic order would put e12 before e9 *)
        let rec after_e9 = function
          | "e9" :: rest -> List.mem "e12" rest
          | _ :: rest -> after_e9 rest
          | [] -> false
        in
        check_bool "e9 before e12" true (after_e9 Harness.Experiments.ids);
        check_bool "ablations last" true
          (match List.rev Harness.Experiments.ids with
          | "a3" :: "a1" :: _ -> true
          | _ -> false));
    tc "run stamps the quick flag into the metadata" (fun () ->
        let r = Harness.Experiments.run ~quick:true "e8" in
        check_bool "quick" true r.Report.meta.Report.quick;
        let r = Harness.Experiments.run "e8" in
        check_bool "full" false r.Report.meta.Report.quick);
  ]
