(* The wfrc_lint protocol checker: quiet on correct idioms, loud on
   each seeded fixture violation, and clean on the real library tree.

   Fixtures live in test/lint_fixtures/ (no dune file — they are
   parsed by the lint, never compiled). *)

let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else "test/lint_fixtures"

let fx name = Filename.concat fixture_dir name

let rules vs = List.map (fun (v : Lint.violation) -> v.rule) vs

let check_rules what expected actual =
  Alcotest.(check (list string))
    what expected
    (List.sort_uniq compare (rules actual))

(* ---- fixtures: each seeded violation is caught ------------------- *)

let test_unreleased_deref () =
  let vs = Lint.run ~roots:[ fx "fx_unreleased_deref.ml" ] in
  check_rules "unbalanced-deref flagged" [ "unbalanced-deref" ] vs;
  Alcotest.(check int) "exactly one violation" 1 (List.length vs)

let test_branch_leak () =
  let vs = Lint.run ~roots:[ fx "fx_branch_leak.ml" ] in
  check_rules "branch leak flagged" [ "unbalanced-deref" ] vs

let test_raw_primitives () =
  let vs = Lint.run ~roots:[ fx "fx_raw_primitives.ml" ] in
  check_rules "raw Primitives flagged" [ "raw-primitives" ] vs;
  Alcotest.(check bool)
    "one per use site" true
    (List.length vs >= 2)

let test_raw_freestore () =
  let vs = Lint.run ~roots:[ fx "fx_raw_freestore.ml" ] in
  check_rules "raw Freestore flagged" [ "raw-primitives" ] vs

(* The managers draw from [Shmem.Pool]; even they may not name the
   store it wraps. *)
let test_manager_freestore () =
  let vs = Lint.run ~roots:[ fx "lfrc/fx_manager_freestore.ml" ] in
  check_rules "Freestore under lib/lfrc flagged" [ "raw-primitives" ] vs;
  Alcotest.(check int) "exactly one violation" 1 (List.length vs)

let test_raw_words () =
  let vs = Lint.run ~roots:[ fx "fx_raw_words.ml" ] in
  check_rules "raw Words flagged" [ "raw-primitives" ] vs;
  Alcotest.(check bool) "one per use site" true (List.length vs >= 2)

let test_dead_counter () =
  let vs = Lint.run ~roots:[ fx "fx_dead_counter" ] in
  check_rules "dead counter flagged" [ "counter-coverage" ] vs;
  match vs with
  | [ v ] ->
      Alcotest.(check bool)
        "names the dead constructor" true
        (let msg = Lint.to_string v in
         let re = "Never_incremented" in
         let rec contains i =
           i + String.length re <= String.length msg
           && (String.sub msg i (String.length re) = re || contains (i + 1))
         in
         contains 0)
  | vs ->
      Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_borrowed_helper () =
  let vs = Lint.run ~roots:[ fx "fx_borrowed_helper.ml" ] in
  check_rules "borrowing helper does not discharge" [ "unbalanced-deref" ] vs;
  Alcotest.(check int) "exactly one violation" 1 (List.length vs)

let test_relaxed_stub () =
  let vs = Lint.run ~roots:[ fx "fx_relaxed_stub.c" ] in
  check_rules "relaxed ordering flagged" [ "stub-ordering" ] vs;
  Alcotest.(check int) "exactly one violation" 1 (List.length vs)

(* ---- clean code stays clean -------------------------------------- *)

let test_clean_example () =
  let vs = Lint.run ~roots:[ fx "clean_example.ml" ] in
  Alcotest.(check int)
    (String.concat "\n" ("clean_example is quiet" :: List.map Lint.to_string vs)
    |> String.map (fun c -> if c = '\n' then ' ' else c))
    0 (List.length vs)

(* Counter constructed only from a C stub: the whole-word token in the
   decommented stub source keeps it alive. *)
let test_clean_counter_c () =
  let vs = Lint.run ~roots:[ fx "clean_counter_c" ] in
  Alcotest.(check int) "C-side counter liveness accepted" 0 (List.length vs)

(* The real library tree must lint clean — same invocation CI uses.
   Resolve lib/ relative to the dune workspace root when running from
   the _build sandbox. *)
let lib_dir () =
  let candidates =
    [ "lib"; "../lib"; "../../lib"; "../../../lib"; "../../../../lib" ]
  in
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "mm_intf"))
    candidates

let test_lib_clean () =
  match lib_dir () with
  | None -> () (* source tree not reachable from the sandbox: skip *)
  | Some lib ->
      let vs = Lint.run ~roots:[ lib ] in
      List.iter (fun v -> Printf.printf "%s\n" (Lint.to_string v)) vs;
      Alcotest.(check int) "lib/ lints clean" 0 (List.length vs)

let suite =
  [
    Alcotest.test_case "fixture: unreleased deref" `Quick test_unreleased_deref;
    Alcotest.test_case "fixture: branch leak" `Quick test_branch_leak;
    Alcotest.test_case "fixture: raw Primitives" `Quick test_raw_primitives;
    Alcotest.test_case "fixture: raw Freestore" `Quick test_raw_freestore;
    Alcotest.test_case "fixture: Freestore in a manager" `Quick
      test_manager_freestore;
    Alcotest.test_case "fixture: raw Words" `Quick test_raw_words;
    Alcotest.test_case "fixture: dead counter" `Quick test_dead_counter;
    Alcotest.test_case "fixture: borrowing helper" `Quick test_borrowed_helper;
    Alcotest.test_case "fixture: relaxed stub ordering" `Quick
      test_relaxed_stub;
    Alcotest.test_case "clean example is quiet" `Quick test_clean_example;
    Alcotest.test_case "clean: C-side counter liveness" `Quick
      test_clean_counter_c;
    Alcotest.test_case "library tree lints clean" `Quick test_lib_clean;
  ]
