(* Harness components: histogram statistics, table rendering, workload
   generation, the runner and the registry. *)

open Helpers
module Hist = Harness.Metrics.Hist

let hist_tests =
  [
    tc "empty histogram" (fun () ->
        let h = Hist.create () in
        check_int "count" 0 (Hist.count h);
        check_int "max" 0 (Hist.max_value h);
        check_int "p99" 0 (Hist.percentile h 0.99);
        check_bool "mean" true (Hist.mean h = 0.0));
    tc "single value" (fun () ->
        let h = Hist.create () in
        Hist.add h 500;
        check_int "count" 1 (Hist.count h);
        check_int "min" 500 (Hist.min_value h);
        check_int "max" 500 (Hist.max_value h);
        check_bool "mean" true (Hist.mean h = 500.0);
        check_int "p50 = the value" 500 (Hist.percentile h 0.5));
    tc "percentiles are monotone and bounded by max" (fun () ->
        let h = Hist.create () in
        for i = 1 to 10_000 do
          Hist.add h i
        done;
        let p50 = Hist.percentile h 0.5 in
        let p90 = Hist.percentile h 0.9 in
        let p999 = Hist.percentile h 0.999 in
        check_bool "monotone" true (p50 <= p90 && p90 <= p999);
        check_bool "bounded" true (p999 <= Hist.max_value h);
        (* log-bucket error is bounded by one sub-bucket (~6%) *)
        check_bool "p50 near 5000" true (p50 >= 5_000 && p50 <= 5_700);
        check_bool "p90 near 9000" true (p90 >= 9_000 && p90 <= 10_000));
    tc "merge_into combines counts and extremes" (fun () ->
        let a = Hist.create () and b = Hist.create () in
        Hist.add a 10;
        Hist.add b 1_000_000;
        Hist.merge_into a b;
        check_int "count" 2 (Hist.count a);
        check_int "min" 10 (Hist.min_value a);
        check_int "max" 1_000_000 (Hist.max_value a));
    tc "negative samples are tallied, not folded in" (fun () ->
        (* A negative duration is a measurement bug; the old behaviour
           clamped it to 0, silently polluting the distribution. *)
        let h = Hist.create () in
        Hist.add h (-5);
        check_int "not counted" 0 (Hist.count h);
        check_int "tallied" 1 (Hist.negatives h);
        Hist.add h 10;
        Hist.add h (-1);
        check_int "count sees only the real sample" 1 (Hist.count h);
        check_int "negatives accumulate" 2 (Hist.negatives h);
        check_int "min untouched by negatives" 10 (Hist.min_value h);
        check_bool "mean untouched by negatives" true (Hist.mean h = 10.0));
    tc "merge_into carries negatives across" (fun () ->
        let a = Hist.create () and b = Hist.create () in
        Hist.add a (-3);
        Hist.add b (-4);
        Hist.add b 7;
        Hist.merge_into a b;
        check_int "negatives merged" 2 (Hist.negatives a);
        check_int "count merged" 1 (Hist.count a));
    qc "max is exact, percentile(1.0) equals it"
      QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 1_000_000))
      (fun vs ->
        let h = Hist.create () in
        List.iter (Hist.add h) vs;
        Hist.max_value h = List.fold_left max 0 vs
        && Hist.percentile h 1.0 = Hist.max_value h);
    qc "mean matches a direct computation"
      QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 100_000))
      (fun vs ->
        let h = Hist.create () in
        List.iter (Hist.add h) vs;
        let direct =
          float_of_int (List.fold_left ( + ) 0 vs)
          /. float_of_int (List.length vs)
        in
        abs_float (Hist.mean h -. direct) < 0.001);
  ]

let fmt_tests =
  [
    tc "duration formatting" (fun () ->
        check_string "ns" "999ns" (Harness.Metrics.ns_to_string 999);
        check_string "us" "1.5us" (Harness.Metrics.ns_to_string 1_500);
        check_string "ms" "2.0ms" (Harness.Metrics.ns_to_string 2_000_000);
        check_string "s" "3.00s" (Harness.Metrics.ns_to_string 3_000_000_000));
    tc "ops formatting" (fun () ->
        check_string "M" "2.50M" (Harness.Metrics.ops_to_string 2.5e6);
        check_string "k" "3.2k" (Harness.Metrics.ops_to_string 3_200.0);
        check_string "plain" "42" (Harness.Metrics.ops_to_string 42.0));
  ]

let table_tests =
  [
    tc "render aligns columns" (fun () ->
        let out =
          Harness.Table.render ~headers:[ "name"; "n" ]
            ~rows:[ [ "alpha"; "1" ]; [ "b"; "10000" ] ]
        in
        let lines = String.split_on_char '\n' out in
        let widths =
          List.filter_map
            (fun l -> if l = "" then None else Some (String.length l))
            lines
        in
        check_bool "all lines same width" true
          (List.for_all (fun w -> w = List.hd widths) widths));
    tc "render rejects ragged rows" (fun () ->
        fails_with (fun () ->
            Harness.Table.render ~headers:[ "a"; "b" ] ~rows:[ [ "1" ] ]));
    tc "csv quotes what needs quoting" (fun () ->
        let out =
          Harness.Table.csv ~headers:[ "x" ] ~rows:[ [ "a,b" ]; [ "c\"d" ] ]
        in
        check_bool "comma quoted" true (contains out "\"a,b\"");
        check_bool "quote doubled" true (contains out "\"c\"\"d\""));
    tc "csv round-trips RFC 4180 specials" (fun () ->
        (* A minimal quote-aware RFC 4180 reader: records split on
           newlines outside quotes, [""] inside a quoted cell is a
           literal quote. *)
        let parse s =
          let records = ref [] and cells = ref [] in
          let cell = Buffer.create 16 in
          let in_quotes = ref false in
          let flush_cell () =
            cells := Buffer.contents cell :: !cells;
            Buffer.clear cell
          in
          let flush_record () =
            flush_cell ();
            records := List.rev !cells :: !records;
            cells := []
          in
          let n = String.length s in
          let i = ref 0 in
          while !i < n do
            let c = s.[!i] in
            (if !in_quotes then
               if c = '"' then
                 if !i + 1 < n && s.[!i + 1] = '"' then begin
                   Buffer.add_char cell '"';
                   incr i
                 end
                 else in_quotes := false
               else Buffer.add_char cell c
             else
               match c with
               | '"' -> in_quotes := true
               | ',' -> flush_cell ()
               | '\n' -> flush_record ()
               | c -> Buffer.add_char cell c);
            incr i
          done;
          if Buffer.length cell > 0 || !cells <> [] then flush_record ();
          List.rev !records
        in
        let headers = [ "plain"; "with,comma" ] in
        let rows =
          [
            [ "a\"quote"; "multi\nline" ];
            [ "carriage\rreturn"; "all,of\"it\r\n" ];
            [ ""; "trailing" ];
          ]
        in
        let parsed = parse (Harness.Table.csv ~headers ~rows) in
        Alcotest.(check (list (list string)))
          "round-trip" (headers :: rows) parsed);
  ]

let workload_tests =
  [
    tc "mixed respects the produce ratio (statistically)" (fun () ->
        let rng = Sched.Rng.create 4 in
        let ops =
          Harness.Workload.mixed ~rng ~n:10_000 ~produce_pct:30 ~key_range:100
        in
        let produces = Harness.Workload.count_produces ops in
        check_bool "close to 30%" true (produces > 2_500 && produces < 3_500));
    tc "mixed keys stay in range" (fun () ->
        let rng = Sched.Rng.create 5 in
        let ops =
          Harness.Workload.mixed ~rng ~n:1_000 ~produce_pct:100 ~key_range:7
        in
        Array.iter
          (function
            | Harness.Workload.Produce k ->
                if k < 0 || k >= 7 then Alcotest.failf "key %d" k
            | Consume -> Alcotest.fail "no consumes expected")
          ops);
    tc "per_thread streams are independent and reproducible" (fun () ->
        let gen rng = Array.init 5 (fun _ -> Sched.Rng.int rng 1000) in
        let a = Harness.Workload.per_thread ~threads:3 ~seed:9 gen in
        let b = Harness.Workload.per_thread ~threads:3 ~seed:9 gen in
        check_bool "reproducible" true (a = b);
        check_bool "distinct across threads" true (a.(0) <> a.(1)));
    tc "per_thread streams are independent across seeds" (fun () ->
        (* The old fixed-stride seeding (seed + tid * 1_000_003) made
           thread 1 of seed s replay thread 0 of seed s + 1_000_003.
           Split-derived streams must not collide for any (seed, tid)
           pair across nearby or stride-related seeds. *)
        let gen rng = Array.init 32 (fun _ -> Sched.Rng.int rng 1_000_000) in
        let base = Harness.Workload.per_thread ~threads:4 ~seed:42 gen in
        List.iter
          (fun seed ->
            let other = Harness.Workload.per_thread ~threads:4 ~seed gen in
            Array.iter
              (fun s ->
                Array.iter
                  (fun o ->
                    check_bool
                      (Printf.sprintf "no stream collision with seed %d" seed)
                      false (s = o))
                  other)
              base)
          [ 43; 42 + 1_000_003; 42 + (2 * 1_000_003); 42 - 1_000_003 ]);
    tc "churn bursts within bounds" (fun () ->
        let rng = Sched.Rng.create 6 in
        let bursts = Harness.Workload.churn_bursts ~rng ~n:500 ~max_burst:8 in
        Array.iter
          (fun b -> if b < 1 || b > 8 then Alcotest.failf "burst %d" b)
          bursts);
  ]

let runner_tests =
  [
    tc "runner executes every tid exactly once" (fun () ->
        let hits = Array.make 4 0 in
        let r = Harness.Runner.run ~threads:4 (fun ~tid -> hits.(tid) <- hits.(tid) + 1) in
        check_bool "all ran once" true (hits = [| 1; 1; 1; 1 |]);
        check_bool "wall time positive" true (r.wall_ns >= 0));
    tc "throughput arithmetic" (fun () ->
        let r = { Harness.Runner.wall_ns = 1_000_000_000; per_thread_ns = [| 0 |] } in
        check_bool "1000 ops in 1s" true
          (abs_float (Harness.Runner.throughput ~ops:1000 r -. 1000.0) < 0.01));
    tc "runner joins every domain before re-raising" (fun () ->
        let late = Atomic.make false in
        (match
           Harness.Runner.run ~threads:2 (fun ~tid ->
               if tid = 0 then failwith "tid 0"
               else begin
                 Unix.sleepf 0.02;
                 Atomic.set late true
               end)
         with
        | _ -> Alcotest.fail "the tid 0 exception was swallowed"
        | exception Failure msg -> check_string "tid 0's exception" "tid 0" msg);
        check_bool "tid 1 finished before the raise" true (Atomic.get late));
    tc "single-thread runner works" (fun () ->
        let x = ref 0 in
        ignore (Harness.Runner.run ~threads:1 (fun ~tid -> x := tid + 41));
        check_int "ran" 41 !x);
  ]

let config_tests =
  [
    tc "config rejects non-positive sizes" (fun () ->
        fails_with (fun () -> Mm_intf.config ~threads:0 ~capacity:4 ());
        fails_with (fun () -> Mm_intf.config ~threads:2 ~capacity:0 ()));
    tc "config defaults are zero-extras" (fun () ->
        let c = Mm_intf.config ~threads:2 ~capacity:4 () in
        check_int "links" 0 c.num_links;
        check_int "data" 0 c.num_data;
        check_int "roots" 0 c.num_roots);
    tc "instance accessors agree with the config" (fun () ->
        let c = small_cfg ~threads:3 ~capacity:32 () in
        let mm = mm_of "wfrc" c in
        check_int "threads" 3 (Mm_intf.conf mm).threads;
        check_int "capacity" 32 (Shmem.Arena.capacity (Mm_intf.arena mm));
        check_int "counters rows" 3
          (Atomics.Counters.threads (Mm_intf.counters mm)));
    tc "sharding knobs are validated" (fun () ->
        let native = Atomics.Backend.Native in
        fails_with (fun () ->
            Mm_intf.config ~backend:native ~shards:0 ~threads:2 ~capacity:8 ());
        fails_with (fun () ->
            Mm_intf.config ~backend:native ~batch:0 ~threads:2 ~capacity:8 ());
        fails_with (fun () ->
            Mm_intf.config ~backend:native ~shards:16 ~threads:2 ~capacity:8 ());
        (* Sim must never see a sharded store: its schedules are the
           byte-identical baseline. *)
        fails_with ~substring:"Native" (fun () ->
            Mm_intf.config ~shards:2 ~threads:2 ~capacity:8 ());
        fails_with ~substring:"Native" (fun () ->
            Mm_intf.config ~batch:2 ~threads:2 ~capacity:8 ());
        let c =
          Mm_intf.config ~backend:native ~shards:2 ~batch:4 ~threads:2
            ~capacity:8 ()
        in
        check_bool "sharded" true (Mm_intf.sharded c);
        let legacy = Mm_intf.config ~backend:native ~threads:2 ~capacity:8 () in
        check_bool "defaults are legacy" false (Mm_intf.sharded legacy));
  ]

(* [Bench.git_rev] reads [.git] relative to the cwd, so each case
   builds a throwaway checkout and runs from inside it. *)
let with_checkout files f =
  let dir = Filename.temp_dir "wfrc_git_rev" "" in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm dir)
  @@ fun () ->
  List.iter
    (fun (rel, contents) ->
      let path = Filename.concat dir rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    files;
  Sys.chdir dir;
  f ()

let sha_main = "0123456789abcdef0123456789abcdef01234567"
let sha_other = "fedcba9876543210fedcba9876543210fedcba98"

let git_rev_tests =
  [
    tc "git_rev: symbolic HEAD via a loose ref" (fun () ->
        with_checkout
          [
            (".git/HEAD", "ref: refs/heads/main\n");
            (".git/refs/heads/main", sha_main ^ "\n");
          ]
        @@ fun () -> check_string "rev" "0123456" (Harness.Bench.git_rev ()));
    tc "git_rev: symbolic HEAD via packed-refs" (fun () ->
        with_checkout
          [
            (".git/HEAD", "ref: refs/heads/main\n");
            ( ".git/packed-refs",
              "# pack-refs with: peeled fully-peeled sorted\n" ^ sha_other
              ^ " refs/heads/other\n" ^ sha_main ^ " refs/heads/main\n" );
          ]
        @@ fun () -> check_string "rev" "0123456" (Harness.Bench.git_rev ()));
    tc "git_rev: detached HEAD" (fun () ->
        with_checkout [ (".git/HEAD", sha_other ^ "\n") ] @@ fun () ->
        check_string "rev" "fedcba9" (Harness.Bench.git_rev ()));
    tc "git_rev: no .git gives unknown" (fun () ->
        with_checkout [ ("README", "no checkout here\n") ] @@ fun () ->
        check_string "rev" "unknown" (Harness.Bench.git_rev ()));
  ]

let registry_tests =
  [
    tc "all six schemes are registered" (fun () ->
        check_int "count" 6 (List.length Harness.Registry.names);
        List.iter
          (fun s ->
            let mm = mm_of s (small_cfg ()) in
            check_string "name matches" s (Mm_intf.name mm))
          Harness.Registry.names);
    tc "rc subset is correct" (fun () ->
        check_bool "wfrc rc" true (List.mem "wfrc" Harness.Registry.rc_names);
        check_bool "hp not rc" false (List.mem "hp" Harness.Registry.rc_names));
    tc "unknown scheme rejected with the known list" (fun () ->
        fails_with ~substring:"unknown scheme" (fun () ->
            Harness.Registry.find "nope"));
  ]

(* Bucket-precision and algebraic properties of the histogram — the
   guarantees the percentile documentation promises. *)
let hist_bucket_tests =
  [
    tc "bucket_value/bucket_of round-trip over every reachable bucket"
      (fun () ->
        (* walk the sample space densely below 2^16, then by strides;
           every bucket that [bucket_of] can produce is visited *)
        let seen = Hashtbl.create 64 in
        let visit v =
          let b = Hist.bucket_of v in
          if not (Hashtbl.mem seen b) then begin
            Hashtbl.add seen b ();
            check_int
              (Printf.sprintf "bucket_of (bucket_value %d)" b)
              b
              (Hist.bucket_of (Hist.bucket_value b))
          end
        in
        for v = 0 to 65_535 do
          visit v
        done;
        let v = ref 65_536 in
        while !v < 1_000_000_000 do
          visit !v;
          visit (!v + (!v / 17));
          v := !v + (!v / 23) + 1
        done);
    tc "small values are exact buckets" (fun () ->
        for v = 0 to 15 do
          check_int "identity bucket" v (Hist.bucket_of v);
          check_int "identity value" v (Hist.bucket_value v)
        done);
    qc "every sample is bracketed by its bucket"
      QCheck.(int_range 0 1_000_000_000)
      (fun v ->
        let b = Hist.bucket_of v in
        v <= Hist.bucket_value b
        && (b = 0 || Hist.bucket_value (b - 1) < v)
        (* one sub-bucket of relative error: upper bound <= v * 17/16 + 1 *)
        && Hist.bucket_value b <= (v * 17 / 16) + 1);
    qc "percentile is monotone in q"
      QCheck.(
        pair
          (list_of_size (Gen.int_range 1 100) (int_range 0 1_000_000))
          (list_of_size (Gen.int_range 2 8) (int_range 0 100)))
      (fun (vs, qs) ->
        let h = Hist.create () in
        List.iter (Hist.add h) vs;
        let ps =
          List.map
            (fun q -> Hist.percentile h (float_of_int q /. 100.0))
            (List.sort compare qs)
        in
        let rec mono = function
          | a :: (b :: _ as t) -> a <= b && mono t
          | _ -> true
        in
        mono ps);
    qc "merge_into is associative on the observables"
      QCheck.(
        triple
          (small_list (int_range 0 1_000_000))
          (small_list (int_range 0 1_000_000))
          (small_list (int_range 0 1_000_000)))
      (fun (xs, ys, zs) ->
        let mk vs =
          let h = Hist.create () in
          List.iter (Hist.add h) vs;
          h
        in
        let observe h =
          ( Hist.count h,
            Hist.min_value h,
            Hist.max_value h,
            Hist.percentile h 0.5,
            Hist.percentile h 0.9,
            Hist.percentile h 0.99 )
        in
        let l = mk xs in
        Hist.merge_into l (mk ys);
        Hist.merge_into l (mk zs);
        let yz = mk ys in
        Hist.merge_into yz (mk zs);
        let r = mk xs in
        Hist.merge_into r yz;
        observe l = observe r
        && abs_float (Hist.mean l -. Hist.mean r) < 1e-9);
    tc "n=0 edges: merging an empty histogram is the identity" (fun () ->
        let h = Hist.create () in
        Hist.add h 100;
        Hist.merge_into h (Hist.create ());
        check_int "count" 1 (Hist.count h);
        check_int "min" 100 (Hist.min_value h);
        check_int "max" 100 (Hist.max_value h);
        let e = Hist.create () in
        Hist.merge_into e (Hist.create ());
        check_int "empty+empty count" 0 (Hist.count e);
        check_int "empty min" 0 (Hist.min_value e);
        check_int "empty p0" 0 (Hist.percentile e 0.0);
        check_int "empty p100" 0 (Hist.percentile e 1.0));
  ]

module R = Harness.Report
module Sink = Harness.Sink

let sample_report () =
  R.make ~id:"T1" ~title:"a \"test\" report"
    ~cols:
      [ R.dim "scheme"; R.measure ~unit_:"ops/s" "tput"; R.measure "n" ]
    ~counters:[ ("cas_attempt", 7) ]
    ~meta:(R.meta ~seed:42 ~quick:true ~params:[ ("ops", "100") ] ())
    ~notes:[ "a note" ]
    [
      [ R.Str "wfrc"; R.Ops 2.5e6; R.Int 3 ];
      [ R.Str "lfrc"; R.Ops 3_200.0; R.Int 4 ];
    ]

let report_tests =
  [
    tc "cells render with the historical console formats" (fun () ->
        check_string "int" "42" (R.cell_to_string (R.Int 42));
        check_string "float" "1.5" (R.cell_to_string (R.Float 1.46));
        check_string "pct" "12.50%" (R.cell_to_string (R.Pct 12.5));
        check_string "ops" "2.50M" (R.cell_to_string (R.Ops 2.5e6));
        check_string "ns" "1.5us" (R.cell_to_string (R.Ns 1_500));
        check_string "str" "x" (R.cell_to_string (R.Str "x")));
    tc "make rejects ragged rows" (fun () ->
        fails_with (fun () ->
            R.make ~id:"X" ~title:"t"
              ~cols:[ R.dim "a"; R.measure "b" ]
              [ [ R.Int 1 ] ]));
    tc "headers and dims/measures derive from the columns" (fun () ->
        let r = sample_report () in
        check_bool "headers" true (R.headers r = [ "scheme"; "tput"; "n" ]);
        check_int "dims" 1 (List.length (R.dims r));
        check_int "measures" 2 (List.length (R.measures r)));
  ]

let sink_tests =
  [
    tc "table sink equals the legacy renderer on stringified cells"
      (fun () ->
        let r = sample_report () in
        check_string "same table"
          (Harness.Table.render ~headers:(R.headers r)
             ~rows:(R.row_strings r))
          (Sink.render Sink.Table r));
    tc "jsonl: one tagged object per row" (fun () ->
        let r = sample_report () in
        let lines =
          List.filter (fun l -> l <> "")
            (String.split_on_char '\n' (Sink.jsonl r))
        in
        check_int "line count" 2 (List.length lines);
        List.iter
          (fun l ->
            check_bool "tagged" true (contains l "\"report\": \"T1\""))
          lines);
    tc "to_json carries meta, columns, counters and escapes strings"
      (fun () ->
        let j = Sink.to_json (sample_report ()) in
        check_bool "escaped title" true (contains j "a \\\"test\\\" report");
        check_bool "quick flag" true (contains j "\"quick\": true");
        check_bool "seed" true (contains j "\"seed\": 42");
        check_bool "param" true (contains j "\"ops\": \"100\"");
        check_bool "unit" true (contains j "\"unit\": \"ops/s\"");
        check_bool "role" true (contains j "\"role\": \"dim\"");
        check_bool "counter" true (contains j "\"cas_attempt\": 7"));
    tc "write_json creates the directory and REPORT_<id>.json" (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "wfrc_sink_%d" (Unix.getpid ()))
        in
        let path = Sink.write_json ~dir (sample_report ()) in
        check_bool "filename" true
          (Filename.basename path = "REPORT_T1.json");
        check_bool "exists" true (Sys.file_exists path);
        Sys.remove path;
        Unix.rmdir dir);
  ]

let suite =
  hist_tests @ hist_bucket_tests @ fmt_tests @ table_tests @ report_tests
  @ sink_tests @ workload_tests @ runner_tests @ config_tests
  @ git_rev_tests @ registry_tests
