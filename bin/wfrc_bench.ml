(* Experiment CLI: regenerate any experiment table from DESIGN.md §4.

     wfrc_bench run e1                  full-size E1
     wfrc_bench run all --quick         everything, small parameters
     wfrc_bench run all --quick --json  + one REPORT_<id>.json each
     wfrc_bench bench                   backend benchmark -> BENCH_wfrc.json
     wfrc_bench list                    experiment index
     wfrc_bench schemes                 memory-manager registry

   The experiment index, the id list in --help and the `list` command
   are all derived from the spec registry (Harness.Experiments.specs);
   output formats are the Harness.Sink renderers. *)

open Cmdliner

let run_experiments ids quick csv format json_dir =
  let ids =
    match ids with
    | [ "all" ] | [] -> Harness.Experiments.ids
    | ids -> ids
  in
  (* --csv is the historical spelling of --format=csv. *)
  let sink = if csv then Harness.Sink.Csv else format in
  try
    List.iter
      (fun id ->
        let r = Harness.Experiments.run ~quick id in
        Harness.Sink.print sink r;
        match json_dir with
        | None -> ()
        | Some dir ->
            let path = Harness.Sink.write_json ~dir r in
            Printf.eprintf "wrote %s\n%!" path)
      ids;
    0
  with Invalid_argument msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let ids_arg =
  let doc =
    Printf.sprintf "Experiment ids (%s), or 'all'."
      (String.concat " " Harness.Experiments.ids)
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Small parameters (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned table (same as --format=csv)." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let format_arg =
  let doc =
    Printf.sprintf "Output format, one of %s."
      (String.concat ", "
         (List.map (fun (n, _) -> Printf.sprintf "$(b,%s)" n) Harness.Sink.all))
  in
  Arg.(
    value
    & opt (enum Harness.Sink.all) Harness.Sink.Table
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let json_arg =
  let doc =
    "Also write one REPORT_<id>.json per experiment into $(docv) \
     (default: the current directory)."
  in
  Arg.(
    value
    & opt ~vopt:(Some ".") (some string) None
    & info [ "json" ] ~docv:"DIR" ~doc)

let run_cmd =
  let doc = "Run experiments and print their tables" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ ids_arg $ quick_arg $ csv_arg $ format_arg
      $ json_arg)

(* The deferred-rc gate riding --check-scaling: at the read-heaviest
   E17 mix, eager wfrc's shared-counter FAA traffic must stay >= 5x
   wfrc_deferred's (DESIGN.md §6.3). Measured on the Sim backend via
   the reclamation oracle's access tally, so it is deterministic and
   safe to gate on in CI. *)
let check_faa_reduction () =
  let eager, deferred = Harness.Exp_deferred.faa_traffic () in
  if eager >= 5 * max 1 deferred then begin
    Printf.printf
      "faa reduction ok: eager wfrc %d arena FAAs >= 5x deferred %d\n" eager
      deferred;
    0
  end
  else begin
    Printf.eprintf
      "bench: deferred-rc regression: eager wfrc %d arena FAAs < 5x \
       wfrc_deferred %d on the read-heavy mix\n"
      eager deferred;
    1
  end

(* The CI scaling gate: compare the best Native ops/s at the lowest
   and highest measured domain counts; an inversion (fewer ops/s with
   more domains) fails the run. Any Native point counts — legacy or
   sharded — so the gate asks "does the best
   configuration at 4 domains beat the best at 1?", which is the
   question the scaling work answers on multi-core hardware. *)
let check_scaling (points : Harness.Bench.point list) =
  let native =
    List.filter
      (fun (p : Harness.Bench.point) -> p.backend = Atomics.Backend.Native)
      points
  in
  match native with
  | [] ->
      Printf.eprintf "bench: --check-scaling: no native points measured\n";
      1
  | _ ->
      let ts = List.map (fun (p : Harness.Bench.point) -> p.threads) native in
      let lo = List.fold_left min max_int ts
      and hi = List.fold_left max min_int ts in
      let best t =
        List.fold_left
          (fun acc (p : Harness.Bench.point) ->
            if p.threads = t then max acc p.ops_per_sec else acc)
          0. native
      in
      let blo = best lo and bhi = best hi in
      if hi <= lo then begin
        Printf.eprintf
          "bench: --check-scaling: only one domain count measured (%d)\n" lo;
        0
      end
      else if bhi < blo then begin
        Printf.eprintf
          "bench: scaling inversion: best native throughput %.0f ops/s at \
           %d domains < %.0f ops/s at %d domain%s\n"
          bhi hi blo lo
          (if lo = 1 then "" else "s");
        1
      end
      else begin
        Printf.printf
          "scaling ok: best native %.0f ops/s at %d domains >= %.0f ops/s \
           at %d\n"
          bhi hi blo lo;
        0
      end

let run_bench schemes quick out format json_dir scaling actor =
  let schemes =
    match schemes with [] -> [ "wfrc" ] | schemes -> schemes
  in
  (* Enough pairs that domain spawn/join and cache warm-up are noise:
     at ~8M pairs/s a 200k-pair run is ~25ms of measured loop against
     ~1ms of setup; 50k runs were dominated by it at 4 domains. *)
  let ops = if quick then 10_000 else 200_000 in
  let threads_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  try
    let spine = Harness.Exp_support.Spine.create () in
    let points =
      Harness.Bench.run_suite ~spine ~schemes ~threads_list ~ops ()
    in
    (* One actor-service point per scheme at the highest domain count:
       the same managers driven through Actor.Service send/receive
       traffic, keyed "<scheme>+actor" next to the churn points. *)
    let points =
      if not actor then points
      else
        let threads = List.fold_left max 1 threads_list in
        let actors = if quick then 1_024 else 10_000 in
        points
        @ List.map
            (fun scheme ->
              Harness.Bench.run_actor_point ~spine ~threads ~actors ~ops
                ~scheme ())
            schemes
    in
    let report =
      Harness.Bench.report
        ~counters:(Harness.Exp_support.Spine.totals spine)
        points
    in
    Harness.Sink.print format report;
    Harness.Bench.write_json ~path:out points;
    Printf.printf "wrote %s\n" out;
    (match json_dir with
    | None -> ()
    | Some dir ->
        let path = Harness.Sink.write_json ~dir report in
        Printf.printf "wrote %s\n" path);
    if scaling then
      let rc1 = check_scaling points in
      let rc2 = check_faa_reduction () in
      max rc1 rc2
    else 0
  with
  | Invalid_argument msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

let bench_cmd =
  let doc =
    "Benchmark the sim vs native memory backends (alloc/release churn) \
     and write machine-readable results"
  in
  let schemes_arg =
    let doc = "Schemes to benchmark (default: wfrc)." in
    Arg.(value & pos_all string [] & info [] ~docv:"SCHEME" ~doc)
  in
  let out_arg =
    let doc = "Output JSON path." in
    Arg.(
      value
      & opt string "BENCH_wfrc.json"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let scaling_arg =
    let doc =
      "Fail (exit 1) if the best native throughput at the highest domain \
       count is below the best at the lowest — the multi-core scaling \
       gate CI runs."
    in
    Arg.(value & flag & info [ "check-scaling" ] ~doc)
  in
  let actor_arg =
    let doc =
      "Also measure one actor-service point per scheme (Native, highest \
       domain count): send/receive traffic against a pre-spawned \
       Actor.Service, keyed \"<scheme>+actor\" in the output JSON."
    in
    Arg.(value & flag & info [ "actor" ] ~doc)
  in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const run_bench $ schemes_arg $ quick_arg $ out_arg $ format_arg
      $ json_arg $ scaling_arg $ actor_arg)

let list_cmd =
  let doc = "List the experiment index" in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (s : Harness.Exp.spec) ->
              Printf.printf "  %-4s %s\n" s.Harness.Exp.id s.Harness.Exp.descr)
            Harness.Experiments.specs;
          0)
      $ const ())

let schemes_cmd =
  let doc = "List the registered memory-management schemes" in
  Cmd.v (Cmd.info "schemes" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun name ->
              Printf.printf "  %-8s%s\n" name
                (if List.mem name Harness.Registry.rc_names then
                   " (reference counting: supports arbitrary structures)"
                 else " (retire-based: fixed-reference structures only)"))
            Harness.Registry.names;
          0)
      $ const ())

let main_cmd =
  let doc =
    "Reproduction harness for 'Wait-Free Reference Counting and Memory \
     Management' (Sundell, 2005)"
  in
  Cmd.group
    (Cmd.info "wfrc_bench" ~version:"1.0.0" ~doc)
    [ run_cmd; bench_cmd; list_cmd; schemes_cmd ]

let () = exit (Cmd.eval' main_cmd)
