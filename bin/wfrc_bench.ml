(* Experiment CLI: regenerate any experiment table from DESIGN.md §4.

     wfrc_bench run e1                  full-size E1
     wfrc_bench run e15                 native scaling sweep + its verdict
     wfrc_bench run all --quick         everything, small parameters
     wfrc_bench run all --quick --json  + one REPORT_<id>.json each
     wfrc_bench list                    experiment index
     wfrc_bench schemes                 memory-manager registry

   The experiment index, the id list in --help and the `list` command
   are all derived from the spec registry (Harness.Experiments.specs);
   output formats are the Harness.Sink renderers. Performance is
   measured by the repository benchmark (benchmark/), not here. *)

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
    [ run_cmd; list_cmd; schemes_cmd ]

let () = exit (Cmd.eval' main_cmd)
