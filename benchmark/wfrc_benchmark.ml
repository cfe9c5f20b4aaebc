(* The repository benchmark. See benchmark/README.md.

     wfrc_benchmark.exe [run] [--workload NAME|all] [--seed N]
         [--seconds S] [--trace 0|1] [--domains N] [--json FILE]
         [--trace-out FILE] [--smoke]
     wfrc_benchmark.exe compare A.json... -- B.json...

   [run] is the default command. The last line of its output is one
   JSON object: end-to-end metrics with --trace 0, per-layer metrics
   with --trace 1 (the default). It exits 1 when a correctness check
   fails. *)

let usage () =
  prerr_endline
    "usage: wfrc_benchmark.exe [run] [--workload NAME|all] [--seed N] \
     [--seconds S] [--trace 0|1] [--domains N] [--json FILE] [--trace-out \
     FILE] [--smoke]\n\
    \       wfrc_benchmark.exe compare A.json... -- B.json...";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> fail "%s expects an integer" flag

let run args =
  let workload = ref "all" and seed = ref 1 and seconds = ref None
  and trace = ref true and domains = ref (Bench_core.Run.default_domains ())
  and json = ref None and trace_out = ref None and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | flag :: v :: rest -> (
        (match flag with
        | "--workload" -> workload := v
        | "--seed" -> seed := int_arg flag v
        | "--seconds" -> (
            match float_of_string_opt v with
            | Some s when s > 0. -> seconds := Some s
            | _ -> fail "--seconds expects a positive number")
        | "--trace" -> (
            match v with
            | "0" -> trace := false
            | "1" -> trace := true
            | _ -> fail "--trace expects 0 or 1")
        | "--domains" ->
            let n = int_arg flag v in
            if n < 1 || n > Bench_core.Run.default_domains () then
              fail "--domains must be between 1 and %d"
                (Bench_core.Run.default_domains ());
            domains := n
        | "--json" -> json := Some v
        | "--trace-out" -> trace_out := Some v
        | _ -> usage ());
        parse rest)
    | _ -> usage ()
  in
  parse args;
  let workloads =
    if !workload = "all" then Bench_core.Workloads.all
    else
      try [ Bench_core.Workloads.find !workload ]
      with Invalid_argument msg -> fail "%s" msg
  in
  let cfg =
    Bench_core.Run.config ~smoke:!smoke ?seconds:!seconds ~workloads ~seed:!seed
      ~trace:!trace ~domains:!domains ~keep_log:(Option.is_some !trace_out) ()
  in
  let r = Bench_core.Run.run cfg in
  Bench_core.Output.print_tables ~cfg r;
  Option.iter (fun path -> Bench_core.Output.write_results ~path ~cfg r) !json;
  Option.iter (fun path -> Bench_core.Trace.write_chrome ~path r.spans) !trace_out;
  print_endline
    (Bench_core.Output.result_line r ~e2e:(not !trace)
       ~single:(List.length workloads = 1));
  if r.errors <> [] then exit 1

(* Bounds and directions come from BENCHMARK.json in the working
   directory, which is the repository root under [dune exec]. *)
let compare args =
  let rec split a = function
    | "--" :: b -> (List.rev a, b)
    | f :: rest -> split (f :: a) rest
    | [] -> usage ()
  in
  match split [] args with
  | [], _ | _, [] -> usage ()
  | a, b -> Bench_core.Compare.run ~spec_path:"BENCHMARK.json" a b

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> compare args
  | "run" :: args -> run args
  | args -> run args
