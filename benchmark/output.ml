(* Everything the benchmark writes or reads back: the human tables,
   the one-line JSON result, the results file and BENCHMARK.json.

   No JSON library is installed, so both files keep one object per
   line and are read back line by line the way [Harness.Bench] reads
   BENCH_wfrc.json: a key's raw value runs up to the next ',' or '}'. *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Index just past ["key": ] (plus [suffix]) on [line]. *)
let value_start line key ~suffix =
  let pat = Printf.sprintf "\"%s\": %s" key suffix in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  find 0

(* A key's value up to the next ',' or '}', unquoted; "" if absent. *)
let field line key =
  match value_start line key ~suffix:"" with
  | None -> ""
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}'
      do
        incr stop
      done;
      let v = String.trim (String.sub line start (!stop - start)) in
      let n = String.length v in
      if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
      else v

(* The numbers of a ["key": [a, b, ...]] array on [line]. *)
let array_field line key =
  match value_start line key ~suffix:"[" with
  | None -> []
  | Some start ->
      let stop = String.index_from line start ']' in
      String.sub line start (stop - start)
      |> String.split_on_char ','
      |> List.filter_map (fun s -> float_of_string_opt (String.trim s))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let short x =
  let a = Float.abs x in
  if a = 0. then "0"
  else if a >= 1e6 then Printf.sprintf "%.3fM" (x /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.1f" x
  else if a >= 1. then Printf.sprintf "%.2f" x
  else Printf.sprintf "%.4f" x

let print_tables ~(cfg : Run.config) (r : Run.result) =
  List.iter
    (fun (workload, calls) ->
      Printf.printf "\n== %s ==\n" workload;
      Printf.printf "%-34s %-6s %12s %12s %12s  %s\n" "metric" "unit" "median"
        "q1" "q3" "values";
      List.iter
        (fun (m : Run.metric) ->
          if m.workload = workload then begin
            let q1, q3 = Stats.quartiles m.values in
            Printf.printf "%-34s %-6s %12s %12s %12s  %s\n" m.name m.unit_
              (short (Stats.median m.values)) (short q1) (short q3)
              (String.concat " " (List.map short m.values))
          end)
        r.metrics;
      if calls <> [] then begin
        Printf.printf "\n%-22s %10s %10s %12s   (traced ops, pooled)\n" "span"
          "calls/op" "ns/call" "self ns/call";
        List.iter
          (fun (name, per_op, ns, self) ->
            Printf.printf "%-22s %10.3f %10.1f %12.1f\n" name per_op ns self)
          calls
      end)
    r.per_call;
  List.iter (fun (w, e) -> Printf.printf "CHECK FAILED [%s] %s\n" w e) r.errors;
  Printf.printf
    "\nattempted %d ops, failed %d (fail_frac %.3g); %d rounds of %.3f s \
     trials on %d domains\n"
    r.attempted r.failed
    (Stats.ratio r.failed (max 1 r.attempted))
    cfg.rounds cfg.trial_s cfg.domains

(* The last stdout line. With one workload the metric keys are the
   plain names BENCHMARK.json lists; with several they are prefixed
   "<workload>.". *)
let result_line (r : Run.result) ~e2e ~single =
  let metrics =
    List.filter_map
      (fun (m : Run.metric) ->
        if m.e2e <> e2e then None
        else
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}"
               (if single then m.name else m.workload ^ "." ^ m.name)
               (json_num (Stats.median m.values))
               m.unit_))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.errors = []) (max 1 r.attempted) r.failed
    (String.concat ", " metrics)

let write_results ~path ~(cfg : Run.config) (r : Run.result) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"kind\": \"meta\", \"nproc\": %d, \"domains\": %d, \"ocaml\": %S, \
     \"rev\": %S, \"seed\": %d, \"rounds\": %d, \"trial_s\": %s, \"trace\": \
     %d}\n"
    (Domain.recommended_domain_count ())
    cfg.domains Sys.ocaml_version (Harness.Bench.git_rev ()) cfg.seed cfg.rounds
    (json_num cfg.trial_s)
    (if cfg.trace then 1 else 0);
  List.iter
    (fun (m : Run.metric) ->
      let q1, q3 = Stats.quartiles m.values in
      Printf.fprintf oc
        "{\"kind\": \"metric\", \"workload\": %S, \"name\": %S, \"unit\": %S, \
         \"median\": %s, \"q1\": %s, \"q3\": %s, \"values\": [%s]}\n"
        m.workload m.name m.unit_
        (json_num (Stats.median m.values))
        (json_num q1) (json_num q3)
        (String.concat ", " (List.map json_num m.values)))
    r.metrics;
  close_out oc

(* (workload, name, unit, median, values) of every metric line. *)
let read_results path =
  List.filter_map
    (fun line ->
      if field line "kind" <> "metric" then None
      else
        Some
          ( field line "workload",
            field line "name",
            field line "unit",
            float_of_string (field line "median"),
            array_field line "values" ))
    (read_lines path)

type spec_metric = {
  s_name : string;
  s_unit : string;
  lower_better : bool;
  bound : float option;  (* end-to-end metrics only *)
}

type spec = {
  workloads : string list;
  e2e : spec_metric list;
  layer : spec_metric list;
}

(* BENCHMARK.json keeps each workload and metric object on its own
   line, under the line naming its section. *)
let load_spec path =
  let section = ref "" in
  let w = ref [] and e = ref [] and l = ref [] in
  List.iter
    (fun line ->
      List.iter
        (fun s -> if field line s = "[" || field line s = "[]" then section := s)
        [ "workloads"; "end_to_end"; "per_layer" ];
      let name = field line "name" in
      if name <> "" then
        let m () =
          {
            s_name = name;
            s_unit = field line "unit";
            lower_better = field line "better" = "lower";
            bound = float_of_string_opt (field line "bound");
          }
        in
        match !section with
        | "workloads" -> w := name :: !w
        | "end_to_end" -> e := m () :: !e
        | "per_layer" -> l := m () :: !l
        | _ -> ())
    (read_lines path);
  { workloads = List.rev !w; e2e = List.rev !e; layer = List.rev !l }
