(* [compare A.json... -- B.json...]: side A is the baseline, side B the
   change. Each side's value for a metric is one number per results
   file (its median over rounds); a side with a single file falls back
   to that file's per-round values.

   The verdict against BENCHMARK.json's bound follows the benchmark
   rules: a metric whose spread (q3 - q1 over the median) exceeds the
   bound on either side is unresolved, unless every B value beats
   every A value; it regressed when B's median is worse than A's by
   more than the bound; it improved when B wins at least 9/10 of the
   pairs (ties count for neither) and the medians differ by more than
   A's q3 - q1. *)

let side files =
  let runs = List.map Output.read_results files in
  fun ~workload ~name ->
    let rows =
      List.filter_map
        (List.find_map (fun (w, n, _, median, values) ->
             if w = workload && n = name then Some (median, values) else None))
        runs
    in
    match rows with
    | [ (_, values) ] -> values
    | rows -> List.map fst rows

let verdict ~lower_better ~bound a b =
  let better x y = if lower_better then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let spread v =
    let q1, q3 = Stats.quartiles v in
    (q3 -. q1) /. Float.abs (Stats.median v)
  in
  let worse = (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let n = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first a) (first b) in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let win_frac = Stats.ratio wins (List.length pairs) in
  let q1a, q3a = Stats.quartiles a in
  let v =
    if List.for_all (fun y -> List.for_all (fun x -> better y x) a) b then
      "improved"
    else
      match bound with
      | None -> "-"
      | Some bound ->
          if spread a > bound || spread b > bound then "unresolved"
          else if worse > bound then "regressed"
          else if win_frac >= 0.9 && better mb ma && Float.abs (mb -. ma) > q3a -. q1a
          then "improved"
          else "unchanged"
  in
  (wins, List.length pairs, v)

let run ~spec_path a_files b_files =
  let spec = Output.load_spec spec_path in
  let a = side a_files and b = side b_files in
  let keys =
    List.concat_map Output.read_results a_files
    |> List.map (fun (w, n, u, _, _) -> (w, n, u))
    |> List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) []
    |> List.rev
  in
  let fmt v =
    let q1, q3 = Stats.quartiles v in
    Printf.sprintf "%s [%s, %s]" (Output.short (Stats.median v)) (Output.short q1)
      (Output.short q3)
  in
  Printf.printf "%-8s %-32s %-8s %-32s %-32s %-7s %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "B wins" "verdict";
  let table gated =
    List.iter
      (fun (workload, name, unit_) ->
        let named m = m.Output.s_name = name in
        let sm = List.find_opt named spec.Output.e2e in
        if Option.is_some sm = gated then
          let va = a ~workload ~name and vb = b ~workload ~name in
          if va <> [] && vb <> [] then
            let lower_better, bound =
              match sm with
              | Some m -> (m.lower_better, m.bound)
              | None -> (
                  match List.find_opt named spec.layer with
                  | Some m -> (m.lower_better, None)
                  | None -> (true, None))
            in
            let wins, pairs, v = verdict ~lower_better ~bound va vb in
            Printf.printf "%-8s %-32s %-8s %-32s %-32s %-7s %s\n" workload name unit_
              (fmt va) (fmt vb) (Printf.sprintf "%d/%d" wins pairs) v)
      keys
  in
  table true;
  print_newline ();
  table false
