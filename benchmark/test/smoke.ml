(* Smoke test of the benchmark: every workload for one round of 0.1 s
   trials with tracing on, so both trial kinds and every correctness
   check run. The metric names and units it reports must be exactly the
   ones BENCHMARK.json lists, both ways, and a results file must read
   back and compare against itself as unchanged. *)

module R = Bench_core.Run
module O = Bench_core.Output

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      incr failures)
    fmt

let () =
  let cfg =
    R.config ~smoke:true ~workloads:Bench_core.Workloads.all ~seed:1 ~trace:true
      ~domains:(R.default_domains ()) ~keep_log:false ()
  in
  let r = R.run cfg in
  List.iter (fun (w, e) -> fail "check failed [%s] %s" w e) r.errors;
  if r.failed > 0 then fail "%d failed ops" r.failed;
  let spec = O.load_spec "../../BENCHMARK.json" in
  let names ws = List.sort_uniq compare ws in
  let same what ~printed ~listed =
    List.iter
      (fun x ->
        if not (List.mem x listed) then
          fail "%s not in BENCHMARK.json: %s" what x)
      printed;
    List.iter
      (fun x -> if not (List.mem x printed) then fail "%s not printed: %s" what x)
      listed
  in
  same "workload"
    ~printed:(List.map (fun (w : Bench_core.Workloads.t) -> w.name) cfg.workloads)
    ~listed:spec.workloads;
  List.iter
    (fun (w : Bench_core.Workloads.t) ->
      let printed e2e =
        names
          (List.filter_map
             (fun (m : R.metric) ->
               if m.workload = w.name && m.e2e = e2e then
                 Some (m.name ^ " " ^ m.unit_)
               else None)
             r.metrics)
      in
      let listed l = names (List.map (fun m -> O.(m.s_name ^ " " ^ m.s_unit)) l) in
      same (w.name ^ " end-to-end metric") ~printed:(printed true)
        ~listed:(listed spec.e2e);
      same (w.name ^ " per-layer metric") ~printed:(printed false)
        ~listed:(listed spec.layer))
    cfg.workloads;
  O.write_results ~path:"smoke_results.json" ~cfg r;
  let back = O.read_results "smoke_results.json" in
  if List.length back <> List.length r.metrics then
    fail "results file read back %d of %d metrics" (List.length back)
      (List.length r.metrics)
  else
    List.iter2
      (fun (m : R.metric) (workload, name, _, median, values) ->
        if
          workload <> m.workload || name <> m.name || values <> m.values
          || median <> Bench_core.Stats.median m.values
        then fail "results file misread %s %s" m.workload m.name)
      r.metrics back;
  List.iter
    (fun (m : R.metric) ->
      match List.find_opt (fun s -> s.O.s_name = m.name) spec.e2e with
      | Some s ->
          let _, _, v =
            Bench_core.Compare.verdict ~lower_better:s.lower_better ~bound:s.bound
              m.values m.values
          in
          if v <> "unchanged" then
            fail "%s %s compares against itself as %s" m.workload m.name v
      | None -> ())
    r.metrics;
  if !failures > 0 then exit 1;
  Printf.printf "smoke: %d workloads, %d metrics, %d ops, all checks passed\n"
    (List.length cfg.workloads) (List.length r.metrics) r.attempted
