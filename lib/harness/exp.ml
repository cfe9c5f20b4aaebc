(* Declarative experiment specs. Each experiment family module
   (Exp_throughput, Exp_contention, …) exports a [spec list]; the
   registry, the CLI argument docs and the `list` subcommand are all
   derived from those specs, so adding an experiment is one record in
   one family module. *)

type params = { quick : bool }

type spec = {
  id : string;    (* registry key, lowercase: "e1", "a1", … *)
  descr : string; (* one-liner for `wfrc_bench list` / --help *)
  run : params -> Report.t;
}

let spec ~id ~descr run = { id; descr; run }

(* Display/registry order: e-experiments by number, then ablations.
   Derived from the ids so family grouping does not dictate CLI
   order. *)
let order_key id =
  let n =
    match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
    | Some n -> n
    | None -> max_int
  in
  ((if String.length id > 0 && id.[0] = 'a' then 1 else 0), n, id)

let sort specs =
  List.sort (fun a b -> compare (order_key a.id) (order_key b.id)) specs

let ids specs = List.map (fun s -> s.id) specs

let find specs id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun s -> s.id = id) specs

let run specs ?(quick = false) id =
  match find specs id with
  | Some s ->
      (* Stamp the mode into the report metadata centrally, so no
         experiment has to thread the flag through. *)
      let r = s.run { quick } in
      { r with Report.meta = { r.Report.meta with Report.quick = quick } }
  | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" id
           (String.concat ", " (ids specs)))
