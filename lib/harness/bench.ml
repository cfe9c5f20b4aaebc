(* The current git revision (7-hex short form), stamped on every
   benchmark results file. Reads .git directly — no subprocess — and
   degrades to "unknown" outside a checkout. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  let resolve_ref r =
    match read_line (".git/" ^ r) with
    | Some sha when String.length sha >= 7 -> Some sha
    | _ -> (
        (* packed refs: lines of the form "<sha> <refname>" *)
        try
          let ic = open_in ".git/packed-refs" in
          let rec scan () =
            match input_line ic with
            | line ->
                if
                  String.length line > 41
                  && line.[0] <> '#'
                  && String.sub line 41 (String.length line - 41) = r
                then Some (String.sub line 0 40)
                else scan ()
            | exception End_of_file -> None
          in
          let res = scan () in
          close_in ic;
          res
        with Sys_error _ -> None)
  in
  let sha =
    match read_line ".git/HEAD" with
    | Some head when String.length head > 5 && String.sub head 0 5 = "ref: "
      ->
        resolve_ref (String.sub head 5 (String.length head - 5))
    | Some sha when String.length sha >= 7 -> Some sha
    | _ -> None
  in
  match sha with
  | Some sha when String.length sha >= 7 -> String.sub sha 0 7
  | _ -> "unknown"
