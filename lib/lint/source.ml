(* Source collection and parse-tree helpers shared by the protocol
   passes ([Lint]) and the progress analyzer ([Progress]). *)

open Parsetree

(* Every file under [path] (a file or a directory, recursively) with
   [suffix], skipping [_build] and dot-directories. *)
let rec collect_suffix ~suffix acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if name = "_build" || (String.length name > 0 && name.[0] = '.') then
          acc
        else collect_suffix ~suffix acc (Filename.concat path name))
      acc (Sys.readdir path)
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let collect_ml acc path = collect_suffix ~suffix:".ml" acc path

let parse_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lb = Lexing.from_channel ic in
      Lexing.set_filename lb file;
      Parse.implementation lb)

(* Strip the fun/newtype prelude off a binding's expression: its
   (label, variable) parameters and its body. *)
let rec strip_params acc e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let var =
        match pat.ppat_desc with
        | Ppat_var { txt; _ } -> txt
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
        | _ -> "_"
      in
      let lbl =
        match lbl with
        | Asttypes.Nolabel -> None
        | Asttypes.Labelled l | Asttypes.Optional l -> Some l
      in
      strip_params ((lbl, var) :: acc) body
  | Pexp_newtype (_, body) -> strip_params acc body
  | _ -> (List.rev acc, e)

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
