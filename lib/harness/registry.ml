(* Scheme registry: the paper's §1 comparison space, instantiable by
   name from experiments, tests and the CLI. *)

let all : (string * (module Mm_intf.S)) list =
  [
    ("wfrc", (module Wfrc));     (* the paper's wait-free scheme *)
    ("lfrc", (module Lfrc));     (* Valois/Michael–Scott lock-free RC *)
    ("hp", (module Hazard));     (* Michael's hazard pointers *)
    ("ebr", (module Epoch));     (* epoch-based reclamation *)
    ("lockrc", (module Lockrc)); (* spinlock-serialised RC *)
  ]

let names = List.map fst all

(* Schemes that support arbitrary (multi-link) structures — the
   reference-counting ones; see the paper's §1 and Pqueue's doc.
   Derived from each scheme's own flag so a new scheme cannot fall out
   of sync with the structure-compatibility lists. *)
let rc_names =
  List.filter_map
    (fun (n, (module M : Mm_intf.S)) -> if M.refcounted then Some n else None)
    all

let find name =
  match List.assoc_opt name all with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (known: %s)" name
           (String.concat ", " names))

let instantiate name cfg = Mm_intf.instantiate (find name) cfg
