(* A parse-tree protocol checker for the reclamation API.

   The paper's user model (§3.2) imposes discipline the type system
   cannot see: every reference acquired through DeRefLink/AllocNode
   must be released, and clients must never reach around the manager
   to the raw shared-memory primitives. This library walks parsetrees
   (compiler-libs, no typing) and enforces the syntactic shadow of
   those rules.

   It is organised as a registry of passes:

   - [protocol]        — ownership balance (interprocedural) and the
                         raw-primitives layering rules.
   - [counter-coverage]— every Counters.event constructor is live
                         somewhere (.ml or the C stubs).
   - [stub-ordering]   — every __atomic_* call site in the C stubs
                         uses a memory order the declared table
                         admits (today: SEQ_CST everywhere).
   - [progress]        — the static wait-freedom checker (Progress).

   Ownership checking is interprocedural: every function defined in
   the scanned tree gets a per-parameter summary (does the callee
   consume the reference — release it, return it, store it — or
   merely borrow it?), computed as a least fixpoint over the call
   graph. A reference handed to an in-tree *borrowing* helper is NOT
   discharged; the old accessor-name allowlist survives only as the
   fallback for callees outside the scan (stdlib, other libraries). *)

open Parsetree

module Progress = Progress
(* re-export: [lint] is a wrapped library whose interface module is
   [Lint]; clients reach the analyzer as [Lint.Progress]. *)

type violation = { file : string; line : int; rule : string; msg : string }

let to_string v = Printf.sprintf "%s:%d: [%s] %s" v.file v.line v.rule v.msg

(* ---------------- Names ------------------------------------------- *)

let fn_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.last txt)
  | _ -> None

(* The acquiring operations of Mm_intf: their result carries a
   reference the caller owes back. *)
let acquire_fns = [ "deref"; "alloc"; "copy_ref" ]

(* Discharging operations: the reference obligation ends here. *)
let release_fns = [ "release"; "terminate"; "make_immortal"; "release_ref" ]

(* CAS-publish hand-off points: on success the reference moves into a
   shared slot (the H6 answer CAS); on failure it stays with the
   caller, who must release on that branch (H7 does). A per-parameter
   consume/borrow bit cannot express outcome-conditional transfer, so
   these few audited sites are declared rather than inferred. *)
let transfer_fns = [ "answer_cas" ]

(* Read-through accessors: a reference passed to one of these is
   used, not consumed — the obligation stays with the caller. This
   includes cas_link/store_link, whose link share is managed
   internally by the scheme (Mm_intf): linking a node does NOT
   discharge the caller's own reference.

   Since the ownership pass went interprocedural this list is only
   the fallback for callees defined *outside* the scanned tree;
   in-tree helpers carry computed summaries instead. *)
let accessor_fns =
  [
    "read"; "write"; "cas"; "faa"; "swap"; "read_data"; "write_data";
    "read_link"; "write_link"; "read_mm_ref"; "faa_mm_ref"; "cas_mm_ref";
    "read_mm_next"; "write_mm_next"; "mm_ref_addr"; "mm_next_addr";
    "link_addr"; "data_addr"; "node_base"; "dump_node"; "cas_link";
    "store_link"; "is_null"; "is_marked"; "mark"; "unmark"; "handle";
    "same_node"; "pp_ptr"; "pp_word"; "ignore"; "not"; "incr"; "decr";
  ]

(* Calls that abort the path: the obligation is excused on
   exceptional exits. *)
let abort_fns = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "failf" ]

(* ---------------- Expression queries ------------------------------ *)

exception Found

let mentions v e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when x = v ->
              raise Found
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

(* [if not (is_null v) then ...]: the null-guard idiom. The branch
   where [v] is null carries no obligation, so a release in either
   arm discharges. *)
let null_guard v cond =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args)
            when fn_name f = Some "is_null"
                 && List.exists (fun (_, a) -> mentions v a) args ->
              raise Found
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it cond;
    false
  with Found -> true

(* ---------------- Ownership summaries ------------------------------ *)

(* One scanned function: where it lives, its parameters (label +
   variable), its body, and the computed per-parameter consume flags.
   [consumes.(i)] starts false (borrowing) and monotonically flips to
   true as the fixpoint proves the body discharges parameter i. *)
type fsum = {
  f_params : (string option * string) list;
  f_body : expression;
  f_consumes : bool array;
}

type summaries = {
  (* (file, function) -> summary *)
  by_key : (string * string, fsum) Hashtbl.t;
  (* Module name -> file, for cross-file resolution; modules whose
     basename is ambiguous in the scan are absent (fallback rules
     apply to them). *)
  mod_file : (string, string) Hashtbl.t;
}

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

(* Resolve an applied function expression to an in-tree summary.
   [Lident f] resolves in the same file; [Ldot (M, f)] through the
   module map. *)
let resolve_callee summaries ~file f =
  match f.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } ->
      Hashtbl.find_opt summaries.by_key (file, n)
  | Pexp_ident { txt = Longident.Ldot (path, n); _ } -> (
      let rec last_mod = function
        | Longident.Lident m -> m
        | Longident.Ldot (_, m) -> m
        | Longident.Lapply (_, r) -> last_mod r
      in
      match Hashtbl.find_opt summaries.mod_file (last_mod path) with
      | Some f' -> Hashtbl.find_opt summaries.by_key (f', n)
      | None -> None)
  | _ -> None

(* Does the call [args] against [callee] consume [v]? Every argument
   mentioning [v] is matched to its parameter (by label, then by
   positional index); consumption happens iff some such parameter has
   a true consume flag, or [v] flows into an argument the parameter
   list cannot account for (over-application: conservative
   transfer). *)
let call_consumes (callee : fsum) args v =
  let positional_params =
    List.filteri
      (fun _ (lbl, _) -> lbl = None)
      (List.mapi (fun i (lbl, _) -> (lbl, i)) callee.f_params)
  in
  let param_index lbl ~pos =
    match lbl with
    | Some l ->
        let rec find i = function
          | [] -> None
          | (Some l', _) :: _ when l' = l -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 callee.f_params
    | None -> (
        match List.nth_opt positional_params pos with
        | Some (_, i) -> Some i
        | None -> None)
  in
  let pos = ref (-1) in
  List.exists
    (fun (al, a) ->
      let lbl =
        match al with
        | Asttypes.Nolabel ->
            incr pos;
            None
        | Asttypes.Labelled l | Asttypes.Optional l -> Some l
      in
      mentions v a
      &&
      match param_index lbl ~pos:!pos with
      | Some i -> callee.f_consumes.(i)
      | None -> true)
    args

(* Does [e] discharge the obligation on [v] along every
   non-exceptional path? "Discharge" is a release-ish call, a return,
   a store into any data structure, or a hand-off to a *consuming*
   function (in-tree summaries; unknown external callees count as
   ownership transfer unless they are known pure accessors). *)
let discharges ~summaries ~file v e =
  let rec go v e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when x = v ->
        true (* returned *)
    | Pexp_apply (f, args) -> (
        match fn_name f with
        | Some n when List.mem n release_fns ->
            List.exists (fun (_, a) -> mentions v a) args
        | Some n when List.mem n abort_fns -> true
        | Some n when List.mem n transfer_fns ->
            List.exists (fun (_, a) -> mentions v a) args
        | _ -> (
            match resolve_callee summaries ~file f with
            | Some callee -> call_consumes callee args v
            | None -> (
                match fn_name f with
                | Some n when List.mem n accessor_fns -> false
                | _ -> List.exists (fun (_, a) -> mentions v a) args)))
    | Pexp_sequence (a, b) -> go v a || go v b
    | Pexp_let (_, vbs, body) ->
        List.exists (fun vb -> go v vb.pvb_expr) vbs
        || go v body
        (* [let u = Value.unmark v in ...]: [u] aliases the same node
           reference (mark/unmark only toggle the low bit), so
           discharging the alias discharges [v]. *)
        || List.exists
             (fun vb ->
               match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
               | Ppat_var { txt = a; _ }, Pexp_apply (f, args)
                 when (fn_name f = Some "mark" || fn_name f = Some "unmark")
                      && List.exists (fun (_, x) -> mentions v x) args ->
                   a <> v && go a body
               | _ -> false)
             vbs
    | Pexp_ifthenelse (c, th, el) ->
        go v c
        ||
        let el_d = match el with Some e -> go v e | None -> false in
        if null_guard v c then go v th || el_d
        else go v th && el_d
    | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
        go v scr
        || (cases <> [] && List.for_all (fun c -> go v c.pc_rhs) cases)
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> mentions v a
    | Pexp_tuple es | Pexp_array es -> List.exists (mentions v) es
    | Pexp_record (fields, base) ->
        List.exists (fun (_, a) -> mentions v a) fields
        || (match base with Some b -> mentions v b | None -> false)
    | Pexp_setfield (a, _, b) -> mentions v a || mentions v b
    | Pexp_fun (_, _, _, body) -> mentions v body (* captured by a closure *)
    | Pexp_function cases ->
        List.exists (fun c -> mentions v c.pc_rhs) cases
    | Pexp_while _ | Pexp_for _ -> mentions v e (* conservative on loops *)
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        true (* assert false aborts the path *)
    | Pexp_constraint (a, _)
    | Pexp_coerce (a, _, _)
    | Pexp_open (_, a)
    | Pexp_letmodule (_, _, a)
    | Pexp_letexception (_, a) ->
        go v a
    | _ -> false
  in
  go v e

let acquire_rhs e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match fn_name f with
      | Some n when List.mem n acquire_fns -> Some n
      | _ -> None)
  | _ -> None

(* Collect one file's top-level function bindings (including inside
   module/functor bodies) into the summary table. *)
let collect_functions summaries ~file str =
  let rec scan_structure str =
    List.iter
      (fun it ->
        match it.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = name; _ }
                  when (match vb.pvb_expr.pexp_desc with
                       | Pexp_fun _ | Pexp_newtype _ -> true
                       | _ -> false) ->
                    let params, body = strip_params [] vb.pvb_expr in
                    Hashtbl.replace summaries.by_key (file, name)
                      {
                        f_params = params;
                        f_body = body;
                        f_consumes =
                          Array.make (List.length params) false;
                      }
                | _ -> ())
              vbs
        | Pstr_module mb -> scan_module mb.pmb_expr
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> scan_module mb.pmb_expr) mbs
        | _ -> ())
      str
  and scan_module m =
    match m.pmod_desc with
    | Pmod_structure s -> scan_structure s
    | Pmod_functor (_, body) -> scan_module body
    | Pmod_constraint (m, _) -> scan_module m
    | _ -> ()
  in
  scan_structure str

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Least fixpoint: flip a parameter to consuming when the body
   provably discharges it under the current table. Monotone, so
   iteration terminates. *)
let build_summaries structures =
  let summaries =
    { by_key = Hashtbl.create 256; mod_file = Hashtbl.create 64 }
  in
  let ambiguous = Hashtbl.create 8 in
  List.iter
    (fun (f, s) ->
      let m = module_of_file f in
      (match Hashtbl.find_opt summaries.mod_file m with
      | Some f' when f' <> f -> Hashtbl.replace ambiguous m ()
      | _ -> Hashtbl.replace summaries.mod_file m f);
      collect_functions summaries ~file:f s)
    structures;
  Hashtbl.iter (fun m () -> Hashtbl.remove summaries.mod_file m) ambiguous;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (file, _) fs ->
        List.iteri
          (fun i (_, var) ->
            if (not fs.f_consumes.(i)) && var <> "_" then
              if
                discharges ~summaries ~file var fs.f_body
              then begin
                fs.f_consumes.(i) <- true;
                changed := true
              end)
          fs.f_params)
      summaries.by_key
  done;
  summaries

(* ---------------- Protocol pass ----------------------------------- *)

let dir_of file = Filename.basename (Filename.dirname file)

(* Layers allowed to name the raw shared-memory primitives and the
   native free store: the managers themselves plus the layers below
   them. Everything else must go through Mm_intf. *)
let primitives_ok = [ "atomics"; "shmem"; "core"; "lfrc"; "hazard"; "epoch"; "lockrc" ]
let freestore_ok = [ "shmem"; "core"; "lfrc"; "hazard"; "epoch"; "lockrc" ]

(* The raw unboxed word store is one tier below even the managers:
   only the atomics layer itself, the arena/freestore facades and the
   core scheme (whose cross-store fusions need the raw blocks) may
   name it. The baseline managers address through Arena/Hot. *)
let words_ok = [ "atomics"; "shmem"; "core" ]

let restricted_module file comp =
  (comp = "Primitives" && not (List.mem (dir_of file) primitives_ok))
  || (comp = "Freestore" && not (List.mem (dir_of file) freestore_ok))
  || (comp = "Words" && not (List.mem (dir_of file) words_ok))

let check_lid add ~file lid (loc : Location.t) =
  List.iter
    (fun comp ->
      if restricted_module file comp then
        add ~file ~line:loc.loc_start.pos_lnum ~rule:"raw-primitives"
          (Printf.sprintf
             "%s is reserved to the managers and the shmem/atomics layers; \
              go through Mm_intf"
             comp))
    (Longident.flatten lid)

let check_structure add ~summaries ~file str =
  let expr_hook self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_lid add ~file txt loc
    | Pexp_let (_, vbs, cont) ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, acquire_rhs vb.pvb_expr) with
            | Ppat_var { txt = v; _ }, Some fn ->
                if not (discharges ~summaries ~file v cont) then
                  add ~file ~line:vb.pvb_loc.loc_start.pos_lnum
                    ~rule:"unbalanced-deref"
                    (Printf.sprintf
                       "`%s' bound from %s is not released (or handed off) \
                        on every path"
                       v fn)
            | Ppat_any, Some fn ->
                add ~file ~line:vb.pvb_loc.loc_start.pos_lnum
                  ~rule:"unbalanced-deref"
                  (Printf.sprintf
                     "result of %s is dropped: the acquired reference can \
                      never be released"
                     fn)
            | _ -> ())
          vbs
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let module_expr_hook self m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_lid add ~file txt loc
    | _ -> ());
    Ast_iterator.default_iterator.module_expr self m
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr_hook;
      module_expr = module_expr_hook;
    }
  in
  it.structure it str

(* ---------------- C sources ---------------------------------------- *)

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
let collect_c acc path = collect_suffix ~suffix:".c" acc path

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Blank out C comments and string literals (preserving newlines so
   line numbers survive). *)
let decomment_c src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.get b !i in
    if c = '/' && !i + 1 < n && Bytes.get b (!i + 1) = '*' then begin
      let j = ref !i in
      while
        !j + 1 < n
        && not (Bytes.get b !j = '*' && Bytes.get b (!j + 1) = '/')
      do
        blank !j;
        incr j
      done;
      if !j + 1 < n then begin
        blank !j;
        blank (!j + 1);
        i := !j + 2
      end
      else i := n
    end
    else if c = '/' && !i + 1 < n && Bytes.get b (!i + 1) = '/' then begin
      let j = ref !i in
      while !j < n && Bytes.get b !j <> '\n' do
        blank !j;
        incr j
      done;
      i := !j
    end
    else if c = '"' then begin
      blank !i;
      let j = ref (!i + 1) in
      while
        !j < n
        && not (Bytes.get b !j = '"' && Bytes.get b (!j - 1) <> '\\')
      do
        blank !j;
        incr j
      done;
      if !j < n then blank !j;
      i := !j + 1
    end
    else incr i
  done;
  Bytes.to_string b

let line_at src pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length src - 1) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* Whole-word occurrences of [tok] in [src]. *)
let word_occurs src tok =
  let lt = String.length tok and ls = String.length src in
  let rec go i =
    if i + lt > ls then false
    else if
      String.sub src i lt = tok
      && (i = 0 || not (is_ident_char src.[i - 1]))
      && (i + lt >= ls || not (is_ident_char src.[i + lt]))
    then true
    else go (i + 1)
  in
  go 0

(* ---------------- stub-ordering pass ------------------------------- *)

(* The declared ordering contract for the C stubs, keyed by the
   __atomic builtin's suffix; "*" is the default row. Today the whole
   tree is SEQ_CST — any future relaxed-ordering perf work must edit
   this table explicitly (and justify the edit in review), which is
   the point: orderings become a contract, not an accident. *)
let atomic_ordering_table : (string * string list) list =
  [ ("*", [ "__ATOMIC_SEQ_CST" ]) ]

let allowed_orderings builtin =
  match List.assoc_opt builtin atomic_ordering_table with
  | Some l -> l
  | None -> (
      match List.assoc_opt "*" atomic_ordering_table with
      | Some l -> l
      | None -> [])

(* Scan one decommented C source for __atomic_* call sites; check
   every __ATOMIC_* token among the arguments against the table, and
   flag calls whose memory order is not a literal __ATOMIC_ token at
   all (a variable order cannot be audited statically). *)
let check_stub_ordering add ~file src =
  let n = String.length src in
  let i = ref 0 in
  let pat = "__atomic_" in
  let lp = String.length pat in
  while !i + lp <= n do
    if
      String.sub src !i lp = pat
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
    then begin
      (* builtin name *)
      let j = ref (!i + lp) in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let builtin = String.sub src (!i + lp) (!j - (!i + lp)) in
      let line = line_at src !i in
      (* skip whitespace to the opening paren; a bare mention (e.g.
         in a macro definition) without a call is ignored *)
      let k = ref !j in
      while !k < n && (src.[!k] = ' ' || src.[!k] = '\n' || src.[!k] = '\t') do
        incr k
      done;
      if !k < n && src.[!k] = '(' then begin
        (* balanced-paren argument span *)
        let depth = ref 0 and stop = ref (-1) and p = ref !k in
        while !stop < 0 && !p < n do
          (match src.[!p] with
          | '(' -> incr depth
          | ')' ->
              decr depth;
              if !depth = 0 then stop := !p
          | _ -> ());
          incr p
        done;
        let args =
          if !stop > !k then String.sub src (!k + 1) (!stop - !k - 1)
          else ""
        in
        (* every __ATOMIC_ token in the argument list *)
        let allowed = allowed_orderings builtin in
        let found = ref 0 in
        let la = String.length args in
        let q = ref 0 in
        let tok_pat = "__ATOMIC_" in
        let ltp = String.length tok_pat in
        while !q + ltp <= la do
          if
            String.sub args !q ltp = tok_pat
            && (!q = 0 || not (is_ident_char args.[!q - 1]))
          then begin
            let e = ref (!q + ltp) in
            while !e < la && is_ident_char args.[!e] do
              incr e
            done;
            let tok = String.sub args !q (!e - !q) in
            incr found;
            if not (List.mem tok allowed) then
              add ~file ~line:(line_at src (!k + 1 + !q))
                ~rule:"stub-ordering"
                (Printf.sprintf
                   "__atomic_%s uses %s; the declared ordering table admits \
                    only {%s} — relaxing an ordering means editing the \
                    table, with justification"
                   builtin tok
                   (String.concat ", " allowed));
            q := !e
          end
          else incr q
        done;
        if !found = 0 then
          add ~file ~line ~rule:"stub-ordering"
            (Printf.sprintf
               "__atomic_%s call carries no literal __ATOMIC_* memory \
                order: a variable order cannot be audited statically"
               builtin);
        i := !stop + 1
      end
      else i := !j
    end
    else incr i
  done

(* ---------------- counter-coverage pass ---------------------------- *)

(* Every [Counters.event] constructor must be constructed somewhere in
   the scanned tree (outside counters.ml itself): an event nobody can
   increment is dead telemetry, and the instrumentation layers are
   required to keep the whole vocabulary live. The scan covers OCaml
   constructors and — since the park/futex paths may one day bump
   counters from C — whole-word token occurrences in the C stubs.
   Matching is by constructor name (parsetrees carry no module
   resolution), which is the usual precision of a syntactic lint. *)
let counter_constructors str =
  let out = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.iter
            (fun d ->
              if d.ptype_name.txt = "event" then
                match d.ptype_kind with
                | Ptype_variant cds ->
                    List.iter
                      (fun cd ->
                        out :=
                          (cd.pcd_name.txt, cd.pcd_loc.loc_start.pos_lnum)
                          :: !out)
                      cds
                | _ -> ())
            decls
      | _ -> ())
    str;
  List.rev !out

let check_counter_coverage add structures c_sources =
  match
    List.find_opt
      (fun (f, _) -> Filename.basename f = "counters.ml")
      structures
  with
  | None -> () (* counters.ml not in scope: nothing to check *)
  | Some (cfile, cstr) ->
      let wanted = counter_constructors cstr in
      if wanted <> [] then begin
        let constructed = Hashtbl.create 64 in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun self e ->
                (match e.pexp_desc with
                | Pexp_construct ({ txt; _ }, _) ->
                    Hashtbl.replace constructed (Longident.last txt) ()
                | _ -> ());
                Ast_iterator.default_iterator.expr self e);
          }
        in
        List.iter
          (fun (f, s) -> if f <> cfile then it.structure it s)
          structures;
        List.iter
          (fun (name, line) ->
            if
              (not (Hashtbl.mem constructed name))
              && not
                   (List.exists
                      (fun (_, src) -> word_occurs src name)
                      c_sources)
            then
              add ~file:cfile ~line ~rule:"counter-coverage"
                (Printf.sprintf
                   "Counters.%s is never constructed: dead telemetry event"
                   name))
          wanted
      end

(* ---------------- Pass registry / driver --------------------------- *)

let parse_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lb = Lexing.from_channel ic in
      Lexing.set_filename lb file;
      Parse.implementation lb)

let passes =
  [
    ( "protocol",
      "ownership balance (interprocedural consume/borrow summaries) and \
       raw-primitives layering" );
    ( "counter-coverage",
      "every Counters.event constructor is live in .ml or the C stubs" );
    ( "stub-ordering",
      "__atomic_* call sites in C stubs match the declared ordering table" );
    ( "progress",
      "static wait-freedom: loop/recursion cycles vs the file's declared \
       progress contract" );
  ]

let pass_names = List.map fst passes

let run_passes ~passes:selected ~roots =
  List.iter
    (fun p ->
      if not (List.mem p pass_names) then
        invalid_arg (Printf.sprintf "unknown lint pass %S" p))
    selected;
  let want p = List.mem p selected in
  let out = ref [] in
  let add ~file ~line ~rule msg = out := { file; line; rule; msg } :: !out in
  let ml_files = List.sort compare (List.fold_left collect_ml [] roots) in
  let c_files = List.sort compare (List.fold_left collect_c [] roots) in
  let needs_ml = want "protocol" || want "counter-coverage" in
  let structures =
    if not needs_ml then []
    else
      List.filter_map
        (fun f ->
          match parse_file f with
          | s -> Some (f, s)
          | exception e ->
              if want "protocol" then
                add ~file:f ~line:1 ~rule:"parse" (Printexc.to_string e);
              None)
        ml_files
  in
  let c_sources =
    if want "counter-coverage" || want "stub-ordering" then
      List.map (fun f -> (f, decomment_c (read_file f))) c_files
    else []
  in
  if want "protocol" then begin
    let summaries = build_summaries structures in
    List.iter (fun (f, s) -> check_structure add ~summaries ~file:f s) structures
  end;
  if want "counter-coverage" then
    check_counter_coverage add structures c_sources;
  if want "stub-ordering" then
    List.iter (fun (f, src) -> check_stub_ordering add ~file:f src) c_sources;
  if want "progress" then begin
    let r = Progress.analyze ~roots in
    List.iter
      (fun (v : Progress.violation) ->
        add ~file:v.v_file ~line:v.v_line ~rule:"progress" v.v_msg)
      r.violations
  end;
  List.sort
    (fun a b -> compare (a.file, a.line, a.rule, a.msg) (b.file, b.line, b.rule, b.msg))
    !out

let run ~roots = run_passes ~passes:pass_names ~roots
