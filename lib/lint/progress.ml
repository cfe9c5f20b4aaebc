(* Static progress analyzer: bounded-step (wait-freedom) checking.

   The paper's claim over Valois-style lock-free RC is that every
   operation finishes in a bounded number of own steps (Lemmas 6-10).
   The repo observes this dynamically (E2/E13, Audit.Steps); this pass
   checks it *statically* against the code we actually run.

   Model. Every `.ml` file carrying a floating

       [@@@wfrc.progress "wait_free" | "lock_free" | "blocking"]

   attribute enters the analysis universe. Within the universe we
   extract every function (top-level bindings, functor bodies, and
   local `let`/`let rec` functions), find every loop and recursion
   cycle, and classify each:

   - statically bounded — a `for` loop, a `while` loop over a
     strictly advancing counter, a recursion with a fuel or cursor
     parameter that advances at every recursive site toward a
     comparison guard, or a cycle carrying a
     [@@wfrc.bounded "evidence"] annotation (the declared escape
     hatch for bounds the syntax cannot see: work-stack cascades, the
     F9-F10 two-list placement, round counters threaded through
     helpers — the annotation text is the printed evidence).
   - helping-bounded — the cycle body makes a helping call (a callee
     whose name speaks the helping vocabulary: help / donate / adopt /
     announcement) *and* contains a monotone progress witness: a
     CAS/FAA/bump_mod that strictly advances shared round-robin
     state. This is the Lemma 9 shape — a failed round implies a
     concurrent success, which in turn helps the next starving
     thread.
   - cas-retry — every recursive site sits in a branch governed by a
     CAS outcome. Unbounded for one thread, but each retry implies a
     concurrent success: the lock-free shape.
   - unbounded — none of the above.

   Per-function summaries propagate over the call graph (Tarjan SCC
   condensation, worst level wins), so a wait-free entry point calling
   an unbounded helper is flagged with the offending chain.

   Contracts: `wait_free` admits bounded/helping only; `lock_free`
   additionally admits cas-retry; `blocking` admits everything. A
   [@@wfrc.expect_unbounded "reason"] annotation *asserts* that the
   function contains an unbounded/retry cycle — the lock-free
   baselines' deref retries are what the paper measures against, so a
   regression to bounded is also a finding. *)

open Parsetree
open Source

(* ---------------- Result types ------------------------------------ *)

type level = Bounded | Helping | Retry | Unbounded
type contract = Wait_free | Lock_free | Blocking

let level_rank = function
  | Bounded -> 0
  | Helping -> 1
  | Retry -> 2
  | Unbounded -> 3

let level_name = function
  | Bounded -> "statically-bounded"
  | Helping -> "helping-bounded"
  | Retry -> "cas-retry"
  | Unbounded -> "unbounded"

let contract_name = function
  | Wait_free -> "wait_free"
  | Lock_free -> "lock_free"
  | Blocking -> "blocking"

(* The worst level a contract admits. *)
let contract_allows = function
  | Wait_free -> Helping
  | Lock_free -> Retry
  | Blocking -> Unbounded

type cls = {
  c_file : string;
  c_func : string; (* qualified name, e.g. "free_push.push" *)
  c_line : int;
  c_kind : string; (* "for" | "while" | "recursion" | "mutual-recursion" *)
  c_level : level;
  c_evidence : string;
}

type violation = { v_file : string; v_line : int; v_msg : string }

type report = {
  files : (string * contract) list;
  classifications : cls list;
  expectations : (string * string * bool) list;
      (* file, function, satisfied *)
  violations : violation list;
}

(* ---------------- Attributes -------------------------------------- *)

let string_payload (a : attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let file_contract (str : structure) =
  List.find_map
    (fun it ->
      match it.pstr_desc with
      | Pstr_attribute a when a.attr_name.txt = "wfrc.progress" -> (
          match string_payload a with
          | Some "wait_free" -> Some Wait_free
          | Some "lock_free" -> Some Lock_free
          | Some "blocking" -> Some Blocking
          | _ -> None)
      | _ -> None)
    str

let binding_annot name (attrs : attributes) =
  List.find_map
    (fun a ->
      if a.attr_name.txt = name then
        Some (Option.value (string_payload a) ~default:"")
      else None)
    attrs

(* ---------------- Unit extraction --------------------------------- *)

(* A "unit" is one analyzable function: a top-level binding (including
   inside functor/module bodies) or a local let/let rec function. *)

type unit_t = {
  u_file : string;
  u_name : string; (* qualified display name, "parent.child" for locals *)
  u_key : string; (* bare binding name, for call resolution *)
  u_line : int;
  u_params : (string option * string) list; (* label, pattern var *)
  u_body : expression;
  u_bounded : string option;
  u_expect : string option;
  u_toplevel : bool;
  mutable u_scope : (string * int) list; (* visible name -> unit index *)
  mutable u_children : (string * int) list; (* own locals *)
}

let is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* Extract all units of one file. Returns the units (indexed by
   position) and a skip-set of sub-unit body locations: when walking
   one unit's body, nested units' bodies are someone else's problem. *)
let extract_units file (str : structure) =
  let units : unit_t array ref = ref [||] in
  let push u =
    let i = Array.length !units in
    units := Array.append !units [| u |];
    i
  in
  let skip : (Location.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let make ~toplevel ~prefix (vb : value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = key; _ } when is_function vb.pvb_expr ->
        let params, body = strip_params [] vb.pvb_expr in
        let params =
          match body.pexp_desc with
          | Pexp_function _ -> params @ [ (None, "_fnarg") ]
          | _ -> params
        in
        Hashtbl.replace skip body.pexp_loc ();
        Some
          (push
             {
               u_file = file;
               u_name = (if prefix = "" then key else prefix ^ "." ^ key);
               u_key = key;
               u_line = vb.pvb_loc.loc_start.pos_lnum;
               u_params = params;
               u_body = body;
               u_bounded = binding_annot "wfrc.bounded" vb.pvb_attributes;
               u_expect =
                 binding_annot "wfrc.expect_unbounded" vb.pvb_attributes;
               u_toplevel = toplevel;
               u_scope = [];
               u_children = [];
             })
    | _ -> None
  in
  (* Scan one unit's body for local function bindings; [owner] is the
     enclosing unit's index, [scope] its visible names. *)
  let rec scan_body ~owner ~scope (e : expression) =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            match e.pexp_desc with
            | Pexp_let (_, vbs, cont) ->
                let made =
                  List.filter_map
                    (fun vb ->
                      match
                        make ~toplevel:false
                          ~prefix:!units.(owner).u_name vb
                      with
                      | Some i -> Some (vb, i)
                      | None -> None)
                    vbs
                in
                let scope' =
                  List.fold_left
                    (fun sc (_, i) -> (!units.(i).u_key, i) :: sc)
                    scope made
                in
                List.iter
                  (fun (_, i) ->
                    !units.(i).u_scope <- scope';
                    !units.(owner).u_children <-
                      (!units.(i).u_key, i) :: !units.(owner).u_children)
                  made;
                List.iter
                  (fun vb ->
                    match List.assq_opt vb made with
                    | Some i -> scan_body ~owner:i ~scope:scope' vb.pvb_expr
                    | None -> self.expr self vb.pvb_expr)
                  vbs;
                self.expr self cont
            | _ -> Ast_iterator.default_iterator.expr self e);
      }
    in
    (* enter through the body even though its own loc is skip-listed *)
    match e.pexp_desc with
    | _ -> it.expr it e
  in
  let rec scan_structure ~scope (str : structure) =
    let top = ref scope in
    let made = ref [] in
    List.iter
      (fun it ->
        match it.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match make ~toplevel:true ~prefix:"" vb with
                | Some i ->
                    top := (!units.(i).u_key, i) :: !top;
                    made := (vb, i) :: !made
                | None -> ())
              vbs
        | _ -> ())
      str;
    List.iter (fun (_, i) -> !units.(i).u_scope <- !top) !made;
    List.iter
      (fun it ->
        match it.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match List.assq_opt vb !made with
                | Some i -> scan_body ~owner:i ~scope:!top vb.pvb_expr
                | None -> ())
              vbs
        | Pstr_module mb -> scan_module ~scope:!top mb.pmb_expr
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> scan_module ~scope:!top mb.pmb_expr) mbs
        | _ -> ())
      str
  and scan_module ~scope (m : module_expr) =
    match m.pmod_desc with
    | Pmod_structure s -> scan_structure ~scope s
    | Pmod_functor (_, body) -> scan_module ~scope body
    | Pmod_constraint (m, _) -> scan_module ~scope m
    | _ -> ()
  in
  scan_structure ~scope:[] str;
  (!units, skip)

(* ---------------- Expression queries ------------------------------ *)

let cas_names =
  [ "cas"; "cas_link"; "cas_mm_ref"; "compare_and_set"; "compare_exchange" ]

let advance_names =
  [ "cas"; "cas_link"; "cas_mm_ref"; "faa"; "faa_mm_ref"; "bump_mod" ]

let helping_vocab = [ "help"; "donate"; "adopt"; "ann" ]

let has_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
  in
  go 0

let applied_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.last txt)
  | _ -> None

exception Found

(* Does [e] contain an application of a function named in [names]? *)
let contains_apply_of names e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _)
            when (match applied_name f with
                 | Some n -> List.mem n names
                 | None -> false) ->
              raise Found
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

let mentions_ident v e =
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

(* An `(x + k) mod n`-shaped subexpression: the round-robin advance. *)
let contains_round_robin e =
  let rec rr e =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "mod"; _ }; _ },
          [ (_, a); _ ] ) ->
        contains_apply_of [ "+" ] a
    | Pexp_constraint (a, _) | Pexp_open (_, a) -> rr a
    | _ -> false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          if rr e then raise Found;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

(* ---------------- while-loop classification ------------------------ *)

(* Counter lvalues a while-condition can bound: `!r`, `e.f`. *)
type lvalue = Ref of string | Field of string

let as_lvalue e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) ]
      ) ->
      Some (Ref x)
  | Pexp_field (_, { txt; _ }) -> Some (Field (Longident.last txt))
  | _ -> None

let lvalue_name = function Ref x -> "!" ^ x | Field f -> "." ^ f
let comparison_ops = [ "<"; ">"; "<="; ">="; "<>"; "=" ]

(* The counter lvalues compared anywhere inside [cond]. *)
let compared_lvalues cond =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args)
            when (match applied_name f with
                 | Some n -> List.mem n comparison_ops
                 | None -> false) ->
              List.iter
                (fun (_, a) ->
                  match as_lvalue a with
                  | Some lv -> out := lv :: !out
                  | None -> ())
                args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it cond;
  !out

(* Does [body] strictly advance [lv]: incr/decr, `r := ... + ...`, or
   `e.f <- ... e.f ... +- ...`? *)
let advances lv body =
  let hit e =
    match (lv, e.pexp_desc) with
    | ( Ref x,
        Pexp_apply
          ( {
              pexp_desc =
                Pexp_ident { txt = Longident.Lident ("incr" | "decr"); _ };
              _;
            },
            [
              (_, { pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ });
            ] ) ) ->
        x = y
    | ( Ref x,
        Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
            [
              (_, { pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ });
              (_, rhs);
            ] ) ) ->
        x = y && contains_apply_of [ "+"; "-" ] rhs
    | Field f, Pexp_setfield (_, { txt; _ }, rhs) ->
        Longident.last txt = f && contains_apply_of [ "+"; "-" ] rhs
    | _ -> false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          if hit e then raise Found;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it body;
    false
  with Found -> true

let classify_while cond body =
  if contains_apply_of cas_names cond then
    (Retry, "while-until-CAS: the loop condition re-tries a CAS")
  else
    match
      List.find_opt (fun lv -> advances lv body) (compared_lvalues cond)
    with
    | Some lv ->
        ( Bounded,
          Printf.sprintf
            "while-loop counter '%s' is compared in the condition and \
             strictly advances each iteration"
            (lvalue_name lv) )
    | None ->
        (Unbounded, "while-loop with no advancing counter or CAS witness")

(* ---------------- Recursion: site collection ----------------------- *)

type site = { s_args : (Asttypes.arg_label * expression) list; s_cas : bool }

(* Collect applications of [key] inside [body], tracking whether each
   site sits in a branch governed by a CAS outcome, and whether the
   name escapes as a non-applied identifier (higher-order recursion,
   e.g. `List.iter drop xs`). Skips nested unit bodies. *)
let self_sites ~skip ~root key body =
  let sites = ref [] in
  let ho = ref false in
  let rec go cas e =
    if e != root && Hashtbl.mem skip e.pexp_loc then ()
    else
      match e.pexp_desc with
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt = Longident.Lident n; _ }; _ }, args)
        ->
          if n = key then sites := { s_args = args; s_cas = cas } :: !sites;
          List.iter (fun (_, a) -> go cas a) args
      | Pexp_ident { txt = Longident.Lident n; _ } when n = key -> ho := true
      | Pexp_ifthenelse (c, th, el) ->
          go cas c;
          let branch_cas = cas || contains_apply_of cas_names c in
          go branch_cas th;
          Option.iter (go branch_cas) el
      | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
          go cas scr;
          let branch_cas = cas || contains_apply_of cas_names scr in
          List.iter (fun c -> go branch_cas c.pc_rhs) cases
      | Pexp_let (_, vbs, cont) ->
          List.iter (fun vb -> go cas vb.pvb_expr) vbs;
          go cas cont
      | Pexp_sequence (a, b) ->
          go cas a;
          go cas b
      | Pexp_apply (f, args) ->
          go cas f;
          List.iter (fun (_, a) -> go cas a) args
      | Pexp_fun (_, _, _, b) -> go cas b
      | Pexp_function cases -> List.iter (fun c -> go cas c.pc_rhs) cases
      | Pexp_while (c, b) ->
          go cas c;
          go cas b
      | Pexp_for (_, a, b, _, bd) ->
          go cas a;
          go cas b;
          go cas bd
      | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> go cas a
      | Pexp_tuple es | Pexp_array es -> List.iter (go cas) es
      | Pexp_record (fs, base) ->
          List.iter (fun (_, a) -> go cas a) fs;
          Option.iter (go cas) base
      | Pexp_field (a, _) -> go cas a
      | Pexp_setfield (a, _, b) ->
          go cas a;
          go cas b
      | Pexp_constraint (a, _)
      | Pexp_coerce (a, _, _)
      | Pexp_open (_, a)
      | Pexp_letmodule (_, _, a)
      | Pexp_letexception (_, a)
      | Pexp_lazy a | Pexp_assert a ->
          go cas a
      | _ -> ()
  in
  go false body;
  (List.rev !sites, !ho)

(* The argument a site supplies for a parameter: by label, or by
   position among the site's positional arguments. *)
let site_arg lbl ~pos (s : site) =
  match lbl with
  | Some l ->
      List.find_map
        (fun (al, a) ->
          match al with
          | Asttypes.Labelled l' | Asttypes.Optional l' when l' = l -> Some a
          | _ -> None)
        s.s_args
  | None ->
      let positional =
        List.filter_map
          (fun (al, a) ->
            match al with Asttypes.Nolabel -> Some a | _ -> None)
          s.s_args
      in
      List.nth_opt positional pos

(* `var` (unchanged), `var + k` / `var - k` (advance), other. *)
type arg_shape = Same | Advance of int | Other

let rec arg_shape var e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } when x = var -> Same
  | Pexp_apply
      ( {
          pexp_desc = Pexp_ident { txt = Longident.Lident (("+" | "-") as op); _ };
          _;
        },
        [
          (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ });
          (_, { pexp_desc = Pexp_constant (Pconst_integer (k, _)); _ });
        ] )
    when x = var -> (
      match int_of_string_opt k with
      | Some k when k > 0 -> Advance (if op = "+" then k else -k)
      | _ -> Other)
  | Pexp_constraint (a, _) | Pexp_open (_, a) -> arg_shape var a
  | _ -> Other

(* Is [var] mentioned inside a comparison anywhere in [body]? *)
let guarded var body =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args)
            when (match applied_name f with
                 | Some n -> List.mem n comparison_ops
                 | None -> false) ->
              if List.exists (fun (_, a) -> mentions_ident var a) args then
                raise Found
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it body;
    false
  with Found -> true

(* The helping witness: a vocabulary callee plus a monotone shared
   advance (bump_mod, or a CAS/FAA whose argument is round-robin). *)
let helping_witness ~skip ~root ~self_key body =
  let call = ref None and witness = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          if e != root && Hashtbl.mem skip e.pexp_loc then ()
          else begin
            (match e.pexp_desc with
            | Pexp_apply (f, args) -> (
                (match applied_name f with
                | Some n
                  when n <> self_key
                       && List.exists (has_substring n) helping_vocab ->
                    if !call = None then call := Some n
                | _ -> ());
                match applied_name f with
                | Some n when List.mem n advance_names ->
                    if
                      n = "bump_mod"
                      || List.exists (fun (_, a) -> contains_round_robin a) args
                    then if !witness = None then witness := Some n
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr self e
          end);
    }
  in
  it.expr it body;
  match (!call, !witness) with
  | Some c, Some w -> Some (c, w)
  | _ -> None

(* The fuel/cursor heuristics over one self-recursive unit. *)
let classify_self_recursion (u : unit_t) (sites : site list) ~ho ~skip =
  if sites = [] && not ho then None
  else
    match u.u_bounded with
    | Some ev -> Some (Bounded, Printf.sprintf "[@wfrc.bounded]: %s" ev)
    | None ->
        if ho then
          Some
            ( Unbounded,
              Printf.sprintf
                "'%s' recurs through a higher-order call; no bounding \
                 witness visible"
                u.u_key )
        else
          let body = u.u_body in
          let n_positional = ref (-1) in
          let try_param (lbl, var) =
            if lbl = None then incr n_positional;
            let pos = !n_positional in
            if var = "_" then None
            else
              let shapes =
                List.map
                  (fun s ->
                    match site_arg lbl ~pos s with
                    | Some a -> arg_shape var a
                    | None -> Other)
                  sites
              in
              let no_retreat =
                List.for_all
                  (function Same | Advance _ -> true | Other -> false)
                  shapes
              and advances_only =
                List.for_all (function Advance _ -> true | _ -> false) shapes
              and some_advance =
                List.exists (function Advance _ -> true | _ -> false) shapes
              and same_direction =
                match
                  List.filter_map
                    (function Advance k -> Some (k > 0) | _ -> None)
                    shapes
                with
                | [] -> false
                | s :: rest -> List.for_all (( = ) s) rest
              in
              if not (guarded var body) then None
              else if advances_only && same_direction then
                Some
                  ( Bounded,
                    Printf.sprintf
                      "fuel parameter '%s' advances by a constant at every \
                       recursive site, under a comparison guard"
                      var )
              else if no_retreat && some_advance && same_direction then
                Some
                  ( Bounded,
                    Printf.sprintf
                      "cursor parameter '%s' never retreats and advances on \
                       at least one recursive path, under a comparison guard"
                      var )
              else None
          in
          let rec first_param = function
            | [] -> None
            | p :: rest -> (
                match try_param p with
                | Some r -> Some r
                | None -> first_param rest)
          in
          (match first_param u.u_params with
          | Some r -> Some r
          | None -> (
              match
                helping_witness ~skip ~root:body ~self_key:u.u_key body
              with
              | Some (c, w) ->
                  Some
                    ( Helping,
                      Printf.sprintf
                        "helping call '%s' with monotone shared advance \
                         through '%s' (round-robin witness)"
                        c w )
              | None ->
                  if List.for_all (fun s -> s.s_cas) sites then
                    Some
                      ( Retry,
                        "every recursive site is governed by a CAS outcome \
                         (retry-until-CAS)" )
                  else
                    Some
                      ( Unbounded,
                        Printf.sprintf
                          "recursion on '%s' has no fuel/cursor parameter, \
                           helping witness, or CAS guard"
                          u.u_key )))

(* ---------------- References (for the call graph) ------------------ *)

(* Bare and module-qualified identifiers inside a unit body, skipping
   nested unit bodies. *)
let references ~skip ~root body =
  let bare = ref [] and dotted = ref [] in
  let rec last_mod = function
    | Longident.Lident m -> m
    | Longident.Ldot (_, m) -> m
    | Longident.Lapply (_, r) -> last_mod r
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          if e != root && Hashtbl.mem skip e.pexp_loc then ()
          else begin
            (match e.pexp_desc with
            | Pexp_ident { txt = Longident.Lident n; _ } -> bare := n :: !bare
            | Pexp_ident { txt = Longident.Ldot (path, n); _ } ->
                dotted := (last_mod path, n) :: !dotted
            | _ -> ());
            Ast_iterator.default_iterator.expr self e
          end);
    }
  in
  it.expr it body;
  (!bare, !dotted)

(* ---------------- Tarjan SCC (callees-first output) ---------------- *)

let sccs n edges =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      edges.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  List.rev !out (* sinks (callees) first *)

(* ---------------- The analysis ------------------------------------ *)

let analyze ~roots =
  let files = List.sort compare (List.fold_left collect_ml [] roots) in
  let parsed =
    List.filter_map
      (fun f ->
        match parse_file f with
        | s -> Some (f, s)
        | exception _ -> None (* the protocol pass reports parse errors *))
      files
  in
  let universe =
    List.filter_map
      (fun (f, s) ->
        match file_contract s with
        | Some c -> Some (f, c, s)
        | None -> None)
      parsed
  in
  (* units, globally indexed; per-file skip tables *)
  let skips = Hashtbl.create 16 in
  let units, offsets =
    let acc = ref [] and offs = Hashtbl.create 16 and n = ref 0 in
    List.iter
      (fun (f, _, s) ->
        let us, skip = extract_units f s in
        Hashtbl.replace skips f skip;
        Hashtbl.replace offs f !n;
        n := !n + Array.length us;
        acc := us :: !acc)
      universe;
    (Array.concat (List.rev !acc), offs)
  in
  let n = Array.length units in
  let global i file = Hashtbl.find offsets file + i in
  let file_of_module = Hashtbl.create 16 in
  List.iter
    (fun (f, _, _) -> Hashtbl.replace file_of_module (module_of_file f) f)
    universe;
  let toplevel = Hashtbl.create 64 in
  Array.iteri
    (fun i u ->
      if u.u_toplevel then Hashtbl.replace toplevel (u.u_file, u.u_key) i)
    units;
  (* edges (a unit's scope/children indices are file-local: offset them) *)
  let edges = Array.make n [] in
  let add_edge i j =
    if j <> i && not (List.mem j edges.(i)) then edges.(i) <- j :: edges.(i)
  in
  Array.iteri
    (fun i u ->
      let skip = Hashtbl.find skips u.u_file in
      let bare, dotted = references ~skip ~root:u.u_body u.u_body in
      List.iter
        (fun nme ->
          match List.assoc_opt nme u.u_children with
          | Some local -> add_edge i (global local u.u_file)
          | None -> (
              match List.assoc_opt nme u.u_scope with
              | Some local -> add_edge i (global local u.u_file)
              | None -> ()))
        bare;
      List.iter
        (fun (m, nme) ->
          match Hashtbl.find_opt file_of_module m with
          | Some f -> (
              match Hashtbl.find_opt toplevel (f, nme) with
              | Some j -> add_edge i j
              | None -> ())
          | None -> ())
        dotted)
    units;
  (* per-unit own cycles *)
  let classifications = ref [] in
  let own_level = Array.make n Bounded in
  let own_blame = Array.make n "" in
  Array.iteri
    (fun i u ->
      let skip = Hashtbl.find skips u.u_file in
      let record ~line ~kind (lvl, ev) =
        classifications :=
          {
            c_file = u.u_file;
            c_func = u.u_name;
            c_line = line;
            c_kind = kind;
            c_level = lvl;
            c_evidence = ev;
          }
          :: !classifications;
        if level_rank lvl > level_rank own_level.(i) then begin
          own_level.(i) <- lvl;
          own_blame.(i) <-
            Printf.sprintf "%s cycle at line %d: %s" kind line ev
        end
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              if e != u.u_body && Hashtbl.mem skip e.pexp_loc then ()
              else begin
                (match e.pexp_desc with
                | Pexp_for _ ->
                    record ~line:e.pexp_loc.loc_start.pos_lnum ~kind:"for"
                      (Bounded, "for-loop: bounds are evaluated once")
                | Pexp_while (c, b) ->
                    record ~line:e.pexp_loc.loc_start.pos_lnum ~kind:"while"
                      (match u.u_bounded with
                      | Some ev when fst (classify_while c b) <> Bounded ->
                          (Bounded, Printf.sprintf "[@wfrc.bounded]: %s" ev)
                      | _ -> classify_while c b)
                | _ -> ());
                Ast_iterator.default_iterator.expr self e
              end);
        }
      in
      it.expr it u.u_body;
      let sites, ho = self_sites ~skip ~root:u.u_body u.u_key u.u_body in
      match classify_self_recursion u sites ~ho ~skip with
      | Some r -> record ~line:u.u_line ~kind:"recursion" r
      | None -> ())
    units;
  (* SCC condensation: mutual cycles + worst-level propagation *)
  let comps = sccs n edges in
  let summary = Array.make n Bounded in
  let blame = Array.make n "" in
  List.iter
    (fun comp ->
      let mutual =
        match comp with
        | [ _ ] -> None
        | _ ->
            let members = List.map (fun i -> units.(i)) comp in
            let cycle_names =
              String.concat " -> "
                (List.map (fun (u : unit_t) -> u.u_name) members)
            in
            let r =
              match
                List.find_map (fun (u : unit_t) -> u.u_bounded) members
              with
              | Some ev -> (Bounded, Printf.sprintf "[@wfrc.bounded]: %s" ev)
              | None ->
                  let helping =
                    List.exists
                      (fun (u : unit_t) ->
                        let skip = Hashtbl.find skips u.u_file in
                        let bare, dotted =
                          references ~skip ~root:u.u_body u.u_body
                        in
                        List.exists
                          (fun nme ->
                            nme <> u.u_key
                            && List.exists (has_substring nme) helping_vocab)
                          (bare @ List.map snd dotted))
                      members
                  in
                  if helping then
                    (Helping, Printf.sprintf "mutual helping cycle: %s" cycle_names)
                  else
                    ( Unbounded,
                      Printf.sprintf
                        "mutual recursion (%s) with no bounding witness"
                        cycle_names )
            in
            let u0 = List.hd members in
            classifications :=
              {
                c_file = u0.u_file;
                c_func = u0.u_name;
                c_line = u0.u_line;
                c_kind = "mutual-recursion";
                c_level = fst r;
                c_evidence = snd r;
              }
              :: !classifications;
            Some r
      in
      let lvl = ref Bounded and why = ref "" in
      let bump l w =
        if level_rank l > level_rank !lvl then begin
          lvl := l;
          why := w
        end
      in
      List.iter
        (fun i ->
          bump own_level.(i) own_blame.(i);
          (match mutual with Some (l, w) -> bump l w | None -> ());
          List.iter
            (fun j ->
              if not (List.mem j comp) then
                bump summary.(j)
                  (Printf.sprintf "calls %s.%s which is %s%s"
                     (module_of_file units.(j).u_file)
                     units.(j).u_name
                     (level_name summary.(j))
                     (if blame.(j) = "" then "" else " (" ^ blame.(j) ^ ")")))
            edges.(i))
        comp;
      List.iter
        (fun i ->
          let u = units.(i) in
          if u.u_bounded <> None then begin
            summary.(i) <- Bounded;
            blame.(i) <- ""
          end
          else if u.u_expect <> None then begin
            summary.(i) <-
              (if level_rank !lvl > level_rank Retry then Retry else !lvl);
            blame.(i) <- Printf.sprintf "expected-unbounded '%s'" u.u_name
          end
          else begin
            summary.(i) <- !lvl;
            blame.(i) <- !why
          end)
        comp)
    comps;
  (* expectation assertions: the annotated function must still contain
     an unbounded/retry cycle (directly or through its callees) *)
  let raw i =
    let l = ref own_level.(i) in
    List.iter
      (fun j -> if level_rank summary.(j) > level_rank !l then l := summary.(j))
      edges.(i);
    !l
  in
  let violations = ref [] in
  let expectations = ref [] in
  Array.iteri
    (fun i u ->
      match u.u_expect with
      | None -> ()
      | Some reason ->
          let satisfied = level_rank (raw i) >= level_rank Retry in
          expectations := (u.u_file, u.u_name, satisfied) :: !expectations;
          if not satisfied then
            violations :=
              {
                v_file = u.u_file;
                v_line = u.u_line;
                v_msg =
                  Printf.sprintf
                    "'%s' is annotated [@@wfrc.expect_unbounded \"%s\"] but \
                     every cycle in it is now bounded — the baseline no \
                     longer measures what the paper compares against"
                    u.u_name reason;
              }
              :: !violations)
    units;
  (* contract checks over every top-level function of a contracted file *)
  Array.iteri
    (fun i u ->
      if u.u_toplevel && u.u_expect = None && u.u_bounded = None then
        match
          List.find_map
            (fun (f, c, _) -> if f = u.u_file then Some c else None)
            universe
        with
        | None -> ()
        | Some c ->
            if level_rank summary.(i) > level_rank (contract_allows c) then
              violations :=
                {
                  v_file = u.u_file;
                  v_line = u.u_line;
                  v_msg =
                    Printf.sprintf "'%s' is %s but the file's contract is %s: %s"
                      u.u_name
                      (level_name summary.(i))
                      (contract_name c) blame.(i);
                }
                :: !violations)
    units;
  {
    files = List.map (fun (f, c, _) -> (f, c)) universe;
    classifications =
      List.sort
        (fun a b ->
          compare (a.c_file, a.c_line, a.c_func) (b.c_file, b.c_line, b.c_func))
        !classifications;
    expectations = List.sort compare !expectations;
    violations =
      List.sort
        (fun a b ->
          compare (a.v_file, a.v_line, a.v_msg) (b.v_file, b.v_line, b.v_msg))
        !violations;
  }

let pp_cls c =
  Printf.sprintf "%s:%d: %s [%s/%s] %s" c.c_file c.c_line c.c_func c.c_kind
    (level_name c.c_level) c.c_evidence
