(* Differential properties for the fused C stubs: each generates a word
   state and the stub's arguments, runs the Sim arm (the OCaml
   sequence over [int Atomic.t] cells) and the Native arm (the stub
   over raw blocks), and requires the same results and the same final
   value in every word.

   The generator is seeded from QCHECK_SEED when it is set, otherwise
   at random; a failure prints the shrunk case and the seed, and

     QCHECK_SEED=<seed> dune exec test/test_main.exe -- test stubs

   replays the same cases and the same shrink. *)

open Helpers
module Gc = Wfrc.Gc
module Ann = Wfrc.Ann
module B = Atomics.Backend

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> int_of_string s
  | None -> Random.State.bits (Random.State.make_self_init ())

(* [f] returns the mismatches between the arms; none is a pass. *)
let prop ?(count = 300) name arb f =
  let check case =
    match f case with
    | [] -> true
    | diffs ->
        QCheck.Test.fail_reportf "%s@.replay: QCHECK_SEED=%d"
          (String.concat "; " diffs) seed
  in
  let n, _, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| seed |])
      (QCheck.Test.make ~count ~name arb check)
  in
  (n, `Quick, run)

(* Named word lists, compared pointwise. *)
let diff_words sim native =
  List.concat
    (List.map2
       (fun (name, s) (_, n) ->
         if s = n then [] else [ Printf.sprintf "%s: sim %d, native %d" name s n ])
       sim native)

(* Every announcement word: annIndex, annReadAddr and annBusy. *)
let ann_words ann =
  let n = Ann.threads ann in
  List.concat
    (List.init n (fun id ->
         (Printf.sprintf "annIndex[%d]" id, Ann.read_index ann ~id)
         :: List.concat
              (List.init n (fun s ->
                   [
                     ( Printf.sprintf "annReadAddr[%d][%d]" id s,
                       Ann.read_slot ann ~id ~slot:s );
                     ( Printf.sprintf "annBusy[%d][%d]" id s,
                       Ann.read_busy ann ~id ~slot:s );
                   ]))))

(* A slot word from a small code: [v < 0] announces the link [v]
   encodes, [v > 0] is a helper's answer [v], 0 leaves the slot empty.
   Only the pool's own operations write it, so the Sim arm's D2 shadow
   stays in step with the cells. *)
let set_slot ann ~id ~slot v =
  if v < 0 then Ann.announce ann ~tid:id ~slot (Value.dec_link v)
  else if v > 0 then begin
    Ann.announce ann ~tid:id ~slot 0;
    ignore (Ann.answer_cas ann ~id ~slot ~link:0 v)
  end

(* ---- DeRefLink D1–D6: [Words.deref_link] against the Sim sequence -- *)

let cap = 4
let num_roots = 2

(* (threads - 1, caller, index, busy row, slot row, link, target,
   mark, target mm_ref). The link is a root or link 0 of a node;
   target 0 is null. Rows are 4 wide and cut to the thread count.
   Every range holds 0, which is where QCheck's integer shrinker
   heads. *)
let deref_case =
  QCheck.(
    tup9 (int_range 0 3) (int_range 0 3) (int_range 0 3)
      (list_of_size (Gen.return 4) (int_range 0 2))
      (list_of_size (Gen.return 4) (int_range (-4) 4))
      (int_range 0 (num_roots + cap - 1))
      (int_range 0 cap) bool (int_range 0 6))

let deref_setup backend (n, tid, index, busy, slots, link, target, mark, rc) =
  let n = n + 1 in
  let gc =
    Gc.create
      (Mm_intf.config ~backend ~threads:n ~capacity:cap ~num_links:1
         ~num_data:1 ~num_roots ())
  in
  let ann = Gc.announcements gc and arena = Gc.arena gc in
  let tid = tid mod n in
  List.iteri
    (fun s b ->
      if s < n then
        for _ = 1 to b do
          Ann.busy_incr ann ~id:tid ~slot:s
        done)
    busy;
  Ann.set_index ann ~tid (index mod n);
  List.iteri (fun s v -> if s < n then set_slot ann ~id:tid ~slot:s v) slots;
  let link =
    if link < num_roots then Arena.root_addr arena link
    else Arena.link_addr arena (Value.of_handle (link - num_roots + 1)) 0
  in
  if target > 0 then begin
    let p = Value.of_handle target in
    Arena.write arena link (if mark then Value.mark p else p);
    Arena.write arena (Arena.mm_ref_addr arena p) rc
  end;
  (gc, tid, link)

let gc_words gc =
  let arena = Gc.arena gc in
  ann_words (Gc.announcements gc)
  @ List.init (Arena.num_roots arena) (fun r ->
        (Printf.sprintf "root[%d]" r, Arena.read arena (Arena.root_addr arena r)))
  @ List.concat
      (List.init (Arena.capacity arena) (fun i ->
           let p = Value.of_handle (i + 1) in
           let field f v = (Printf.sprintf "node%d.%s" (i + 1) f, v) in
           [
             field "mm_ref" (Arena.read_mm_ref arena p);
             field "mm_next" (Arena.read_mm_next arena p);
             field "link0" (Arena.read_link arena p 0);
             field "data0" (Arena.read_data arena p 0);
           ]))

let deref_run backend case =
  let gc, tid, link = deref_setup backend case in
  (* Link addresses are physical, so n1 is compared as "the link's own
     encoding" or as the word itself. *)
  let r =
    match Gc.deref_d1_d6 gc ~tid link with
    | n1, node, slot ->
        Printf.sprintf "n1 %s, node %d, slot %d"
          (if n1 = Value.enc_link link then "own link" else string_of_int n1)
          node slot
    | exception Failure m -> "failure: " ^ m
  in
  (r, gc_words gc)

let deref_prop =
  prop "deref_link = the Sim D1-D6 sequence, word for word" deref_case
    (fun case ->
      let rs, ws = deref_run B.Sim case in
      let rn, wn = deref_run B.Native case in
      (if rs = rn then [] else [ Printf.sprintf "sim %s; native %s" rs rn ])
      @ diff_words ws wn)

(* ---- The H2+H3 sweep: [Words.ann_scan] against the Cells arm ------ *)

(* (threads - 1, every row's index — possibly out of range —, every
   slot word row-major on a 4-wide grid, cursor, target link). *)
let scan_case =
  QCheck.(
    quad (int_range 0 3)
      (list_of_size (Gen.return 4) (int_range (-1) 4))
      (list_of_size (Gen.return 16) (int_range (-3) 3))
      (pair (int_range 0 4) (int_range 0 2)))

let scan_run backend (n, index, slots, (from, target)) =
  let n = n + 1 in
  let ann = Ann.create ~backend ~threads:n () in
  List.iteri (fun id i -> if id < n then Ann.set_index ann ~tid:id i) index;
  List.iteri
    (fun k v ->
      let id = k / 4 and slot = k mod 4 in
      if id < n && slot < n then set_slot ann ~id ~slot v)
    slots;
  let hit =
    Ann.scan_announced ann ~from:(min from n) (Value.enc_link target)
  in
  (hit, ann_words ann)

let scan_prop =
  prop "ann_scan = the Cells H2+H3 sweep" scan_case (fun case ->
      let hs, ws = scan_run B.Sim case in
      let hn, wn = scan_run B.Native case in
      (if hs = hn then [] else [ Printf.sprintf "row: sim %d, native %d" hs hn ])
      @ diff_words ws wn)

(* ---- AllocNode A4 and FreeNode's hand-off: [Words.take_fix] and
   [Words.free_park] against their Sim arms ------------------------- *)

(* A client script step: (op, tid, a, b). Op 0 allocates, op 1
   releases held reference [a], op 2 stores held reference [b] (or
   null) into link [a] — a root or link 0 of a held node. Every
   release that reclaims a node parks it in the freeing thread's own
   [annAlloc] cell when that is empty ([free_park]), and A10 successes
   donate to a peer's empty cell; the next alloc of the cell's owner
   takes it back ([take_fix]). Indices are taken modulo what is held,
   so every script is a legal sequential client. *)
let script_case =
  QCheck.(
    pair (int_range 0 2)
      (list_of_size
         Gen.(int_range 1 40)
         (quad (int_range 0 2) (int_range 0 2) (int_range 0 7) (int_range 0 7))))

let script_cap = 6

(* Runs the script on a fresh manager and returns, per step, what the
   step did and every arena word plus the [annAlloc] custody after
   it. *)
let script_run backend (n, steps) =
  let n = n + 1 in
  let t =
    Wfrc.create
      (Mm_intf.config ~backend ~threads:n ~capacity:script_cap ~num_links:1
         ~num_data:1 ~num_roots ())
  in
  let arena = Gc.arena t in
  let held = ref [] in
  let nth i = List.nth !held (i mod List.length !held) in
  let drop i =
    let i = i mod List.length !held in
    held := List.filteri (fun j _ -> j <> i) !held
  in
  let step (op, tid, a, b) =
    let tid = tid mod n in
    match op with
    | 0 -> (
        match Wfrc.alloc t ~tid with
        | p ->
            held := !held @ [ p ];
            Printf.sprintf "alloc t%d #%d" tid (Value.handle p)
        | exception Mm_intf.Out_of_memory ->
            Printf.sprintf "alloc t%d oom" tid)
    | 1 when !held <> [] ->
        let p = nth a in
        drop a;
        Wfrc.release t ~tid p;
        Printf.sprintf "release t%d #%d" tid (Value.handle p)
    | 2 ->
        let k = a mod (num_roots + List.length !held) in
        let link =
          if k < num_roots then Arena.root_addr arena k
          else Arena.link_addr arena (List.nth !held (k - num_roots)) 0
        in
        let v = if !held = [] || b = 0 then Value.null else nth b in
        Wfrc.store_link t ~tid link v;
        Printf.sprintf "store t%d %d <- #%d" tid k
          (if Value.is_null v then 0 else Value.handle v)
    | _ -> "skip"
  in
  List.map
    (fun st ->
      let did = step st in
      let c = Gc.custody t in
      let pending =
        List.map
          (fun (tid, h) -> (Printf.sprintf "annAlloc[%d]" tid, h))
          (List.sort compare c.Mm_intf.pending)
      in
      (did, gc_words t @ pending))
    steps

let alloc_free_prop =
  prop "take_fix and free_park = their Sim arms over alloc/release scripts"
    script_case (fun case ->
      let rec first i = function
        | (ds, ws) :: s, (dn, wn) :: n -> (
            let diffs =
              (if ds = dn then []
               else [ Printf.sprintf "sim %s; native %s" ds dn ])
              @
              if List.map fst ws = List.map fst wn then diff_words ws wn
              else [ "annAlloc custody differs" ]
            in
            match diffs with
            | [] -> first (i + 1) (s, n)
            | d -> Printf.sprintf "step %d (%s)" i ds :: d)
        | _ -> []
      in
      first 0 (script_run B.Sim case, script_run B.Native case))

(* ---- ReleaseRef R1–R3: [Words.release_collect] against the Sim arm - *)

(* (links per node, the released node's handle - 1, its mm_ref, its
   link words). A link word [v] is null for 0, node [v] for [v > 0]
   and node [-v] marked for [v < 0]. *)
let collect_case =
  QCheck.(
    quad (int_range 0 3) (int_range 0 (cap - 1)) (int_range 0 6)
      (list_of_size (Gen.return 3) (int_range (-cap) cap)))

(* Never a link word, so a deposit cannot be mistaken for it. *)
let untouched = min_int

let collect_run backend (nl, target, rc, links) =
  let arena =
    Arena.create ~backend
      ~layout:(Shmem.Layout.create ~num_links:nl ~num_data:1)
      ~capacity:cap ~num_roots ()
  in
  (* non-zero data words, so a collect that runs past the links shows *)
  for h = 1 to cap do
    Arena.write_data arena (Value.of_handle h) 0 (100 + h)
  done;
  let p = Value.of_handle (target + 1) in
  Arena.write arena (Arena.mm_ref_addr arena p) rc;
  List.iteri
    (fun i v ->
      if i < nl && v <> 0 then
        let q = Value.of_handle (abs v) in
        Arena.write_link arena p i (if v < 0 then Value.mark q else q))
    links;
  (* longer than [nl], as the managers' padded buffers are *)
  let out = Array.make (nl + B.cache_line_words) untouched in
  let count = Arena.release_collect arena p ~out in
  let words =
    List.concat
      (List.init cap (fun i ->
           let q = Value.of_handle (i + 1) in
           let field f v = (Printf.sprintf "node%d.%s" (i + 1) f, v) in
           field "mm_ref" (Arena.read_mm_ref arena q)
           :: field "mm_next" (Arena.read_mm_next arena q)
           :: field "data0" (Arena.read_data arena q 0)
           :: List.init nl (fun l ->
                  field (Printf.sprintf "link%d" l) (Arena.read_link arena q l))))
  in
  let deposits =
    List.mapi (fun i v -> (Printf.sprintf "out[%d]" i, v)) (Array.to_list out)
  in
  (count, words @ deposits, out)

let collect_prop =
  prop "release_collect = the Sim R1-R3 sequence, word for word" collect_case
    (fun ((nl, _, _, _) as case) ->
      let cs, ws, _ = collect_run B.Sim case in
      let cn, wn, out = collect_run B.Native case in
      let padding =
        List.filter_map
          (fun i ->
            if out.(i) = untouched then None
            else Some (Printf.sprintf "native wrote padding out[%d]" i))
          (List.init (Array.length out - nl) (fun k -> nl + k))
      in
      (if cs = cn then []
       else [ Printf.sprintf "count: sim %d, native %d" cs cn ])
      @ diff_words ws wn @ padding)

let suite = [ deref_prop; scan_prop; alloc_free_prop; collect_prop ]
