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
  let nl = Shmem.Layout.num_links (Arena.layout arena) in
  ann_words (Gc.announcements gc)
  @ List.init (Arena.num_roots arena) (fun r ->
        (Printf.sprintf "root[%d]" r, Arena.read arena (Arena.root_addr arena r)))
  @ List.concat
      (List.init (Arena.capacity arena) (fun i ->
           let p = Value.of_handle (i + 1) in
           let field f v = (Printf.sprintf "node%d.%s" (i + 1) f, v) in
           field "mm_ref" (Arena.read_mm_ref arena p)
           :: field "mm_next" (Arena.read_mm_next arena p)
           :: field "data0" (Arena.read_data arena p 0)
           :: List.init nl (fun l ->
                  field (Printf.sprintf "link%d" l) (Arena.read_link arena p l))))

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

(* ---- AllocNode A4, FreeNode's hand-off and ReleaseRef's cascade:
   [Words.take_fix] and [Words.release_park] through [Wfrc] scripts - *)

(* A client script step: (op, tid, a, b). Op 0 allocates, op 1
   releases held reference [a], op 2 stores held reference [b] (or
   null) into link [a] — a root or any link of a held node. Every
   release that reclaims a node parks it in the freeing thread's own
   [annAlloc] cell when that is empty ([release_park]), and A10
   successes donate to a peer's empty cell; the next alloc of the
   cell's owner takes it back ([take_fix]). A release that drops the
   last reference to a node whose links hold the last references to
   others reclaims the whole tree in one call, through [release_park]
   and the R3 work stack. Indices are taken modulo what is held, so
   every script is a legal sequential client. The case is (threads - 1,
   links per node - 1, steps). *)
let script_case =
  QCheck.(
    triple (int_range 0 2) (int_range 0 2)
      (list_of_size
         Gen.(int_range 1 60)
         (quad (int_range 0 2) (int_range 0 2) (int_range 0 15)
            (int_range 0 15))))

let script_cap = 16

(* Whether [target]'s links reach [node]: storing [target] into one of
   [node]'s links would close a cycle, which no release reclaims. *)
let reaches arena ~nl target node =
  let seen = Array.make (Arena.capacity arena + 1) false in
  let rec go p =
    (not (Value.is_null p))
    &&
    let p = Value.unmark p in
    Value.handle p = Value.handle node
    || ((not seen.(Value.handle p))
       && begin
            seen.(Value.handle p) <- true;
            List.exists (fun l -> go (Arena.read_link arena p l))
              (List.init nl Fun.id)
          end)
  in
  go target

(* Runs the script on a fresh manager, then drains it (every root
   stored null, every held reference released). Returns, per step, what
   the step did and every arena word plus the [annAlloc] custody after
   it, and what the drain left: the script never closes a cycle, so it
   must leave every node free and [validate] passing. *)
let script_run backend (n, nl, steps) =
  let n = n + 1 and nl = nl + 1 in
  let t =
    Wfrc.create
      (Mm_intf.config ~backend ~threads:n ~capacity:script_cap ~num_links:nl
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
        | exception Mm_intf.Out_of_nodes _ ->
            Printf.sprintf "alloc t%d oom" tid)
    | 1 when !held <> [] ->
        let p = nth a in
        drop a;
        Wfrc.release t ~tid p;
        Printf.sprintf "release t%d #%d" tid (Value.handle p)
    | 2 ->
        let k = a mod (num_roots + (nl * List.length !held)) in
        let link, owner =
          if k < num_roots then (Arena.root_addr arena k, None)
          else
            let p = List.nth !held ((k - num_roots) / nl) in
            (Arena.link_addr arena p ((k - num_roots) mod nl), Some p)
        in
        let v = if !held = [] || b = 0 then Value.null else nth b in
        let v =
          match owner with
          | Some p when reaches arena ~nl v p -> Value.null
          | _ -> v
        in
        Wfrc.store_link t ~tid link v;
        Printf.sprintf "store t%d %d <- #%d" tid k
          (if Value.is_null v then 0 else Value.handle v)
    | _ -> "skip"
  in
  let drain () =
    for r = 0 to num_roots - 1 do
      Wfrc.store_link t ~tid:0 (Arena.root_addr arena r) Value.null
    done;
    List.iter (Wfrc.release t ~tid:0) !held;
    held := [];
    "drain"
  in
  let words did =
    let pending =
      List.map
        (fun (tid, h) -> (Printf.sprintf "annAlloc[%d]" tid, h))
        (List.sort compare (Gc.custody t).Mm_intf.pending)
    in
    (did, gc_words t @ pending)
  in
  let trace = List.map (fun st -> words (step st)) steps in
  let trace = trace @ [ words (drain ()) ] in
  let free = Mm_intf.count_free (Gc.custody t) in
  let valid = match Gc.validate t with () -> "" | exception Failure m -> m in
  (trace, free, valid)

let alloc_free_prop =
  prop
    "take_fix and release_park = their Sim arms over alloc/release/store_link \
     scripts, release cascades included"
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
      let drained arm (_, free, valid) =
        (if free = script_cap then []
         else
           [ Printf.sprintf "%s: %d of %d nodes free after the drain" arm free
               script_cap ])
        @ if valid = "" then [] else [ Printf.sprintf "%s: %s" arm valid ]
      in
      let ((ts, _, _) as sim) = script_run B.Sim case in
      let ((tn, _, _) as native) = script_run B.Native case in
      match first 0 (ts, tn) with
      | [] -> drained "sim" sim @ drained "native" native
      | d -> d)

(* ---- A cascade that outgrows the R3 work stack -------------------- *)

(* A caterpillar of [spine] nodes, each holding two leaves in links 0
   and 1 and the next spine node in link 2, reachable from one held
   reference. Releasing it pops a spine node and pushes its three
   links; the last link, the next spine node, is popped first, so the
   leaves pile up two per spine node and the stack passes the 64
   entries each thread's stack starts with. *)
let spine = 40

let caterpillar_run backend =
  let t =
    Wfrc.create
      (Mm_intf.config ~backend ~threads:1 ~capacity:(3 * spine) ~num_links:3
         ~num_data:1 ~num_roots ())
  in
  let arena = Gc.arena t in
  let hang p l q =
    Wfrc.store_link t ~tid:0 (Arena.link_addr arena p l) q;
    Wfrc.release t ~tid:0 q
  in
  let rec build k below =
    let p = Wfrc.alloc t ~tid:0 in
    hang p 0 (Wfrc.alloc t ~tid:0);
    hang p 1 (Wfrc.alloc t ~tid:0);
    if not (Value.is_null below) then hang p 2 below;
    if k = 1 then p else build (k - 1) p
  in
  let top = build spine Value.null in
  (* The work stack's high-water mark, replayed over the arena words:
     R3 pushes a reclaimed node's non-null links in link order. *)
  let rec depth stack hi =
    match stack with
    | [] -> hi
    | p :: rest ->
        let links =
          List.filter_map
            (fun l ->
              let q = Arena.read_link arena p l in
              if Value.is_null q then None else Some (Value.unmark q))
            [ 0; 1; 2 ]
        in
        let stack = List.rev_append links rest in
        depth stack (max hi (List.length stack))
  in
  let deepest = depth [ top ] 1 in
  Wfrc.release t ~tid:0 top;
  let words = gc_words t in
  let free = Mm_intf.count_free (Gc.custody t) in
  Gc.validate t;
  (deepest, free, words)

let test_deep_cascade () =
  let ds, fs, ws = caterpillar_run B.Sim in
  let dn, fn, wn = caterpillar_run B.Native in
  check_bool
    (Printf.sprintf "the cascade reaches %d work-stack entries (> 64)" ds)
    true (ds > 64 && ds = dn);
  check_int "sim: every node free" (3 * spine) fs;
  check_int "native: every node free" (3 * spine) fn;
  Alcotest.(check (list string)) "sim = native, word for word" []
    (diff_words ws wn)

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

(* A [cap]-node arena with [nl] links per node and non-zero data
   words, so a collect that runs past the links shows. *)
let link_arena backend nl =
  let arena =
    Arena.create ~backend
      ~layout:(Shmem.Layout.create ~num_links:nl ~num_data:1)
      ~capacity:cap ~num_roots ()
  in
  for h = 1 to cap do
    Arena.write_data arena (Value.of_handle h) 0 (100 + h)
  done;
  arena

(* A link word from a small code: null for 0, node [v] for [v > 0]
   and node [-v] marked for [v < 0]. *)
let link_word v =
  if v = 0 then Value.null
  else
    let q = Value.of_handle (abs v) in
    if v < 0 then Value.mark q else q

let node_words arena ~nl =
  List.concat
    (List.init cap (fun i ->
         let q = Value.of_handle (i + 1) in
         let field f v = (Printf.sprintf "node%d.%s" (i + 1) f, v) in
         field "mm_ref" (Arena.read_mm_ref arena q)
         :: field "mm_next" (Arena.read_mm_next arena q)
         :: field "data0" (Arena.read_data arena q 0)
         :: List.init nl (fun l ->
                field (Printf.sprintf "link%d" l) (Arena.read_link arena q l))))

let collect_run backend (nl, target, rc, links) =
  let arena = link_arena backend nl in
  let p = Value.of_handle (target + 1) in
  Arena.write arena (Arena.mm_ref_addr arena p) rc;
  List.iteri (fun i v -> if i < nl then Arena.write_link arena p i (link_word v))
    links;
  (* longer than [nl], as the managers' padded buffers are *)
  let out = Array.make (nl + B.cache_line_words) untouched in
  let count = Arena.release_collect arena p ~out in
  let words = node_words arena ~nl in
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

(* ---- ReleaseRef R1–R3 and FreeNode's own-cell park:
   [Words.release_park] through [Gc.release_park] against the Sim
   sequence ([Arena.release_collect]'s Cells arm, then the park) --- *)

(* (tid, links per node - 1, the released node's count — 2, 4 or 1,
   the last an allocator-claimed node — and whether a stale D5 +2 sits
   on it, whether the thread's [annAlloc] cell is filled first, whether
   the hand-off is on — off, the stub's cell is -1 — and the node's link
   words, coded as in [collect_case]). *)
let park_case =
  QCheck.(
    tup6 (int_range 0 1) (int_range 0 2)
      (pair (int_range 0 2) bool)
      bool bool
      (list_of_size (Gen.return 3) (int_range (-cap) cap)))

let park_run backend (tid, nl, (count, stale), filled, help, links) =
  let nl = nl + 1 in
  let t =
    Gc.create ~help_alloc:help
      (Mm_intf.config ~backend ~threads:2 ~capacity:cap ~num_links:nl
         ~num_data:1 ~num_roots ())
  in
  let arena = Gc.arena t in
  for h = 1 to cap do
    Arena.write_data arena (Value.of_handle h) 0 (100 + h)
  done;
  (* A release of a node the thread just allocated fills its cell
     (when the hand-off is on). *)
  if filled then Gc.release t ~tid (Gc.alloc t ~tid);
  let p = Gc.alloc t ~tid in
  Arena.write arena (Arena.mm_ref_addr arena p)
    ([| 2; 4; 1 |].(count) + if stale then 2 else 0);
  List.iteri
    (fun i v -> if i < nl then Arena.write_link arena p i (link_word v))
    links;
  let out = Array.make (nl + B.cache_line_words) untouched in
  let r = Gc.release_park t ~tid p ~out in
  let cells =
    List.map
      (fun (id, h) -> (Printf.sprintf "annAlloc[%d]" id, h))
      (List.sort compare (Gc.custody t).Mm_intf.pending)
  in
  let deposits =
    List.mapi (fun i v -> (Printf.sprintf "out[%d]" i, v)) (Array.to_list out)
  in
  (r, gc_words t @ deposits, cells)

let park_prop =
  prop "release_park = the Sim R1-R3 and own-cell park, word for word"
    park_case (fun case ->
      let rs, ws, cs = park_run B.Sim case in
      let rn, wn, cn = park_run B.Native case in
      (if rs = rn then []
       else [ Printf.sprintf "returned: sim %d, native %d" rs rn ])
      @ diff_words ws wn
      @ if cs = cn then [] else [ "annAlloc cells differ" ])

(* ---- R3's per-link collect: [Words.read_clear] through
   [Arena.read_clear_link] against the Cells arm -------------------- *)

(* (links per node - 1, every node's link words on a 3-wide grid,
   coded as in [collect_case], then the (node, link) pairs to clear in
   order; a link index is taken modulo the link count, so a pair can
   clear the same word twice). *)
let clear_case =
  QCheck.(
    triple (int_range 0 2)
      (list_of_size (Gen.return (cap * 3)) (int_range (-cap) cap))
      (list_of_size
         Gen.(int_range 1 8)
         (pair (int_range 0 (cap - 1)) (int_range 0 2))))

let clear_run backend (nl, links, clears) =
  let nl = nl + 1 in
  let arena = link_arena backend nl in
  for h = 1 to cap do
    let p = Value.of_handle h in
    Arena.write arena (Arena.mm_ref_addr arena p) h
  done;
  List.iteri
    (fun k v ->
      let h = (k / 3) + 1 and l = k mod 3 in
      if l < nl then Arena.write_link arena (Value.of_handle h) l (link_word v))
    links;
  let got =
    List.map
      (fun (h, l) ->
        Arena.read_clear_link arena (Value.of_handle (h + 1)) (l mod nl))
      clears
  in
  (got, node_words arena ~nl)

let clear_prop =
  prop "read_clear = the Cells R3 load and store, word for word" clear_case
    (fun case ->
      let gs, ws = clear_run B.Sim case in
      let gn, wn = clear_run B.Native case in
      List.concat
        (List.mapi
           (fun i (s, n) ->
             if s = n then []
             else [ Printf.sprintf "clear %d: sim %d, native %d" i s n ])
           (List.combine gs gn))
      @ diff_words ws wn)

(* ---- A4's collect: [Words.take] through [Hot.take] against the
   Cells arm ------------------------------------------------------- *)

module Hot = Atomics.Hot

(* (slots - 1, script). A step (op, slot, v) writes [v] into the slot
   for op 0 and takes it for op 1; a slot is taken modulo the count. *)
let take_case =
  QCheck.(
    pair (int_range 0 3)
      (list_of_size
         Gen.(int_range 1 20)
         (triple (int_range 0 1) (int_range 0 3) (int_range (-3) 5))))

(* Per step what it did, then every slot word and, under [Native],
   every padding word of the raw block that is not 0. *)
let take_run backend (n, steps) =
  let n = n + 1 in
  let hot = Hot.create ~backend n ~init:(fun _ -> 0) in
  let did =
    List.map
      (fun (op, slot, v) ->
        let slot = slot mod n in
        if op = 0 then begin
          Hot.write hot slot v;
          Printf.sprintf "write %d <- %d" slot v
        end
        else Printf.sprintf "take %d = %d" slot (Hot.take hot slot))
      steps
  in
  let words =
    List.init n (fun i -> (Printf.sprintf "slot[%d]" i, Hot.read hot i))
  in
  let stray =
    match Hot.raw hot with
    | None -> []
    | Some w ->
        List.filter_map
          (fun j ->
            if j mod B.cache_line_words = 0 || Atomics.Words.get w j = 0 then
              None
            else Some (Printf.sprintf "native wrote padding word %d" j))
          (List.init (Atomics.Words.length w) Fun.id)
  in
  (did, words, stray)

let take_prop =
  prop "take = the Cells A4 read and exchange, word for word" take_case
    (fun case ->
      let ds, ws, _ = take_run B.Sim case in
      let dn, wn, stray = take_run B.Native case in
      List.concat
        (List.map2
           (fun s n ->
             if s = n then [] else [ Printf.sprintf "sim %s; native %s" s n ])
           ds dn)
      @ diff_words ws wn @ stray)

let suite =
  [
    deref_prop;
    scan_prop;
    alloc_free_prop;
    ("a release cascade deeper than the R3 work stack's 64 entries, sim = native",
     `Quick, test_deep_cascade);
    collect_prop;
    park_prop;
    clear_prop;
    take_prop;
  ]
