(* Lock-free skiplist priority queue in the style of Sundell & Tsigas
   [18] — the workload the paper's §5 evaluation plugged the wait-free
   memory manager into.

   Deletion protocol: delete-min claims the first live node by setting
   the mark bit on its level-0 next link (the linearisation of the
   deletion), then marks the upper levels, then physically unlinks via
   a search pass. Traversals help by unlinking any marked node they
   pass (the link CASes move the links' reference shares internally).

   Scheme restriction: this structure relies on reference counting —
   a marked node can transiently remain reachable after its unlink
   pass (a racing unlink of its predecessor can re-expose it), which
   reference counts tolerate but [terminate]-driven schemes (hazard
   pointers, epochs) do not. That is precisely the applicability gap
   the paper's §1 describes for fixed-reference schemes; [create]
   therefore refuses non-RC managers. [terminate] is never called.

   Node layout: links 0..max_level-1 = next pointers; data 0 = key,
   data 1 = value, data 2 = level. Keys must be < max_int (the search
   pass for physical deletion probes key+1). Duplicate keys are
   allowed; equal keys are delivered in arbitrary relative order. *)

module Mm = Mm_intf
module Value = Shmem.Value
module Arena = Shmem.Arena

exception Restart

type t = {
  mm : Mm.instance;
  max_level : int;
  head : Value.ptr; (* immortal sentinel, key = min_int *)
  tail : Value.ptr; (* immortal sentinel, key = max_int *)
  rngs : Sched.Rng.t array;
}

let rc_schemes = [ "wfrc"; "lfrc"; "lockrc" ]

let create mm ~seed ~tid =
  if not (List.mem (Mm.name mm) rc_schemes) then
    invalid_arg
      ("Pqueue.create: scheme '" ^ Mm.name mm
     ^ "' does not support arbitrary structures (needs reference counting)");
  let arena = Mm.arena mm in
  let layout = Arena.layout arena in
  let max_level = Shmem.Layout.num_links layout in
  if max_level < 1 then invalid_arg "Pqueue.create: layout needs links";
  if Shmem.Layout.num_data layout < 3 then
    invalid_arg "Pqueue.create: layout needs key/value/level data words";
  let cfg = Mm.conf mm in
  let head = Mm.alloc mm ~tid in
  let tail = Mm.alloc mm ~tid in
  Arena.write_data arena head 0 min_int;
  Arena.write_data arena head 2 max_level;
  Arena.write_data arena tail 0 max_int;
  Arena.write_data arena tail 2 max_level;
  for i = 0 to max_level - 1 do
    Mm.store_link mm ~tid (Arena.link_addr arena tail i) Value.null;
    Mm.store_link mm ~tid (Arena.link_addr arena head i) tail
  done;
  Mm.make_immortal mm ~tid head;
  Mm.make_immortal mm ~tid tail;
  (* head/tail keep their allocation references forever: immortal. *)
  {
    mm;
    max_level;
    head;
    tail;
    (* each draw rewrites the generator's state word: one padded
       record per thread *)
    rngs =
      Array.init cfg.threads (fun i ->
          Atomics.Backend.padded (Sched.Rng.create (seed + (i * 7919))));
  }

let head_ptr t = t.head

let scratch_blocks t =
  List.init (Array.length t.rngs) (fun tid ->
      Atomics.Backend.owned ~owner:tid "rng" ~used:1 t.rngs.(tid))

let key t p = Arena.read_data (Mm.arena t.mm) (Value.unmark p) 0
let level_of t p = Arena.read_data (Mm.arena t.mm) (Value.unmark p) 2
let next_addr t p i = Arena.link_addr (Mm.arena t.mm) (Value.unmark p) i

(* Geometric level in [1, max_level]. *)
let random_level t ~tid =
  let rng = t.rngs.(tid) in
  let rec go l = if l < t.max_level && Sched.Rng.bool rng then go (l + 1) else l in
  go 1

let release t ~tid p = if not (Value.is_null p) then Mm.release t.mm ~tid p

(* Walk level [i] from [pred] (whose reference we consume) to the
   first live node with key >= k, unlinking marked nodes en route.
   Returns references on both (pred', succ). Raises [Restart] (with
   everything released) if the walk loses its footing. *)
let rec walk_level t ~tid i k pred =
  let w = Mm.deref t.mm ~tid (next_addr t pred i) in
  if Value.is_marked w then begin
    (* pred itself has been deleted at this level. *)
    release t ~tid w;
    release t ~tid pred;
    raise Restart
  end
  else begin
    let x = w in
    (* Level-i successors are never null: tail bounds every level. *)
    if x = t.tail || key t x >= k then (pred, x)
    else begin
      let xn = Mm.deref t.mm ~tid (next_addr t x i) in
      if Value.is_marked xn then begin
        (* x is deleted: unlink it at this level. *)
        let ok =
          Mm.cas_link t.mm ~tid (next_addr t pred i) ~old:x
            ~nw:(Value.unmark xn)
        in
        release t ~tid xn;
        release t ~tid x;
        if ok then walk_level t ~tid i k pred
        else begin
          release t ~tid pred;
          raise Restart
        end
      end
      else begin
        release t ~tid xn;
        release t ~tid pred;
        walk_level t ~tid i k x
      end
    end
  end

(* Full search: per-level (pred, succ) pairs with references held on
   every entry. The caller must release all 2*max_level references. *)
let search t ~tid k =
  let l = t.max_level in
  let preds = Array.make l Value.null in
  let succs = Array.make l Value.null in
  let release_filled from =
    for i = from to l - 1 do
      release t ~tid preds.(i);
      release t ~tid succs.(i);
      preds.(i) <- Value.null;
      succs.(i) <- Value.null
    done
  in
  let rec attempt () =
    match
      let pred = ref (Mm.copy_ref t.mm ~tid t.head) in
      for i = l - 1 downto 0 do
        let p, s = walk_level t ~tid i k !pred in
        preds.(i) <- p;
        succs.(i) <- s;
        if i > 0 then pred := Mm.copy_ref t.mm ~tid p
      done
    with
    | () -> (preds, succs)
    | exception Restart ->
        (* walk_level released its own references; drop the filled
           upper levels and start over. *)
        release_filled 0;
        attempt ()
  in
  attempt ()

let release_search t ~tid (preds, succs) =
  Array.iter (fun p -> release t ~tid p) preds;
  Array.iter (fun p -> release t ~tid p) succs

let insert t ~tid k v =
  if k = max_int || k = min_int then invalid_arg "Pqueue.insert: key reserved";
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let lvl = random_level t ~tid in
  let n = Mm.alloc t.mm ~tid in
  Arena.write_data arena n 0 k;
  Arena.write_data arena n 1 v;
  Arena.write_data arena n 2 lvl;
  for i = 0 to t.max_level - 1 do
    Mm.store_link t.mm ~tid (next_addr t n i) Value.null
  done;
  (* Link the bottom level; retry with a fresh search on conflict. *)
  let rec link_bottom () =
    let (preds, succs) = search t ~tid k in
    (* Initialise every level's next before the node becomes visible,
       so no link of a visible node is ever null (markable). *)
    for i = 0 to lvl - 1 do
      Mm.store_link t.mm ~tid (next_addr t n i) succs.(i)
    done;
    if Mm.cas_link t.mm ~tid (next_addr t preds.(0) 0) ~old:succs.(0) ~nw:n
    then (preds, succs)
    else begin
      release_search t ~tid (preds, succs);
      link_bottom ()
    end
  in
  let (preds, succs) = link_bottom () in
  let preds = ref preds and succs = ref succs in
  (* Link upper levels; abandon if the node gets deleted meanwhile or
     if a re-search runs into the node itself. Upper levels are a
     performance aid, not a correctness requirement. *)
  (try
     for i = 1 to lvl - 1 do
       let rec link_level () =
         if !preds.(i) = n || !succs.(i) = n then raise Exit;
         let cur = Mm.deref t.mm ~tid (next_addr t n i) in
         if Value.is_marked cur then begin
           release t ~tid cur;
           raise Exit (* node deleted: stop linking *)
         end;
         if cur <> !succs.(i) then begin
           (* Refresh our node's forward pointer first. *)
           let ok =
             Mm.cas_link t.mm ~tid (next_addr t n i) ~old:cur ~nw:(!succs).(i)
           in
           release t ~tid cur;
           if not ok then begin
             release_search t ~tid (!preds, !succs);
             let p, s = search t ~tid k in
             preds := p;
             succs := s;
             link_level ()
           end
           else if
             Mm.cas_link t.mm ~tid
               (next_addr t !preds.(i) i)
               ~old:(!succs).(i) ~nw:n
           then ()
           else begin
             release_search t ~tid (!preds, !succs);
             let p, s = search t ~tid k in
             preds := p;
             succs := s;
             link_level ()
           end
         end
         else begin
           release t ~tid cur;
           if
             Mm.cas_link t.mm ~tid
               (next_addr t !preds.(i) i)
               ~old:(!succs).(i) ~nw:n
           then ()
           else begin
             release_search t ~tid (!preds, !succs);
             let p, s = search t ~tid k in
             preds := p;
             succs := s;
             link_level ()
           end
         end
       in
       link_level ()
     done
   with Exit -> ());
  release_search t ~tid (!preds, !succs);
  Mm.release t.mm ~tid n

(* Mark level [i] of a claimed node (idempotent, helps racers). *)
let mark_level t ~tid x i =
  let rec go () =
    let w = Mm.deref t.mm ~tid (next_addr t x i) in
    if Value.is_marked w then release t ~tid w
    else begin
      let ok =
        Mm.cas_link t.mm ~tid (next_addr t x i) ~old:w ~nw:(Value.mark w)
      in
      release t ~tid w;
      if not ok then go ()
    end
  in
  go ()

let delete_min t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let rec attempt () =
    (* Hunt the first live node at the bottom level. *)
    let rec hunt pred =
      let w = Mm.deref t.mm ~tid (next_addr t pred 0) in
      if Value.is_marked w then begin
        release t ~tid w;
        release t ~tid pred;
        attempt () (* pred deleted under us *)
      end
      else begin
        let x = w in
        if x = t.tail then begin
          release t ~tid x;
          release t ~tid pred;
          None
        end
        else begin
          let xn = Mm.deref t.mm ~tid (next_addr t x 0) in
          if Value.is_marked xn then begin
            (* Already deleted: help unlink and move on. *)
            let ok =
              Mm.cas_link t.mm ~tid (next_addr t pred 0) ~old:x
                ~nw:(Value.unmark xn)
            in
            release t ~tid xn;
            release t ~tid x;
            if ok then hunt pred
            else begin
              release t ~tid pred;
              attempt ()
            end
          end
          else if
            (* Claim: mark the bottom link (deletion linearises here). *)
            Mm.cas_link t.mm ~tid (next_addr t x 0) ~old:xn
              ~nw:(Value.mark xn)
          then begin
            release t ~tid xn;
            release t ~tid pred;
            let k = Arena.read_data arena x 0 in
            let v = Arena.read_data arena x 1 in
            for i = 1 to level_of t x - 1 do
              mark_level t ~tid x i
            done;
            (* Physical deletion: a search past key k unlinks every
               marked node with key <= k it encounters, including x. *)
            release_search t ~tid (search t ~tid (k + 1));
            release t ~tid x;
            Some (k, v)
          end
          else begin
            release t ~tid xn;
            release t ~tid x;
            hunt pred (* claim race: re-examine from same pred *)
          end
        end
      end
    in
    hunt (Mm.copy_ref t.mm ~tid t.head)
  in
  attempt ()

let is_empty t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  (* Empty iff the first live bottom-level node is the tail. *)
  let rec go pred =
    let w = Mm.deref t.mm ~tid (next_addr t pred 0) in
    if Value.is_marked w then begin
      release t ~tid w;
      release t ~tid pred;
      go (Mm.copy_ref t.mm ~tid t.head)
    end
    else begin
      let x = w in
      if x = t.tail then begin
        release t ~tid x;
        release t ~tid pred;
        true
      end
      else begin
        let xn = Mm.deref t.mm ~tid (next_addr t x 0) in
        let deleted = Value.is_marked xn in
        release t ~tid xn;
        if deleted then begin
          (* Skip the logically deleted node and keep walking. *)
          release t ~tid pred;
          go x
        end
        else begin
          release t ~tid x;
          release t ~tid pred;
          false
        end
      end
    end
  in
  go (Mm.copy_ref t.mm ~tid t.head)

let drain t ~tid =
  let rec go acc = match delete_min t ~tid with
    | None -> List.rev acc
    | Some kv -> go (kv :: acc)
  in
  let out = go [] in
  (* Physical-deletion sweep: a node that lost the insert-vs-delete
     race can remain linked at an upper level until some traversal
     passes it; one full search unlinks every marked node at every
     level, releasing the last structure-held references. *)
  Mm.enter_op t.mm ~tid;
  (* k = max_int: only the tail sentinel satisfies key >= k, so the
     walk passes (and cleans) every user node, including key
     max_int - 1. *)
  release_search t ~tid (search t ~tid max_int);
  Mm.exit_op t.mm ~tid;
  out
