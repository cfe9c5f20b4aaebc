(* Lock-free ordered set (dictionary) — Michael's list-based set
   (PODC 2002 [11]), written against the scheme-independent MM
   signature.

   Unlike the multi-level skiplist, this structure is safe on every
   scheme, including the retire-based ones, because it follows
   Michael's discipline exactly:

   - traversal never follows a marked next pointer: it either unlinks
     the marked node (becoming its owner, and thus the one to call
     [terminate]) or restarts from the head;
   - a node is retired precisely once, by the thread whose CAS
     physically unlinked it — at which point it is unreachable.

   That the same client code runs on reference counting, hazard
   pointers and epochs is the §3.2 compatibility story; that the
   skiplist cannot is the §1 applicability story. Together with
   [Pqueue] this repo demonstrates both.

   Client reference discipline (DESIGN.md §6.5): the set takes a
   counted reference only on a node it steps onto, and takes it once.
   A traversal keeps the reference it took on [cur.next] as the next
   step's [cur], as Michael's list advances [cur <- next]; the node it
   stops on has its next word read uncounted, since only the word's
   mark bit is tested. The immortal sentinels are borrowed, never
   counted: the head is nobody's successor, and [succ] hands the tail
   out uncounted (giving back the count when a deref lands on it).

   Node layout: link 0 = next, data 0 = key, data 1 = value. Keys in
   (min_int, max_int) exclusive; head/tail sentinels are immortal. *)

module Mm = Mm_intf
module Value = Shmem.Value
module Arena = Shmem.Arena

exception Restart

type t = {
  mm : Mm.instance;
  arena : Arena.t; (* [Mm.arena mm], fetched once: every step reads it *)
  head : Value.ptr;
  tail : Value.ptr;
}

let create mm ~tid =
  let arena = Mm.arena mm in
  let layout = Arena.layout arena in
  if Shmem.Layout.num_links layout < 1 then
    invalid_arg "Oset.create: layout needs a next link";
  if Shmem.Layout.num_data layout < 2 then
    invalid_arg "Oset.create: layout needs key and value words";
  Mm.enter_op mm ~tid;
  let head = Mm.alloc mm ~tid in
  let tail = Mm.alloc mm ~tid in
  Arena.write_data arena head 0 min_int;
  Arena.write_data arena tail 0 max_int;
  Mm.store_link mm ~tid (Arena.link_addr arena tail 0) Value.null;
  Mm.store_link mm ~tid (Arena.link_addr arena head 0) tail;
  (* Sentinels are permanent: RC keeps the allocation reference, HP
     drops the hazard slot (they are never retired). *)
  Mm.make_immortal mm ~tid head;
  Mm.make_immortal mm ~tid tail;
  Mm.exit_op mm ~tid;
  { mm; arena; head; tail }

let head t = t.head

let key t p = Arena.read_data t.arena (Value.unmark p) 0
let next_addr t p = Arena.link_addr t.arena (Value.unmark p) 0

(* [p] may be a borrowed sentinel, which holds no count. *)
let release t ~tid p =
  if p <> t.head && Value.unmark p <> t.tail && not (Value.is_null p) then
    Mm.release t.mm ~tid p

(* [p]'s next word, counted unless it names the tail, which is
   borrowed like the head. A word naming the tail is returned after a
   plain read; a deref that lands on the tail anyway (a racing remove
   unlinked the last key) gives its count back at once. *)
let succ t ~tid p =
  let a = next_addr t p in
  let w = Arena.read t.arena a in
  if Value.unmark w = t.tail then w
  else begin
    let w = Mm.deref t.mm ~tid a in
    if Value.unmark w = t.tail then Mm.release t.mm ~tid w;
    w
  end

(* Find the position for [k]: returns [(pred, cur)], where [cur] is
   the first node with key >= k and was unmarked when its next word was
   read. Both are held, except that either may be a borrowed sentinel.
   Unlinks (and terminates) marked nodes en route; raises [Restart]
   when the footing is lost.

   [find_from] dereferences [pred]'s link once; [walk] then takes one
   reference per node it steps onto, on [cur.next], and hands it on as
   the next step's [cur]. An unmarked [w] read while [cur] is held
   means [cur] was still in the list at that read (only marked nodes
   are ever unlinked), so [w] was its successor, as if [cur]'s link
   had been read again as the next step's [pred]. After a successful
   unlink CAS the same holds for [pred] and the unlinked node's
   successor. The node the walk stops on has its next word read
   uncounted: that word is the one a deref would have read, and only
   its mark bit is tested. The tail's null link is never read. *)
let rec find_from t ~tid k pred =
  let cur = succ t ~tid pred in
  if Value.is_marked cur then begin
    (* pred itself is deleted *)
    release t ~tid cur;
    release t ~tid pred;
    raise Restart
  end
  else walk t ~tid k pred cur

and walk t ~tid k pred cur =
  (* cur is never null: the tail sentinel bounds the list *)
  if cur = t.tail then (pred, cur)
  else if
    key t cur >= k
    && not (Value.is_marked (Arena.read t.arena (next_addr t cur)))
  then (pred, cur)
  else begin
    (* a step onto [cur.next], or [cur] is marked: a mark is final, so
       an unmarked [w] here comes from a key < k step *)
    let w = succ t ~tid cur in
    if not (Value.is_marked w) then begin
      release t ~tid pred;
      walk t ~tid k cur w
    end
    else begin
      (* cur is logically deleted: unlink it here, or restart *)
      let nxt = Value.unmark w in
      if Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:nxt then begin
        (* we unlinked it: we own the retirement; [w]'s reference
           moves on as the new [cur] *)
        release t ~tid cur;
        Mm.terminate t.mm ~tid cur;
        walk t ~tid k pred nxt
      end
      else begin
        release t ~tid w;
        release t ~tid cur;
        release t ~tid pred;
        raise Restart
      end
    end
  end

let rec find t ~tid k =
  match find_from t ~tid k t.head with
  | res -> res
  | exception Restart -> find t ~tid k

let mem t ~tid k =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let pred, cur = find t ~tid k in
  let found = cur <> t.tail && key t cur = k in
  release t ~tid cur;
  release t ~tid pred;
  found

let lookup t ~tid k =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let pred, cur = find t ~tid k in
  let res =
    if cur <> t.tail && key t cur = k then
      Some (Arena.read_data t.arena cur 1)
    else None
  in
  release t ~tid cur;
  release t ~tid pred;
  res

(* Insert [k -> v]; returns false if [k] is already present. *)
let insert t ~tid k v =
  if k = max_int || k = min_int then invalid_arg "Oset.insert: key reserved";
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let n = ref Value.null in
  let rec attempt () =
    let pred, cur = find t ~tid k in
    if cur <> t.tail && key t cur = k then begin
      release t ~tid cur;
      release t ~tid pred;
      (* undo the speculative allocation, if any *)
      if not (Value.is_null !n) then begin
        Mm.store_link t.mm ~tid (next_addr t !n) Value.null;
        Mm.release t.mm ~tid !n;
        Mm.terminate t.mm ~tid !n
      end;
      false
    end
    else begin
      if Value.is_null !n then begin
        (match Mm.alloc t.mm ~tid with
        | p -> n := p
        | exception e ->
            (* out of nodes: give back the search's references *)
            release t ~tid cur;
            release t ~tid pred;
            raise e);
        Arena.write_data t.arena !n 0 k;
        Arena.write_data t.arena !n 1 v
      end;
      Mm.store_link t.mm ~tid (next_addr t !n) cur;
      let ok = Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:!n in
      release t ~tid cur;
      release t ~tid pred;
      if ok then begin
        Mm.release t.mm ~tid !n;
        true
      end
      else attempt ()
    end
  in
  attempt ()

(* Remove [k]; returns false if absent. *)
let remove t ~tid k =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let rec attempt () =
    let pred, cur = find t ~tid k in
    if cur = t.tail || key t cur <> k then begin
      release t ~tid cur;
      release t ~tid pred;
      false
    end
    else begin
      let w = succ t ~tid cur in
      if Value.is_marked w then begin
        (* someone else is deleting it; let find clean up *)
        release t ~tid w;
        release t ~tid cur;
        release t ~tid pred;
        attempt ()
      end
      else if
        (* logical deletion: mark cur.next *)
        Mm.cas_link t.mm ~tid (next_addr t cur) ~old:w ~nw:(Value.mark w)
      then begin
        (* physical unlink: here, or by a later traversal *)
        if Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:w then begin
          release t ~tid w;
          release t ~tid cur;
          release t ~tid pred;
          Mm.terminate t.mm ~tid cur
        end
        else begin
          release t ~tid w;
          release t ~tid cur;
          release t ~tid pred;
          (* a find pass adopts the unlink (and the terminate) *)
          let p', c' = find t ~tid k in
          release t ~tid c';
          release t ~tid p'
        end;
        true
      end
      else begin
        release t ~tid w;
        release t ~tid cur;
        release t ~tid pred;
        attempt ()
      end
    end
  in
  attempt ()

(* Quiescent ascending key list (sequential contexts only). *)
let to_list t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  (* [w] is [p]'s next word, held; a marked [w] means [p] is deleted,
     not [unmark w] *)
  let rec go acc p w =
    release t ~tid p;
    let u = Value.unmark w in
    if u = t.tail then begin
      release t ~tid w;
      List.rev acc
    end
    else begin
      (* include [u] unless it is itself logically deleted; the
         reference on [un] moves on with [u] *)
      let un = succ t ~tid u in
      let acc =
        if Value.is_marked un then acc
        else
          (Arena.read_data t.arena u 0, Arena.read_data t.arena u 1) :: acc
      in
      go acc w un
    end
  in
  go [] t.head (succ t ~tid t.head)

let size t ~tid = List.length (to_list t ~tid)

(* Remove every element (quiescent teardown helper). *)
let clear t ~tid =
  let rec go n =
    match to_list t ~tid with
    | [] -> n
    | kvs ->
        let removed =
          List.fold_left
            (fun acc (k, _) -> if remove t ~tid k then acc + 1 else acc)
            0 kvs
        in
        go (n + removed)
  in
  go 0
